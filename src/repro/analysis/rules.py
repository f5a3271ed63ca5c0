"""The repo-specific rules, each frozen from a real past bug or a
standing ROADMAP invariant (see ``docs/invariants.md`` for the full
motivation of every rule).

=======  ==================================================================
RPR001   clause intake must go through ``Formula.add_clause`` (PR 1's
         tautology-screening soundness fix, frozen as a lint rule)
RPR002   unbounded solve loops must poll ``should_stop``/cancel (PR 5's
         in-query cancellation gap, frozen as a lint rule)
RPR003   solver-decision code must not iterate raw sets / ``dict.keys()``
         or consult unseeded ``random`` / ``time.time()`` (the
         differential oracle incremental == scratch == exact-dsatur ==
         pb-pbs2 rots silently if decision order drifts)
RPR004   ``preprocess`` calls in incremental/Session/Pool contexts must
         pass ``frozen=`` (pure-literal/variable elimination is unsound
         for variables later used in assumptions or growth clauses)
RPR005   ``CDCLSolver`` is constructed only in ``sat/`` and the backend
         registry chokepoints, so the ROADMAP's compiled ``native`` twin
         can swap in without call-site changes
RPR006   worker payloads crossing a process boundary (``Worker``,
         ``Worker.submit``, ``Process``, pool/executor submits) must be
         top-level picklables (no lambdas / closures)
RPR007   deadline arithmetic must go through ``repro.resilience.Deadline``
         — raw ``time.time()``/``time.monotonic()`` expiry checks outside
         ``resilience/`` re-open the drift/clamping bugs PR 7 unified
         (elapsed-time *measurement* stays allowed)
=======  ==================================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from .core import (
    KIND_NESTED_FUNC,
    KIND_PROCESS_EXECUTOR,
    KIND_THREAD_EXECUTOR,
    KIND_WORKER,
    Finding,
    Rule,
    ScopeResolver,
    SourceFile,
    register_rule,
)

#: Call names that consume an iterable order-insensitively: handing a
#: raw set to these cannot leak iteration order into solver decisions.
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
)


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _describe(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expression>"


# --------------------------------------------------------------------------
# RPR001 — clause intake
# --------------------------------------------------------------------------


@register_rule
class ClauseIntakeRule(Rule):
    """Raw mutation of a ``.clauses`` list bypasses ``add_clause``, where
    a clause becomes canonical (checked literals, sorted by variable, no
    literal repeated); every reader takes a formula's clauses as they
    are."""

    rule_id = "RPR001"
    title = "clause intake must go through Formula.add_clause"
    rationale = (
        "Formula.add_clause is where a clause becomes canonical; readers "
        "take the clause tuples as they are"
    )

    def applies_to(self, rel: str) -> bool:
        # The solver layer and the Formula class itself own the clause
        # list; everyone else is an encoder and must use add_clause.
        return not rel.startswith("sat/") and rel != "core/formula.py"

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "clauses"
                ):
                    yield source.finding(
                        self.rule_id,
                        node,
                        "raw clause-list mutation "
                        f"`{_describe(func.value)}.{func.attr}(...)` bypasses "
                        "add_clause intake (literal checks and "
                        "canonicalization); route the clause through "
                        "Formula.add_clause",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    stored = target
                    if isinstance(stored, ast.Subscript):
                        stored = stored.value
                    if (
                        isinstance(stored, ast.Attribute)
                        and stored.attr == "clauses"
                        and isinstance(stored.value, (ast.Name, ast.Attribute))
                    ):
                        yield source.finding(
                            self.rule_id,
                            node,
                            f"assignment to `{_describe(stored)}` replaces the "
                            "clause list wholesale; build a fresh Formula via "
                            "add_clause so every clause is canonical",
                        )


# --------------------------------------------------------------------------
# RPR002 — cancellation
# --------------------------------------------------------------------------

_SOLVE_NAME_RE = re.compile(
    r"solve|minimi|optimi|search|descent|decide|probe", re.IGNORECASE
)


def _loop_is_unbounded(node: ast.While) -> bool:
    test = node.test
    return isinstance(test, ast.Constant) and bool(test.value)


_STOP_NAME_RE = re.compile(r"stop|cancel", re.IGNORECASE)


def _node_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _expr_mentions_stop_name(node: ast.AST) -> bool:
    return any(
        _STOP_NAME_RE.search(_node_name(sub))
        for sub in ast.walk(node)
        if _node_name(sub)
    )


def _is_none_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _subtree_polls_stop(node: ast.AST) -> bool:
    """True when the loop body actually *consults* a stop/cancel
    callable: calls it, guards a conditional on it, or forwards it into
    a callee.  A bare mention (an unused alias, a string-adjacent name
    like ``early_stop_rounds`` in an assignment target) does not count —
    the loop must be able to exit because of it.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            # Directly calling the stop callable: should_stop() / ctx.cancelled().
            if _STOP_NAME_RE.search(_node_name(sub.func)):
                return True
            # Forwarding it into a callee that polls it for us:
            # solve(..., should_stop=should_stop) / solve(f, should_stop).
            for kw in sub.keywords:
                if (
                    kw.arg is not None
                    and _STOP_NAME_RE.search(kw.arg)
                    and not _is_none_constant(kw.value)
                ):
                    return True
            if any(_STOP_NAME_RE.search(_node_name(arg)) for arg in sub.args):
                return True
        elif isinstance(sub, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            if _expr_mentions_stop_name(sub.test):
                return True
        elif isinstance(sub, ast.comprehension):
            if any(_expr_mentions_stop_name(cond) for cond in sub.ifs):
                return True
    return False


@register_rule
class CancellationRule(Rule):
    """An unbounded ``while True`` loop in a solve path that never
    references ``should_stop``/cancel is exactly the PR 5 gap: one
    monster UNSAT query becomes uninterruptible without a process
    kill."""

    rule_id = "RPR002"
    title = "unbounded solve loops must poll should_stop/cancel"
    rationale = (
        "PR 5 closed the in-query cancellation gap by polling should_stop "
        "inside CDCLSolver.solve; new solve loops must not reopen it"
    )

    _SCOPE_PREFIXES = ("sat/", "pb/", "ilp/")
    _SCOPE_FILES = (
        "api/backends.py",
        "api/session.py",
        "coloring/sat_pipeline.py",
        "coloring/exact_dsatur.py",
        "coloring/coudert.py",
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(self._SCOPE_PREFIXES) or rel in self._SCOPE_FILES

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for func in ast.walk(source.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _SOLVE_NAME_RE.search(func.name):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.While) or not _loop_is_unbounded(node):
                    continue
                if _subtree_polls_stop(node):
                    continue
                yield source.finding(
                    self.rule_id,
                    node,
                    "unbounded `while True` in solve path "
                    f"`{func.name}` never polls should_stop/cancel: one "
                    "long query becomes uninterruptible (thread "
                    "should_stop through and call or guard on it in the "
                    "loop — a bare mention of a stop-ish name no longer "
                    "counts)",
                )


# --------------------------------------------------------------------------
# RPR003 — determinism
# --------------------------------------------------------------------------


#: Package-relative locations whose code feeds solver decisions — the
#: deterministic scope shared by RPR003 (intra-file) and RPR010
#: (interprocedural taint).
DETERMINISTIC_SCOPE_PREFIXES = ("sat/", "symmetry/", "coloring/")


def in_deterministic_scope(rel: str) -> bool:
    """True when ``rel`` is in the deterministic (differential-oracle)
    scope of the codebase."""
    return rel.startswith(DETERMINISTIC_SCOPE_PREFIXES)


def _iter_order_sites(source: SourceFile) -> Iterator[Tuple[ast.expr, str]]:
    """(iterable expression, context description) pairs whose
    iteration order is observable."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.For):
            yield node.iter, "for loop"
        elif isinstance(node, ast.ListComp):
            for gen in node.generators:
                yield gen.iter, "list comprehension"
        elif isinstance(node, ast.GeneratorExp):
            parent = source.parent(node)
            if (
                isinstance(parent, ast.Call)
                and _call_name(parent) in ORDER_INSENSITIVE_CALLS
            ):
                continue  # sum(... for x in s) etc. cannot leak order
            for gen in node.generators:
                yield gen.iter, "generator expression"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple") and len(node.args) == 1:
                yield node.args[0], f"{node.func.id}() conversion"


def iter_nondet_sites(
    source: SourceFile, resolver: ScopeResolver
) -> Iterator[Tuple[ast.AST, str, str]]:
    """Every nondeterminism source in the file, regardless of rule scope.

    Yields ``(node, detail, message)`` triples: ``detail`` is a short
    label used in interprocedural taint witnesses ("iterates set
    `cands`", "`random.shuffle(...)`"), ``message`` the full RPR003
    diagnostic.  :class:`DeterminismRule` reports these inside the
    deterministic scope; fact extraction records them everywhere as
    RPR010 taint roots.
    """
    seen: Set[Tuple[int, str]] = set()
    for iterable, context in _iter_order_sites(source):
        key = (id(iterable), context)
        if key in seen:
            continue
        seen.add(key)
        if resolver.expr_is_set(iterable):
            yield (
                iterable,
                f"iterates set-typed `{_describe(iterable)}`",
                f"{context} iterates set-typed value "
                f"`{_describe(iterable)}` whose order is "
                "hash/insertion-dependent; sort at the iteration site "
                "(`sorted(...)`) so solver decisions are reproducible",
            )
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr == "keys"
            and not iterable.args
        ):
            yield (
                iterable,
                f"iterates `{_describe(iterable)}`",
                f"{context} iterates `{_describe(iterable)}`; iterate "
                "`sorted(...)` instead so the order is pinned by value, "
                "not by insertion history",
            )
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                bad = [a.name for a in node.names if a.name != "Random"]
                if bad:
                    yield (
                        node,
                        f"`from random import {', '.join(bad)}`",
                        f"`from random import {', '.join(bad)}` pulls in "
                        "the shared unseeded RNG; construct a seeded "
                        "random.Random instance instead",
                    )
            if node.module == "time":
                bad = [a.name for a in node.names if a.name == "time"]
                if bad:
                    yield (
                        node,
                        "`from time import time`",
                        "`from time import time` imports the wall clock "
                        "into solver-decision code; use time.monotonic() "
                        "for budgets and keep clocks out of decisions",
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            value = node.func.value
            if not isinstance(value, ast.Name):
                continue
            if value.id == "random" and node.func.attr != "Random":
                yield (
                    node,
                    f"`random.{node.func.attr}(...)`",
                    f"`random.{node.func.attr}(...)` uses the shared "
                    "unseeded RNG: two runs (or two pool workers) "
                    "diverge; use a seeded random.Random instance",
                )
            elif value.id == "time" and node.func.attr == "time":
                yield (
                    node,
                    "`time.time()`",
                    "`time.time()` is the wall clock (NTP slew, DST); "
                    "use time.monotonic() for budgets and keep clocks "
                    "out of solver decisions",
                )


@register_rule
class DeterminismRule(Rule):
    """Solver-decision code feeding the differential oracle must be
    bit-for-bit reproducible: no hash/insertion-ordered iteration, no
    shared-state randomness, no wall clocks in decisions."""

    rule_id = "RPR003"
    title = "solver-decision code must iterate deterministically"
    rationale = (
        "the differential harness (incremental == scratch == exact-dsatur "
        "== pb-pbs2) silently rots when decision order drifts between "
        "runs or interpreter instances"
    )

    def applies_to(self, rel: str) -> bool:
        return in_deterministic_scope(rel)

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for node, _detail, message in iter_nondet_sites(source, resolver):
            yield source.finding(self.rule_id, node, message)


# --------------------------------------------------------------------------
# RPR004 — frozen variables under incremental preprocessing
# --------------------------------------------------------------------------

_INCREMENTAL_SCOPE_RE = re.compile(r"incremental|session|pool", re.IGNORECASE)
_PREPROCESS_NAMES = ("preprocess", "preprocess_cnf")


@register_rule
class FrozenVarsRule(Rule):
    """``preprocess`` runs pure-literal and bounded variable
    elimination, which may resolve away exactly the variables an
    incremental caller later assumes (activation selectors) or
    re-mentions in growth clauses.  PR 5 made the preprocessor
    assumption-aware via ``frozen=``; incremental contexts must use
    it."""

    rule_id = "RPR004"
    title = "incremental preprocess calls must pass frozen="
    rationale = (
        "pure-literal elimination fixes pure activation selectors that "
        "per-query assumptions negate: UNSAT answers with empty cores"
    )

    def applies_to(self, rel: str) -> bool:
        return True

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in _PREPROCESS_NAMES:
                continue
            chain = source.scope_chain(node)
            if not any(_INCREMENTAL_SCOPE_RE.search(name) for name in chain):
                continue
            if any(kw.arg == "frozen" for kw in node.keywords):
                continue
            yield source.finding(
                self.rule_id,
                node,
                f"`{_call_name(node)}(...)` inside incremental context "
                f"`{'.'.join(chain)}` without `frozen=`: variable "
                "elimination may resolve away assumption selectors or "
                "growth variables (pass frozen=<vars the solver will "
                "assume or grow over>)",
            )


# --------------------------------------------------------------------------
# RPR005 — backend registry chokepoint
# --------------------------------------------------------------------------


@register_rule
class BackendRegistryRule(Rule):
    """Direct ``CDCLSolver(...)`` construction outside the solver layer
    pins call sites to the Python engine; routing through the factory /
    Backend registry is what lets the ROADMAP's compiled ``native``
    twin swap in and be differentially verified clause-for-clause."""

    rule_id = "RPR005"
    title = "construct solvers via the registry/factory, not CDCLSolver()"
    rationale = (
        "ROADMAP item 1: the native propagation core replaces the Python "
        "oracle behind the Backend registry; direct construction would "
        "silently keep call sites on the Python engine"
    )

    def applies_to(self, rel: str) -> bool:
        return not rel.startswith("sat/") and rel != "api/backends.py"

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) != "CDCLSolver":
                continue
            yield source.finding(
                self.rule_id,
                node,
                "direct CDCLSolver(...) construction outside sat/ and the "
                "backend registry; use repro.sat.new_solver(...) (the "
                "swappable factory) or route through the Backend registry",
            )


# --------------------------------------------------------------------------
# RPR006 — process-pool boundary
# --------------------------------------------------------------------------

_POOL_SUBMIT_ATTRS = frozenset(
    {
        "Process",
        "Worker",
        "apply_async",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)


@register_rule
class PoolBoundaryRule(Rule):
    """Payloads submitted to process pools are pickled in the parent
    and unpickled in the worker: lambdas and closures fail at submit
    time at best, or silently capture parent-side state (open handles,
    live solvers) at worst.  Worker payloads must be top-level
    picklables, as the targets handed to
    :class:`repro.resilience.Worker` by the batch runner and the
    portfolio race are.  A ``Worker`` call is a pool boundary like a
    ``Process`` call, and so is ``submit`` on a worker (the next job of
    a reused worker, pickled over its pipe): every argument is checked.

    Thread executors are held to the same bar even though the GIL would
    let closures through: every thread fan-out in this codebase is a
    process fan-out waiting to happen (the since-deleted component pool
    made exactly that migration), and a closure at the submission boundary is the
    one thing that blocks it."""

    rule_id = "RPR006"
    title = "executor/pool payloads must be top-level picklables"
    rationale = (
        "the batch fleet and the portfolio race run "
        "work in child processes; a lambda or closure in the submission "
        "path dies in pickle, taking the tier with it — "
        "and thread-executor closures block the thread->process migration"
    )

    def applies_to(self, rel: str) -> bool:
        return True

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            submit_name: Optional[str] = None
            if isinstance(func, ast.Name) and func.id == "Worker":
                submit_name = func.id
            elif isinstance(func, ast.Attribute):
                if func.attr in _POOL_SUBMIT_ATTRS:
                    submit_name = func.attr
                elif (
                    func.attr in ("submit", "map")
                    and isinstance(func.value, ast.Name)
                ):
                    kind = resolver.scope_for(node).kind_of(func.value.id)
                    if kind in (KIND_PROCESS_EXECUTOR, KIND_THREAD_EXECUTOR) or (
                        func.attr == "submit" and kind == KIND_WORKER
                    ):
                        submit_name = func.attr
            if submit_name is None:
                continue
            payloads: List[ast.expr] = list(node.args)
            payloads.extend(kw.value for kw in node.keywords if kw.value)
            for payload in payloads:
                yield from self._check_payload(source, resolver, node, payload, submit_name)

    def _check_payload(
        self,
        source: SourceFile,
        resolver: ScopeResolver,
        call: ast.Call,
        payload: ast.expr,
        submit_name: str,
    ) -> Iterator[Finding]:
        for sub in ast.walk(payload):
            if isinstance(sub, ast.Lambda):
                yield source.finding(
                    self.rule_id,
                    call,
                    f"lambda passed into pool/executor `{submit_name}(...)`: "
                    "lambdas do not pickle — hoist it to a module-level "
                    "function so the fan-out can move to processes",
                )
            elif isinstance(sub, ast.Name):
                info = resolver.scope_for(call)
                if info.kind_of(sub.id) == KIND_NESTED_FUNC:
                    yield source.finding(
                        self.rule_id,
                        call,
                        f"nested function `{sub.id}` passed into "
                        f"pool/executor `{submit_name}(...)`: closures do "
                        "not pickle — hoist it to module level and pass "
                        "state explicitly",
                    )


# --------------------------------------------------------------------------
# RPR007 — deadline arithmetic
# --------------------------------------------------------------------------

#: Statement text that marks a clock expression as *deadline* arithmetic
#: rather than elapsed-time measurement (`seconds = monotonic() - t0`).
_DEADLINE_WORD_RE = re.compile(
    r"time_limit|deadline|timeout|budget|kill_at|remaining|expir", re.IGNORECASE
)


@register_rule
class DeadlineArithmeticRule(Rule):
    """Every stage that hand-rolls ``time.monotonic()`` expiry checks
    reinvents — and subtly diverges on — the same three decisions:
    what ``None`` means, whether a negative remainder clamps to zero,
    and whose clock is consulted (the fault harness can only skew the
    :mod:`repro.resilience` clock seam).  PR 7 unified them behind
    ``Deadline``; raw deadline arithmetic outside ``resilience/``
    re-opens the divergence.  Pure elapsed-time *measurement*
    (``seconds = time.monotonic() - t0``) is deliberately allowed."""

    rule_id = "RPR007"
    title = "deadline arithmetic must go through resilience.Deadline"
    rationale = (
        "PR 7 unified expiry semantics (None = unbounded, clamped "
        "remaining, skewable clock seam) in repro.resilience.Deadline; "
        "hand-rolled monotonic() comparisons drift from them and are "
        "invisible to the fault-injection clock"
    )

    def applies_to(self, rel: str) -> bool:
        # The Deadline implementation itself is the one place allowed
        # to touch the raw clock.
        return not rel.startswith("resilience/")

    def _is_clock_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("time", "monotonic")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        )

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not self._is_clock_call(node):
                continue
            in_compare = False
            in_binop = False
            stmt: Optional[ast.stmt] = None
            current = source.parent(node)
            while current is not None:
                if isinstance(current, ast.Compare):
                    in_compare = True
                elif isinstance(current, ast.BinOp):
                    in_binop = True
                if isinstance(current, ast.stmt):
                    stmt = current
                    break
                current = source.parent(current)
            clock = _describe(node)
            if in_compare:
                yield source.finding(
                    self.rule_id,
                    node,
                    f"`{clock}` compared against a bound is hand-rolled "
                    "deadline arithmetic; build a "
                    "repro.resilience.Deadline and poll "
                    "`deadline.expired()` instead",
                )
            elif in_binop and stmt is not None and _DEADLINE_WORD_RE.search(
                _describe(stmt)
            ):
                yield source.finding(
                    self.rule_id,
                    node,
                    f"`{clock}` feeds budget/deadline arithmetic; use "
                    "repro.resilience.Deadline (`after`/`remaining`/"
                    "`child`) so expiry semantics and the fault-harness "
                    "clock seam stay unified",
                )
