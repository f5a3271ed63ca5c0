"""Interprocedural rules over the project call graph.

Where :mod:`repro.analysis.rules` checks one file at a time, the three
rules here check *call chains*: a cancellation callback dropped at a
module boundary, a deadline that stops flowing downward, a
deterministic-scope function leaning on a helper that is only
transitively nondeterministic.  Each fires at a concrete call site, so
the usual per-line ``# repro: allow[...]`` suppressions apply.
"""

from __future__ import annotations

from typing import Iterator

from .callgraph import CallGraph
from .core import Finding, ProjectRule, register_project_rule
from .rules import in_deterministic_scope


def _site_finding(
    rule_id: str, graph: CallGraph, caller_key: str, line: int, col: int,
    message: str,
) -> Finding:
    node = graph.nodes[caller_key]
    return Finding(
        rule_id=rule_id,
        path=node.path,
        line=line,
        col=col,
        message=message,
    )


@register_project_rule
class CancellationFlowRule(ProjectRule):
    """A function on a solve path that *accepts* a stop callback but
    calls a loop-bearing, stop-accepting callee without forwarding it
    has silently made that subtree uncancellable — the exact bug class
    per-file RPR002 cannot see, because every file looks fine in
    isolation."""

    rule_id = "RPR008"
    title = "cancellation must flow from solve entry points to every loop"
    rationale = (
        "PR 5/6 threaded should_stop through the descents; a wrapper "
        "that accepts the callback and drops it at a module boundary "
        "re-opens the uninterruptible-query gap invisibly to per-file "
        "rules"
    )

    def check_project(self, graph: CallGraph) -> Iterator[Finding]:
        for key in sorted(graph.nodes):
            if key not in graph.reachable and key not in graph.entry_points:
                continue
            if not graph.accepts_stop_effective(key):
                continue
            node = graph.nodes[key]
            for edge in graph.callees_of(key):
                if edge.nested or edge.site.passes_stop:
                    continue
                callee = graph.nodes[edge.callee]
                if not callee.facts.accepts_stop:
                    continue
                if edge.callee not in graph.loop_bearing:
                    continue
                yield _site_finding(
                    self.rule_id,
                    graph,
                    key,
                    edge.site.line,
                    edge.site.col,
                    f"`{node.facts.qname}` accepts a stop/cancel channel "
                    f"but calls loop-bearing `{callee.facts.qname}` "
                    f"({callee.rel}) without forwarding it: the callee "
                    "accepts should_stop/ctx and can block indefinitely, "
                    "so cancellation dies at this call (pass the callback "
                    "or a ctx-derived predicate through)",
                )


@register_project_rule
class DeadlineFlowRule(ProjectRule):
    """A function holding a ``Deadline``/``Budget`` that hands work to
    a transitively blocking callee without giving it a deadline, a
    child, a share, or a remaining-time bound lets that callee outlive
    the budget its caller promised to respect."""

    rule_id = "RPR009"
    title = "deadlines must flow downward into every blocking callee"
    rationale = (
        "PR 7 unified expiry semantics behind Deadline/Budget; a callee "
        "that blocks without receiving deadline/child/share/remaining "
        "breaks anytime degradation for every caller above it"
    )

    def check_project(self, graph: CallGraph) -> Iterator[Finding]:
        for key in sorted(graph.nodes):
            if not graph.accepts_deadline_effective(key):
                continue
            node = graph.nodes[key]
            for edge in graph.callees_of(key):
                if edge.nested or edge.site.passes_deadline:
                    continue
                callee = graph.nodes[edge.callee]
                if not (
                    callee.facts.accepts_deadline
                    or callee.facts.accepts_time_limit
                ):
                    continue
                if edge.callee not in graph.loop_bearing:
                    continue
                yield _site_finding(
                    self.rule_id,
                    graph,
                    key,
                    edge.site.line,
                    edge.site.col,
                    f"`{node.facts.qname}` holds a Deadline/Budget but "
                    f"calls blocking `{callee.facts.qname}` "
                    f"({callee.rel}) without passing a deadline, child, "
                    "share, or time_limit: the callee can outlive the "
                    "caller's budget (pass deadline.remaining()/child()/"
                    "share() or the budget itself)",
                )


@register_project_rule
class TransitiveTaintRule(ProjectRule):
    """Deterministic-scope code calling a helper in another module that
    (transitively) consults unseeded randomness, the wall clock, or
    hash-ordered iteration imports that nondeterminism into solver
    decisions — invisible to per-file RPR003, which only sees the
    caller's own file."""

    rule_id = "RPR010"
    title = "deterministic scope must not call transitively nondeterministic helpers"
    rationale = (
        "the differential oracle (incremental == scratch == exact-dsatur "
        "== pb-pbs2) rots just as silently when the drift hides one "
        "module away; taint is propagated over the call graph with a "
        "witness chain to the root cause"
    )

    def check_project(self, graph: CallGraph) -> Iterator[Finding]:
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            if not in_deterministic_scope(node.rel):
                continue
            for edge in graph.callees_of(key):
                callee = graph.nodes[edge.callee]
                if callee.module == node.module:
                    continue
                if in_deterministic_scope(callee.rel):
                    # The chain will be flagged (or RPR003'd) where it
                    # leaves the deterministic scope, not at every hop.
                    continue
                if not graph.tainted(edge.callee):
                    continue
                witness = graph.taint_witness[edge.callee]
                yield _site_finding(
                    self.rule_id,
                    graph,
                    key,
                    edge.site.line,
                    edge.site.col,
                    f"deterministic-scope `{node.facts.qname}` calls "
                    f"`{callee.facts.qname}` ({callee.rel}), which is "
                    f"transitively nondeterministic: {witness}; sort/seed "
                    "at the source or keep the helper out of "
                    "solver-decision paths",
                )
