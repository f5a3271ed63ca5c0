"""Pure-CNF coloring pipeline: decision K-coloring + repeated SAT calls.

The paper (Section 2.3) contrasts 0-1 ILP solvers, which optimize
directly, with "repeatedly solving instances of the k-coloring using a
SAT solver, with the value of k being updated after each call", and
argues the ILP route tends to win.  This module implements the SAT
route so that claim can be measured.

One private layout, :func:`_lay_out`, writes the decision encoding:
the indicator variables ``x[v][c]``, one exactly-one row per vertex (an
at-least-one clause plus pairwise at-most-one clauses), the edge
conflicts, and the CNF-expressible SBPs (the NU chain over usage
variables, the SC pins of
:func:`repro.coloring.encoding.selective_coloring_pins`).  The three
public encoders are that layout:

* :func:`encode_k_coloring_cnf` — as it is, the formula of one
  decision query (``cdcl-scratch``, CDCL decisions, ``brute``);
* :func:`encode_k_coloring_incremental` — plus per-color activation
  literals (:func:`repro.coloring.encoding.add_color_activation_literals`),
  the formula of the persistent ``cdcl-incremental`` descent;
* :func:`encode_k_coloring_growable` — plus an extension literal in
  every at-least-one row and the activation literals.  No solver loads
  it: it stays only because ``perfbench/tracing.py`` wraps it by name,
  and goes with the next change to that benchmark (ROADMAP item 5).

On top of them:

* :func:`sat_k_colorable` — one decision call on the clause-only CDCL
  solver, with optional CNF preprocessing (full equisatisfiable
  simplification; the forced assignment and eliminated variables are
  folded back into the model before decoding);
* :class:`IncrementalKSearch` — the **incremental** engine for the
  paper's Section 4.1 bound-tightening procedure: the graph is encoded
  *once* at the upper bound, and every K query becomes
  ``solve(assumptions=[-a_{k+1}, ..., -a_ub])`` on one persistent
  :class:`~repro.sat.cdcl.CDCLSolver`, so learned clauses, saved phases
  and VSIDS activity carry over between queries.  UNSAT answers return
  an unsat core over colors (failed assumptions), which the binary
  strategy uses to skip dead K values.  Assumptions are the only way
  it asks a K, for the linear strategy too.  It is the oracle of the
  ``cdcl-incremental`` descent and of a :class:`~repro.api.Session`;
* :func:`chromatic_number_sat` — chromatic number by a descending
  linear or binary search over K, driven by
  :func:`repro.coloring.descent.descend`, which reports each answered
  query to ``on_query``.  ``incremental=True`` (the default, the
  ``cdcl-incremental`` backend) answers every query on one persistent
  solver; ``incremental=False`` (``cdcl-scratch``) builds one fresh
  SAT instance per query, the differential reference.
  Given the kernel :func:`repro.coloring.reduce.kernelize` built at
  the clique bound (the reduce stage's), either oracle queries that
  kernel.  Preprocessing is on by default: the persistent solver's
  encoding goes through the full preprocessor with the activation
  variables the assumptions refer to frozen, so it cannot eliminate
  them — the one preprocessing mode :class:`IncrementalKSearch` has.

Every SAT model is decoded by
:func:`repro.coloring.encoding.decode_indicators`, the helper behind
:func:`~repro.coloring.encoding.decode_coloring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.cnf_encodings import encode_at_most_one_pairwise
from ..core.formula import Formula
from ..graphs.cliques import clique_lower_bound
from ..graphs.coloring_heuristics import dsatur
from ..graphs.graph import Graph
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline
from ..sat.factory import new_solver
from ..sat.preprocessing import preprocess as preprocess_cnf
from ..sat.result import SAT, UNKNOWN, UNSAT, SolverStats
from .descent import Answer, descend
from .encoding import (
    add_color_activation_literals,
    decode_indicators,
    selective_coloring_pins,
)
from .reduce import Kernel, lift

#: The SBP constructions a clause-only encoding can express (CA needs
#: PB constraints; LI needs the optimization encoding).
CNF_SBP_KINDS = ("none", "nu", "sc", "nu+sc")
#: The subset :func:`encode_k_coloring_growable` accepts: SC pins
#: specific colors, which new colors never invalidate; NU chains
#: quantify over the color horizon.
GROWABLE_SBP_KINDS = ("none", "sc")

XVars = Dict[Tuple[int, int], int]


def _lay_out(
    graph: Graph, k: int, sbp_kind: str, growable: bool = False,
) -> Tuple[Formula, XVars, Optional[int]]:
    """The CNF K-coloring layout behind every encoder of this module.

    Returns ``(formula, x_vars, ext)``.  With ``growable`` an extension
    literal ``ext`` is allocated right after the ``x`` variables and
    added to every at-least-one row; otherwise ``ext`` is ``None``.
    """
    kinds = GROWABLE_SBP_KINDS if growable else CNF_SBP_KINDS
    if sbp_kind not in kinds:
        raise ValueError(
            f"the {'growable' if growable else 'CNF'} encoding supports "
            f"sbp_kind in {kinds}, got {sbp_kind!r}"
        )
    formula = Formula()
    n = graph.num_vertices
    colors = range(1, k + 1)
    x: XVars = {}
    for v in range(n):
        for c in colors:
            x[(v, c)] = formula.new_var()
    ext = formula.new_var() if growable else None
    tail = [] if ext is None else [ext]
    for v in range(n):
        lits = [x[(v, c)] for c in colors]
        formula.add_clause(lits + tail)
        encode_at_most_one_pairwise(formula, lits)
    formula.add_clauses(
        (-x[(a, c)], -x[(b, c)]) for a, b in graph.edges() for c in colors
    )
    if sbp_kind in ("nu", "nu+sc"):
        # Usage variables y_c <- any x[v][c]; chain y_{c+1} -> y_c.
        y = {c: formula.new_var() for c in colors}
        usage: List[Tuple[int, ...]] = []
        for c in colors:
            column = [x[(v, c)] for v in range(n)]
            usage.extend((-xv, y[c]) for xv in column)
            usage.append((-y[c], *column))
        usage.extend((-y[c + 1], y[c]) for c in range(1, k))
        formula.add_clauses(usage)
    if sbp_kind in ("sc", "nu+sc"):
        formula.add_clauses(
            (x[(vertex, color)],)
            for vertex, color in selective_coloring_pins(graph, k)
        )
    return formula, x, ext


def encode_k_coloring_cnf(
    graph: Graph, k: int, sbp_kind: str = "none",
) -> Tuple[Formula, XVars]:
    """Pure-CNF decision encoding of K-colorability.

    Returns ``(formula, x_vars)`` with ``x_vars[(v, color)]`` the
    indicator variable (colors 1..k).  ``sbp_kind`` is one of
    :data:`CNF_SBP_KINDS`: ``"nu"`` adds usage variables for its chain,
    ``"sc"`` two unit pins.
    """
    formula, x, _ = _lay_out(graph, k, sbp_kind)
    return formula, x


def encode_k_coloring_incremental(
    graph: Graph, max_k: int, sbp_kind: str = "none",
) -> Tuple[Formula, XVars, Dict[int, int]]:
    """K-coloring encoding at ``max_k`` plus per-color activation literals.

    Returns ``(formula, x_vars, activators)``.  Assuming
    ``-activators[c]`` for every ``c > k`` restricts the encoding to a
    K-coloring instance, so one formula serves the whole descent.
    """
    formula, x, _ = _lay_out(graph, max_k, sbp_kind)
    activators = add_color_activation_literals(
        formula, x, graph.num_vertices, max_k
    )
    return formula, x, activators


def encode_k_coloring_growable(
    graph: Graph, max_k: int, sbp_kind: str = "none",
) -> Tuple[Formula, XVars, Dict[int, int], int]:
    """Growable K-coloring encoding: activation literals *and* an
    at-least-one generation that can be retired when the budget rises.

    No solver loads this encoding any more (a
    :class:`~repro.api.Session` answers budgets at or above its DSATUR
    bound with the DSATUR coloring, so its horizon never grows); it
    stays for the benchmark's per-layer view, which wraps it by name.

    The plain incremental encoding hard-codes the color horizon in the
    per-vertex at-least-one clauses ``(x[v][1] | ... | x[v][max_k])`` —
    once loaded they force every vertex into the first ``max_k`` colors
    forever, so raising the budget would require re-encoding.  Here each
    at-least-one clause instead carries a shared *extension literal*
    ``ext``: ``(x[v][1] | ... | x[v][max_k] | ext)``.  Queries assume
    ``-ext`` (restoring the exact at-least-one semantics); growing the
    budget adds the level-0 unit ``ext`` — vacuously satisfying the old
    generation — and a fresh generation of wider clauses guarded by a
    fresh extension literal.  All other clause groups (at-most-one,
    edge conflicts, activation guards, SC pins) only ever *forbid*
    colors, so they stay valid verbatim as colors are added.
    ``sbp_kind`` is one of :data:`GROWABLE_SBP_KINDS`.

    Returns ``(formula, x_vars, activators, ext)``.
    """
    formula, x, ext = _lay_out(graph, max_k, sbp_kind, growable=True)
    assert ext is not None
    activators = add_color_activation_literals(
        formula, x, graph.num_vertices, max_k
    )
    return formula, x, activators, ext


class IncrementalKSearch:
    """One persistent CDCL solver answering K-colorability for any K <= ub.

    The encoding is built once at ``max_k`` colors; each
    :meth:`solve_k` call assumes the activation literals of colors
    ``k+1..max_k`` negatively.  Between calls the solver keeps its
    learned clauses, saved phases and VSIDS activity, which is where the
    speedup of the incremental descent comes from: a refutation learned
    while answering one K query prunes the next one too.  The horizon
    never grows: its callers build it at a color count a known coloring
    already reaches (the DSATUR bound, or a cap below it), so no query
    they ask lies above it.

    ``preprocess=True`` runs the assumption-aware preprocessor on the
    encoding before loading it: the activation variables are *frozen*,
    and pure-literal elimination plus bounded variable elimination run
    on the rest, with SAT models reconstructed through the elimination
    stack before decoding.  Running the unrestricted preprocessor would
    be unsound here — pure-literal elimination fixes the (pure)
    activation selectors the per-call assumptions negate.
    """

    def __init__(
        self,
        graph: Graph,
        max_k: int,
        sbp_kind: str = "none",
        preprocess: bool = True,
    ):
        self.graph = graph
        self.max_k = max_k
        formula, x, activators = encode_k_coloring_incremental(
            graph, max_k, sbp_kind
        )
        self.x = x
        self.activators = activators
        self.root_unsat = False
        self._pre = None  # PreprocessResult when preprocessing ran
        if preprocess:
            # Assumption-aware preprocessing: freeze the selectors the
            # queries assume.
            pre = preprocess_cnf(formula, frozen=set(activators.values()))
            if pre.is_unsat:
                self.root_unsat = True
            else:
                formula = pre.formula
                self._pre = pre
        self.solver = new_solver(num_vars=formula.num_vars)
        if not self.root_unsat and not self.solver.add_formula(formula):
            self.root_unsat = True
        self.stats = SolverStats()

    def assumptions_for(self, k: int) -> List[int]:
        """The assumption literals that switch off colors above ``k``."""
        return [-self.activators[c] for c in range(k + 1, self.max_k + 1)]

    def _prepare_heuristics(self, k: int) -> None:
        """Re-seed the decision heuristics for the next K query.

        Learned clauses always persist — they are the expensive state —
        but the *decision* state is re-seeded per query: saved phases of
        the coloring variables go back to False (default-phase decisions
        then walk the at-least-one clauses like a greedy coloring, which
        measurably beats repairing the previous, now-infeasible solution
        on SAT chains) and VSIDS activity is reset in place, keeping the
        solver's decay factor.

        The activators of still-active colors are biased True: deciding
        one False would voluntarily disable a live color (the guard
        clauses force every ``x[v][c]`` false) and send the search into
        needless conflicts.
        """
        saved_phase = self.solver.saved_phase
        for c in range(1, k + 1):
            saved_phase[self.activators[c]] = True
        for var in self.x.values():
            saved_phase[var] = False
        self.solver.vsids.reset()

    def solve_k(
        self,
        k: int,
        time_limit: Optional[float] = None,
        should_stop=None,
    ) -> Tuple[str, Optional[Dict[int, int]], List[int]]:
        """Decide K-colorability on the persistent solver.

        Returns ``(status, coloring, failed_colors)``.  ``coloring`` is
        present on SAT; ``failed_colors`` on UNSAT is the sorted set of
        colors in the final-conflict core — the formula is already
        unsatisfiable with just those colors disabled, so every ``k' <
        min(failed_colors)`` is dead too (the unsat core over colors the
        binary descent uses to skip queries).  Every query is an
        assumption query that leaves the formula as it was, so queries
        may come in any order.

        ``should_stop`` is polled inside the solver every few dozen
        conflicts; when it turns true the query returns UNKNOWN (the
        solver survives, learned clauses intact).
        """
        if k > self.max_k:
            raise ValueError(f"k={k} above the encoded bound {self.max_k}")
        if self.root_unsat:
            return UNSAT, None, []
        self._prepare_heuristics(k)
        tracer = active_tracer()
        if tracer is not None:
            tracer.k_query_begin(k)
        result = self.solver.solve(
            assumptions=self.assumptions_for(k), time_limit=time_limit,
            should_stop=should_stop,
        )
        self.stats.merge(result.stats)
        status = SAT if result.is_sat else UNSAT if result.is_unsat else UNKNOWN
        run = result.stats
        if tracer is not None:
            tracer.k_query_end(k, status, run.conflicts, run.decisions,
                               run.propagations, run.restarts)
        get_registry().inc("ksearch_queries_total", status=status)
        get_registry().observe("ksearch_query_conflicts", run.conflicts)
        if result.is_sat:
            model = result.model
            if self._pre is not None:
                # Variables eliminated by the assumption-aware
                # preprocessing are reconstructed before decoding.
                model = self._pre.extend_model(model)
            return SAT, decode_indicators(
                self.x, self.graph.num_vertices, k, model), []
        if result.is_unsat:
            failed = sorted(
                c
                for c, a in self.activators.items()
                if -a in (result.failed_assumptions or ())
            )
            return UNSAT, None, failed
        return UNKNOWN, None, []


def sat_k_colorable(
    graph: Graph,
    k: int,
    time_limit: Optional[float] = None,
    sbp_kind: str = "none",
    preprocess: bool = True,
    should_stop=None,
) -> Tuple[str, Optional[Dict[int, int]], SolverStats, int]:
    """Decide K-colorability with the CNF CDCL solver.

    Returns ``(status, coloring, stats, solvers)``: the coloring (vertex
    -> color) is present when status is SAT, ``stats`` holds the
    solver's statistics and ``solvers`` counts the solvers built (0 when
    preprocessing settles the formula, else 1).  ``preprocess`` runs the
    full CNF preprocessor on the encoding and reconstructs the model
    afterwards (``decode`` always sees a total assignment).  The graph
    is solved as given: kernelization is the reduce stage's job
    (:func:`repro.coloring.reduce.kernelize`).  ``should_stop`` is
    polled *inside* the solver (every few dozen conflicts): when it
    turns true the query gives up with UNKNOWN.  ``time_limit`` bounds
    the whole call: the deadline is fixed on entry, so encoding and
    preprocessing spend from the same budget as search.
    """
    stats = SolverStats()
    if k <= 0:
        if graph.num_vertices:
            return UNSAT, None, stats, 0
        return SAT, {}, stats, 0
    deadline = Deadline.after(time_limit)
    formula, x = encode_k_coloring_cnf(graph, k, sbp_kind)
    pre = None
    if preprocess and not deadline.expired():
        pre = preprocess_cnf(formula, deadline=deadline)
        if pre.is_unsat:
            return UNSAT, None, stats, 0
        formula = pre.formula
    if deadline.expired():
        return UNKNOWN, None, stats, 0
    model: Dict[int, bool] = {}
    solvers = 0
    if formula.clauses:  # else preprocessing solved it
        solver = new_solver(num_vars=formula.num_vars)
        solvers = 1
        if not solver.add_formula(formula):
            return UNSAT, None, stats, solvers
        result = solver.solve(time_limit=deadline.remaining(), should_stop=should_stop)
        stats.merge(result.stats)
        if not result.is_sat:
            return result.status, None, stats, solvers
        model = result.model
    if pre is not None:
        model = pre.extend_model(model)
    return SAT, decode_indicators(x, graph.num_vertices, k, model), stats, solvers


@dataclass
class SatPipelineResult:
    """Outcome of the repeated-SAT chromatic-number search."""

    # OPTIMAL / SAT (bound not proved) / UNSAT (cap below chi) /
    # UNKNOWN (stopped before the cap was settled).
    status: str
    chromatic_number: Optional[int]
    coloring: Optional[Dict[int, int]]
    # Aggregated solver statistics over every K query of the search.
    stats: SolverStats = field(default_factory=SolverStats)
    # The (k, status) trace of the descent, in query order.
    k_queries: List[Tuple[int, str]] = field(default_factory=list)
    # How many fresh solvers the search instantiated: 1 for a true
    # incremental descent; for the scratch strategy one per query that
    # preprocessing did not settle.  The bench-smoke guard asserts on
    # this to catch silent fallbacks.
    solvers_created: int = 0
    # The proved lower bound on the chromatic number when the descent
    # stopped (the clique bound when nothing was refuted).
    lower_bound: Optional[int] = None


def chromatic_number_sat(
    graph: Graph,
    strategy: str = "linear",
    time_limit: Optional[float] = None,
    sbp_kind: str = "none",
    preprocess: bool = True,
    incremental: bool = True,
    should_stop=None,
    kernel: Optional[Kernel] = None,
    max_colors: Optional[int] = None,
    on_query: Optional[Callable[[int, str], None]] = None,
) -> SatPipelineResult:
    """Chromatic number via repeated CNF-SAT decision calls.

    The descent itself is :func:`repro.coloring.descent.descend`:
    ``strategy`` is ``"linear"`` (tighten from the DSATUR bound, the
    paper's suggestion for small bounds) or ``"binary"`` (bisect between
    the clique bound and DSATUR, its suggestion otherwise).  This
    function supplies the K-query oracle.

    With a ``kernel`` (the :class:`~repro.coloring.reduce.Kernel`
    :func:`repro.coloring.reduce.kernelize` built of ``graph`` at its
    clique bound) every K query is asked of the kernel graph; without
    one the graph is solved as given.
    Components are not split here: one solver serves the whole kernel.
    A union's chromatic number is that of its hardest component, so the
    descent needs one refutation at chi - 1, found in that component,
    where a per-component descent would refute every component down to
    the clique bound.  The reported chromatic number is the color
    count of the best coloring lifted back to ``graph``
    (:func:`repro.coloring.reduce.lift`), which never falls below the
    clique bound the kernel was peeled at.

    With ``incremental=True`` (default) every query runs on one
    persistent solver via :class:`IncrementalKSearch`: encoded once at
    the DSATUR bound (or the cap, if lower) with activation literals,
    preprocessed once (``preprocess``: the full preprocessor with the
    activation literals frozen), and every K query reuses the learned
    clauses of the previous ones.  Every query is an assumption query,
    so the failed-assumption core of an UNSAT answer skips K values it
    proves dead, and a descent without a kernel asks the same queries
    of the same solver as a :class:`~repro.api.Session`'s.  The solver
    is built at the first query, so bounds that already meet create
    none.  With
    ``incremental=False`` each query pays for a fresh encoding,
    preprocessing and solver (the historical behaviour, kept as the
    differential reference).

    ``max_colors`` caps the answer: a cap below the chromatic number
    gives ``UNSAT``, and a search stopped before it settled the cap gives
    ``UNKNOWN``.  ``lower_bound`` is the bound the descent proved.
    ``time_limit`` bounds the whole call, encoding and preprocessing
    included.  ``should_stop`` (a zero-argument predicate) is polled
    before each K query *and inside each query* (every few dozen
    conflicts); when it turns true the search stops and the best-so-far
    answer is returned (status SAT — the bound is not proved).
    ``on_query(k, status)`` is called after every answered K query, in
    query order (see :func:`~repro.coloring.descent.descend`).
    """
    deadline = Deadline.after(time_limit)
    if graph.num_vertices == 0:
        return SatPipelineResult("OPTIMAL", 0, {})
    lb = kernel.clique_bound if kernel is not None else clique_lower_bound(graph)
    work = kernel.graph if kernel is not None else graph
    heuristic, _ = dsatur(work)
    incumbent = {v: c + 1 for v, c in heuristic.items()}
    run_stats = SolverStats()
    search: Optional[IncrementalKSearch] = None
    scratch_solvers = 0

    def persistent(k: int, deadline: Deadline) -> Answer:
        nonlocal search
        if search is None:
            horizon = len(set(incumbent.values()))
            if max_colors is not None:
                horizon = min(horizon, max_colors)
            search = IncrementalKSearch(
                work, horizon, sbp_kind=sbp_kind, preprocess=preprocess,
            )
        return search.solve_k(
            k, time_limit=deadline.remaining(), should_stop=should_stop,
        )

    def scratch(k: int, deadline: Deadline) -> Answer:
        nonlocal scratch_solvers
        status, coloring, stats, built = sat_k_colorable(
            work, k, time_limit=deadline.remaining(), sbp_kind=sbp_kind,
            preprocess=preprocess, should_stop=should_stop,
        )
        run_stats.merge(stats)
        scratch_solvers += built
        return status, coloring, []

    outcome = descend(
        persistent if incremental else scratch, incumbent, max(1, lb),
        strategy=strategy, deadline=deadline, should_stop=should_stop,
        cap=max_colors, on_query=on_query,
    )
    coloring = outcome.coloring
    if coloring is not None and kernel is not None:
        coloring = lift(kernel, [(range(work.num_vertices), coloring)])
    if search is not None:
        run_stats.merge(search.stats)
    return SatPipelineResult(
        outcome.status,
        len(set(coloring.values())) if coloring is not None else None,
        coloring,
        stats=run_stats, k_queries=outcome.queries,
        solvers_created=int(search is not None) + scratch_solvers,
        # A kernel that colors below the clique bound it was peeled at
        # meets its bounds at its own color count; the clique bound
        # still holds for ``graph``.
        lower_bound=max(lb, outcome.lower_bound),
    )
