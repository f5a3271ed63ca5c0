"""Benhamou-style not-equals CSP solver — the other Section 4.3 comparator.

Benhamou (2004) models graph coloring as a binary CSP whose only
constraint is "not-equals" (NECSP) and exploits *value
interchangeability*: all values not yet used by any assigned variable
are symmetric, so a branch only needs to try the used values plus ONE
fresh value.  That linear-time symmetry condition is exactly the NU
predicate enforced dynamically during search.

The solver below is a forward-checking backtracker over not-equals
constraints with:

* interchangeable-value branching (the symmetry break);
* dom/deg variable ordering (smallest remaining domain first);
* an optimization wrapper that tightens the domain size, mirroring how
  the paper uses it to find chromatic numbers.

It is deliberately problem-specific — the point of the comparison is
problem-specific search vs. the paper's reduction-based pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..graphs.cliques import clique_lower_bound
from ..graphs.coloring_heuristics import dsatur
from ..graphs.graph import Graph
from ..resilience import Deadline
from .descent import Answer, descend


@dataclass
class NECSPResult:
    """Outcome of a not-equals CSP (k-coloring) query."""

    status: str  # "SAT" / "UNSAT" / "UNKNOWN"
    assignment: Optional[Dict[int, int]]
    nodes_explored: int
    time_seconds: float


def solve_necsp(
    graph: Graph,
    num_values: int,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    break_value_symmetry: bool = True,
) -> NECSPResult:
    """Decide whether the not-equals CSP over ``num_values`` is satisfiable.

    ``break_value_symmetry=False`` disables interchangeable-value
    branching (for measuring what the symmetry break buys, as Benhamou's
    paper does).
    """
    start = time.monotonic()
    deadline = Deadline.after(time_limit)
    n = graph.num_vertices
    if n == 0:
        return NECSPResult("SAT", {}, 0, 0.0)
    if num_values <= 0:
        return NECSPResult("UNSAT", None, 0, 0.0)
    adj = [graph.neighbors(v) for v in range(n)]
    domains: List[Set[int]] = [set(range(1, num_values + 1)) for _ in range(n)]
    assignment: Dict[int, int] = {}
    nodes = [0]
    timed_out = [False]

    def over_budget() -> bool:
        if node_limit is not None and nodes[0] > node_limit:
            return True
        if deadline.bounded and (nodes[0] & 127) == 0:
            return deadline.expired()
        return False

    def select_variable() -> int:
        best_v, best_key = -1, None
        for v in range(n):
            if v in assignment:
                continue
            key = (len(domains[v]), -len(adj[v]), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def recurse(max_used: int) -> bool:
        if over_budget():
            timed_out[0] = True
            return False
        nodes[0] += 1
        if len(assignment) == n:
            return True
        v = select_variable()
        if break_value_symmetry:
            # Used values are distinguishable; unused ones are fully
            # interchangeable -> try used values + one representative.
            candidates = [c for c in sorted(domains[v]) if c <= max_used]
            fresh = [c for c in sorted(domains[v]) if c > max_used]
            if fresh:
                candidates.append(fresh[0])
        else:
            candidates = sorted(domains[v])
        for value in candidates:
            assignment[v] = value
            pruned: List[int] = []
            wipeout = False
            for w in adj[v]:
                if w in assignment:
                    continue
                if value in domains[w]:
                    domains[w].discard(value)
                    pruned.append(w)
                    if not domains[w]:
                        wipeout = True
                        break
            if not wipeout and recurse(max(max_used, value)):
                return True
            for w in pruned:
                domains[w].add(value)
            del assignment[v]
            if timed_out[0]:
                return False
        return False

    found = recurse(0)
    elapsed = time.monotonic() - start
    if found:
        return NECSPResult("SAT", dict(assignment), nodes[0], elapsed)
    return NECSPResult("UNKNOWN" if timed_out[0] else "UNSAT", None, nodes[0], elapsed)


@dataclass
class NECSPOptimum:
    """Outcome of the NECSP chromatic-number search."""

    status: str  # "OPTIMAL" / "SAT" / "UNKNOWN"
    chromatic_number: Optional[int]
    coloring: Optional[Dict[int, int]]
    nodes_explored: int
    time_seconds: float


def necsp_chromatic_number(
    graph: Graph,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    break_value_symmetry: bool = True,
) -> NECSPOptimum:
    """Chromatic number by descending NECSP decision queries.

    The linear descent is :func:`repro.coloring.descent.descend` over
    :func:`solve_necsp` as the K-query oracle.
    """
    start = time.monotonic()
    if not graph.num_vertices:
        return NECSPOptimum("OPTIMAL", 0, {}, 0, time.monotonic() - start)
    heuristic, _ = dsatur(graph)
    nodes = 0

    def decide(k: int, deadline: Deadline) -> Answer:
        nonlocal nodes
        result = solve_necsp(
            graph, k, time_limit=deadline.remaining(), node_limit=node_limit,
            break_value_symmetry=break_value_symmetry,
        )
        nodes += result.nodes_explored
        return result.status, result.assignment, []

    outcome = descend(
        decide, {v: c + 1 for v, c in heuristic.items()},
        max(1, clique_lower_bound(graph)), deadline=Deadline.after(time_limit),
    )
    best = outcome.coloring or {}
    return NECSPOptimum(outcome.status, len(set(best.values())), best, nodes,
                        time.monotonic() - start)
