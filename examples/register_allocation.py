#!/usr/bin/env python
"""Register allocation by exact graph coloring (paper Section 2.1).

Compiles a toy straight-line program into live ranges, builds the
interference graph (Chaitin's construction: variables conflict when
simultaneously live), and finds the minimum number of registers with
the 0-1 ILP pipeline.  The paper's motivating scenario — checking
whether the program fits a fixed register budget K — is a sequence of
*decision* queries at different budgets, which is exactly what
:class:`repro.api.Session` exists for: every budget below the DSATUR
bound is a query on one persistent solver, encoded once at that bound,
and every budget at or above it is answered by the DSATUR coloring
without a solver call.

Run:  python examples/register_allocation.py
"""

from repro.api import BudgetedOptimize, Pipeline, Session
from repro.graphs import Graph

# A toy three-address program: (target, sources) per instruction.
PROGRAM = [
    ("a", []),          # a = load
    ("b", []),          # b = load
    ("c", ["a", "b"]),  # c = a + b
    ("d", ["a"]),       # d = a * 2
    ("e", ["c", "d"]),  # e = c - d
    ("f", ["b"]),       # f = b + 1
    ("g", ["e", "f"]),  # g = e * f
    ("h", ["g", "d"]),  # h = g + d
    ("out", ["h", "c"]),  # out = h ^ c
]


def live_ranges(program):
    """Live range of each variable: [definition point, last use]."""
    defined, last_use = {}, {}
    for point, (target, sources) in enumerate(program):
        defined.setdefault(target, point)
        last_use[target] = max(last_use.get(target, point), point)
        for source in sources:
            last_use[source] = point
    return {v: (defined[v], last_use[v]) for v in defined}


def interference_graph(program):
    """Variables interfere when their live ranges overlap."""
    ranges = live_ranges(program)
    names = sorted(ranges)
    index = {name: i for i, name in enumerate(names)}
    graph = Graph(len(names), name="toy-program")
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            (s1, e1), (s2, e2) = ranges[u], ranges[v]
            if s1 < e2 and s2 < e1:  # strict overlap => both live at once
                graph.add_edge(index[u], index[v])
    return graph, names


def main() -> None:
    graph, names = interference_graph(PROGRAM)
    print(f"interference graph: {graph}")
    for u, v in graph.edges():
        print(f"  {names[u]} <-> {names[v]}")

    result = (
        Pipeline()
        .symmetry(sbp_kind="nu+sc")
        .solve(backend="pb-pbs2", time_limit=30)
        .run(BudgetedOptimize(graph, max_colors=len(names)))
    )
    print(f"\nminimum registers needed: {result.num_colors} ({result.status})")
    for vertex, color in sorted(result.coloring.items()):
        print(f"  {names[vertex]:4s} -> r{color}")

    # The paper's embedded-CPU scenario: does it fit in K registers?
    # One Session = at most one persistent solver for the whole budget
    # sweep, built at the DSATUR bound by the first budget below it;
    # budgets at or above the bound are answered by the DSATUR coloring.
    need = result.num_colors
    with Session(graph) as session:
        for budget in (need - 1, need, need + 1):
            feasible = session.decide(budget)
            verdict = "fits" if feasible.status == "SAT" else "does NOT fit"
            print(f"budget of {budget} registers: {verdict}")
        print(f"(all {len(session.queries)} budget checks shared "
              f"{session.solvers_created} persistent solver, encoded at "
              f"the DSATUR bound of {session.budget} colors)")


if __name__ == "__main__":
    main()
