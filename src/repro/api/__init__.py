"""repro.api — the composable public API over the whole solve stack.

One import gives the four concepts every workload composes from:

* **Problems** — immutable value objects saying *what* to solve:
  :class:`DecisionProblem`, :class:`ChromaticProblem`,
  :class:`BudgetedOptimize`.
* **Pipeline** — a validated stage chain in one fixed order (reduce →
  encode → sbp → simplify → detect → solve) with one small config
  dataclass per stage.
* **Backends** — named engines behind a registry
  (``pb-pbs2``/``pb-galena``/``pb-pueblo``, ``cplex-bb``,
  ``cdcl-incremental``, ``cdcl-scratch``, ``brute``, ``exact-dsatur``);
  new engines plug in via :func:`register_backend` without touching
  call sites.
* **Session** — many queries on one graph sharing one persistent
  solver; budgets at or above the DSATUR bound, or below the clique
  bound, are answered without a solver call.
* **Resilience** — :class:`Deadline`, one budget object threaded
  through every stage; expiry degrades to a verified ``FEASIBLE``
  best-so-far instead of discarding work.  Re-exported from
  :mod:`repro.resilience`; see ``docs/resilience.md``.

Quickstart::

    from repro.api import ChromaticProblem, Pipeline
    from repro.graphs import queens_graph

    result = (Pipeline()
              .symmetry(sbp_kind="nu+sc")
              .solve(backend="pb-pbs2", time_limit=60)
              .run(ChromaticProblem(queens_graph(5, 5))))
    assert result.status == "OPTIMAL" and result.chromatic_number == 5

Multi-query session (one persistent solver, built at the DSATUR bound)::

    from repro.api import Session

    with Session(queens_graph(6, 6)) as session:
        session.decide(8)          # encodes once at the DSATUR bound, 9
        session.decide(7)          # assumption query, same solver
        session.decide(9)          # at or above the bound: the DSATUR
                                   # coloring, no solver call
"""

from ..resilience import Deadline
from .backends import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from .config import (
    PipelineConfig,
    ReduceConfig,
    SimplifyConfig,
    SolveConfig,
    SymmetryConfig,
)
from .pipeline import Pipeline
from .problems import (
    BudgetedOptimize,
    ChromaticProblem,
    DecisionProblem,
    PROBLEM_KINDS,
    Problem,
)
from .results import (
    ProgressEvent,
    Provenance,
    Result,
    RunContext,
    StageStat,
)
from .session import Session


def __getattr__(name):
    # Lazy so importing the api never pays for (or cycles into) the
    # batch subsystem; `from repro.api import solve_many` still works.
    if name == "solve_many":
        from ..batch import solve_many

        return solve_many
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Backend",
    "BudgetedOptimize",
    "ChromaticProblem",
    "Deadline",
    "DecisionProblem",
    "PROBLEM_KINDS",
    "Pipeline",
    "PipelineConfig",
    "Problem",
    "ProgressEvent",
    "Provenance",
    "ReduceConfig",
    "Result",
    "RunContext",
    "Session",
    "SimplifyConfig",
    "SolveConfig",
    "StageStat",
    "SymmetryConfig",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "solve_many",
]
