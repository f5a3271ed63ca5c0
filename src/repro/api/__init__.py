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
  solver, including raising the color budget in place.
* **Resilience** — :class:`Deadline` (one budget object threaded
  through every stage; expiry degrades to a verified ``FEASIBLE``
  best-so-far instead of discarding work) and :class:`RetryPolicy`
  (bounded, deterministic retry for the batch runner).  Re-exported
  from :mod:`repro.resilience`; see ``docs/resilience.md``.

Quickstart::

    from repro.api import ChromaticProblem, Pipeline
    from repro.graphs import queens_graph

    result = (Pipeline()
              .symmetry(sbp_kind="nu+sc")
              .solve(backend="pb-pbs2", time_limit=60)
              .run(ChromaticProblem(queens_graph(5, 5))))
    assert result.status == "OPTIMAL" and result.chromatic_number == 5

Multi-query session (one persistent solver, budget raised in place)::

    from repro.api import Session

    with Session(graph) as session:
        session.decide(5)          # encodes once at K=5
        session.decide(4)          # assumption query, same solver
        session.raise_budget(7)    # adds color groups 6..7 in place
        session.decide(7)          # still the same solver
"""

from ..resilience import Budget, Deadline, RetryPolicy
from .backends import (
    Backend,
    available_backends,
    get_backend,
    known_backend_names,
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
from .pipeline import Pipeline, solve_problem
from .problems import (
    BudgetedOptimize,
    ChromaticProblem,
    DecisionProblem,
    PROBLEM_KINDS,
    Problem,
)
from .results import (
    PipelineInfo,
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
    "Budget",
    "BudgetedOptimize",
    "ChromaticProblem",
    "Deadline",
    "DecisionProblem",
    "PROBLEM_KINDS",
    "Pipeline",
    "PipelineConfig",
    "PipelineInfo",
    "Problem",
    "ProgressEvent",
    "Provenance",
    "ReduceConfig",
    "Result",
    "RetryPolicy",
    "RunContext",
    "Session",
    "SimplifyConfig",
    "SolveConfig",
    "StageStat",
    "SymmetryConfig",
    "available_backends",
    "get_backend",
    "known_backend_names",
    "register_backend",
    "resolve_backend_name",
    "solve_many",
    "solve_problem",
]
