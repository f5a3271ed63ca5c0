"""repro — reproduction of "Breaking Instance-Independent Symmetries in
Exact Graph Coloring" (Ramani, Aloul, Markov & Sakallah; DATE 2004 /
JAIR 2006).

The package is organized bottom-up:

* :mod:`repro.core`     — CNF/PB formulas and I/O
* :mod:`repro.sat`      — CDCL SAT solver
* :mod:`repro.pb`       — pseudo-Boolean (0-1 ILP) solver + optimizer
* :mod:`repro.ilp`      — generic LP-based branch and bound (CPLEX profile)
* :mod:`repro.graphs`   — graph ADT, DIMACS families, heuristics
* :mod:`repro.symmetry` — automorphism detection and group machinery
* :mod:`repro.sbp`      — symmetry-breaking predicate constructions
* :mod:`repro.coloring` — the paper's coloring pipeline
* :mod:`repro.api`      — the composable public API (problems,
  pipelines, backend registry, sessions)
* :mod:`repro.experiments` — drivers regenerating every table/figure

Quickstart::

    from repro.api import ChromaticProblem, Pipeline
    from repro.graphs import queens_graph

    result = (Pipeline()
              .symmetry(sbp_kind="nu+sc")
              .solve(backend="pb-pbs2")
              .run(ChromaticProblem(queens_graph(5, 5))))
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
"""

from . import api
from .api import (
    BudgetedOptimize,
    ChromaticProblem,
    DecisionProblem,
    Pipeline,
    PipelineConfig,
    Result,
    Session,
    available_backends,
)
from .coloring import exact_chromatic_number
from .core import Formula
from .graphs import Graph
from .sbp import apply_sbp
from .symmetry import detect_symmetries

__version__ = "1.1.0"

__all__ = [
    "BudgetedOptimize",
    "ChromaticProblem",
    "DecisionProblem",
    "Formula",
    "Graph",
    "Pipeline",
    "PipelineConfig",
    "Result",
    "Session",
    "api",
    "apply_sbp",
    "available_backends",
    "detect_symmetries",
    "exact_chromatic_number",
    "__version__",
]
