"""The swappable solver factory — the construction chokepoint that the
static checker's RPR005 rule funnels every non-``sat/`` call site
through.

The ROADMAP's compiled ``native`` core is planned as a drop-in twin of
:class:`CDCLSolver`, differentially verified against the Python engine.
That swap only works if call sites outside the solver layer never name
the concrete class: they call :func:`new_solver` (or go through the
``Backend`` registry), and the deployment that wants the native core
installs it here with :func:`set_solver_factory`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from .cdcl import CDCLSolver

SolverFactory = Callable[..., CDCLSolver]
SolverT = TypeVar("SolverT", bound=CDCLSolver)

_default_factory: SolverFactory = CDCLSolver
_factory: SolverFactory = CDCLSolver


def new_solver(num_vars: int = 0, **kwargs: object) -> CDCLSolver:
    """Construct a solver through the currently-installed factory.

    Accepts the :class:`CDCLSolver` constructor signature; any
    registered replacement must too.  The solver is registered at
    birth (:func:`register_solver`).
    """
    return register_solver(_factory(num_vars=num_vars, **kwargs))


def register_solver(solver: SolverT) -> SolverT:
    """Count a freshly built solver and attach the installed tracer.

    The observability seam every engine passes through at birth:
    :func:`new_solver` for the swappable CDCL core,
    ``SolverPreset.make_solver``, where every ``pb-*`` backend builds
    its :class:`~repro.pb.engine.PBSolver` directly, and the default
    factory of :func:`repro.pb.optimizer.minimize`.  Bumps
    ``solver_created_total``; when a tracer is installed
    (:func:`repro.obs.tracing`), the solver's searches are traced from
    its first call.
    """
    get_registry().inc("solver_created_total")
    tracer = active_tracer()
    if tracer is not None:
        tracer.attach(solver)
    return solver


def set_solver_factory(factory: SolverFactory) -> SolverFactory:
    """Install ``factory`` as the engine constructor; returns the old one.

    The replacement must build objects honouring the ``CDCLSolver``
    interface (``add_clause``/``solve``/``num_vars``/...).
    """
    global _factory
    previous = _factory
    _factory = factory
    return previous


def reset_solver_factory() -> None:
    """Restore the default (pure-Python CDCL) factory."""
    global _factory
    _factory = _default_factory
