"""The public API surface: everything __all__ promises must exist.

Guards against re-export drift as modules evolve — a missing name in an
``__init__`` breaks downstream users even when all internal tests pass.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sat",
    "repro.pb",
    "repro.ilp",
    "repro.graphs",
    "repro.graphs.generators",
    "repro.symmetry",
    "repro.sbp",
    "repro.coloring",
    "repro.api",
    "repro.experiments",
    "repro.obs",
    "repro.resilience",
    "repro.batch",
    "repro.analysis",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    # The exact snippet from README.md must work.
    from repro.api import ChromaticProblem, Pipeline
    from repro.graphs import queens_graph

    result = (
        Pipeline()
        .symmetry(sbp_kind="nu+sc")
        .solve(backend="pb-pbs2", time_limit=120)
        .run(ChromaticProblem(queens_graph(5, 5)))
    )
    assert result.status == "OPTIMAL" and result.chromatic_number == 5


def test_docstrings_on_public_functions():
    import inspect

    undocumented = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{name}.{symbol}")
    assert not undocumented, f"missing docstrings: {undocumented}"
