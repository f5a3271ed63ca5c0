"""Every function and method perfbench's per-layer view wraps still exists.

``perfbench/run.py --trace 1`` wraps the functions named in
``perfbench/tracing.py``'s ``FUNCTIONS`` and the solver methods named in
its ``METHODS``, by module path.  Renaming or deleting one of them
breaks that run, while ``--trace 0`` (what ``perfbench/selftest.py``
runs) keeps passing.  These tests read both lists with
:func:`runpy.run_path`, which compiles the file without importing the
benchmark or caching bytecode beside it, and resolve every name the
way ``Tracer.install`` does.
"""

import importlib
import os
import runpy

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
WRAPS = runpy.run_path(TRACING)


def test_every_wrapped_function_resolves():
    missing = [
        f"{module_name}.{name}"
        for _, module_name, name, *_ in WRAPS["FUNCTIONS"]
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert WRAPS["FUNCTIONS"] and not missing, missing


def test_every_wrapped_method_is_defined_on_its_class():
    missing = []
    for _, module_name, class_name, name, *_ in WRAPS["METHODS"]:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        # Tracer.install patches vars(cls)[name]: an inherited method
        # would not do.
        if cls is None or not callable(vars(cls).get(name)):
            missing.append(f"{module_name}.{class_name}.{name}")
    assert WRAPS["METHODS"] and not missing, missing
