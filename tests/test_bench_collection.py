"""The benchmark modules and the tests collect in one pytest run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_and_test_modules_collect_together():
    # benchmarks/conftest.py and tests/conftest.py are both the top-level
    # module ``conftest``, so a module that imports ``conftest`` by name
    # gets whichever one loaded last; collection must not depend on it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider",
         "benchmarks/bench_figure1.py", "tests/test_graph.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
