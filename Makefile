# Developer entry points. The tier-1 verification command is `make test`
# (the same line CI / ROADMAP.md specify); `make bench-smoke` runs the
# microbenchmarks once each without timing rounds as a fast regression
# signal — including one incremental K-search descent end-to-end, which
# fails if the pipeline silently falls back to per-K scratch solving;
# `make bench` runs the benchmarks for real; `make bench-json`
# regenerates every machine-readable BENCH_<name>.json perf record;
# `make bench-check` regenerates the counter-bearing records and fails
# on regressions vs the committed baselines (the CI perf gate);
# `make batch-smoke` runs the example manifest through the parallel
# fleet runner; `make fuzz-smoke` runs the Hypothesis differential
# properties (disjoint unions across backends, the incremental and
# reduce harnesses, lifted vs formula-graph symmetry detection, the
# preprocessing properties: model preservation and the simplify
# fixpoint, the 0-1 ILP bound search against brute force, the
# Session's decisions against the exact chromatic number, and the
# engine's brute-force oracles: CDCL and PB answers, answers under
# assumptions while the solver grows, and bulk vs one-clause loading;
# and the encoder and SBP properties: every SBP kind keeps the optimum
# on random graphs, encoding models decode to proper colorings, and a
# lex-leader SBP keeps satisfiability) under HYPOTHESIS_PROFILE; `make chaos-smoke` runs the resilience
# chaos suite (fault injection seeded by CHAOS_SEED, fresh seeds in
# nightly CI);
# `make coverage` runs the tier-1 suite under pytest-cov
# with the CI coverage floor; `make lint` runs ruff; `make analyze`
# runs the solver-invariant static checker (repro.analysis — pure
# stdlib, always available) over src/scripts/benchmarks/examples,
# exports the project call graph to callgraph.json, and prints a
# one-line timing/stats summary to stderr; `make typecheck` runs the
# typed-core mypy gate (mypy.ini); `make docs-check` runs the docs
# gate (scripts/check_docs.py — pure stdlib: intra-repo Markdown
# link/anchor integrity plus the public-API docstring-coverage floor);
# `make perfbench-trace-smoke` runs each perfbench workload for 1 s
# with the per-layer tracer on (`--trace 1`) and fails unless the run
# exits 0 and its last line reads "correct": true with "failed": 0 —
# the check that the wrapped functions' return shapes still fit
# perfbench/tracing.py's post hooks.
#
# Tools that offline dev environments may lack (ruff, pytest-cov,
# mypy) are skipped with a notice locally but are hard failures when
# CI is set — a missing install must never green a CI job.

PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)
COV_FLOOR ?= 84
# Hypothesis profile for the differential fuzz harness: "ci" is seeded/
# deterministic (PR runs), "nightly" explores fresh seeds (scheduled CI).
HYPOTHESIS_PROFILE ?= ci
# Seed for the chaos-smoke fault-injection scenario: PR CI pins 0,
# nightly CI passes a fresh seed (`make chaos-smoke CHAOS_SEED=$RANDOM`).
CHAOS_SEED ?= 0

.PHONY: test lint analyze typecheck docs-check bench-smoke bench \
	bench-json bench-check batch-smoke coverage fuzz-smoke chaos-smoke \
	perfbench-trace-smoke

test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

fuzz-smoke:
	$(PYTHONPATH_PREFIX) HYPOTHESIS_PROFILE=$(HYPOTHESIS_PROFILE) \
		$(PYTHON) -m pytest -q tests/test_component_pool.py \
		tests/test_incremental.py tests/test_reduce.py \
		tests/test_lifted_symmetry.py tests/test_preprocessing.py \
		tests/test_session.py tests/test_optimizer.py \
		tests/test_cdcl.py tests/test_pb_engine.py \
		tests/test_solver_internals.py tests/test_instance_independent.py \
		tests/test_encoding.py tests/test_lex_leader.py

chaos-smoke:
	$(PYTHONPATH_PREFIX) CHAOS_SEED=$(CHAOS_SEED) \
		$(PYTHON) -m pytest -q tests/test_resilience.py

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples scripts; \
	elif [ -n "$(CI)" ]; then \
		echo "ruff is not installed but CI is set; refusing to false-pass"; \
		exit 1; \
	else \
		echo "ruff not installed; skipping lint (CI installs it)"; \
	fi

ANALYZE_PATHS ?= src scripts benchmarks examples
ANALYZE_GRAPH ?= callgraph.json

analyze:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis $(ANALYZE_PATHS) \
		--graph $(ANALYZE_GRAPH)

typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file mypy.ini -p repro; \
	elif [ -n "$(CI)" ]; then \
		echo "mypy is not installed but CI is set; refusing to false-pass"; \
		exit 1; \
	else \
		echo "mypy not installed; skipping typecheck (CI installs it)"; \
	fi

docs-check:
	$(PYTHON) scripts/check_docs.py

coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q \
			--cov=repro --cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_FLOOR); \
	elif [ -n "$(CI)" ]; then \
		echo "pytest-cov is not installed but CI is set; refusing to false-pass"; \
		exit 1; \
	else \
		echo "pytest-cov not installed; skipping coverage (CI installs it)"; \
	fi

bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/bench_solver_micro.py benchmarks/bench_preprocessing.py

bench:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q --benchmark-only benchmarks/bench_*.py

bench-json:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q --benchmark-disable benchmarks/bench_*.py

bench-check:
	$(PYTHON) scripts/check_bench.py

batch-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro batch examples/batch_manifest.json \
		--jobs 4 --task-timeout 8 --fallback exact-dsatur \
		--out batch-smoke.jsonl

PERFBENCH_WORKLOADS = cdcl-descent fleet pb-shatter pb-k20
PERFBENCH_LAST_LINE_OK = import json, sys; r = json.loads(sys.stdin.read()); \
	sys.exit(r["correct"] is not True or r["failed"] != 0)

perfbench-trace-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench --trace 1: $$w"; \
		out=$$($(PYTHON) perfbench/run.py --workload $$w --seconds 1 --trace 1) \
			&& printf '%s\n' "$$out" | tail -n 1 \
			| $(PYTHON) -c '$(PERFBENCH_LAST_LINE_OK)' \
			|| { printf '%s\n' "$$out"; exit 1; }; \
	done
