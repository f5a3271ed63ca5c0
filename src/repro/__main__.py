"""Command-line interface: exact coloring of DIMACS ``.col`` files.

Usage::

    python -m repro color graph.col [--solver pbs2] [--sbp nu+sc]
        [--instance-dependent] [--k 20] [--time-limit 60]
        [--no-preprocess] [--no-reduce]
        [--trace run.trace] [--metrics metrics.json]
    python -m repro chromatic graph.col [--strategy linear|binary]
        [--no-incremental] [--sbp nu]
        [--time-limit 60] [--trace run.trace] [--metrics metrics.json]
    python -m repro.obs report run.trace [--json]
    python -m repro stats graph.col
    python -m repro detect graph.col --k 8
    python -m repro backends
    python -m repro batch manifest.json [--jobs 4] [--task-timeout 30]
        [--fallback exact-dsatur] [--out results.jsonl]
        [--resume results.jsonl]

Every solving command runs through :mod:`repro.api`: the arguments
build a :class:`~repro.api.Pipeline` (stage configs + backend name)
and the command submits the matching problem value object.  ``color``
minimizes used colors within a budget (``BudgetedOptimize``) on a 0-1
ILP backend; ``chromatic`` computes the chromatic number
(``ChromaticProblem``) on the pure-CNF descent backends —
``cdcl-incremental`` (one persistent solver, the default) or
``cdcl-scratch`` (``--no-incremental``).  ``stats`` prints graph
statistics and heuristic bounds; ``detect`` reports the symmetry
statistics of the encoded instance; ``backends`` lists the registered
backend table.  ``batch`` fans a JSON/JSONL manifest of tasks across a
worker pool (:mod:`repro.batch`) and streams one JSONL record per task
in manifest order, plus an aggregate summary.

A missing input file exits with status 2 and one ``error:`` line
naming the path; so does a malformed one (a bad DIMACS line, a
manifest task with an unknown field), the line giving the reader's
message after the path.

``--trace FILE`` records a binary solver event trace
(``docs/TRACE_FORMAT.md``; render with ``python -m repro.obs report``)
and ``--metrics FILE`` dumps the run's metrics-registry snapshot as
sorted JSON — see :mod:`repro.obs` and ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from .api import (
    BudgetedOptimize,
    ChromaticProblem,
    Pipeline,
    available_backends,
)
from .coloring.encoding import encode_coloring
from .graphs.cliques import clique_lower_bound
from .graphs.coloring_heuristics import dsatur
from .graphs.dimacs import read_dimacs_graph
from .sbp.instance_independent import SBP_KINDS, apply_sbp
from .symmetry.detect import detect_symmetries

#: The ``color`` command's ``--solver`` choices: the paper's three PB
#: profiles and the LP-based branch and bound.
COLOR_SOLVERS = ("pbs2", "galena", "pueblo", "cplex-bb")


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (worker and retry counts)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a number > 0 (timeouts)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


class _InputError(Exception):
    """A malformed input file, reported as one ``error:`` line naming it."""


def _read_input(read, path: str, *args, **kwargs):
    """``read(path, ...)``, with a ``ValueError`` it raises as an
    :class:`_InputError` that names ``path``."""
    try:
        return read(path, *args, **kwargs)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _load(path: str):
    return _read_input(read_dimacs_graph, path, name=path)


def cmd_stats(args) -> int:
    graph = _load(args.graph)
    _, ub = dsatur(graph)
    lb = clique_lower_bound(graph)
    print(f"file:        {args.graph}")
    print(f"vertices:    {graph.num_vertices}")
    print(f"edges:       {graph.num_edges}")
    print(f"density:     {graph.density():.4f}")
    print(f"max degree:  {graph.max_degree()}")
    print(f"clique bound (lower): {lb}")
    print(f"DSATUR bound (upper): {ub}")
    return 0


def _pipeline_from_args(args, backend: str) -> Pipeline:
    """The shared argument -> Pipeline translation of the solve commands."""
    return (
        Pipeline()
        .reduce(args.reduce)
        .symmetry(
            sbp_kind=args.sbp,
            instance_dependent=getattr(args, "instance_dependent", False),
        )
        .simplify(args.preprocess)
        .solve(
            backend=backend,
            time_limit=args.time_limit,
            strategy=getattr(args, "strategy", None),
        )
    )


def _run_observed(args, pipeline, problem):
    """Run the pipeline, honouring ``--trace`` / ``--metrics`` if given.

    Both flags are opt-in observability (:mod:`repro.obs`): ``--trace``
    streams the binary solver event trace to FILE, ``--metrics`` dumps
    the run-scoped metrics registry as sorted JSON.  Without either the
    run is byte-for-byte what it always was.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return pipeline.run(problem)

    from .obs import scoped_registry, tracing

    def run_traced():
        if trace_path is not None:
            with tracing(trace_path):
                return pipeline.run(problem)
        return pipeline.run(problem)

    if metrics_path is not None:
        with scoped_registry() as registry:
            result = run_traced()
        with open(metrics_path, "w") as fh:
            fh.write(registry.to_json())
            fh.write("\n")
        print(f"metrics written to {metrics_path}", file=sys.stderr)
    else:
        result = run_traced()
    if trace_path is not None:
        print(f"trace written to {trace_path} "
              f"(render: python -m repro.obs report {trace_path})",
              file=sys.stderr)
    return result


def cmd_color(args) -> int:
    graph = _load(args.graph)
    k = args.k
    if k is None:
        _, k = dsatur(graph)
    pipeline = _pipeline_from_args(args, backend=args.solver)
    result = _run_observed(args, pipeline, BudgetedOptimize(graph, k))
    print(f"status:           {result.status}")
    if result.num_colors is not None:
        print(f"colors used:      {result.num_colors}")
    print(f"encode time:      {result.encode_seconds:.2f}s")
    print(f"solve time:       {result.solve_seconds:.2f}s")
    kernel = result.stage("reduce")
    if kernel is not None and "kernel_vertices" in kernel.details:
        d = kernel.details
        print(f"kernel:           {d['kernel_vertices']}/{graph.num_vertices} vertices "
              f"({d['peeled_vertices']} peeled, {d['components_solved']} components solved)")
    simplify = result.stage("simplify")
    if simplify is not None and simplify.details.get("clauses_before"):
        d = simplify.details
        print(f"preprocessing:    {d['clauses_before']} -> {d['clauses_after']} clauses "
              f"({d['units_propagated']} units, {d['subsumed']} subsumed, "
              f"{d['strengthened']} strengthened)")
    if result.detection is not None:
        print(f"symmetry gens:    {result.detection.num_generators} "
              f"(detected in {result.detection.detection_seconds:.2f}s)")
    if result.coloring and args.show_coloring:
        for v in sorted(result.coloring):
            print(f"  vertex {v + 1}: color {result.coloring[v]}")
    if result.status == "UNSAT":
        print(f"(not colorable with K={k}; raise --k)")
    return 0 if result.solved else 1


def cmd_chromatic(args) -> int:
    graph = _load(args.graph)
    if args.portfolio:
        backend = "portfolio"
    elif args.incremental:
        backend = "cdcl-incremental"
    else:
        backend = "cdcl-scratch"
    pipeline = _pipeline_from_args(args, backend=backend)
    result = _run_observed(args, pipeline, ChromaticProblem(graph))
    print(f"status:           {result.status}")
    print(f"chromatic number: {result.chromatic_number}"
          + ("" if result.status == "OPTIMAL" else " (upper bound; not proved)"))
    race = next((s for s in result.stages if s.name == "race"), None)
    if race is not None:
        winner = race.details.get("winner") or "(none)"
        mode = (f"portfolio race ({len(race.details['racers'])} racers, "
                f"winner {winner}, {race.details['cancelled']} cancelled)")
    elif args.incremental:
        mode = "incremental (1 persistent solver)"
    else:
        mode = f"scratch ({result.solvers_created} fresh solvers)"
    print(f"search:           {args.strategy}, {mode}")
    trace = ", ".join(f"K={k}:{status}" for k, status in result.queries) or "(bounds met)"
    print(f"K queries:        {len(result.queries)}  [{trace}]")
    print(f"conflicts:        {result.stats.conflicts}")
    print(f"propagations:     {result.stats.propagations}")
    print(f"time:             {result.total_seconds:.2f}s")
    if result.coloring and args.show_coloring:
        for v in sorted(result.coloring):
            print(f"  vertex {v + 1}: color {result.coloring[v]}")
    return 0 if result.status == "OPTIMAL" else 1


def cmd_detect(args) -> int:
    graph = _load(args.graph)
    encoding = apply_sbp(encode_coloring(graph, args.k), args.sbp)
    report = detect_symmetries(encoding.formula, node_limit=args.node_limit)
    stats = encoding.formula.stats()
    print(f"formula:     {stats.num_vars} vars, {stats.num_clauses} clauses, "
          f"{stats.num_pb} PB constraints")
    print(f"symmetries:  #S = {report.order:.6g}")
    print(f"generators:  {report.num_generators}")
    print(f"detection:   {report.detection_seconds:.2f}s "
          f"({'complete' if report.complete else 'budget hit'})")
    return 0


def cmd_batch(args) -> int:
    import json

    from .batch import BatchRunner, load_manifest, load_plugins
    from .resilience import read_wal

    load_plugins(args.plugin)
    manifest = _read_input(load_manifest, args.manifest)
    if not manifest.tasks:
        print(f"manifest {args.manifest} contains no tasks", file=sys.stderr)
        return 2
    fallback = [name for spec in args.fallback for name in spec.split(",") if name]

    resume_records = []
    if args.resume is not None:
        # Read the write-ahead log BEFORE (re)opening --out for write:
        # resuming in place (--resume out.jsonl --out out.jsonl) is the
        # normal crash-recovery invocation.
        records, dropped = read_wal(args.resume)
        resume_records = [r for r in records if "summary" not in r]
        if not args.quiet:
            note = f" ({dropped} torn/corrupt line(s) dropped)" if dropped else ""
            print(
                f"resuming from {args.resume}: "
                f"{len(resume_records)} completed record(s){note}",
                file=sys.stderr,
            )

    def progress(record) -> None:
        if args.quiet:
            return
        label = record.get("num_colors")
        label = "" if label is None else f" colors={label}"
        print(
            f"  [{record['index'] + 1}/{len(manifest.tasks)}] "
            f"{record['task']:24s} {record['status']:8s}{label} "
            f"backend={record['backend']} "
            f"({record.get('seconds', 0) or 0:.2f}s)",
            file=sys.stderr,
            flush=True,
        )

    def run(jsonl) -> int:
        runner = BatchRunner(
            manifest.tasks,
            jobs=args.jobs,
            task_timeout=args.task_timeout,
            fallback=fallback,
            retries=args.retries,
            include_colorings=args.colorings,
            plugins=tuple(args.plugin) + manifest.plugins,
            on_record=progress,
            jsonl=jsonl,
            resume_records=resume_records,
        )
        report = runner.run()
        print(json.dumps(report.summary, sort_keys=True), file=sys.stderr)
        outcomes = report.summary["outcomes"]
        return 1 if outcomes.get("error", 0) or outcomes.get("died", 0) else 0

    if args.out == "-":
        return run(sys.stdout)
    with open(args.out, "w") as fh:
        code = run(fh)
    if not args.quiet:
        print(f"wrote {len(manifest.tasks)} records to {args.out}", file=sys.stderr)
    return code


def cmd_backends(args) -> int:
    print(f"{'name':18s} {'problems':34s} description")
    for name, backend in available_backends().items():
        kinds = ",".join(backend.supports)
        persistent = " [persistent]" if backend.persistent else ""
        print(f"{name:18s} {kinds:34s} {backend.description}{persistent}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Exact graph coloring with symmetry breaking (DATE'04 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics and bounds")
    p_stats.add_argument("graph", help="DIMACS .col file")
    p_stats.set_defaults(func=cmd_stats)

    p_color = sub.add_parser("color", help="minimum coloring via 0-1 ILP")
    p_color.add_argument("graph", help="DIMACS .col file")
    p_color.add_argument("--solver", default="pbs2", choices=COLOR_SOLVERS)
    p_color.add_argument("--sbp", default="nu+sc", choices=SBP_KINDS)
    p_color.add_argument("--instance-dependent", action="store_true",
                         help="detect symmetries and add lex-leader SBPs")
    p_color.add_argument("--k", type=int, default=None,
                         help="color budget (default: DSATUR bound)")
    p_color.add_argument("--time-limit", type=float, default=300.0)
    p_color.add_argument("--show-coloring", action="store_true")
    p_color.add_argument(
        "--preprocess", default=True, action=argparse.BooleanOptionalAction,
        help="simplify the CNF clause database after encoding "
             "(units, subsumption, self-subsuming resolution)")
    p_color.add_argument(
        "--reduce", default=True, action=argparse.BooleanOptionalAction,
        help="kernelize the graph before encoding "
             "(low-degree peeling + connected-component split)")
    p_color.add_argument("--trace", default=None, metavar="FILE",
                         help="write a binary solver event trace to FILE "
                              "(render: python -m repro.obs report FILE)")
    p_color.add_argument("--metrics", default=None, metavar="FILE",
                         help="write the run's metrics snapshot to FILE "
                              "as sorted JSON")
    p_color.set_defaults(func=cmd_color)

    p_chrom = sub.add_parser(
        "chromatic",
        help="chromatic number via the repeated-SAT K-search (pure CNF)")
    p_chrom.add_argument("graph", help="DIMACS .col file")
    p_chrom.add_argument("--strategy", default="linear",
                         choices=("linear", "binary"),
                         help="descend linearly from the DSATUR bound or "
                              "bisect between the clique and DSATUR bounds")
    p_chrom.add_argument("--sbp", default="none",
                         choices=("none", "nu", "sc", "nu+sc"),
                         help="CNF-expressible symmetry-breaking predicates")
    p_chrom.add_argument("--time-limit", type=float, default=300.0)
    p_chrom.add_argument("--show-coloring", action="store_true")
    p_chrom.add_argument(
        "--preprocess", default=True, action=argparse.BooleanOptionalAction,
        help="preprocess the CNF before solving (the full preprocessor; "
             "the incremental path freezes its activation literals)")
    p_chrom.add_argument(
        "--reduce", default=True, action=argparse.BooleanOptionalAction,
        help="kernelize before encoding (once, at the clique bound)")
    p_chrom.add_argument(
        "--incremental", default=True, action=argparse.BooleanOptionalAction,
        help="drive the whole K descent through one persistent solver "
             "(the cdcl-incremental backend); --no-incremental selects "
             "cdcl-scratch, one fresh solver per K query")
    p_chrom.add_argument(
        "--portfolio", action="store_true",
        help="race cdcl-incremental, pb-pueblo and exact-dsatur on the "
             "whole problem; first conclusive answer cancels the rest")
    p_chrom.add_argument("--trace", default=None, metavar="FILE",
                         help="write a binary solver event trace to FILE "
                              "(render: python -m repro.obs report FILE)")
    p_chrom.add_argument("--metrics", default=None, metavar="FILE",
                         help="write the run's metrics snapshot to FILE "
                              "as sorted JSON")
    p_chrom.set_defaults(func=cmd_chromatic)

    p_detect = sub.add_parser("detect", help="symmetry statistics of the encoding")
    p_detect.add_argument("graph", help="DIMACS .col file")
    p_detect.add_argument("--k", type=int, default=8, help="color budget")
    p_detect.add_argument("--sbp", default="none", choices=SBP_KINDS)
    p_detect.add_argument("--node-limit", type=int, default=100000)
    p_detect.set_defaults(func=cmd_detect)

    p_backends = sub.add_parser(
        "backends", help="list the registered solve backends")
    p_backends.set_defaults(func=cmd_backends)

    p_batch = sub.add_parser(
        "batch",
        help="run a manifest of problems across a parallel worker pool")
    p_batch.add_argument("manifest", help="JSON or JSONL task manifest")
    p_batch.add_argument("--jobs", "-j", type=non_negative_int, default=1,
                         help="concurrent worker processes (0 = run inline "
                              "in this process, cooperative timeouts only)")
    p_batch.add_argument("--task-timeout", type=positive_float, default=None,
                         help="wall-clock seconds per attempt; a timed-out "
                              "attempt moves to the next fallback backend")
    p_batch.add_argument("--fallback", action="append", default=[],
                         help="backend(s) appended to every task's fallback "
                              "chain (repeatable or comma-separated)")
    p_batch.add_argument("--retries", type=non_negative_int, default=1,
                         help="retries per backend when a worker dies")
    p_batch.add_argument("--out", default="-",
                         help="JSONL output path ('-' = stdout; the summary "
                              "always also goes to stderr)")
    p_batch.add_argument("--resume", default=None, metavar="JSONL",
                         help="treat JSONL as the write-ahead log of an "
                              "interrupted run: completed tasks are replayed "
                              "byte-identically, a torn tail line is dropped, "
                              "and only the remaining tasks are solved")
    p_batch.add_argument("--plugin", action="append", default=[],
                         help="module name or .py path imported in every "
                              "worker (e.g. to register custom backends)")
    p_batch.add_argument("--colorings", action="store_true",
                         help="include the full vertex coloring in records")
    p_batch.add_argument("--quiet", action="store_true",
                         help="suppress per-task progress on stderr")
    p_batch.set_defaults(func=cmd_batch)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        # A missing input (graph, manifest, --resume log) is a usage
        # error: one line naming the path, not a traceback.
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
