"""Batch manifests: declarative task lists the fleet runner executes.

A manifest names *what* to solve without holding any live objects, so
tasks ship to worker processes as plain dicts and round-trip through
JSON.  Each task combines:

* a **graph source** (:class:`GraphSpec`): a DIMACS ``.col`` path, a
  registered benchmark instance name (``repro.experiments.instances``),
  a generator spec (``{"generator": "queens", "args": [5, 5]}``), or an
  inline edge list;
* a **problem kind** (``chromatic`` / ``decision`` / ``budgeted``) with
  its budget;
* the **pipeline knobs** (backend, fallback chain, SBP kind, strategy,
  reduce/simplify toggles, instance-dependent detection and its node
  limit, per-engine time limit).

File formats: a ``.json`` manifest is either a JSON list of task dicts
or ``{"defaults": {...}, "plugins": [...], "tasks": [...]}``; a
``.jsonl`` manifest is one task object per line (an object with only a
``defaults``/``plugins`` key updates the running defaults for the lines
after it).  ``defaults`` supplies any task field; each task overrides.

``plugins`` lists modules (import names or ``.py`` paths) imported
before tasks are parsed — the hook for registering custom backends via
:func:`repro.api.register_backend` so batch runs can target engines the
core does not ship.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.dimacs import read_dimacs_graph
from ..graphs.generators import (
    book_graph,
    games_graph,
    geometric_graph,
    gnm_graph,
    gnp_graph,
    interference_graph,
    mycielski_graph,
    queens_graph,
)
from ..graphs.graph import Graph

if TYPE_CHECKING:  # lazy at runtime: the api package imports this module
    from ..api.pipeline import Pipeline
    from ..api.problems import Problem

# Generator specs name these constructors; args may be positional
# (JSON list) or keyword (JSON object).
GENERATORS: Dict[str, Callable[..., Graph]] = {
    "queens": queens_graph,
    "mycielski": mycielski_graph,
    "gnm": gnm_graph,
    "gnp": gnp_graph,
    "book": book_graph,
    "games": games_graph,
    "geometric": geometric_graph,
    "interference": interference_graph,
}

PROBLEM_KIND_ALIASES = {
    "chromatic": "chromatic",
    "decision": "decision",
    "budgeted": "budgeted-optimize",
    "budgeted-optimize": "budgeted-optimize",
}


def load_plugins(specs: Sequence[str]) -> None:
    """Import plugin modules (by import name or ``.py`` file path).

    Plugins run for their side effects — typically
    :func:`repro.api.register_backend` calls — both in the coordinating
    process (so task validation sees the extra backends) and again in
    every worker.
    """
    for spec in specs:
        if spec.endswith(".py") or os.sep in spec:
            name = "repro_batch_plugin_" + os.path.splitext(os.path.basename(spec))[0]
            loader_spec = importlib.util.spec_from_file_location(name, spec)
            if loader_spec is None or loader_spec.loader is None:
                raise ValueError(f"cannot load batch plugin from {spec!r}")
            module = importlib.util.module_from_spec(loader_spec)
            loader_spec.loader.exec_module(module)
        else:
            importlib.import_module(spec)


@dataclass(frozen=True)
class GraphSpec:
    """One graph source; exactly one of the four fields is set."""

    path: Optional[str] = None
    instance: Optional[str] = None
    generator: Optional[str] = None
    args: Any = None  # positional list or kwargs dict for `generator`
    edges: Optional[Tuple[int, Tuple[Tuple[int, int], ...]]] = None
    name: str = ""

    def __post_init__(self) -> None:
        sources = [
            s for s in ("path", "instance", "generator", "edges")
            if getattr(self, s) is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "graph spec needs exactly one of path/instance/generator/"
                f"edges, got {sources or 'none'}"
            )
        if self.generator is not None and self.generator not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; registered "
                f"generators: {tuple(sorted(GENERATORS))}"
            )

    @classmethod
    def from_value(cls, value: object) -> "GraphSpec":
        """Parse the manifest's ``graph`` field (string shorthand or dict).

        A bare string is a ``.col`` path if it looks like one, else a
        registered instance name.
        """
        if isinstance(value, GraphSpec):
            return value
        if isinstance(value, str):
            if value.endswith(".col") or os.sep in value:
                return cls(path=value)
            return cls(instance=value)
        if isinstance(value, dict):
            known = {
                "path", "instance", "generator", "args", "edges",
                "vertices", "name",
            }
            unknown = set(value) - known
            if unknown:
                raise ValueError(
                    f"unknown graph spec fields {sorted(unknown)}; "
                    f"expected a subset of {sorted(known)}"
                )
            edges = value.get("edges")
            if edges is not None:
                pairs = tuple((int(u), int(v)) for u, v in edges)
                if "vertices" in value:
                    num_vertices = int(value["vertices"])
                else:
                    num_vertices = max(
                        (max(u, v) for u, v in pairs), default=-1
                    ) + 1
                edges = (num_vertices, pairs)
            return cls(
                path=value.get("path"),
                instance=value.get("instance"),
                generator=value.get("generator"),
                args=value.get("args"),
                edges=edges,
                name=value.get("name", ""),
            )
        raise ValueError(f"cannot parse graph spec from {value!r}")

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphSpec":
        """Inline spec for a live Graph (used when the API caller hands
        Problems rather than manifest entries)."""
        return cls(
            edges=(graph.num_vertices, tuple(graph.edges())),
            name=graph.name,
        )

    def build(self) -> Graph:
        """Construct the graph this spec names."""
        if self.path is not None:
            return read_dimacs_graph(self.path, name=self.name or self.path)
        if self.instance is not None:
            from ..experiments.instances import get_instance

            return get_instance(self.instance).graph()
        if self.generator is not None:
            fn = GENERATORS[self.generator]
            if isinstance(self.args, dict):
                graph = fn(**self.args)
            elif self.args is None:
                graph = fn()
            else:
                graph = fn(*self.args)
            if self.name:
                graph.name = self.name
            return graph
        assert self.edges is not None  # __post_init__ guarantees one source
        num_vertices, edges = self.edges
        return Graph.from_edges(num_vertices, edges, name=self.name)

    def describe(self) -> str:
        """A short human label (the default task name)."""
        if self.name:
            return self.name
        if self.instance is not None:
            return self.instance
        if self.path is not None:
            return os.path.splitext(os.path.basename(self.path))[0]
        if self.generator is not None:
            if isinstance(self.args, dict):
                arg_text = ",".join(f"{k}={v}" for k, v in self.args.items())
            else:
                arg_text = ",".join(str(a) for a in (self.args or ()))
            return f"{self.generator}({arg_text})"
        return f"edges[{self.edges[0] if self.edges else 0}v]"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        if self.path is not None:
            out["path"] = self.path
        if self.instance is not None:
            out["instance"] = self.instance
        if self.generator is not None:
            out["generator"] = self.generator
            if self.args is not None:
                out["args"] = self.args
        if self.edges is not None:
            out["vertices"] = self.edges[0]
            out["edges"] = [list(e) for e in self.edges[1]]
        if self.name:
            out["name"] = self.name
        return out


@dataclass(frozen=True)
class TaskSpec:
    """One batch task: a graph source, a problem, and pipeline knobs."""

    graph: GraphSpec
    name: str = ""
    kind: str = "chromatic"
    k: Optional[int] = None  # decision budget
    max_colors: Optional[int] = None  # chromatic cap / budgeted budget
    backend: str = "cdcl-incremental"
    fallback: Tuple[str, ...] = ()
    sbp_kind: str = "none"
    strategy: Optional[str] = None
    reduce: bool = True
    simplify: bool = True
    instance_dependent: bool = False
    detection_node_limit: Optional[int] = None  # None = SymmetryConfig default
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        kind = PROBLEM_KIND_ALIASES.get(self.kind)
        if kind is None:
            raise ValueError(
                f"unknown problem kind {self.kind!r}; expected one of "
                f"{tuple(sorted(set(PROBLEM_KIND_ALIASES)))}"
            )
        object.__setattr__(self, "kind", kind)
        if kind == "decision" and self.k is None:
            raise ValueError(f"decision task {self.describe()!r} needs 'k'")
        if kind == "budgeted-optimize" and self.max_colors is None:
            raise ValueError(
                f"budgeted task {self.describe()!r} needs 'max_colors'"
            )
        object.__setattr__(self, "fallback", tuple(self.fallback))

    def describe(self) -> str:
        return self.name or self.graph.describe()

    @property
    def backends(self) -> Tuple[str, ...]:
        """The backend chain: primary first, fallbacks in order."""
        chain = [self.backend]
        for name in self.fallback:
            if name not in chain:
                chain.append(name)
        return tuple(chain)

    def with_global_fallback(self, fallback: Sequence[str]) -> "TaskSpec":
        """Append runner-level fallback backends to this task's chain."""
        extra = [b for b in fallback if b not in self.backends]
        if not extra:
            return self
        return replace(self, fallback=self.fallback + tuple(extra))

    # ------------------------------------------------------------ execution
    def problem(self, graph: Graph) -> "Problem":
        """The api Problem value object this task asks for."""
        from ..api.problems import (
            BudgetedOptimize,
            ChromaticProblem,
            DecisionProblem,
        )

        if self.kind == "decision":
            assert self.k is not None  # __post_init__ guarantees it
            return DecisionProblem(graph, self.k)
        if self.kind == "budgeted-optimize":
            assert self.max_colors is not None  # __post_init__ guarantees it
            return BudgetedOptimize(graph, self.max_colors)
        return ChromaticProblem(graph, max_colors=self.max_colors)

    def pipeline(self, backend: str, time_limit: Optional[float]) -> "Pipeline":
        """The configured api Pipeline for one attempt on ``backend``."""
        from ..api.pipeline import Pipeline

        symmetry_kwargs: Dict[str, Any] = {
            "sbp_kind": self.sbp_kind,
            "instance_dependent": self.instance_dependent,
        }
        if self.detection_node_limit is not None:
            symmetry_kwargs["detection_node_limit"] = self.detection_node_limit
        return (
            Pipeline()
            .reduce(self.reduce)
            .symmetry(**symmetry_kwargs)
            .simplify(self.simplify)
            .solve(backend=backend, strategy=self.strategy, time_limit=time_limit)
        )

    # -------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaskSpec":
        """Parse one manifest task entry (strict: unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown task fields {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        if "graph" not in data:
            raise ValueError(f"task entry needs a 'graph' source: {data!r}")
        kwargs: Dict[str, Any] = dict(data)
        kwargs["graph"] = GraphSpec.from_value(kwargs["graph"])
        fallback = kwargs.get("fallback", ())
        if isinstance(fallback, str):
            fallback = tuple(p for p in fallback.split(",") if p)
        kwargs["fallback"] = tuple(fallback)
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, object]:
        """Manifest-shaped dict (round-trips through ``from_dict``)."""
        out: Dict[str, object] = {"graph": self.graph.to_dict()}
        defaults = TaskSpec(graph=self.graph)
        for f in fields(self):
            if f.name == "graph":
                continue
            value = getattr(self, f.name)
            if value != getattr(defaults, f.name):
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def as_task(item: object, index: int = 0) -> TaskSpec:
    """Coerce one `solve_many` input item to a TaskSpec.

    Accepts TaskSpec (as-is), a manifest-style dict, an api Problem
    (wrapped with an inline edge-list graph spec), or a ``(name,
    problem)`` pair.
    """
    from ..api.problems import (
        BudgetedOptimize,
        ChromaticProblem,
        DecisionProblem,
        Problem,
    )

    name = ""
    if (
        isinstance(item, tuple) and len(item) == 2
        and isinstance(item[0], str) and isinstance(item[1], Problem)
    ):
        name, item = item
    if isinstance(item, TaskSpec):
        return item
    if isinstance(item, dict):
        return TaskSpec.from_dict(item)
    if isinstance(item, Problem):
        spec = GraphSpec.from_graph(item.graph)
        kwargs: Dict[str, Any] = {
            "graph": spec,
            "kind": item.kind,
            "name": name or spec.describe() or f"task-{index}",
        }
        if isinstance(item, DecisionProblem):
            kwargs["k"] = item.k
        elif isinstance(item, BudgetedOptimize):
            kwargs["max_colors"] = item.max_colors
            kwargs["backend"] = "pb-pbs2"
        elif isinstance(item, ChromaticProblem):
            kwargs["max_colors"] = item.max_colors
        return TaskSpec(**kwargs)
    raise ValueError(
        f"cannot interpret batch task {item!r}; expected TaskSpec, dict, "
        "api Problem, or (name, Problem)"
    )


@dataclass
class Manifest:
    """A parsed manifest: tasks plus the plugin modules they rely on."""

    tasks: List[TaskSpec] = field(default_factory=list)
    plugins: Tuple[str, ...] = ()


def _merge_defaults(defaults: Dict[str, Any], entry: Dict[str, Any]) -> Dict[str, Any]:
    merged = dict(defaults)
    merged.update(entry)
    return merged


def load_manifest(path: str) -> Manifest:
    """Load a ``.json`` or ``.jsonl`` manifest from ``path``.

    Plugins named by the manifest are imported *before* tasks are
    parsed, so tasks may target plugin-registered backends.
    """
    with open(path) as fh:
        if path.endswith(".jsonl"):
            entries = []
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    # Each line is its own document: name the file's line.
                    raise ValueError(
                        f"line {number}: {exc.msg} (column {exc.colno})"
                    ) from None
        else:
            payload = json.load(fh)
            if isinstance(payload, list):
                entries = payload
            elif isinstance(payload, dict):
                entries = []
                meta = {
                    k: payload[k] for k in ("defaults", "plugins")
                    if k in payload
                }
                if meta:
                    entries.append(meta)
                entries.extend(payload.get("tasks", ()))
            else:
                raise ValueError(
                    f"manifest {path!r} must be a JSON list or object, "
                    f"got {type(payload).__name__}"
                )
    manifest = Manifest()
    defaults: Dict[str, Any] = {}
    plugins: List[str] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"manifest entries must be objects, got {entry!r}")
        if set(entry) <= {"defaults", "plugins"}:
            new_plugins = tuple(entry.get("plugins", ()))
            load_plugins(new_plugins)
            plugins.extend(new_plugins)
            defaults = _merge_defaults(defaults, entry.get("defaults", {}))
            continue
        manifest.tasks.append(TaskSpec.from_dict(_merge_defaults(defaults, entry)))
    manifest.plugins = tuple(plugins)
    _uniquify_names(manifest.tasks)
    return manifest


def _uniquify_names(tasks: List[TaskSpec]) -> None:
    """Give every task a distinct non-empty name (stable across runs)."""
    seen: Dict[str, int] = {}
    for i, task in enumerate(tasks):
        base = task.describe() or f"task-{i}"
        count = seen.get(base, 0)
        seen[base] = count + 1
        name = base if count == 0 else f"{base}#{count + 1}"
        if name != task.name:
            tasks[i] = replace(task, name=name)
