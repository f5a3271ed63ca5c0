"""Per-module fact extraction for the whole-program analyzer.

One :class:`ModuleFacts` summarizes everything the interprocedural
layer needs to know about a file *without re-reading it*: the functions
it defines (with parameter signatures classified as stop-/deadline-
carrying), the import-resolved calls each function makes (with whether
the call forwards a stop callable or a deadline), loop markers
(``while True`` in the function's own scope), and nondeterminism
sources (the same sites RPR003 hunts, recorded everywhere as RPR010
taint roots).

Facts are plain frozen dataclasses, extracted once per file per run;
the call graph (:mod:`repro.analysis.callgraph`) is assembled from them
alone.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import ScopeResolver, SourceFile

#: Function names that mark public solve entry points for RPR008's
#: reachability cone (plus exact ``run`` — the Backend protocol method).
SOLVE_ENTRY_RE = re.compile(
    r"solve|minimi|optimi|search|descent|decide|probe|chromatic|^run$",
    re.IGNORECASE,
)

#: Parameter names/annotations that carry a cancellation channel.
STOP_PARAM_RE = re.compile(r"should_stop|run_context|cancel|^ctx$|^stop$")
STOP_ANNOTATION_RE = re.compile(r"RunContext|ShouldStop")
#: Names whose appearance in a call argument means the cancellation
#: channel is forwarded.
STOP_FORWARD_RE = re.compile(r"should_stop|run_context|cancel|^ctx$|^stop$")

#: Parameter names/annotations that carry a deadline or budget object.
DEADLINE_PARAM_RE = re.compile(r"deadline|budget")
DEADLINE_ANNOTATION_RE = re.compile(r"\bDeadline\b|\bBudget\b")
#: Callees can also receive time as a plain float bound.
TIME_LIMIT_PARAM_RE = re.compile(r"time_limit|deadline|budget")
#: Names whose appearance in a call argument means a deadline (or a
#: share/child/remaining slice of one) flows into the callee.
DEADLINE_FORWARD_RE = re.compile(r"deadline|budget|time_limit")

#: First path segments of trees analyzed alongside the package — their
#: modules keep the tree name as the package root (``scripts.check_bench``).
_NON_PACKAGE_ROOTS = frozenset({"scripts", "benchmarks", "examples", "tests"})


@dataclass(frozen=True)
class NondetFact:
    """One nondeterminism source inside a function (RPR010 taint root)."""

    detail: str
    line: int


@dataclass(frozen=True)
class CallSite:
    """One call made by a function, with forwarding classification.

    ``kind`` is how the callee was named at the call site:

    - ``name``: a bare name (``helper(...)``)
    - ``dotted``: a dotted chain rooted at a name (``mod.helper(...)``)
    - ``self``: a method on the caller's own class (``self.m(...)``)
    - ``method``: an attribute call on a non-name object
      (``self._search.solve_k(...)``) — resolvable only by unique
      method name
    """

    kind: str
    target: str
    line: int
    col: int
    passes_stop: bool
    passes_deadline: bool


@dataclass(frozen=True)
class FunctionFacts:
    """Summary of one function (or method, or nested function)."""

    name: str
    qname: str  # module-local: "Class.method", "outer.inner", "func"
    class_name: str  # "" for free functions
    parent: str  # qname of the enclosing function, "" if top-level
    line: int
    params: Tuple[str, ...]
    accepts_stop: bool
    accepts_deadline: bool
    accepts_time_limit: bool
    has_unbounded_loop: bool
    nondet: Tuple[NondetFact, ...]
    calls: Tuple[CallSite, ...]


@dataclass(frozen=True)
class ImportFact:
    """One name binding created by an import statement.

    ``attr`` is empty for module imports (``import a.b as x``) and the
    imported symbol name for from-imports (``from a.b import c``).
    """

    name: str
    module: str
    attr: str


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the call-graph layer needs from one file."""

    module: str  # dotted module name, e.g. "repro.api.session"
    rel: str  # package-relative path, e.g. "api/session.py"
    path: str  # path as given on the command line
    is_package: bool  # True for __init__.py
    imports: Tuple[ImportFact, ...]
    functions: Tuple[FunctionFacts, ...]
    classes: Tuple[str, ...]


def module_name_for(rel: str) -> Tuple[str, bool]:
    """(dotted module name, is_package) for a package-relative path.

    Files under the ``repro`` package get the ``repro.`` prefix; files
    from sibling trees (``scripts/``, ``benchmarks/``, ``examples/``)
    keep the tree name as their package root.
    """
    parts = rel.split("/")
    is_package = parts[-1] == "__init__.py"
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if is_package:
        parts = parts[:-1]
    if not parts or parts[0] not in _NON_PACKAGE_ROOTS:
        parts = ["repro", *parts]
    return ".".join(parts), is_package


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


def _param_names(args: ast.arguments) -> List[ast.arg]:
    out: List[ast.arg] = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg is not None:
        out.append(args.vararg)
    if args.kwarg is not None:
        out.append(args.kwarg)
    return out


def _annotation_text(annotation: Optional[ast.expr]) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""


def _flatten_attribute(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None when the base is not a name."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def _is_none_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _call_forwards(call: ast.Call, name_re: "re.Pattern[str]") -> bool:
    """True when any argument of ``call`` threads a matching channel.

    A keyword whose *name* matches counts only with a non-None value
    (``should_stop=None`` is an explicit drop, not a forward); any
    argument whose expression mentions a matching name or attribute
    counts (``ctx.cancelled if ctx.cancel else None`` forwards ``ctx``).
    """
    for kw in call.keywords:
        if (
            kw.arg is not None
            and name_re.search(kw.arg)
            and not _is_none_constant(kw.value)
        ):
            return True
    exprs: List[ast.expr] = list(call.args)
    exprs.extend(kw.value for kw in call.keywords)
    for expr in exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and name_re.search(sub.id):
                return True
            if isinstance(sub, ast.Attribute) and name_re.search(sub.attr):
                return True
    return False


def _classify_call(call: ast.Call) -> Optional[Tuple[str, str]]:
    """(kind, target) for a call site, or None for unresolvable shapes."""
    func = call.func
    if isinstance(func, ast.Name):
        return "name", func.id
    if isinstance(func, ast.Attribute):
        chain = _flatten_attribute(func)
        if chain is not None:
            if chain[0] == "self":
                if len(chain) == 2:
                    return "self", chain[1]
                return "method", chain[-1]
            return "dotted", ".".join(chain)
        return "method", func.attr
    return None  # call of a call, subscript, lambda, ...


def _walk_own_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without entering nested def/class scopes
    (lambdas stay in the enclosing scope)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _iter_function_defs(
    tree: ast.Module,
) -> Iterator[Tuple["ast.FunctionDef | ast.AsyncFunctionDef", str, str, str]]:
    """(def node, local qname, class name, parent function qname) for
    every function in the module: top-level, methods, and nested defs
    (including defs under ``if``/``try`` blocks inside a scope)."""

    def visit(
        node: ast.AST, prefix: str, class_name: str, parent: str
    ) -> Iterator[Tuple["ast.FunctionDef | ast.AsyncFunctionDef", str, str, str]]:
        for child in _walk_own_scope(node):
            if isinstance(child, _FuncDef):
                qname = f"{prefix}{child.name}"
                yield child, qname, class_name, parent
                yield from visit(child, f"{qname}.", class_name, qname)
            elif isinstance(child, ast.ClassDef) and not parent:
                yield from visit(child, f"{child.name}.", child.name, parent)

    yield from visit(tree, "", "", "")


def extract_module_facts(source: SourceFile) -> ModuleFacts:
    """Extract all whole-program facts from one parsed file."""
    module, is_package = module_name_for(source.rel)
    resolver = ScopeResolver(source)

    imports: List[ImportFact] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports.append(ImportFact(name=local, module=target, attr=""))
                if alias.asname is None and "." in alias.name:
                    # `import a.b.c` also makes the full dotted path
                    # addressable; record it for longest-prefix lookup.
                    imports.append(
                        ImportFact(name=alias.name, module=alias.name, attr="")
                    )
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_import(module, is_package, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports.append(
                    ImportFact(name=local, module=base, attr=alias.name)
                )

    # Map nondeterminism sites to their enclosing function.
    from .rules import iter_nondet_sites  # deferred: rules imports core only

    def_index: Dict[int, str] = {}
    functions: List[FunctionFacts] = []
    defs = list(_iter_function_defs(source.tree))
    for func, qname, _class_name, _parent in defs:
        def_index[id(func)] = qname

    nondet_by_func: Dict[str, List[NondetFact]] = {}
    for node, detail, _message in iter_nondet_sites(source, resolver):
        current: Optional[ast.AST] = node
        owner = ""
        while current is not None:
            if id(current) in def_index:
                owner = def_index[id(current)]
                break
            current = source.parent(current)
        if owner:
            nondet_by_func.setdefault(owner, []).append(
                NondetFact(detail=detail, line=getattr(node, "lineno", 1))
            )

    classes = tuple(
        node.name
        for node in ast.iter_child_nodes(source.tree)
        if isinstance(node, ast.ClassDef)
    )

    for func, qname, class_name, parent in defs:
        params = _param_names(func.args)
        accepts_stop = False
        accepts_deadline = False
        accepts_time_limit = False
        for arg in params:
            annotation = _annotation_text(arg.annotation)
            if STOP_PARAM_RE.search(arg.arg) or STOP_ANNOTATION_RE.search(
                annotation
            ):
                accepts_stop = True
            if DEADLINE_PARAM_RE.search(arg.arg) or (
                DEADLINE_ANNOTATION_RE.search(annotation)
            ):
                accepts_deadline = True
            if TIME_LIMIT_PARAM_RE.search(arg.arg):
                accepts_time_limit = True

        has_unbounded_loop = any(
            isinstance(node, ast.While)
            and isinstance(node.test, ast.Constant)
            and bool(node.test.value)
            for node in _walk_own_scope(func)
        )

        calls: List[CallSite] = []
        for node in _walk_own_scope(func):
            if not isinstance(node, ast.Call):
                continue
            classified = _classify_call(node)
            if classified is None:
                continue
            kind, target = classified
            calls.append(
                CallSite(
                    kind=kind,
                    target=target,
                    line=node.lineno,
                    col=node.col_offset,
                    passes_stop=_call_forwards(node, STOP_FORWARD_RE),
                    passes_deadline=_call_forwards(node, DEADLINE_FORWARD_RE),
                )
            )

        functions.append(
            FunctionFacts(
                name=func.name,
                qname=qname,
                class_name=class_name,
                parent=parent,
                line=func.lineno,
                params=tuple(arg.arg for arg in params),
                accepts_stop=accepts_stop,
                accepts_deadline=accepts_deadline,
                accepts_time_limit=accepts_time_limit,
                has_unbounded_loop=has_unbounded_loop,
                nondet=tuple(nondet_by_func.get(qname, [])),
                calls=tuple(calls),
            )
        )

    return ModuleFacts(
        module=module,
        rel=source.rel,
        path=str(source.path),
        is_package=is_package,
        imports=tuple(imports),
        functions=tuple(functions),
        classes=classes,
    )


def _resolve_from_import(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted module a from-import pulls names out of."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    base = parts if is_package else parts[:-1]
    drop = node.level - 1
    if drop > len(base):
        return None
    if drop:
        base = base[:-drop]
    if node.module:
        return ".".join([*base, node.module]) if base else node.module
    return ".".join(base) if base else None
