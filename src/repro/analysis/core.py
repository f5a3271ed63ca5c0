"""Core machinery of the solver-invariant static checker.

The framework is deliberately small: a :class:`SourceFile` wraps one
parsed module (AST, source lines, parent links, suppression comments),
a :class:`Rule` inspects it and yields :class:`Finding` objects, and
:class:`ScopeResolver` provides the per-file name-binding inference the
rules share (which local names are set-typed, which are nested
functions, which executors are thread- vs process-backed).

Suppressions use ``# repro: allow[RPR003] reason`` comments.  The
reason is mandatory — a reasonless suppression is itself reported (as
``RPR000``), so every silenced finding carries its justification in
the diff that introduced it.  A trailing comment suppresses its own
line; a standalone comment suppresses the next line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .callgraph import CallGraph

#: The pseudo-rule used for problems with the suppression comments
#: themselves (missing reason, unknown rule id).  Not suppressible.
META_RULE_ID = "RPR000"

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_,\s-]+)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source": self.source_line,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow[...]`` comment."""

    line: int  # line the suppression applies to (not the comment line)
    comment_line: int
    rule_ids: Tuple[str, ...]
    reason: str

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.rule_ids and bool(self.reason.strip())


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every suppression comment with the line it applies to."""
    out: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    # Lines that contain something other than the comment itself: a
    # trailing suppression applies to its own line, a standalone one to
    # the next line.
    code_lines: Set[int] = set()
    for tok in tokens:
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            continue
        for lineno in range(tok.start[0], tok.end[0] + 1):
            code_lines.add(lineno)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(tok.string)
        if match is None:
            continue
        rule_ids = tuple(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        comment_line = tok.start[0]
        target = comment_line if comment_line in code_lines else comment_line + 1
        out.append(
            Suppression(
                line=target,
                comment_line=comment_line,
                rule_ids=rule_ids,
                reason=match.group("reason").strip(),
            )
        )
    return out


class SourceFile:
    """One parsed module plus everything the rules need to inspect it."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.rel = rel  # package-relative posix path, e.g. "coloring/reduce.py"
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions = parse_suppressions(source)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path, rel, source, tree)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def scope_chain(self, node: ast.AST) -> List[str]:
        """Names of the enclosing functions/classes, outermost first."""
        chain: List[str] = []
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                chain.append(current.name)
            current = self.parent(current)
        chain.reverse()
        return chain

    def finding(
        self, rule_id: str, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule_id,
            path=str(self.path),
            line=lineno,
            col=col,
            message=message,
            source_line=self.line_text(lineno).rstrip(),
        )


def package_rel(path: Path) -> str:
    """Path relative to the enclosing ``repro`` package (posix form).

    Rules scope by package-internal location (``sat/``, ``coloring/``,
    ...), so the checker must see the same relative name whether it is
    pointed at ``src/``, at ``src/repro`` or at a fixture tree that
    mirrors the package layout under some other root.
    """
    parts = list(path.parts)
    for anchor in ("repro", "src"):
        if anchor in parts[:-1]:
            head = parts[:-1]
            index = len(head) - 1 - head[::-1].index(anchor)
            tail = parts[index + 1 :]
            if anchor == "src" and tail and tail[0] == "repro":
                tail = tail[1:]
            return "/".join(tail)
    return "/".join(parts[-2:]) if len(parts) > 1 else parts[-1]


# --------------------------------------------------------------------------
# Per-file scope resolution
# --------------------------------------------------------------------------

#: Methods whose return value is a set in this codebase (the adjacency
#: sets of :class:`repro.graphs.graph.Graph` above all).
SET_RETURNING_METHODS = frozenset(
    {"neighbors", "intersection", "union", "difference", "symmetric_difference"}
)

KIND_SET = "set"
KIND_LIST_OF_SET = "list_of_set"
KIND_NESTED_FUNC = "nested_func"
KIND_THREAD_EXECUTOR = "thread_executor"
KIND_PROCESS_EXECUTOR = "process_executor"
KIND_WORKER = "worker"


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    if isinstance(target, ast.Name):
        return target.id in (
            "set",
            "frozenset",
            "Set",
            "FrozenSet",
            "AbstractSet",
            "MutableSet",
        )
    return False


def _last_name(node: Optional[ast.expr]) -> Optional[str]:
    """``x`` for ``x`` and ``mod.x``; ``None`` for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _annotation_is_worker(annotation: Optional[ast.expr]) -> bool:
    """``Worker`` or ``mod.Worker``, bare or as ``Optional[...]``."""
    if isinstance(annotation, ast.Subscript) and _last_name(annotation.value) == "Optional":
        annotation = annotation.slice
    return _last_name(annotation) == "Worker"


class ScopeInfo:
    """Name kinds inferred for one function (or module) scope."""

    def __init__(self) -> None:
        self.kinds: Dict[str, str] = {}
        self._conflicted: Set[str] = set()

    def bind(self, name: str, kind: Optional[str]) -> None:
        if name in self._conflicted:
            return
        if kind is None:
            # An assignment we cannot type invalidates earlier inference.
            if name in self.kinds:
                del self.kinds[name]
                self._conflicted.add(name)
            return
        previous = self.kinds.get(name)
        if previous is not None and previous != kind:
            del self.kinds[name]
            self._conflicted.add(name)
            return
        self.kinds[name] = kind

    def kind_of(self, name: str) -> Optional[str]:
        return self.kinds.get(name)


class ScopeResolver:
    """Best-effort per-file name-binding inference.

    The resolver walks every function scope once, recording which local
    names are bound to set-typed values, lists of sets, nested function
    definitions, thread/process pool executors, or
    :class:`repro.resilience.Worker` objects.  It is deliberately
    conservative: a name assigned conflicting kinds is forgotten.
    """

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self._scopes: Dict[int, ScopeInfo] = {}
        module_scope = self._build_scope(source.tree)
        self._scopes[id(source.tree)] = module_scope

    def scope_for(self, node: ast.AST) -> ScopeInfo:
        """The :class:`ScopeInfo` of the innermost scope containing ``node``."""
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if id(current) not in self._scopes:
                    self._scopes[id(current)] = self._build_scope(current)
                return self._scopes[id(current)]
            current = self.source.parent(current)
        return self._scopes[id(self.source.tree)]

    # ------------------------------------------------------------ inference
    def _build_scope(self, root: ast.AST) -> ScopeInfo:
        info = ScopeInfo()
        if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = root.args
            for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]:
                if _annotation_is_set(arg.annotation):
                    info.bind(arg.arg, KIND_SET)
                elif _annotation_is_worker(arg.annotation):
                    info.bind(arg.arg, KIND_WORKER)
        for node in self._walk_scope(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A def nested inside a function is a closure candidate.
                if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.bind(node.name, KIND_NESTED_FUNC)
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    info.bind(target.id, self._infer(node.value, info))
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _annotation_is_set(node.annotation):
                    info.bind(node.target.id, KIND_SET)
                elif _annotation_is_worker(node.annotation):
                    info.bind(node.target.id, KIND_WORKER)
                elif node.value is not None:
                    info.bind(node.target.id, self._infer(node.value, info))
            elif isinstance(node, ast.withitem):
                if isinstance(node.optional_vars, ast.Name):
                    info.bind(
                        node.optional_vars.id,
                        self._infer(node.context_expr, info),
                    )
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                iter_kind = self._infer(node.iter, info)
                if iter_kind == KIND_LIST_OF_SET:
                    info.bind(node.target.id, KIND_SET)
        return info

    def _walk_scope(self, root: ast.AST) -> Iterator[ast.AST]:
        """Walk ``root`` without descending into nested function scopes."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # separate scope
            stack.extend(ast.iter_child_nodes(node))

    def _infer(self, node: ast.expr, info: ScopeInfo) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return KIND_SET
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return KIND_SET
                if func.id == "ThreadPoolExecutor":
                    return KIND_THREAD_EXECUTOR
                if func.id in ("ProcessPoolExecutor", "Pool"):
                    return KIND_PROCESS_EXECUTOR
                if func.id == "Worker":
                    return KIND_WORKER
                if func.id in ("sorted", "list", "tuple"):
                    return None
            if isinstance(func, ast.Attribute):
                if func.attr in SET_RETURNING_METHODS:
                    return KIND_SET
                if func.attr == "copy" and isinstance(func.value, ast.Name):
                    return info.kind_of(func.value.id)
            return None
        if isinstance(node, ast.ListComp):
            if self.expr_is_set(node.elt, info):
                return KIND_LIST_OF_SET
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            if self.expr_is_set(node.left, info) or self.expr_is_set(
                node.right, info
            ):
                return KIND_SET
            return None
        if isinstance(node, ast.Name):
            return info.kind_of(node.id)
        return None

    # ------------------------------------------------------------- queries
    def expr_is_set(self, node: ast.expr, info: Optional[ScopeInfo] = None) -> bool:
        """True when ``node`` statically resolves to a set/frozenset."""
        if info is None:
            info = self.scope_for(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
                return True
            return False
        if isinstance(node, ast.Name):
            return info.kind_of(node.id) == KIND_SET
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return info.kind_of(node.value.id) == KIND_LIST_OF_SET
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return self.expr_is_set(node.left, info) or self.expr_is_set(
                node.right, info
            )
        return False


# --------------------------------------------------------------------------
# Rule protocol + registry
# --------------------------------------------------------------------------


class Rule:
    """One invariant, checked per file.

    Subclasses set ``rule_id``/``title``/``rationale`` and implement
    :meth:`applies_to` (path scoping over the package-relative path)
    and :meth:`check`.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, rel: str) -> bool:
        raise NotImplementedError

    def check(self, source: SourceFile, resolver: ScopeResolver) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule:
    """One *interprocedural* invariant, checked over the project call
    graph rather than a single file.

    Subclasses set ``rule_id``/``title``/``rationale`` and implement
    :meth:`check_project`, which receives the assembled
    :class:`repro.analysis.callgraph.CallGraph` and yields findings
    anchored at call sites in individual files.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_project(self, graph: "CallGraph") -> Iterator[Finding]:
        raise NotImplementedError


_RULES: Dict[str, Rule] = {}
_PROJECT_RULES: Dict[str, ProjectRule] = {}


def register_rule(rule_class: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the default registry."""
    rule = rule_class()
    if not rule.rule_id:
        raise ValueError("rule must define rule_id")
    if rule.rule_id in _RULES or rule.rule_id in _PROJECT_RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _RULES[rule.rule_id] = rule
    return rule_class


def register_project_rule(rule_class: Type["ProjectRule"]) -> Type["ProjectRule"]:
    """Class decorator adding an interprocedural rule to the registry."""
    rule = rule_class()
    if not rule.rule_id:
        raise ValueError("rule must define rule_id")
    if rule.rule_id in _RULES or rule.rule_id in _PROJECT_RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _PROJECT_RULES[rule.rule_id] = rule
    return rule_class


def all_rules() -> List[Rule]:
    """Registered per-file rules, ordered by id."""
    return [_RULES[k] for k in sorted(_RULES)]


def all_project_rules() -> List[ProjectRule]:
    """Registered interprocedural rules, ordered by id."""
    return [_PROJECT_RULES[k] for k in sorted(_PROJECT_RULES)]


def known_rule_ids() -> Set[str]:
    """Every registered rule id, per-file and interprocedural."""
    return set(_RULES) | set(_PROJECT_RULES)


def get_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Look up per-file rules by id (all of them when ``rule_ids`` is
    None).  Ids naming interprocedural rules are skipped here — use
    :func:`select_rules` to split a mixed selection."""
    if rule_ids is None:
        return all_rules()
    return select_rules(rule_ids)[0]


def select_rules(
    rule_ids: Optional[Sequence[str]] = None,
) -> Tuple[List[Rule], List[ProjectRule]]:
    """Split a rule-id selection into (per-file rules, project rules).

    ``None`` selects everything.  Unknown ids raise ``KeyError``.
    """
    if rule_ids is None:
        return all_rules(), all_project_rules()
    file_rules: List[Rule] = []
    project_rules: List[ProjectRule] = []
    for rule_id in rule_ids:
        key = rule_id.strip().upper()
        if key in _RULES:
            file_rules.append(_RULES[key])
        elif key in _PROJECT_RULES:
            project_rules.append(_PROJECT_RULES[key])
        else:
            raise KeyError(
                f"unknown rule {rule_id!r}; known rules: "
                f"{sorted(known_rule_ids())}"
            )
    return file_rules, project_rules


@dataclass
class FileReport:
    """Findings of one file, before and after suppression."""

    source: SourceFile
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)


def run_file_rules(source: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    """Raw (pre-suppression) findings of the per-file ``rules``."""
    resolver = ScopeResolver(source)
    raw: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(source.rel):
            continue
        raw.extend(rule.check(source, resolver))
    return raw


def meta_findings(
    suppressions: Sequence[Suppression],
    path: str,
    line_text: Callable[[int], str],
    known_ids: Optional[Set[str]] = None,
) -> List[Finding]:
    """RPR000 findings for malformed suppression comments themselves."""
    if known_ids is None:
        known_ids = known_rule_ids()
    out: List[Finding] = []
    for supp in suppressions:
        if not supp.reason.strip():
            out.append(
                Finding(
                    rule_id=META_RULE_ID,
                    path=path,
                    line=supp.comment_line,
                    col=0,
                    message=(
                        "suppression without a reason: write "
                        "'# repro: allow[RULE-ID] why it is safe here'"
                    ),
                    source_line=line_text(supp.comment_line).rstrip(),
                )
            )
        for rule_id in supp.rule_ids:
            if rule_id not in known_ids and rule_id != META_RULE_ID:
                out.append(
                    Finding(
                        rule_id=META_RULE_ID,
                        path=path,
                        line=supp.comment_line,
                        col=0,
                        message=f"suppression names unknown rule {rule_id!r}",
                        source_line=line_text(supp.comment_line).rstrip(),
                    )
                )
    return out


def apply_suppressions(
    raw: Sequence[Finding], suppressions: Sequence[Suppression]
) -> Tuple[List[Finding], List[Finding]]:
    """Split raw findings into (kept, suppressed) by the allow comments."""
    by_line: Dict[int, List[Suppression]] = {}
    for supp in suppressions:
        by_line.setdefault(supp.line, []).append(supp)
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in sorted(raw, key=Finding.sort_key):
        candidates = by_line.get(finding.line, [])
        if finding.rule_id != META_RULE_ID and any(
            s.covers(finding.rule_id) for s in candidates
        ):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


def check_file(
    source: SourceFile, rules: Sequence[Rule]
) -> FileReport:
    """Run ``rules`` over one file and apply its suppression comments."""
    raw = run_file_rules(source, rules)
    raw.extend(
        meta_findings(
            source.suppressions,
            str(source.path),
            source.line_text,
            {rule.rule_id for rule in all_rules()} | set(_PROJECT_RULES),
        )
    )
    report = FileReport(source=source)
    report.findings, report.suppressed = apply_suppressions(
        raw, source.suppressions
    )
    return report
