"""File collection and whole-program rule execution.

:func:`run_project` is the analyzer's engine: it collects every
``.py`` file under the given paths, parses each one once for its
per-module facts and per-file rule findings, assembles the project call
graph, runs the interprocedural rules over it, and applies suppression
comments to the merged findings.  :func:`run` is the historical entry
point returning just the per-file results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from . import dataflow as _dataflow  # noqa: F401  (registers project rules)
from . import rules as _rules  # noqa: F401  (import registers the rules)
from .callgraph import CallGraph, build_call_graph
from .core import (
    Finding,
    SourceFile,
    Suppression,
    apply_suppressions,
    known_rule_ids,
    meta_findings,
    package_rel,
    run_file_rules,
    select_rules,
)
from .facts import ModuleFacts, extract_module_facts

#: Directories never worth descending into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".mypy_cache"}
)


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    out: List[Path] = []
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        for sub in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in sub.parts):
                continue
            out.append(sub)
    return sorted(set(out))


@dataclass
class FileResult:
    """Post-suppression findings of one analyzed file."""

    path: str
    rel: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)


@dataclass
class RunStats:
    """One run's cost/coverage summary (the ``make analyze`` one-liner)."""

    files: int = 0
    rules: int = 0
    findings: int = 0
    suppressed: int = 0
    seconds: float = 0.0


@dataclass
class ProjectReport:
    """Everything one analyzer run produced."""

    files: List[FileResult]
    graph: CallGraph
    stats: RunStats


class _Parsed(NamedTuple):
    """What the second pass needs of one file once its AST is dropped."""

    rel: str
    lines: List[str]
    suppressions: List[Suppression]
    raw_findings: List[Finding]

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def run_project(
    paths: Sequence[Path], rule_ids: Optional[Sequence[str]] = None
) -> ProjectReport:
    """Run the full analyzer (per-file + interprocedural) over ``paths``."""
    started = time.monotonic()
    file_rules, project_rules = select_rules(rule_ids)

    # One pass per file: facts and per-file findings, then the AST goes.
    # Files are visited in path-string order, the order reports use.
    parsed: Dict[str, _Parsed] = {}
    facts: List[ModuleFacts] = []
    for path in sorted(collect_files(paths), key=str):
        try:
            source = SourceFile.load(path, package_rel(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            raise RuntimeError(f"cannot parse {path}: {exc}") from exc
        facts.append(extract_module_facts(source))
        parsed[str(path)] = _Parsed(
            source.rel, source.lines, source.suppressions,
            run_file_rules(source, file_rules),
        )
    graph = build_call_graph(facts)

    project_raw: Dict[str, List[Finding]] = {}
    for rule in project_rules:
        for finding in rule.check_project(graph):
            owner = parsed.get(finding.path)
            if owner is not None:
                finding = replace(
                    finding, source_line=owner.line_text(finding.line).rstrip()
                )
            project_raw.setdefault(finding.path, []).append(finding)

    known = known_rule_ids()
    results: List[FileResult] = []
    for key, entry in parsed.items():
        raw = entry.raw_findings + project_raw.get(key, [])
        raw.extend(meta_findings(entry.suppressions, key, entry.line_text, known))
        kept, suppressed = apply_suppressions(raw, entry.suppressions)
        results.append(
            FileResult(path=key, rel=entry.rel, findings=kept, suppressed=suppressed)
        )

    stats = RunStats(
        files=len(parsed),
        rules=len(file_rules) + len(project_rules),
        findings=sum(len(r.findings) for r in results),
        suppressed=sum(len(r.suppressed) for r in results),
        seconds=time.monotonic() - started,
    )
    return ProjectReport(files=results, graph=graph, stats=stats)


def run(
    paths: Sequence[Path], rule_ids: Optional[Sequence[str]] = None
) -> List[FileResult]:
    """Check ``paths`` with the selected rules (all rules by default)."""
    return run_project(paths, rule_ids).files


def has_findings(reports: Sequence[FileResult]) -> bool:
    """True when any checked file has an unsuppressed finding."""
    return any(report.findings for report in reports)
