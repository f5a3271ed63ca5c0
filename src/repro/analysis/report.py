""" Output formatting for the checker: a human diff-style rendering and
a machine-readable JSON document (stable key order, sorted findings) so
CI and tooling can consume the same run.

The JSON document deliberately carries no timing information: two
runs over the same tree must be byte-identical, so the stats line goes
to stderr via :func:`format_stats` instead.
"""

from __future__ import annotations

import json
from typing import Dict, List, Protocol, Sequence

from .core import Finding


class RuleLike(Protocol):
    """What the renderers need from a rule — satisfied by both
    per-file :class:`Rule` and interprocedural :class:`ProjectRule`."""

    rule_id: str
    title: str
    rationale: str


class ReportLike(Protocol):
    """One file's post-suppression results (``FileReport`` or
    ``FileResult``)."""

    @property
    def findings(self) -> List[Finding]: ...

    @property
    def suppressed(self) -> List[Finding]: ...


class StatsLike(Protocol):
    files: int
    rules: int
    findings: int
    suppressed: int
    seconds: float


def _sorted_findings(reports: Sequence[ReportLike]) -> List[Finding]:
    out: List[Finding] = []
    for report in reports:
        out.extend(report.findings)
    return sorted(out, key=Finding.sort_key)


def render_human(
    reports: Sequence[ReportLike], rules: Sequence[RuleLike]
) -> str:
    """Diff-style rendering: path:line, the offending source line with a
    caret, the rule id and message."""
    lines: List[str] = []
    findings = _sorted_findings(reports)
    for finding in findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                     f"{finding.rule_id} {finding.message}")
        if finding.source_line:
            lines.append(f"    | {finding.source_line}")
            lines.append(f"    | {' ' * finding.col}^")
    checked = len(reports)
    suppressed = sum(len(r.suppressed) for r in reports)
    summary = (
        f"{len(findings)} finding(s), {suppressed} suppressed, "
        f"{checked} file(s) checked, {len(rules)} rule(s)"
    )
    if findings:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    reports: Sequence[ReportLike], rules: Sequence[RuleLike]
) -> str:
    """The machine-readable report: the rules run, the file count, and
    the findings and suppressed findings in sort order, as JSON."""
    findings = _sorted_findings(reports)
    suppressed: List[Finding] = []
    for report in reports:
        suppressed.extend(report.suppressed)
    suppressed.sort(key=Finding.sort_key)
    doc: Dict[str, object] = {
        "rules": [
            {"id": rule.rule_id, "title": rule.title, "rationale": rule.rationale}
            for rule in rules
        ],
        "files_checked": len(reports),
        "findings": [f.to_dict() for f in findings],
        "suppressed": [f.to_dict() for f in suppressed],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def format_stats(stats: StatsLike) -> str:
    """The one-line run summary printed to stderr by the CLI."""
    return (
        f"analyzed {stats.files} file(s) "
        f"with {stats.rules} rule(s): "
        f"{stats.findings} finding(s), {stats.suppressed} suppressed "
        f"in {stats.seconds:.2f}s"
    )
