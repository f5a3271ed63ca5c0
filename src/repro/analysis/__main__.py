"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit status is 0 when no findings remain after suppressions, 1 when
findings exist, 2 on usage/parse errors — so CI can gate on it
directly (``make analyze``).

The report (text or ``--json``) goes to stdout; the one-line run stats
(files, rules, findings, seconds) go to stderr, so two runs over the
same tree print byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .core import ProjectRule, Rule, all_project_rules, all_rules, select_rules
from .report import format_stats, render_human, render_json
from .runner import has_findings, run_project


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Solver-invariant static checker: per-file rules plus "
            "interprocedural call-graph rules (RPR001-RPR010)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of diff-style text",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their rationale and exit",
    )
    parser.add_argument(
        "--graph",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the project call graph as JSON to FILE",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        rules_listing: List[Union[Rule, ProjectRule]] = []
        rules_listing.extend(all_rules())
        rules_listing.extend(all_project_rules())
        for rule in rules_listing:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    rule_ids: Optional[List[str]] = None
    if args.rules:
        rule_ids = [part for part in args.rules.split(",") if part.strip()]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    try:
        file_rules, project_rules = select_rules(rule_ids)
        report = run_project(paths, rule_ids)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.graph is not None:
        import json as _json

        args.graph.parent.mkdir(parents=True, exist_ok=True)
        args.graph.write_text(
            _json.dumps(report.graph.to_dict(), indent=2, sort_keys=False)
            + "\n",
            encoding="utf-8",
        )

    shown: List[Union[Rule, ProjectRule]] = []
    shown.extend(file_rules)
    shown.extend(project_rules)
    if args.json:
        print(render_json(report.files, shown))
    else:
        print(render_human(report.files, shown))
    print(format_stats(report.stats), file=sys.stderr)
    return 1 if has_findings(report.files) else 0


if __name__ == "__main__":
    sys.exit(main())
