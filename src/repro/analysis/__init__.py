"""repro.analysis — the solver-invariant static checker.

Generic linters cannot know that clause intake must pass tautology
screening, that solve loops must poll ``should_stop``, or that decision
order feeds a differential oracle.  This package machine-checks those
repo-specific invariants on every PR, the same way
``scripts/check_bench.py`` machine-checks the perf trajectory.

Rules come in two kinds: per-file AST rules (``RPR001``–``RPR007``)
and interprocedural rules over the project call graph
(``RPR008``–``RPR010``), which catch bugs no single file can show —
a cancellation callback dropped at a module boundary, a deadline that
stops flowing, determinism taint imported from a helper module.

Run it with ``python -m repro.analysis src`` or ``make analyze``; see
``docs/invariants.md`` for what each rule protects and why, and
``docs/callgraph.md`` for how the call graph is built.
"""

from .callgraph import CallGraph, Edge, Node, build_call_graph
from .core import (
    META_RULE_ID,
    FileReport,
    Finding,
    ProjectRule,
    Rule,
    ScopeResolver,
    SourceFile,
    Suppression,
    all_project_rules,
    all_rules,
    check_file,
    get_rules,
    known_rule_ids,
    package_rel,
    parse_suppressions,
    register_project_rule,
    register_rule,
    select_rules,
)
from .facts import ModuleFacts, extract_module_facts
from .report import format_stats, render_human, render_json
from .runner import (
    FileResult,
    ProjectReport,
    RunStats,
    collect_files,
    has_findings,
    run,
    run_project,
)

__all__ = [
    "META_RULE_ID",
    "CallGraph",
    "Edge",
    "FileReport",
    "FileResult",
    "Finding",
    "ModuleFacts",
    "Node",
    "ProjectReport",
    "ProjectRule",
    "Rule",
    "RunStats",
    "ScopeResolver",
    "SourceFile",
    "Suppression",
    "all_project_rules",
    "all_rules",
    "build_call_graph",
    "check_file",
    "collect_files",
    "extract_module_facts",
    "format_stats",
    "get_rules",
    "has_findings",
    "known_rule_ids",
    "package_rel",
    "parse_suppressions",
    "register_project_rule",
    "register_rule",
    "render_human",
    "render_json",
    "run",
    "run_project",
    "select_rules",
]
