"""The whole-program layer of ``repro.analysis``: fact extraction, the
project call graph, the interprocedural rules RPR008–RPR010, and the
CLI surface.

Fixture-driven like the per-file suite, but each scenario is a
*multi-module tree* under ``tests/analysis_fixtures/proj/<scenario>/``
(cross-file imports, the bug split across files), analyzed with
:func:`run_project` so the full pipeline — extraction, graph assembly,
propagation, suppression — is exercised end to end.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    build_call_graph,
    extract_module_facts,
    package_rel,
    run_project,
)
from repro.analysis.core import SourceFile

FIXTURES = Path(__file__).parent / "analysis_fixtures"
PROJ = FIXTURES / "proj"
SRC = Path(__file__).parent.parent / "src"


def scenario_findings(name: str) -> list:
    """(rel, rule_id) pairs for every finding in one scenario tree."""
    report = run_project([PROJ / name])
    return sorted(
        (result.rel, finding.rule_id)
        for result in report.files
        for finding in result.findings
    )


# --------------------------------------------------------------------------
# Interprocedural positives: the bug is split across files
# --------------------------------------------------------------------------


def test_rpr008_flags_callback_dropped_at_module_boundary():
    assert scenario_findings("rpr008_drop") == [
        ("api/facade.py", "RPR008"),
    ]


def test_rpr008_resolves_through_package_reexport():
    # ``from repro.sat import search`` where ``search`` lives in
    # ``repro/sat/engine.py`` and is re-exported by the package
    # ``__init__`` — resolution must chase the re-export chain.
    assert scenario_findings("rpr008_reexport") == [
        ("api/facade.py", "RPR008"),
    ]


def test_rpr008_flags_explicit_none_as_a_drop():
    assert scenario_findings("rpr008_explicit_none") == [
        ("pb/descent.py", "RPR008"),
    ]


def test_rpr009_flags_deadline_not_passed_to_blocking_callee():
    assert scenario_findings("rpr009_drop") == [
        ("api/driver.py", "RPR009"),
    ]


def test_rpr009_sees_transitively_blocking_callees():
    assert scenario_findings("rpr009_transitive") == [
        ("api/driver.py", "RPR009"),
    ]


def test_rpr010_flags_cross_module_set_order_taint():
    assert scenario_findings("rpr010_direct") == [
        ("coloring/chooser.py", "RPR010"),
    ]


def test_rpr010_propagates_taint_across_two_hops_with_witness():
    report = run_project([PROJ / "rpr010_chain"])
    findings = [
        f for r in report.files for f in r.findings
    ]
    assert [(f.rule_id,) for f in findings] == [("RPR010",)]
    finding = findings[0]
    assert "orbit_info" in finding.message
    # The witness chain names the middle hop and the root cause.
    assert "annotate" in finding.message
    assert "time.time()" in finding.message


# --------------------------------------------------------------------------
# Interprocedural negatives: forwarding/sorting/seeding make it clean
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario",
    [
        "rpr008_forward_ok",
        "rpr008_nested_ok",
        "rpr009_share_ok",
        "rpr009_nonblocking_ok",
        "rpr010_sorted_ok",
        "rpr010_seeded_ok",
    ],
)
def test_negative_scenario_is_clean(scenario):
    assert scenario_findings(scenario) == []


def test_interprocedural_finding_is_suppressible(tmp_path):
    tree = tmp_path / "case"
    shutil.copytree(PROJ / "rpr008_drop", tree)
    facade = tree / "repro" / "api" / "facade.py"
    text = facade.read_text()
    assert "search(formula)" in text
    facade.write_text(
        text.replace(
            "    return search(formula)  # should_stop never forwarded",
            "    # repro: allow[RPR008] wrapper is only used for warmup probes\n"
            "    return search(formula)",
        )
    )
    report = run_project([tree])
    findings = [f for r in report.files for f in r.findings]
    suppressed = [f for r in report.files for f in r.suppressed]
    assert findings == []
    assert [f.rule_id for f in suppressed] == ["RPR008"]


# --------------------------------------------------------------------------
# Call-graph structure
# --------------------------------------------------------------------------


def test_call_graph_resolves_cross_module_imports():
    report = run_project([PROJ / "rpr008_drop"])
    graph = report.graph
    assert "repro.api.facade:solve_formula" in graph.nodes
    assert "repro.sat.engine:search" in graph.nodes
    callees = {
        e.callee for e in graph.callees_of("repro.api.facade:solve_formula")
    }
    assert "repro.sat.engine:search" in callees
    # Entry points and loop propagation feed RPR008's reachability cone.
    assert "repro.api.facade:solve_formula" in graph.entry_points
    assert "repro.sat.engine:search" in graph.loop_bearing


def test_call_graph_loop_bearing_is_transitive():
    report = run_project([PROJ / "rpr009_transitive"])
    graph = report.graph
    assert "repro.graphs.refine:pump" in graph.loop_bearing
    assert "repro.graphs.refine:refine" in graph.loop_bearing


def test_call_graph_taint_is_transitive():
    report = run_project([PROJ / "rpr010_chain"])
    graph = report.graph
    assert graph.tainted("repro.graphs.clock:stamp")
    assert graph.tainted("repro.graphs.meta:annotate")
    assert "time.time()" in graph.taint_witness["repro.graphs.meta:annotate"]


def test_call_graph_export_is_deterministic_and_complete():
    first = run_project([PROJ / "rpr010_chain"]).graph.to_dict()
    second = run_project([PROJ / "rpr010_chain"]).graph.to_dict()
    assert first == second
    assert {"modules", "nodes", "edges", "unresolved_calls"} <= set(first)
    keys = [n["key"] for n in first["nodes"]]
    assert keys == sorted(keys)
    tainted = {n["key"] for n in first["nodes"] if n["tainted"]}
    assert "repro.graphs.clock:stamp" in tainted


def test_facts_extraction_classifies_params_and_calls():
    path = PROJ / "rpr008_drop" / "repro" / "sat" / "engine.py"
    facts = extract_module_facts(SourceFile.load(path, package_rel(path)))
    assert facts.module == "repro.sat.engine"
    by_name = {f.qname: f for f in facts.functions}
    assert by_name["search"].accepts_stop
    assert by_name["search"].has_unbounded_loop
    assert not by_name["step"].accepts_stop
    facade = PROJ / "rpr008_drop" / "repro" / "api" / "facade.py"
    ffacts = extract_module_facts(SourceFile.load(facade, package_rel(facade)))
    (call,) = [
        c for f in ffacts.functions for c in f.calls if c.target == "search"
    ]
    assert not call.passes_stop


def test_narrowed_rule_selection_still_reports_rpr008():
    narrowed = run_project([PROJ / "rpr008_drop"], ["RPR002", "RPR008"])
    findings = [f for r in narrowed.files for f in r.findings]
    assert [f.rule_id for f in findings] == ["RPR008"]


# --------------------------------------------------------------------------
# CLI surface (--graph / stats line)
# --------------------------------------------------------------------------


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    # A caller that keeps bytecode out of the source tree keeps it out here too.
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=SRC.parent,
        env=env,
        timeout=300,
    )


def test_cli_interprocedural_finding_and_stats_line():
    proc = _cli(str(PROJ / "rpr008_drop"))
    assert proc.returncode == 1
    assert "RPR008" in proc.stdout
    assert "analyzed 2 file(s)" in proc.stderr


def test_cli_graph_export(tmp_path):
    out = tmp_path / "callgraph.json"
    proc = _cli("--graph", str(out), str(PROJ / "rpr009_transitive"))
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert any(
        n["key"] == "repro.graphs.refine:pump" and n["loop_bearing"]
        for n in doc["nodes"]
    )


def test_cli_list_rules_includes_project_rules():
    proc = _cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("RPR008", "RPR009", "RPR010"):
        assert rule_id in proc.stdout
