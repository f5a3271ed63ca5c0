"""The solver-invariant static checker (``repro.analysis``).

Fixture-driven: ``tests/analysis_fixtures/`` holds a miniature package
tree (it contains a ``repro`` path segment, so path-scoped rules engage
exactly as they do on ``src/``) with at least one positive and one
negative fixture per rule, plus the three suppression shapes the
framework promises — reasoned allow silences, reasonless allow is
itself an error, unknown rule id is an error.

The final test runs the full rule set over ``src/`` and asserts zero
findings: reverting any of this PR's violation fixes (or deleting a
suppression, had the tree needed one) turns that test red.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    META_RULE_ID,
    SourceFile,
    all_project_rules,
    all_rules,
    check_file,
    get_rules,
    known_rule_ids,
    package_rel,
    parse_suppressions,
    run,
    select_rules,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parent.parent / "src"


def rule_ids_found(rel_path: str) -> list:
    """Run the full rule set over one fixture; return finding rule ids."""
    path = FIXTURES / rel_path
    source = SourceFile.load(path, package_rel(path))
    report = check_file(source, all_rules())
    return [f.rule_id for f in report.findings]


# --------------------------------------------------------------------------
# Per-rule positive + negative fixtures
# --------------------------------------------------------------------------

POSITIVE_FIXTURES = [
    ("repro/coloring/rpr001_bad.py", "RPR001", 3),
    ("repro/pb/rpr002_bad.py", "RPR002", 1),
    ("repro/pb/rpr002_mention_bad.py", "RPR002", 2),
    ("repro/symmetry/rpr003_bad.py", "RPR003", 7),
    ("repro/api/rpr004_bad.py", "RPR004", 2),
    ("repro/coloring/rpr005_bad.py", "RPR005", 1),
    ("repro/batch/rpr006_bad.py", "RPR006", 8),
    ("repro/pb/rpr007_bad.py", "RPR007", 4),
]

NEGATIVE_FIXTURES = [
    "repro/coloring/rpr001_good.py",
    "repro/sat/rpr001_exempt.py",
    "repro/pb/rpr002_good.py",
    "repro/pb/rpr002_guard_good.py",
    "repro/symmetry/rpr003_good.py",
    "repro/graphs/rpr003_out_of_scope.py",
    "repro/api/rpr004_good.py",
    "repro/coloring/rpr005_good.py",
    "repro/sat/rpr005_exempt.py",
    "repro/batch/rpr006_good.py",
    "repro/pb/rpr007_good.py",
]


@pytest.mark.parametrize("rel,rule_id,count", POSITIVE_FIXTURES)
def test_positive_fixture_is_flagged(rel, rule_id, count):
    found = rule_ids_found(rel)
    assert found.count(rule_id) == count, (rel, found)
    # Nothing else fires on the fixture: the rules stay orthogonal.
    assert set(found) == {rule_id}, (rel, found)


@pytest.mark.parametrize("rel", NEGATIVE_FIXTURES)
def test_negative_fixture_is_clean(rel):
    assert rule_ids_found(rel) == []


# --------------------------------------------------------------------------
# Suppression semantics
# --------------------------------------------------------------------------


def test_reasoned_suppression_silences_finding():
    path = FIXTURES / "repro/coloring/suppressed_ok.py"
    source = SourceFile.load(path, package_rel(path))
    report = check_file(source, all_rules())
    assert report.findings == []
    # Both the trailing-comment and the standalone-comment form were
    # recognized (the finding moved to `suppressed`, not dropped).
    assert [f.rule_id for f in report.suppressed] == ["RPR001", "RPR001"]


def test_reasonless_suppression_is_an_error_and_does_not_silence():
    found = rule_ids_found("repro/coloring/suppressed_no_reason.py")
    assert META_RULE_ID in found  # the suppression itself is reported
    assert "RPR001" in found  # and the violation is NOT silenced


def test_unknown_rule_in_suppression_is_an_error():
    assert rule_ids_found("repro/coloring/suppressed_unknown_rule.py") == [
        META_RULE_ID
    ]


def test_deleting_the_suppression_resurfaces_the_finding():
    path = FIXTURES / "repro/coloring/suppressed_ok.py"
    stripped = "\n".join(
        line.split("# repro: allow")[0].rstrip()
        for line in path.read_text().splitlines()
        if not line.strip().startswith("# repro: allow")
    )
    import ast

    source = SourceFile(path, package_rel(path), stripped, ast.parse(stripped))
    report = check_file(source, all_rules())
    assert [f.rule_id for f in report.findings] == ["RPR001", "RPR001"]


def test_parse_suppressions_trailing_and_standalone():
    src = (
        "x = 1  # repro: allow[RPR003] trailing form\n"
        "# repro: allow[RPR001, RPR002] standalone form\n"
        "y = 2\n"
    )
    supps = parse_suppressions(src)
    assert [(s.line, s.rule_ids) for s in supps] == [
        (1, ("RPR003",)),
        (3, ("RPR001", "RPR002")),
    ]
    assert all(s.reason for s in supps)


# --------------------------------------------------------------------------
# Framework plumbing
# --------------------------------------------------------------------------


def test_package_rel_resolves_src_and_fixture_trees():
    assert package_rel(Path("src/repro/sat/cdcl.py")) == "sat/cdcl.py"
    assert package_rel(Path("/root/repo/src/repro/api/pool.py")) == "api/pool.py"
    assert (
        package_rel(Path("tests/analysis_fixtures/repro/pb/rpr002_bad.py"))
        == "pb/rpr002_bad.py"
    )


def test_get_rules_selection_and_unknown_rule():
    assert [r.rule_id for r in get_rules(["rpr003"])] == ["RPR003"]
    with pytest.raises(KeyError):
        get_rules(["RPR999"])


def test_rule_registry_is_complete():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == [
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
    ]
    assert all(rule.title and rule.rationale for rule in all_rules())
    project_ids = [rule.rule_id for rule in all_project_rules()]
    assert project_ids == ["RPR008", "RPR009", "RPR010"]
    assert all(rule.title and rule.rationale for rule in all_project_rules())
    assert known_rule_ids() == {
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
        "RPR008", "RPR009", "RPR010",
    }


def test_select_rules_splits_file_and_project_rules():
    file_rules, project_rules = select_rules(["RPR002", "RPR010"])
    assert [r.rule_id for r in file_rules] == ["RPR002"]
    assert [r.rule_id for r in project_rules] == ["RPR010"]
    with pytest.raises(KeyError):
        select_rules(["RPR999"])


# --------------------------------------------------------------------------
# CLI contract
# --------------------------------------------------------------------------


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=SRC.parent,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )


def test_cli_exits_nonzero_on_fixture_violations():
    proc = _cli(str(FIXTURES / "repro/pb/rpr002_bad.py"))
    assert proc.returncode == 1
    assert "RPR002" in proc.stdout


def test_cli_exits_zero_on_clean_file_and_emits_json():
    proc = _cli("--json", str(FIXTURES / "repro/pb/rpr002_good.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["findings"] == []
    assert doc["files_checked"] == 1
    assert [r["id"] for r in doc["rules"]][0] == "RPR001"


def test_cli_rule_selection_and_list_rules():
    proc = _cli("--rules", "RPR001", str(FIXTURES / "repro/pb/rpr002_bad.py"))
    assert proc.returncode == 0  # RPR002 finding exists, but wasn't run
    listing = _cli("--list-rules")
    assert listing.returncode == 0
    assert "RPR006" in listing.stdout


def test_cli_unknown_path_and_unknown_rule_are_usage_errors():
    assert _cli("no/such/path.py").returncode == 2
    proc = _cli("--rules", "RPR999", str(FIXTURES))
    assert proc.returncode == 2


# --------------------------------------------------------------------------
# The tree itself
# --------------------------------------------------------------------------


def test_source_tree_is_clean():
    """`make analyze` exits 0: every violation this PR found was fixed
    (or suppressed with a reason).  Reverting any one fix turns this
    red — that is the point of the gate."""
    reports = run([SRC])
    findings = [f for report in reports for f in report.findings]
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in findings
    )
    assert len(reports) > 60  # the walker really saw the tree
