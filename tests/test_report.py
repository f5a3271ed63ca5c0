"""Report artifact tests."""

import json

from repro.experiments.instances import ScalePreset
from repro.experiments.report import save_report
from repro.experiments.tables import render_table1, table1


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_save_and_load_roundtrip(tmp_path):
    rows = [{"a": 1}, {"a": 2}]
    path = save_report(str(tmp_path), "demo", rows, "a table", {"scale": "test"})
    payload = _load(path)
    assert payload["experiment"] == "demo"
    assert payload["rows"] == rows
    assert payload["metadata"]["scale"] == "test"
    md = (tmp_path / "demo.md").read_text()
    assert "a table" in md and "scale: test" in md


def test_dataclass_serialization(tmp_path):
    scale = ScalePreset(
        name="test", instance_names=("myciel3",),
        k_primary=4, k_secondary=5, time_limit=5.0,
        detection_node_limit=1000, solvers=("pbs2",),
    )
    rows = table1(scale, per_instance_budget=5.0)
    path = save_report(str(tmp_path), "table1", rows, render_table1(rows, 4))
    payload = _load(path)
    assert payload["rows"][0]["name"] == "myciel3"
    assert payload["rows"][0]["measured_chi"] == 4


def test_non_jsonable_values_reprd(tmp_path):
    class Weird:
        def __repr__(self):
            return "<weird>"

    path = save_report(str(tmp_path), "w", {"obj": Weird()}, "t")
    payload = _load(path)
    assert payload["rows"]["obj"] == "<weird>"
