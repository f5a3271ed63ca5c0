"""DIMACS .col format tests."""

import io

import pytest

from repro.graphs.dimacs import read_dimacs_graph, write_dimacs_graph
from repro.graphs.generators import queens_graph
from repro.graphs.graph import Graph


def test_roundtrip():
    g = queens_graph(4, 4)
    buffer = io.StringIO()
    write_dimacs_graph(g, buffer)
    buffer.seek(0)
    h = read_dimacs_graph(buffer, name="queen4_4")
    assert h.num_vertices == g.num_vertices
    assert sorted(h.edges()) == sorted(g.edges())


def test_reader_tolerates_duplicates_and_comments():
    text = "c a comment\np edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 2 2\n"
    g = read_dimacs_graph(io.StringIO(text))
    assert g.num_vertices == 3
    assert g.num_edges == 2  # duplicate and loop dropped


def test_reader_requires_problem_line():
    with pytest.raises(ValueError):
        read_dimacs_graph(io.StringIO("e 1 2\n"))
    with pytest.raises(ValueError):
        read_dimacs_graph(io.StringIO("c only comments\n"))


def test_reader_rejects_bad_problem_line():
    with pytest.raises(ValueError):
        read_dimacs_graph(io.StringIO("p graph\n"))


@pytest.mark.parametrize(
    "text,message",
    [
        ("p edge 4 2\ne 1\n", "line 2: malformed edge line: 'e 1'"),
        ("p edge 4 2\ne 0 2\n", "line 2: edge endpoint outside 1..4: 'e 0 2'"),
        ("p edge 4 2\ne 5 1\n", "line 2: edge endpoint outside 1..4: 'e 5 1'"),
        ("c x\np edge 4 2\ne a b\n", "line 3: malformed edge line: 'e a b'"),
        ("p edge four 2\n", "line 1: malformed problem line: 'p edge four 2'"),
        ("e 1 2\np edge 2 1\n", "line 1: edge line before the problem line: 'e 1 2'"),
    ],
    ids=["short-edge", "endpoint-zero", "endpoint-high", "non-integer",
         "non-integer-count", "edge-first"],
)
def test_reader_names_the_malformed_line(text, message):
    with pytest.raises(ValueError) as exc:
        read_dimacs_graph(io.StringIO(text))
    assert str(exc.value) == message


def test_writer_emits_header_and_name(tmp_path):
    g = Graph.from_edges(2, [(0, 1)], name="tiny")
    path = str(tmp_path / "tiny.col")
    write_dimacs_graph(g, path)
    text = open(path).read()
    assert "c tiny" in text
    assert "p edge 2 1" in text
    assert "e 1 2" in text
    assert read_dimacs_graph(path).num_edges == 1
