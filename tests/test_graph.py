import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cospectra
from cospectra import (
    EdgeListParseError,
    Graph,
    adjacency_matrix,
    delete_vertex,
    format_edge_list,
    laplacian_matrix,
    parse_edge_list,
    to_dot,
)


def graphs(max_n=8):
    """Hypothesis strategy for arbitrary simple graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, edges)

    return build()


def test_parse_basic():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_comments_and_blanks():
    text = "# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n\n0 2\n"
    g = parse_edge_list(text)
    assert g.m == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing"),
        ("2\n", "line 1"),
        ("2 1\nx y\n", "line 2"),
        ("2 1\n0 2\n", "line 2: vertex id out of range"),
        ("2 1\n1 1\n", "line 2: loop"),
        ("2 2\n0 1\n0 1\n", "line 3: duplicate edge"),
        ("2 1\n0 1\n1 0\n", "line 3: more than the declared"),
        ("3 2\n0 1\n", "declared 2 edges but found 1"),
        ("-1 0\n", "line 1"),
    ],
)
def test_parse_errors_name_lines(text, fragment):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


@given(graphs())
def test_serialize_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_from_edges_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_check_vertex_rejects_bools_and_non_ints():
    g = Graph.from_edges(3, [(0, 1)])
    g.check_vertex(1)
    for v in (True, False, 1.0, "1", -1, 3):
        with pytest.raises(ValueError, match="out of range"):
            g.check_vertex(v)
    with pytest.raises(ValueError):
        g.add_edges([(True, 2)])
    with pytest.raises(ValueError, match=r"^vertex 0 out of range: the graph has no vertices$"):
        Graph.from_edges(0, []).check_vertex(0)


def test_adjacency_and_laplacian():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert adjacency_matrix(g) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert laplacian_matrix(g) == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


@given(graphs())
def test_laplacian_rows_sum_to_zero(g):
    for row in laplacian_matrix(g):
        assert sum(row) == 0


def test_delete_vertex_compacts_ids():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    d = delete_vertex(g, 1)
    assert d.n == 3
    # old 2 -> 1, old 3 -> 2; the edge (2, 3) survives as (1, 2)
    assert d.sorted_edges() == [(1, 2)]


@given(graphs(max_n=7), st.data())
def test_delete_vertex_degree_bookkeeping(g, data):
    if g.n == 0:
        return
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    d = delete_vertex(g, v)
    assert d.n == g.n - 1
    assert d.m == g.m - g.degree(v)


def test_to_dot_blocks_and_highlight():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dot = to_dot(g, highlight=(0, 2), blocks={"g1": [0, 1], "g2": [2, 3]})
    assert "subgraph cluster_g1" in dot
    assert "0 [style=filled" in dot
    assert "2 -- 3;" in dot
    with pytest.raises(ValueError):
        to_dot(g, highlight=(9,))


def test_neighbors_sorted():
    g = Graph.from_edges(4, [(2, 0), (0, 3), (0, 1)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.has_edge(3, 0) and not g.has_edge(1, 2)


def test_graph_is_an_immutable_value():
    g = Graph(3, frozenset({(0, 1)}))
    same = Graph(n=3, edges=frozenset({(0, 1)}))
    assert g == same and hash(g) == hash(same) and g != Graph(4, frozenset({(0, 1)}))
    assert g != (3, frozenset({(0, 1)}))
    assert repr(g) == "Graph(n=3, edges=frozenset({(0, 1)}))"
    assert pickle.loads(pickle.dumps(g)) == g
    for name in ("n", "edges", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, 0)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1, frozenset())
    with pytest.raises(ValueError, match=r"edge \(1, 0\) is not a normalized pair"):
        Graph(2, frozenset({(1, 0)}))


def test_parsing_an_edge_list_loads_no_dataclasses(tmp_path):
    # dataclasses loads inspect, ast, dis and tokenize: milliseconds of start-up
    src = str(Path(cospectra.__file__).resolve().parent.parent)
    probe = (
        "import sys, cospectra; cospectra.parse_edge_list('1 0'); "
        "print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_graph_keeps_its_edges_as_a_frozenset():
    """Edges given as a list or a set are stored as a frozenset, so degrees,
    equality and hashing read each edge once; an edge repeated in a list is
    refused with the message of ``from_edges``."""
    listed = Graph(3, [(0, 1), (1, 2)])
    assert type(listed.edges) is frozenset
    assert listed == Graph(3, frozenset({(0, 1), (1, 2)})) == Graph(3, {(1, 2), (0, 1)})
    assert hash(listed) == hash(Graph.from_edges(3, [(1, 0), (2, 1)]))
    assert [listed.degree(v) for v in range(3)] == [1, 2, 1]
    for make in (lambda edges: Graph(3, edges), lambda edges: Graph.from_edges(3, edges)):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            make([(0, 1), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        Graph(3, iter([(1, 2), (1, 2)]))
