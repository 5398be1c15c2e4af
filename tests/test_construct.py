import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cospectra import (
    AttachmentEdge,
    ConstructedGraph,
    CrossEdge,
    Graph,
    InvalidConstructionError,
    OrbitPartition,
    build_a_cospectral,
    build_l_cospectral,
    check_a_claims,
    check_l_claims,
    connect_orbits,
    random_instance,
    verify_a_cospectral,
    verify_l_cospectral,
)

from _oracles import base_graph, claim_violation_full_walk

STAR3 = Graph.from_edges(3, [(0, 1), (0, 2)])
CLAW = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def _rejected_validation(g, v_c, h, atts):
    """The validation report ``build_a_cospectral`` refuses the attachments with."""
    with pytest.raises(InvalidConstructionError) as exc:
        build_a_cospectral(g, v_c, h, atts)
    return exc.value.validation


def test_validation_counts_per_h_vertex_and_orbit():
    h = Graph.from_edges(2, [])
    atts = [
        AttachmentEdge(1, 1, 0),
        AttachmentEdge(2, 2, 0),  # same leaf orbit, other leaf: still balanced
        AttachmentEdge(1, 1, 1),
    ]
    report = _rejected_validation(STAR3, 0, h, atts)
    assert not report.valid
    # h-vertex 0 is balanced on the leaf orbit; h-vertex 1 is not
    leaf_orbit = report.orbit_partition.orbit_index(1)
    entries = {(h_v, o): (c1, c2) for h_v, o, c1, c2 in report.entries}
    assert entries[(0, leaf_orbit)] == (1, 1)
    assert entries[(1, leaf_orbit)] == (1, 0)
    assert any("h-vertex 1" in p for p in report.problems)


def test_validation_flags_duplicates():
    h = Graph.from_edges(1, [])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(1, 1, 0), AttachmentEdge(2, 1, 0)]
    report = _rejected_validation(STAR3, 0, h, atts)
    assert not report.valid
    assert any("duplicate" in p for p in report.problems)


def test_validation_rejects_out_of_range():
    h = Graph.from_edges(1, [])
    with pytest.raises(ValueError):
        build_a_cospectral(STAR3, 0, h, [AttachmentEdge(1, 9, 0)])
    with pytest.raises(ValueError):
        build_a_cospectral(STAR3, 0, h, [AttachmentEdge(3, 1, 0)])
    with pytest.raises(ValueError):
        build_a_cospectral(STAR3, 9, h, [])


def test_build_a_layout():
    h = Graph.from_edges(2, [(0, 1)])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(2, 2, 0)]
    cg = build_a_cospectral(STAR3, 0, h, atts)
    assert cg.graph.n == 8
    assert cg.g1_map == (0, 1, 2)
    assert cg.g2_map == (3, 4, 5)
    assert cg.h_map == (6, 7)
    assert cg.pair == (0, 3)
    assert cg.kind == "A"
    assert not cg.cross_connected
    # copy edges, H edge, attachments
    assert cg.graph.has_edge(0, 1) and cg.graph.has_edge(3, 4)
    assert cg.graph.has_edge(6, 7)
    assert cg.graph.has_edge(1, 6) and cg.graph.has_edge(5, 6)
    assert base_graph(cg) == STAR3


def test_build_a_rejects_unbalanced():
    h = Graph.from_edges(1, [])
    with pytest.raises(InvalidConstructionError) as exc:
        build_a_cospectral(STAR3, 0, h, [AttachmentEdge(1, 1, 0)])
    assert exc.value.validation is not None
    assert not exc.value.validation.valid


def test_connect_orbits_happy_path():
    h = Graph.from_edges(1, [])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(2, 1, 0)]
    cg = build_a_cospectral(STAR3, 0, h, atts)
    leaf_orbit = cg.orbit_partition.orbit_index(1)
    out = connect_orbits(cg, leaf_orbit, [(1, 4), (2, 5)])
    assert out.cross_connected
    assert out.graph.has_edge(1, 4) and out.graph.has_edge(2, 5)
    assert verify_a_cospectral(out.graph, *out.pair).cospectral


def test_connect_orbits_rejects_bad_pairings():
    h = Graph.from_edges(1, [])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(2, 1, 0)]
    cg = build_a_cospectral(STAR3, 0, h, atts)
    leaf_orbit = cg.orbit_partition.orbit_index(1)
    with pytest.raises(InvalidConstructionError, match="bijection"):
        connect_orbits(cg, leaf_orbit, [(1, 4), (1, 5)])  # 1 used twice
    with pytest.raises(InvalidConstructionError, match="bijection"):
        connect_orbits(cg, leaf_orbit, [(1, 4)])  # incomplete
    with pytest.raises(InvalidConstructionError, match="bijection"):
        connect_orbits(cg, leaf_orbit, [(1, 4), (2, 6)])  # 6 is an H vertex
    with pytest.raises(ValueError):
        connect_orbits(cg, 99, [(1, 4), (2, 5)])


def test_connect_orbits_rejects_laplacian_kind():
    cg = build_l_cospectral(STAR3, 0, [CrossEdge(1, 1)])
    with pytest.raises(InvalidConstructionError):
        connect_orbits(cg, 0, [(0, 3)])


def test_connect_orbits_singleton_orbit():
    # connecting the singleton orbit of the distinguished vertex joins the pair
    h = Graph.from_edges(1, [])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(2, 1, 0)]
    cg = build_a_cospectral(STAR3, 0, h, atts)
    center_orbit = cg.orbit_partition.orbit_index(0)
    out = connect_orbits(cg, center_orbit, [(0, 3)])
    assert out.graph.has_edge(0, 3)
    assert verify_a_cospectral(out.graph, *out.pair).cospectral


def test_build_l_layout_and_validation():
    cg = build_l_cospectral(STAR3, 0, [CrossEdge(1, 2), CrossEdge(2, 1)])
    assert cg.graph.n == 6
    assert cg.kind == "L"
    assert cg.h_map == ()
    assert cg.pair == (0, 3)
    assert cg.graph.has_edge(1, 5) and cg.graph.has_edge(2, 4)
    assert verify_l_cospectral(cg.graph, *cg.pair).cospectral


def test_build_l_names_offending_orbits():
    with pytest.raises(InvalidConstructionError) as exc:
        build_l_cospectral(STAR3, 0, [CrossEdge(0, 1)])
    msg = str(exc.value)
    assert "(0, 1)" in msg and "orbit" in msg


def test_build_l_rejects_duplicate_cross_edges():
    with pytest.raises(InvalidConstructionError, match="duplicate"):
        build_l_cospectral(STAR3, 0, [CrossEdge(1, 2), CrossEdge(1, 2)])


# ---------------------------------------------------------------------------
# exact claim checkers


def test_a_claims_hold_on_valid_instance():
    h = Graph.from_edges(2, [(0, 1)])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(2, 2, 0)]
    cg = build_a_cospectral(STAR3, 0, h, atts)
    assert check_a_claims(cg) is None


def test_a_claims_catch_tampering():
    h = Graph.from_edges(1, [])
    atts = [AttachmentEdge(1, 1, 0), AttachmentEdge(2, 1, 0)]
    cg = build_a_cospectral(STAR3, 0, h, atts)
    # break the balance by hand: an extra edge from one copy only
    tampered = ConstructedGraph(
        graph=cg.graph.add_edges([(2, 6)]),
        kind=cg.kind,
        g1_map=cg.g1_map,
        g2_map=cg.g2_map,
        h_map=cg.h_map,
        pair=cg.pair,
        orbit_partition=cg.orbit_partition,
    )
    violation = check_a_claims(tampered)
    assert violation is not None
    assert violation.power >= 1


def test_l_claims_catch_tampering():
    cg = build_l_cospectral(STAR3, 0, [CrossEdge(1, 1)])
    # a stray edge from the distinguished vertex into the other copy breaks
    # copy symmetry immediately (the two endpoints get different degrees)
    tampered = ConstructedGraph(
        graph=cg.graph.add_edges([(0, 4)]),
        kind=cg.kind,
        g1_map=cg.g1_map,
        g2_map=cg.g2_map,
        h_map=cg.h_map,
        pair=cg.pair,
        orbit_partition=cg.orbit_partition,
    )
    assert check_l_claims(cg) is None
    assert check_l_claims(tampered) is not None


def _check_claims(cg):
    return check_a_claims(cg) if cg.kind == "A" else check_l_claims(cg)


def _toggle_edge(cg, rng):
    """cg with one random edge added or removed; maps and cells unchanged."""
    u, v = sorted(rng.sample(range(cg.graph.n), 2))
    return replace(cg, graph=Graph(cg.graph.n, cg.graph.edges ^ {(u, v)}))


def _gnp(seed, n, p=0.3):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    )


@pytest.mark.parametrize("kind", ["A", "L"])
def test_claims_match_the_full_dense_walk(kind):
    """The same (claim, power, detail) as checking every power k < N with a
    dense matrix, on valid and one-edge-tampered random instances."""
    rng = random.Random(kind)
    deep = 0
    for seed in range(300):
        cg = random_instance(seed, max_g=8, kind=kind)
        assert _check_claims(cg) is None and claim_violation_full_walk(cg) is None
        tampered = _toggle_edge(cg, rng)
        expected = claim_violation_full_walk(tampered)
        assert _check_claims(tampered) == expected, seed
        deep += expected is not None and expected.power >= 3
    assert deep >= 10


def test_claims_match_the_full_dense_walk_at_order_100():
    base = _gnp(48, 48)
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    cg = build_a_cospectral(base, 0, h, [AttachmentEdge(s, 0, x) for x in range(4) for s in (1, 2)])
    assert cg.graph.n == 100
    assert check_a_claims(cg) is None and claim_violation_full_walk(cg) is None
    # a copy-2 edge with no end next to the pair's base vertex 0
    a, b = next(e for e in sorted(base.edges) if not {0, *base.neighbors(0)} & set(e))
    tampered = replace(cg, graph=Graph(100, cg.graph.edges - {(48 + a, 48 + b)}))
    violation = check_a_claims(tampered)
    assert violation is not None and violation.power >= 3
    assert violation == claim_violation_full_walk(tampered)


def _p8_construction():
    """Order 17: two copies of the path P8 fixed at its end 0, with one H
    vertex joined to vertex 7 of both copies; every cell is one vertex."""
    p8 = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    h = Graph.from_edges(1, [])
    cg = build_a_cospectral(p8, 0, h, [AttachmentEdge(1, 7, 0), AttachmentEdge(2, 7, 0)])
    assert cg.graph.n == 17 and cg.orbit_partition.count == 8
    return cg


def test_claims_check_past_the_cell_count_when_vertices_lie_outside_every_cell():
    """The step bound counts base vertices outside every cell: with no cells,
    an H vertex seen only from the far end of copy 1 is reached at power 8,
    past a bound of the cell count plus one."""
    cg = _p8_construction()
    one_sided = replace(
        cg,
        graph=Graph(17, cg.graph.edges - {(15, 16)}),
        orbit_partition=OrbitPartition(0, (), ()),
    )
    violation = check_a_claims(one_sided)
    assert violation is not None and (violation.claim, violation.power) == ("h-support", 8)
    assert violation == claim_violation_full_walk(one_sided)


def test_claims_check_past_the_cell_count_when_vertices_lie_outside_the_maps():
    """The step bound counts graph vertices outside the copies and H: a
    pendant on copy 1's vertex 7 first shows at power 9, past the 8 cells."""
    cg = _p8_construction()
    pendant = replace(cg, graph=Graph(18, cg.graph.edges | {(7, 17)}))
    violation = check_a_claims(pendant)
    assert violation is not None
    assert (violation.claim, violation.power) == ("copy-antisymmetry", 9)
    assert violation == claim_violation_full_walk(pendant)


def test_claim_checkers_reject_wrong_kind():
    a_cg = build_a_cospectral(STAR3, 0, Graph.from_edges(1, []), [])
    l_cg = build_l_cospectral(STAR3, 0, [])
    with pytest.raises(ValueError):
        check_a_claims(l_cg)
    with pytest.raises(ValueError):
        check_l_claims(a_cg)


# ---------------------------------------------------------------------------
# random instances


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_a_instance_valid_and_deterministic(seed):
    cg = random_instance(seed, kind="A")
    again = random_instance(seed, kind="A")
    assert cg.graph == again.graph and cg.pair == again.pair
    rebuilt = build_a_cospectral(  # raises unless the attachments are valid
        base_graph(cg),
        cg.orbit_partition.fixed,
        Graph.from_edges(
            len(cg.h_map),
            [
                (a - 2 * cg.base_n, b - 2 * cg.base_n)
                for a, b in cg.graph.edges
                if a in set(cg.h_map) and b in set(cg.h_map)
            ],
        ),
        _attachments_of(cg),
    )
    assert rebuilt.graph == cg.graph


def _attachments_of(cg):
    h_ids = set(cg.h_map)
    n = cg.base_n
    atts = []
    for a, b in cg.graph.sorted_edges():
        if b in h_ids and a not in h_ids:
            side = 1 if a < n else 2
            atts.append(AttachmentEdge(side, a if a < n else a - n, b - 2 * n))
    return atts


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_l_instance_valid_and_deterministic(seed):
    cg = random_instance(seed, kind="L")
    again = random_instance(seed, kind="L")
    assert cg.graph == again.graph
    assert cg.kind == "L"
    part = cg.orbit_partition
    n = cg.base_n
    for a, b in cg.graph.edges:
        if a < n <= b:  # cross edge
            assert part.orbit_index(a) == part.orbit_index(b - n)


def test_random_instance_parameter_validation():
    with pytest.raises(ValueError):
        random_instance(0, kind="x")
    with pytest.raises(ValueError):
        random_instance(0, density=1.5)
    with pytest.raises(ValueError):
        random_instance(0, max_g=1)


def test_provenance_json_shape():
    cg = random_instance(3, kind="A")
    doc = cg.to_json()
    assert doc["kind"] == "A"
    assert doc["pair"] == list(cg.pair)
    assert doc["orbits"]["fixed"] == cg.pair[0]  # the distinguished base vertex, in copy 1
    assert not doc["cross_connected"]


# ---------------------------------------------------------------------------
# balancing on equitable cells, which can be coarser than the orbits

CUBIC10 = Graph.from_edges(10, [
    (0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 9), (2, 4), (2, 5),
    (2, 8), (3, 7), (5, 7), (5, 8), (6, 7), (6, 9), (8, 9),
])


def test_constructions_balance_on_cells_coarser_than_the_orbits():
    # 0 and 2 share a cell of the equitable partition fixing 9 but no orbit,
    # so both inputs were rejected while constructions balanced on orbits
    h = Graph.from_edges(1, [])
    a_cg = build_a_cospectral(CUBIC10, 9, h, [AttachmentEdge(1, 0, 0), AttachmentEdge(2, 2, 0)])
    l_cg = build_l_cospectral(CUBIC10, 9, [CrossEdge(0, 2), CrossEdge(1, 8)])
    assert a_cg.orbit_partition.orbits == ((0, 2, 3, 4, 5, 7), (1, 6, 8), (9,))
    assert verify_a_cospectral(a_cg.graph, *a_cg.pair).cospectral
    assert verify_l_cospectral(l_cg.graph, *l_cg.pair).cospectral
    assert check_a_claims(a_cg) is None
    assert check_l_claims(l_cg) is None
