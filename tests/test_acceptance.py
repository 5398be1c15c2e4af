"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Every numbered test is independent and self-contained apart from the shared
seeded instance pools; tolerances are the library's fixed thresholds
(residuals scale with the Frobenius norm, numeric-vs-exact agreement is
checked at 1e-8).
"""

import random

import numpy as np
import pytest

from cospectra import (
    COSPECTRAL_ONLY,
    INCONCLUSIVE,
    NOT_COSPECTRAL,
    STRONG,
    STRONG_CERTIFIED,
    Graph,
    adjacency_matrix,
    attach_pendant_reduce,
    automorphism_orbits,
    automorphism_witness,
    build_a_cospectral,
    char_poly,
    check_a_claims,
    check_l_claims,
    connect_orbits,
    delete_vertex,
    eigendecompose_symmetric,
    load_fixture,
    random_instance,
    strong_cospectrality,
    strong_via_simplicity,
    verify_a_cospectral,
    verify_l_cospectral,
)
from _oracles import (
    induced_eigenpairs_by_base_lift,
    projection_diagonal_equal_by_projectors,
    residual_tol,
)

NUM_A_INSTANCES = 200
NUM_CROSSED = 100
NUM_L_INSTANCES = 200
NUM_EQUIVALENCE_GRAPHS = 100
NUM_PURE_FOR_LIFTS = 50
AGREEMENT_TOL = 1e-8


@pytest.fixture(scope="module")
def a_instances():
    return [random_instance(seed, kind="A") for seed in range(NUM_A_INSTANCES)]


@pytest.fixture(scope="module")
def l_instances():
    return [random_instance(seed, kind="L") for seed in range(NUM_L_INSTANCES)]


def _random_connected_graph(rng: random.Random, max_n: int = 8) -> Graph:
    n = rng.randint(2, max_n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return Graph.from_edges(n, edges)


def test_criterion_01_tree_pair_cospectral_without_symmetry():
    """The 9-vertex tree pair has equal deleted-vertex characteristic
    polynomials yet no automorphism carries one vertex to the other."""
    fx = load_fixture("figure1")
    u, v = fx.pair
    p = char_poly(adjacency_matrix(delete_vertex(fx.graph, u)))
    q = char_poly(adjacency_matrix(delete_vertex(fx.graph, v)))
    assert p == q  # exact integer coefficients
    part = automorphism_orbits(fx.graph, fixed=None)
    assert part.orbit_index(u) != part.orbit_index(v)
    assert all(len(orbit) == 1 for orbit in part.orbits)
    assert automorphism_witness(fx.graph, u, v) is None


def test_criterion_02_random_adjacency_constructions_certify(a_instances):
    """200 seeded adjacency constructions all pass the three exact
    cospectrality criteria for their certified pair."""
    for cg in a_instances:
        r = verify_a_cospectral(cg.graph, *cg.pair)
        assert r.char_polys_equal, f"seed graph {cg.pair} failed char-poly criterion"
        assert r.power_diagonal_equal
        assert r.krylov_orthogonal
        assert r.cospectral


def test_criterion_03_construction_walk_invariants(a_instances):
    """On the same 200 instances the difference vector's walk profile is
    H-vanishing, copy-antisymmetric and orbit-constant at every power."""
    for cg in a_instances:
        violation = check_a_claims(cg)
        assert violation is None, f"claim {violation}"


def test_criterion_04_orbit_cross_connection_preserves_pair(a_instances):
    """Joining the two copies of one orbit by a random matching keeps every
    exact criterion; the two 9-vertex variants that differ only in the
    matching are non-isomorphic yet both carry a cospectral pair."""
    for i, cg in enumerate(a_instances[:NUM_CROSSED]):
        rng = random.Random(40_000 + i)
        orbit_idx = rng.randrange(len(cg.orbit_partition.orbits))
        orbit = cg.orbit_partition.orbits[orbit_idx]
        targets = [cg.base_n + w for w in orbit]
        rng.shuffle(targets)
        crossed = connect_orbits(cg, orbit_idx, list(zip(orbit, targets)))
        r = verify_a_cospectral(crossed.graph, *crossed.pair)
        assert r.char_polys_equal and r.power_diagonal_equal and r.krylov_orthogonal

    left = load_fixture("figure5-left").graph
    right = load_fixture("figure5-right").graph

    def signatures(g):
        return sorted(
            sorted(g.degree(w) for w in g.neighbors(v)) for v in range(g.n)
        )

    assert signatures(left) != signatures(right)  # no isomorphism can exist
    assert char_poly(adjacency_matrix(left)) != char_poly(adjacency_matrix(right))
    for fx_name in ("figure5-left", "figure5-right"):
        fx = load_fixture(fx_name)
        assert verify_a_cospectral(fx.graph, *fx.pair).cospectral


def test_criterion_05_random_laplacian_constructions_certify(l_instances):
    """200 seeded cross-joined constructions all pass the exact Laplacian
    Krylov criterion and the sum vector's walk invariants."""
    for cg in l_instances:
        r = verify_l_cospectral(cg.graph, *cg.pair)
        assert r.krylov_orthogonal and r.cospectral
        assert check_l_claims(cg) is None


def test_criterion_06_exact_criteria_equivalent_on_random_graphs():
    """Across all vertex pairs of 100 random connected graphs the three exact
    criteria return identical verdicts and the numeric eigenprojector
    criterion agrees at 1e-8."""
    for i in range(NUM_EQUIVALENCE_GRAPHS):
        g = _random_connected_graph(random.Random(6_000 + i))
        d = eigendecompose_symmetric(adjacency_matrix(g))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                r = verify_a_cospectral(g, u, v)
                assert r.char_polys_equal == r.power_diagonal_equal
                assert r.char_polys_equal == r.krylov_orthogonal
                assert projection_diagonal_equal_by_projectors(d, u, v, AGREEMENT_TOL) == r.cospectral


def test_criterion_07_induced_eigenvector_residuals(a_instances):
    """For the pure bundled constructions and 50 random ones, every lifted
    eigenvector has residual within tolerance, is antisymmetric across the
    two copies and zero on H, and the induced eigenpairs agree with those
    the base graph's eigenprojections give."""
    pure_fixtures = [
        load_fixture(name).constructed for name in ("figure3", "figure4", "figure6-a")
    ]
    pool = pure_fixtures + a_instances[:NUM_PURE_FOR_LIFTS]
    for cg in pool:
        assert not cg.cross_connected
        pairs = strong_via_simplicity(cg).induced
        assert pairs
        a = np.array(adjacency_matrix(cg.graph), dtype=float)
        tau = residual_tol(float(np.linalg.norm(a)))
        g1, g2 = list(cg.g1_map), list(cg.g2_map)
        for p in pairs:
            assert np.linalg.norm(a @ p.vector - p.eigenvalue * p.vector) <= tau
            assert np.abs(p.vector[g1] + p.vector[g2]).max() <= tau
            assert np.abs(p.vector[list(cg.h_map)]).max(initial=0.0) <= tau
        reference = induced_eigenpairs_by_base_lift(cg)
        assert [p.multiplicity_in_big for p in pairs] == [q.multiplicity_in_big for q in reference]
        for p, q in zip(pairs, reference):
            assert abs(p.eigenvalue - q.eigenvalue) <= AGREEMENT_TOL
            assert abs(p.base_coefficient - q.base_coefficient) <= AGREEMENT_TOL


def test_criterion_08_simplicity_implies_strong(a_instances):
    """Whenever every induced eigenvalue is simple upstairs the independent
    per-eigenspace check confirms strong cospectrality; the zero-attachment
    degenerate instance comes back inconclusive with its direct verdict
    reported, not contradicted."""
    pool = [
        load_fixture(name).constructed for name in ("figure3", "figure4", "figure6-a")
    ] + a_instances[:NUM_PURE_FOR_LIFTS]
    certified = 0
    for cg in pool:
        verdict = strong_via_simplicity(cg)
        if all(p.simple_in_big for p in verdict.induced):
            assert verdict.verdict == STRONG_CERTIFIED
            assert verdict.direct.verdict == STRONG
            certified += 1
        else:
            assert verdict.verdict == INCONCLUSIVE
    assert certified > 0  # the route is exercised, not vacuous

    degenerate = build_a_cospectral(
        Graph.from_edges(2, [(0, 1)]), 0, Graph.from_edges(1, []), []
    )
    verdict = strong_via_simplicity(degenerate)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.direct.verdict == COSPECTRAL_ONLY


def test_criterion_09_pendant_reduces_multiplicity_exactly():
    """A pendant on the heaviest eigenvector coordinate drops the eigenvalue's
    multiplicity from l to exactly l-1, with strict interlacing around it."""
    cases = [
        (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 0.0, 2),
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 0.0, 2),
        (Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 0.0, 3),
    ]
    for g, value, ell in cases:
        d = eigendecompose_symmetric(adjacency_matrix(g))
        cluster = d.cluster_nearest(value)
        assert cluster.multiplicity == ell
        _, report = attach_pendant_reduce(g, d, cluster)
        assert report.certified  # new multiplicity is exactly ell - 1
        assert report.new_multiplicity == ell - 1
        assert report.strict_interlacing
        assert report.lower_neighbor < value < report.upper_neighbor


def test_criterion_10_negative_controls():
    """A path endpoint/midpoint pair fails every criterion, and the adjacent
    4-cycle pair is cospectral without being strongly cospectral."""
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    r = verify_a_cospectral(p3, 0, 1)
    assert not r.cospectral
    assert r.char_polys_equal is False
    assert r.power_diagonal_equal is False
    assert r.krylov_orthogonal is False
    d = eigendecompose_symmetric(adjacency_matrix(p3))
    assert projection_diagonal_equal_by_projectors(d, 0, 1, AGREEMENT_TOL) is False
    assert not verify_l_cospectral(p3, 0, 1).cospectral
    assert strong_cospectrality(r).verdict == NOT_COSPECTRAL

    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    r = verify_a_cospectral(c4, 0, 1)
    assert r.cospectral
    assert strong_cospectrality(r).verdict == COSPECTRAL_ONLY
