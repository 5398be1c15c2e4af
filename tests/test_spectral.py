import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cospectra import (
    COSPECTRAL_ONLY,
    INCONCLUSIVE,
    NOT_COSPECTRAL,
    STRONG,
    STRONG_CERTIFIED,
    AttachmentEdge,
    ClusteringError,
    Graph,
    adjacency_matrix,
    attach_pendant_reduce,
    build_a_cospectral,
    char_poly,
    connect_orbits,
    delete_vertex,
    eigendecompose_symmetric,
    laplacian_matrix,
    load_fixture,
    random_instance,
    strong_cospectrality,
    strong_via_simplicity,
    verify_a_cospectral,
)
from cospectra import FIXTURE_NAMES, multiplicity_structure
from cospectra import spectral
from cospectra.spectral import _certified_groups, strong_from_decomposition

from _oracles import (
    block,
    groups_certified_at_midpoints,
    induced_eigenpairs_by_base_lift,
    induced_vectors,
    projection_diagonal_equal_by_projectors,
    projector,
    strong_by_projectors,
)

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K2 = Graph.from_edges(2, [(0, 1)])
CLAW = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
STAR4 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


# ---------------------------------------------------------------------------
# exact-multiplicity-driven decomposition


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, picks)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_decomposition_resolution_of_identity(g):
    d = eigendecompose_symmetric(adjacency_matrix(g))
    n = g.n
    atol = 1e-9 * n
    assert sum(cl.multiplicity for cl in d.clusters) == n
    projectors = [projector(d, i) for i in range(len(d.clusters))]
    assert np.allclose(sum(projectors), np.eye(n), atol=atol)
    for i, (cl, e) in enumerate(zip(d.clusters, projectors)):
        assert np.allclose(e, e.T, atol=1e-12)
        assert np.allclose(e @ e, e, atol=atol)
        assert block(d, i).shape == (n, cl.multiplicity)
        for other in projectors[i + 1 :]:
            assert np.allclose(e @ other, 0.0, atol=atol)
    # cluster eigenvalues strictly increase; one cluster per distinct real
    # root, and symmetric matrices have only real roots
    values = [cl.value for cl in d.clusters]
    assert values == sorted(values)
    assert len(values) == len(set(values))
    struct = multiplicity_structure(char_poly(adjacency_matrix(g)))
    assert len(d.clusters) == sum(f.degree for f, _ in struct.factors)


def _assert_matches_mpmath(m):
    """Cluster values, repeated by multiplicity, against the 40-digit spectrum."""
    d = eigendecompose_symmetric(m)
    numeric = [cl.value for cl in d.clusters for _ in range(cl.multiplicity)]
    with mpmath.workdps(40):
        reference = sorted(mpmath.eigsy(mpmath.matrix(m), eigvals_only=True))
    assert len(numeric) == len(reference)
    for x, y in zip(numeric, reference):
        assert abs(x - float(y)) <= 1e-12 * max(1.0, abs(float(y)))


@given(graphs(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_decomposition_matches_mpmath(g, laplacian):
    _assert_matches_mpmath(laplacian_matrix(g) if laplacian else adjacency_matrix(g))


def test_decomposition_matches_mpmath_on_order_33_construction():
    cg = random_instance(0, max_g=16, max_h=4)
    assert cg.graph.n == 33
    _assert_matches_mpmath(adjacency_matrix(cg.graph))


def test_decomposition_multiplicities_c4():
    d = eigendecompose_symmetric(adjacency_matrix(C4))
    assert [(round(cl.value), cl.multiplicity) for cl in d.clusters] == [
        (-2, 1),
        (0, 2),
        (2, 1),
    ]


def test_cluster_nearest():
    d = eigendecompose_symmetric(adjacency_matrix(C4))
    assert d.cluster_nearest(0.3).multiplicity == 2
    assert d.cluster_nearest(1.8).value == pytest.approx(2.0)


def test_cluster_nearest_names_an_empty_decomposition():
    from cospectra import CospectraError

    empty = eigendecompose_symmetric([])
    assert empty.clusters == ()
    with pytest.raises(CospectraError, match="empty decomposition"):
        empty.cluster_nearest(0.0)


def test_clustering_error_on_wrong_char_poly():
    from cospectra import IntPolynomial

    # t(t-5)^2 claims a double root at 5, outside P3's spectrum: t-5 changes
    # sign between no two groups of numeric eigenvalues, so no certificate
    wrong = IntPolynomial.from_coeffs((0, 25, -10, 1))
    with pytest.raises(ClusteringError) as exc:
        eigendecompose_symmetric(adjacency_matrix(P3), char=wrong)
    diag = exc.value.diagnostics
    assert diag["assigned_counts"] != diag["expected_multiplicities"]


def test_clustering_error_on_wrong_multiplicities():
    from cospectra import IntPolynomial

    # t(t-2)(t+2)^2 has C4's roots -2, 0, 2, so every factor changes sign where
    # it should, but it doubles -2 where C4 doubles 0
    wrong = IntPolynomial.from_coeffs((0, -8, -4, 2, 1))
    with pytest.raises(ClusteringError) as exc:
        eigendecompose_symmetric(adjacency_matrix(C4), char=wrong)
    diag = exc.value.diagnostics
    assert diag["expected_multiplicities"] == [2, 1, 1]
    assert diag["assigned_counts"] == [1, 2, 1]


def test_decomposition_empty_single_and_asymmetric():
    assert eigendecompose_symmetric([]).clusters == ()
    d = eigendecompose_symmetric([[7]])
    (cl,) = d.clusters
    assert cl.value == 7.0 and cl.multiplicity == 1 and abs(d.eigenvectors[0, 0]) == 1.0
    with pytest.raises(ValueError):
        eigendecompose_symmetric([[0, 1], [0, 0]])


def test_decomposition_rejects_mismatched_char_degree():
    with pytest.raises(ValueError):
        eigendecompose_symmetric(adjacency_matrix(C4), char=char_poly(adjacency_matrix(P3)))


def _fixture_matrices():
    for name in FIXTURE_NAMES:
        g = load_fixture(name).graph
        yield f"{name}-A", adjacency_matrix(g)
        yield f"{name}-L", laplacian_matrix(g)


# the fixtures, and constructions whose spectra have repeated eigenvalues and
# distinct eigenvalues close together
SEPARATOR_CASES = [*(f"{name}-{k}" for name in FIXTURE_NAMES for k in "AL"), *range(12)]


def _separator_case(case):
    if isinstance(case, str):
        name, kind = case.rsplit("-", 1)
        g = load_fixture(name).graph
    else:
        kind = "A" if case % 2 else "L"
        g = random_instance(case, max_g=8, max_h=3, kind=kind).graph
    return (adjacency_matrix if kind == "A" else laplacian_matrix)(g)


@pytest.mark.parametrize("case", SEPARATOR_CASES)
def test_separators_are_short_dyadics_strictly_between_the_groups(case):
    """Integers at least one below and above the spectrum close the list, and
    each cut is the dyadic of least denominator in the middle half of its gap,
    strictly between the groups it separates."""
    m = _separator_case(case)
    d = eigendecompose_symmetric(m)
    vals = np.linalg.eigh(np.array(m, dtype=float))[0]
    t = _certified_groups(multiplicity_structure(char_poly(m)), vals)[1]
    vals = vals.tolist()
    assert len(t) == len(d.clusters) + 1
    assert t[0] == int(t[0]) <= vals[0] - 1 and t[-1] == int(t[-1]) >= vals[-1] + 1
    end = 0
    for i, cl in enumerate(d.clusters[:-1], 1):
        end += cl.multiplicity
        x, y = vals[end - 1], vals[end]
        quarter = (Fraction(y) - Fraction(x)) / 4
        lo, hi = Fraction(x) + quarter, Fraction(y) - quarter
        assert x < t[i] < y and lo <= Fraction(t[i]) <= hi
        e = Fraction(t[i]).denominator.bit_length() - 1
        if e:  # no dyadic of half that denominator lies in the middle half
            half = Fraction(1, 2 ** (e - 1))
            assert (hi // half) * half < lo


@pytest.mark.parametrize("case", SEPARATOR_CASES)
def test_short_dyadic_separators_certify_the_groups_the_midpoints_did(case):
    m = _separator_case(case)
    vals = np.linalg.eigh(np.array(m, dtype=float))[0]
    struct = multiplicity_structure(char_poly(m))
    sizes, _ = _certified_groups(struct, vals)
    assert sizes == groups_certified_at_midpoints(struct, vals.tolist())
    d = eigendecompose_symmetric(m)
    assert [cl.multiplicity for cl in d.clusters] == sizes


def test_clustering_error_diagnostics_list_the_separating_points():
    from cospectra import IntPolynomial

    wrong = IntPolynomial.from_coeffs((0, -8, -4, 2, 1))  # as above: C4 with -2 doubled
    with pytest.raises(ClusteringError) as exc:
        eigendecompose_symmetric(adjacency_matrix(C4), char=wrong)
    diag = json.loads(json.dumps(exc.value.diagnostics))
    points, vals = diag["separating_points"], diag["numeric_eigenvalues"]
    assert len(points) == 4 and points == sorted(points)
    # integers at least one outside the spectrum
    assert points[0] == int(points[0]) <= vals[0] - 1
    assert points[-1] == int(points[-1]) >= vals[-1] + 1
    assert vals[0] < points[1] < vals[1] and vals[2] < points[2] < vals[3]


# ---------------------------------------------------------------------------
# strong cospectrality taxonomy


def test_k2_pair_is_strong():
    res = strong_cospectrality(verify_a_cospectral(K2, 0, 1))
    assert res.verdict == STRONG
    assert [(round(v), s) for v, s in res.signs] == [(-1, -1), (1, 1)]


def test_c4_antipodal_pair_is_strong():
    res = strong_cospectrality(verify_a_cospectral(C4, 0, 2))
    assert res.verdict == STRONG
    assert [(round(v), s) for v, s in res.signs] == [(-2, 1), (0, -1), (2, 1)]


def test_c4_adjacent_pair_is_cospectral_only():
    res = strong_cospectrality(verify_a_cospectral(C4, 0, 1))
    assert res.verdict == COSPECTRAL_ONLY
    # the degenerate eigenvalue 0 is where the +/- relation breaks
    broken = [v for v, s in res.signs if s is None]
    assert broken == [pytest.approx(0.0)]


def test_p3_endpoint_midpoint_not_cospectral():
    res = strong_cospectrality(verify_a_cospectral(P3, 0, 1))
    assert res.verdict == NOT_COSPECTRAL
    assert res.signs == ()


def test_strong_result_json():
    doc = strong_cospectrality(verify_a_cospectral(K2, 0, 1)).to_json()
    assert doc["verdict"] == STRONG
    assert {e["sign"] for e in doc["signs"]} == {-1, 1}


def test_projection_diagonal_equal_matches_taxonomy():
    d = eigendecompose_symmetric(adjacency_matrix(C4))
    assert projection_diagonal_equal_by_projectors(d, 0, 2, 1e-8)
    assert projection_diagonal_equal_by_projectors(d, 0, 1, 1e-8)  # all C4 vertices alike
    dp = eigendecompose_symmetric(adjacency_matrix(P3))
    assert not projection_diagonal_equal_by_projectors(dp, 0, 1, 1e-8)


@given(graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_eigenprojection_constant_on_stabilizer_orbits(g):
    """E_l e_v is fixed by every automorphism fixing v, hence constant on orbits."""
    from cospectra import automorphism_orbits

    v = 0
    d = eigendecompose_symmetric(adjacency_matrix(g))
    part = automorphism_orbits(g, fixed=v)
    for i in range(len(d.clusters)):
        col = projector(d, i)[:, v]
        for orbit in part.orbits:
            entries = [col[w] for w in orbit]
            assert max(entries) - min(entries) <= 1e-9


def _decompositions_with_repeated_eigenvalues():
    for label, m in _fixture_matrices():
        yield label, eigendecompose_symmetric(m)
    for seed in range(20):
        cg = random_instance(seed, max_g=7, max_h=3, kind="A" if seed % 2 else "L")
        yield f"random-{seed}-A", eigendecompose_symmetric(adjacency_matrix(cg.graph))
        yield f"random-{seed}-L", eigendecompose_symmetric(laplacian_matrix(cg.graph))


def _assert_criteria_match_projector_oracles(d):
    n = len(d.matrix)
    for u in range(n):
        for v in range(u + 1, n):
            assert strong_from_decomposition(d, u, v) == strong_by_projectors(d, u, v)


def test_row_criteria_match_the_projector_oracles_on_fixtures_and_constructions():
    """The criteria read Gram products of eigenvector rows; the oracles form
    every n x n projector.  Both classify every pair alike, on spectra with
    repeated eigenvalues."""
    repeated = 0
    for _, d in _decompositions_with_repeated_eigenvalues():
        repeated += any(cl.multiplicity > 1 for cl in d.clusters)
        _assert_criteria_match_projector_oracles(d)
    assert repeated >= 20


@given(graphs(max_n=9))
@settings(max_examples=40, deadline=None)
def test_row_criteria_match_the_projector_oracles_on_random_graphs(g):
    _assert_criteria_match_projector_oracles(eigendecompose_symmetric(adjacency_matrix(g)))
    _assert_criteria_match_projector_oracles(eigendecompose_symmetric(laplacian_matrix(g)))


# ---------------------------------------------------------------------------
# induced eigenpairs and the simplicity certificate


def test_induced_eigenpairs_on_claw_fixture():
    fx = load_fixture("figure3")
    verdict = strong_via_simplicity(fx.constructed)
    pairs = verdict.induced
    assert [round(p.eigenvalue, 6) for p in pairs] == [-1.732051, 1.732051]
    vectors = induced_vectors(fx.constructed)
    assert [value for value, _ in vectors] == [p.eigenvalue for p in pairs]
    a = np.array(adjacency_matrix(fx.constructed.graph), dtype=float)
    for p, entry, (_, vector) in zip(pairs, verdict.to_json()["induced"], vectors):
        assert p.base_coefficient == pytest.approx(2 ** -0.5, abs=1e-9)
        assert p.multiplicity_in_big == 1 and entry["simple"] is True
        # E d normalised: a unit eigenvector of the big adjacency matrix, supported off H
        assert np.linalg.norm(a @ vector - p.eigenvalue * vector) <= 1e-8
        assert np.linalg.norm(vector) == pytest.approx(1.0)
        for h in fx.constructed.h_map:
            assert abs(vector[h]) <= 1e-12


def test_induced_vectors_are_antisymmetric_lifts():
    fx = load_fixture("figure3")
    n = fx.constructed.base_n
    for _, vector in induced_vectors(fx.constructed):
        assert np.allclose(vector[:n], -vector[n : 2 * n], atol=1e-12)


def _pure_constructions():
    """The pure bundled constructions and random_instance seeds 0-299 at the
    defaults and at max_g=20, max_h=6."""
    for name in ("figure3", "figure4", "figure6-a"):
        yield load_fixture(name).constructed
    for options in ({}, {"max_g": 20, "max_h": 6}):
        for seed in range(300):
            yield random_instance(seed, kind="A", **options)


def test_induced_eigenpairs_match_the_base_lift_oracle():
    """Read off the constructed graph's decomposition, the induced eigenpairs
    are those the base graph's eigenprojections of e_{v_c}, lifted by hand,
    give: the same list and multiplicities exactly, the floats to rounding.
    Their eigenvalues are exactly those where the direct check's sign is -1
    or None, the clusters with ||E (e_u - e_v)|| > PROJECTION_TOL."""
    count = 0
    for cg in _pure_constructions():
        verdict = strong_via_simplicity(cg)
        pairs = verdict.induced
        nonzero = [val for val, sign in verdict.direct.signs if sign in (-1, None)]
        assert [p.eigenvalue for p in pairs] == nonzero
        reference = induced_eigenpairs_by_base_lift(cg)
        vectors = induced_vectors(cg)
        assert len(pairs) == len(reference) == len(vectors) > 0
        for p, q, (_, vector) in zip(pairs, reference, vectors):
            assert p.multiplicity_in_big == q.multiplicity_in_big
            assert abs(p.eigenvalue - q.eigenvalue) <= 1e-9
            assert abs(p.base_coefficient - q.base_coefficient) <= 1e-9
            # E d normalised is the normalised lift: E d does not depend on the basis
            assert np.abs(vector - q.vector).max() <= 1e-8
        count += 1
    assert count == 603


def test_induced_reads_the_pair_projections_once(monkeypatch):
    """The induced eigenvalues and the direct signs come from one reading of
    the rows u and v."""
    calls = []
    real = spectral._pair_projections
    monkeypatch.setattr(spectral, "_pair_projections", lambda *a: calls.append(a) or real(*a))
    for name in ("figure3", "figure4", "figure6-a"):
        before = len(calls)
        strong_via_simplicity(load_fixture(name).constructed)
        assert len(calls) == before + 1


def test_induced_and_direct_check_share_the_vanishing_rule(monkeypatch):
    """A doubled cluster with ||E (e_u - e_v)|| = 1.2e-8, between
    PROJECTION_TOL and sqrt 2 times it, counts as induced because the direct
    check counts it as nonzero: the verdict is inconclusive, not an internal
    inconsistency."""
    cg = random_instance(57)
    real = spectral.eigendecompose_symmetric

    def nudged(m, char=None):
        dec = real(m, char)
        dec.eigenvectors[cg.pair[1], dec.starts[2]] += 1.2e-8
        return dec

    monkeypatch.setattr(spectral, "eigendecompose_symmetric", nudged)
    verdict = strong_via_simplicity(cg)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.direct.verdict == COSPECTRAL_ONLY
    doubled = [p for p in verdict.induced if p.multiplicity_in_big != 1]
    assert [p.multiplicity_in_big for p in doubled] == [2]
    assert doubled[0].base_coefficient == pytest.approx(1.2e-8 / 2**0.5, rel=1e-3)


def test_induced_refuses_a_construction_whose_claims_fail(monkeypatch):
    """The reading rests on the Krylov space of e_u - e_v lying in the lifted
    subspace; a failed claim is an internal inconsistency, not a verdict."""
    from cospectra import CospectraError
    from cospectra.construct import ClaimViolation

    violation = ClaimViolation("h-support", 1, "power 1 has value 1 at H vertex 8")
    monkeypatch.setattr("cospectra.construct.check_a_claims", lambda cg: violation)
    with pytest.raises(CospectraError, match="internal inconsistency.*h-support"):
        strong_via_simplicity(load_fixture("figure3").constructed)


def test_induced_rejects_cross_connected():
    fx = load_fixture("figure6-b")
    assert fx.constructed.cross_connected
    with pytest.raises(ValueError):
        strong_via_simplicity(fx.constructed)


def test_induced_rejects_laplacian_kind():
    from cospectra import CrossEdge, build_l_cospectral

    cg = build_l_cospectral(P3, 1, [CrossEdge(0, 2)])
    with pytest.raises(ValueError):
        strong_via_simplicity(cg)


def test_simplicity_certificate_on_claw_fixture():
    fx = load_fixture("figure3")
    verdict = strong_via_simplicity(fx.constructed)
    assert verdict.verdict == STRONG_CERTIFIED
    assert all(p.multiplicity_in_big == 1 for p in verdict.induced)
    assert verdict.direct.verdict == STRONG


def test_simplicity_inconclusive_without_contradiction():
    # K2 with no attachments: the disjoint union K2 + K2 + K1 keeps every
    # induced eigenvalue doubled, so simplicity says nothing; the direct
    # check settles the pair as cospectral-only.
    cg = build_a_cospectral(K2, 0, Graph.from_edges(1, []), [])
    verdict = strong_via_simplicity(cg)
    assert verdict.verdict == INCONCLUSIVE
    assert any(p.multiplicity_in_big != 1 for p in verdict.induced)
    assert verdict.direct.verdict == COSPECTRAL_ONLY
    doc = verdict.to_json()
    assert doc["verdict"] == INCONCLUSIVE


def test_connect_orbits_blocks_simplicity_route():
    fx = load_fixture("figure3")
    leaf_orbit = fx.constructed.orbit_partition.orbit_index(1)
    crossed = connect_orbits(fx.constructed, leaf_orbit, [(1, 5), (2, 6), (3, 7)])
    with pytest.raises(ValueError):
        strong_via_simplicity(crossed)


# ---------------------------------------------------------------------------
# pendant multiplicity reduction


@pytest.mark.parametrize(
    "g, eigenvalue, old_mult",
    [(CLAW, 0.0, 2), (C4, 0.0, 2), (STAR4, 0.0, 3)],
)
def test_pendant_reduces_multiplicity_by_one(g, eigenvalue, old_mult):
    d = eigendecompose_symmetric(adjacency_matrix(g))
    cluster = d.cluster_nearest(eigenvalue)
    assert cluster.multiplicity == old_mult
    bigger, report = attach_pendant_reduce(g, d, cluster)
    assert bigger.n == g.n + 1
    assert report.new_vertex == g.n
    assert bigger.degree(report.new_vertex) == 1
    assert report.old_multiplicity == old_mult
    assert report.new_multiplicity == old_mult - 1
    assert report.certified
    assert report.to_json()["strict_interlacing"] is True
    assert report.lower_neighbor < eigenvalue < report.upper_neighbor


def test_pendant_lands_on_heaviest_vertex():
    # every off-center claw vertex carries weight in the 0-eigenspace; the
    # pendant must go on one of them, never the center
    d = eigendecompose_symmetric(adjacency_matrix(CLAW))
    _, report = attach_pendant_reduce(CLAW, d, d.cluster_nearest(0.0))
    assert report.attach_vertex in {1, 2, 3}


def test_pendant_rejects_simple_eigenvalue():
    d = eigendecompose_symmetric(adjacency_matrix(P3))
    with pytest.raises(ValueError):
        attach_pendant_reduce(P3, d, d.clusters[0])


def test_pendant_rejects_a_foreign_decomposition():
    claw = eigendecompose_symmetric(adjacency_matrix(CLAW))
    c4 = eigendecompose_symmetric(adjacency_matrix(C4))
    with pytest.raises(ValueError, match="not of this graph"):
        attach_pendant_reduce(CLAW, c4, c4.cluster_nearest(0.0))
    again = eigendecompose_symmetric(adjacency_matrix(CLAW))
    with pytest.raises(ValueError, match="does not belong"):
        attach_pendant_reduce(CLAW, claw, again.cluster_nearest(0.0))


def test_pendant_report_json_round_trips_values():
    d = eigendecompose_symmetric(adjacency_matrix(CLAW))
    _, report = attach_pendant_reduce(CLAW, d, d.cluster_nearest(0.0))
    doc = report.to_json()
    assert float(doc["eigenvalue"]) == report.eigenvalue
    assert doc["certified"] is True


def test_repeated_reduction_reaches_simple_spectrum():
    g = STAR4
    value = 0.0
    for expected in (3, 2):
        d = eigendecompose_symmetric(adjacency_matrix(g))
        cluster = d.cluster_nearest(value)
        assert cluster.multiplicity == expected
        g, report = attach_pendant_reduce(g, d, cluster)
        assert report.certified
    d = eigendecompose_symmetric(adjacency_matrix(g))
    assert d.cluster_nearest(value).multiplicity == 1


def _integer_root_multiplicity(coeffs: tuple[int, ...], theta: int) -> int:
    """The largest k with (t - theta)^k dividing the nonzero integer
    polynomial of ``coeffs`` (low degree first), by synthetic division."""
    k = 0
    while True:
        acc, rows = 0, []
        for c in reversed(coeffs):
            acc = acc * theta + c
            rows.append(acc)
        if acc:  # the remainder, p(theta)
            return k
        coeffs, k = tuple(reversed(rows[:-1])), k + 1


def test_pendant_goes_on_a_downer_vertex_of_every_repeated_integer_eigenvalue():
    """The pendant vertex w carries an eigenvector entry of at least
    1/sqrt(n), so theta has multiplicity exactly l - 1 in phi(G - w); as
    phi(G + pendant) = t phi(G) - phi(G - w), theta keeps multiplicity l - 1
    in the grown graph, theta = 0 included, and both flags hold."""
    graphs = [load_fixture(name).graph for name in FIXTURE_NAMES]
    graphs += [random_instance(seed, kind=kind).graph for kind in "AL" for seed in range(200)]
    checked = 0
    for g in graphs:
        dec = eigendecompose_symmetric(adjacency_matrix(g))
        char = char_poly(adjacency_matrix(g)).coeffs
        for cl in dec.clusters:
            # a cluster is labelled by the integer root its certified
            # interval holds, if it holds one
            if cl.multiplicity < 2 or not cl.value.is_integer():
                continue
            theta = int(cl.value)
            assert _integer_root_multiplicity(char, theta) == cl.multiplicity
            _, report = attach_pendant_reduce(g, dec, cl)
            minor = char_poly(adjacency_matrix(delete_vertex(g, report.attach_vertex)))
            assert _integer_root_multiplicity(minor.coeffs, theta) == cl.multiplicity - 1
            assert report.certified and report.to_json()["strict_interlacing"]
            checked += 1
    assert checked == 239


def _graph_with_twins(order: int, seed: int) -> Graph:
    """A seeded G(order // 2, 0.3) grown to ``order`` vertices by twins of an
    independent set of sources: false twins (same neighbours, eigenvalue 0)
    of even sources, true twins (same closed neighbourhood, eigenvalue -1)
    of odd ones, each source with one kind only, so every twin stays one."""
    import random

    rng = random.Random(seed)
    k = order // 2
    edges = {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.3}
    sources: list[int] = []
    for s in range(k):
        if not any((min(s, t), max(s, t)) in edges for t in sources):
            sources.append(s)
    for x in range(k, order):
        s = sources[(x - k) % min(4, len(sources))]
        nbrs = {a if b == s else b for a, b in edges if s in (a, b)}
        if s % 2:
            nbrs.add(s)
        edges |= {(y, x) for y in nbrs}
    return Graph.from_edges(order, sorted(edges))


def _exact_multiplicity(char, factor) -> int:
    """How often the monic integer polynomial ``factor`` divides ``char``,
    by exact division over the integers (both sympy polynomials)."""
    count = 0
    quotient, remainder = char.div(factor)
    while remainder.is_zero:
        char, count = quotient, count + 1
        quotient, remainder = char.div(factor)
    return count


def _reduced_multiplicity_by_division(g: Graph, theta: float, factor) -> tuple[int, int, int]:
    """(old, reported new, exactly divided new) multiplicity of the
    eigenvalue of ``g`` nearest theta, one pendant reduction apart."""
    import sympy

    d = eigendecompose_symmetric(adjacency_matrix(g))
    cluster = d.cluster_nearest(theta)
    assert abs(cluster.value - theta) < 1e-6
    grown, report = attach_pendant_reduce(g, d, cluster)
    t = sympy.Symbol("t")
    char = sympy.Poly(list(reversed(char_poly(adjacency_matrix(grown)).coeffs)), t, domain="ZZ")
    assert report.certified == report.to_json()["strict_interlacing"]
    return cluster.multiplicity, report.new_multiplicity, _exact_multiplicity(char, factor)


@pytest.mark.parametrize("order", range(24, 65, 8))
def test_reduced_twin_eigenvalues_match_exact_division(order):
    import sympy

    t = sympy.Symbol("t")
    g = _graph_with_twins(order, seed=order)
    for theta in (0, -1):
        old, new, exact = _reduced_multiplicity_by_division(
            g, theta, sympy.Poly(t - theta, t, domain="ZZ")
        )
        assert old >= 2
        assert new == exact == old - 1


@pytest.mark.parametrize("n", range(5, 18, 2))
def test_reduced_cycle_pair_eigenvalues_match_the_minimal_polynomial(n):
    import sympy

    t = sympy.Symbol("t")
    cycle = [(i, (i + 1) % n) for i in range(n)]
    g = Graph.from_edges(2 * n, cycle + [(a + n, b + n) for a, b in cycle])
    for k in range((n + 1) // 2):
        theta = 2 * sympy.cos(2 * sympy.pi * k / n)
        minimal = sympy.Poly(sympy.minimal_polynomial(theta, t), t, domain="ZZ")
        old, new, exact = _reduced_multiplicity_by_division(g, float(theta), minimal)
        assert old == (2 if k == 0 else 4)
        assert new == exact == old - 1


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-40, max_value=40, allow_nan=False),
)
def test_dyadic_sign_matches_rational_evaluation(coeffs, t):
    from fractions import Fraction

    from cospectra import IntPolynomial
    from cospectra.spectral import _dyadic_sign

    a, b = t.as_integer_ratio()
    value = IntPolynomial.from_coeffs(coeffs).evaluate(Fraction(a, b))
    assert _dyadic_sign(tuple(coeffs), a, b.bit_length() - 1) == (value > 0) - (value < 0)
