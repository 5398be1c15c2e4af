import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import cospectra
from cospectra import (
    ADJACENCY,
    LAPLACIAN,
    LAPLACIAN_NOTE,
    NOT_COSPECTRAL,
    STRONG,
    AttachmentEdge,
    Graph,
    IntPolynomial,
    InternalCheckError,
    adjacency_matrix,
    build_a_cospectral,
    char_poly,
    delete_vertex,
    format_edge_list,
    load_fixture,
    verify_a_cospectral,
    verify_l_cospectral,
    verify_pair_full,
)
from cospectra import verify as verify_module
from cospectra.cli import EXIT_INPUT, main

from _oracles import bareiss_det, char_poly_at

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_adjacency_report_positive():
    fx = load_fixture("figure1")
    r = verify_a_cospectral(fx.graph, *fx.pair)
    assert r.cospectral
    assert r.matrix_kind == ADJACENCY
    assert r.char_polys_equal and r.power_diagonal_equal and r.krylov_orthogonal
    assert r.first_power_mismatch_k is None
    assert r.first_krylov_mismatch_k is None
    assert r.projection_equal  # advisory agrees here
    p, q = r.deleted_char_polys
    assert p == q == char_poly(adjacency_matrix(delete_vertex(fx.graph, fx.pair[0])))


def test_adjacency_report_negative_certificates():
    r = verify_a_cospectral(P3, 0, 1)
    assert not r.cospectral
    assert r.char_polys_equal is False
    assert r.first_power_mismatch_k == 2
    assert r.first_krylov_mismatch_k == 2
    assert not r.projection_equal
    p, q = r.deleted_char_polys
    assert p != q


def test_adjacency_json_shape():
    doc = verify_a_cospectral(P3, 0, 1).to_json()
    assert doc["matrix"] == ADJACENCY
    assert doc["cospectral"] is False
    crit = doc["criteria"]
    assert set(crit) == {
        "krylov_orthogonal",
        "projection_diagonal_equal",
        "deleted_char_polys_equal",
        "power_diagonal_equal",
    }
    certs = doc["certificates"]
    assert certs["first_power_mismatch_k"] == 2
    assert certs["first_krylov_mismatch_k"] == 2
    assert isinstance(certs["deleted_char_polys"][0], list)
    json.dumps(doc)  # fully serializable


def test_laplacian_report_carries_note():
    r = verify_l_cospectral(C4, 0, 2)
    assert r.cospectral
    assert r.matrix_kind == LAPLACIAN
    assert r.note == LAPLACIAN_NOTE
    assert r.char_polys_equal is None and r.power_diagonal_equal is None
    doc = r.to_json()
    assert doc["note"] == LAPLACIAN_NOTE
    assert "deleted_char_polys_equal" not in doc["criteria"]
    json.dumps(doc)


def test_laplacian_negative():
    r = verify_l_cospectral(P3, 0, 1)
    assert not r.cospectral
    assert r.first_krylov_mismatch_k is not None


def test_adjacency_cospectral_but_not_laplacian():
    # the two notions genuinely differ: this tree pair passes the adjacency
    # checks and fails the Laplacian one
    fx = load_fixture("figure1")
    assert verify_a_cospectral(fx.graph, *fx.pair).cospectral
    assert not verify_l_cospectral(fx.graph, *fx.pair).cospectral


def test_pair_report_merges_all_three():
    full = verify_pair_full(C4, 0, 2)
    assert full.adjacency.cospectral
    assert full.laplacian.cospectral
    assert full.strong.verdict == STRONG
    doc = full.to_json()
    assert set(doc) == {"adjacency", "laplacian", "strong"}
    json.dumps(doc)


def test_pair_report_negative():
    full = verify_pair_full(P3, 0, 1)
    assert not full.adjacency.cospectral
    assert not full.laplacian.cospectral
    assert full.strong.verdict == NOT_COSPECTRAL


def test_pair_validation():
    with pytest.raises(ValueError):
        verify_a_cospectral(P3, 0, 0)
    with pytest.raises(ValueError):
        verify_a_cospectral(P3, 0, 5)
    with pytest.raises(ValueError):
        verify_l_cospectral(P3, -1, 2)


@st.composite
def graph_and_pair(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True))
    u, v = draw(st.sampled_from(pairs))
    return Graph.from_edges(n, picks), u, v


@given(graph_and_pair())
@settings(max_examples=40, deadline=None)
def test_exact_criteria_always_agree(gup):
    """The three adjacency criteria are equivalent, so reports never mix verdicts."""
    g, u, v = gup
    r = verify_a_cospectral(g, u, v)
    assert r.char_polys_equal == r.power_diagonal_equal == r.krylov_orthogonal
    assert r.cospectral == r.char_polys_equal
    # mismatch certificates appear exactly on failure
    assert (r.first_power_mismatch_k is None) == r.cospectral
    assert (r.first_krylov_mismatch_k is None) == r.cospectral


@given(graph_and_pair())
@settings(max_examples=40, deadline=None)
def test_advisory_projection_agrees_numerically(gup):
    """On small graphs the numeric advisory matches the exact verdict."""
    g, u, v = gup
    r = verify_a_cospectral(g, u, v)
    assert r.projection_equal == r.cospectral


def _gnp(seed, n, p=0.3):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    )


@pytest.mark.parametrize("n", [20, 24])
def test_laplacian_verify_on_random_graphs(n):
    """The advisory Laplacian decomposition completes and agrees with the
    exact verdict instead of aborting it."""
    for seed in range(25):
        r = verify_l_cospectral(_gnp(seed, n), 0, 1)
        assert r.projection_equal == r.cospectral


def test_laplacian_verify_cli_never_reports_bad_input(tmp_path, capsys):
    for seed in range(3):
        f = tmp_path / f"g{seed}.txt"
        f.write_text(format_edge_list(_gnp(seed, 32)))
        assert main(["verify", str(f), "--pair", "0,1", "--matrix", "l"]) != EXIT_INPUT


def test_verify_on_random_graphs_of_order_40():
    """A and L verify on 25 seeded G(40, 0.3) graphs: every advisory
    decomposition is certified and agrees with the exact verdict."""
    for seed in range(25):
        g = _gnp(seed, 40)
        for verify in (verify_a_cospectral, verify_l_cospectral):
            r = verify(g, 0, 1)
            assert r.projection_error is None
            assert r.projection_equal == r.cospectral


def test_advisory_failure_is_reported_not_raised(monkeypatch):
    from cospectra import ClusteringError
    from cospectra.verify import strong_cospectrality

    def fail(*args, **kwargs):
        raise ClusteringError("clustering failure", {})

    monkeypatch.setattr("cospectra.verify.eigendecompose_symmetric", fail)
    full = verify_pair_full(C4, 0, 2)
    assert full.adjacency.cospectral and full.laplacian.cospectral
    assert full.adjacency.projection_equal is None
    assert full.adjacency.to_json()["projection_error"] == "ClusteringError: clustering failure"
    assert full.strong is None and full.to_json()["strong"] is None
    with pytest.raises(ClusteringError):
        strong_cospectrality(full.adjacency)
    # a pair that is not cospectral needs no decomposition for its strong verdict
    assert verify_pair_full(P3, 0, 1).strong.verdict == NOT_COSPECTRAL


def test_report_without_failure_has_no_error_key():
    r = verify_a_cospectral(C4, 0, 2)
    assert r.projection_error is None and "projection_error" not in r.to_json()
    assert r.decomposition is not None


# ---------------------------------------------------------------------------
# the deleted-vertex char polys derived from the walk, against the oracles


def _sympy_char_poly(m):
    import sympy

    t = sympy.Symbol("t")
    coeffs = sympy.Poly(sympy.Matrix(m).charpoly(t).as_expr(), t).all_coeffs()
    return IntPolynomial.from_coeffs([int(c) for c in reversed(coeffs)])


def _assert_deleted_polys_match(g, u, v, oracle=None):
    """The report's derived polys equal the Hessenberg char polys of G-u and
    G-v built explicitly, and ``oracle``'s when one is given."""
    r = verify_a_cospectral(g, u, v)
    for w, p in zip((u, v), r.deleted_char_polys):
        deleted = adjacency_matrix(delete_vertex(g, w))
        assert p == char_poly(deleted)
        if oracle is not None:
            assert oracle(deleted, p)
    assert r.char_polys_equal == r.cospectral
    return r


def _sympy_oracle(m, p):
    return p == _sympy_char_poly(m)


def _cofactor_oracle(m, p):
    return all(p.evaluate(x) == char_poly_at(m, x) for x in (-2, 0, 1, 3))


@pytest.mark.parametrize("kind", ["A", "L"])
def test_deleted_polys_match_on_random_instances(kind):
    """300 seeded constructions of each kind (A-cospectral pairs, and
    Laplacian pairs that mostly are not), sympy on every tenth."""
    for seed in range(300):
        cg = cospectra.random_instance(seed, kind=kind)
        oracle = _sympy_oracle if seed % 10 == 0 else None
        r = _assert_deleted_polys_match(cg.graph, *cg.pair, oracle)
        assert r.cospectral or kind == "L"


def test_deleted_polys_match_on_random_graph_pairs():
    """Six G(n, 0.4) for each n <= 14, one random pair each: cofactor
    expansion for deleted graphs up to order 7, sympy above."""
    rng = random.Random(14)
    for n in range(2, 15):
        for seed in range(6):
            g = _gnp(100 * n + seed, n, 0.4)
            u, v = rng.sample(range(n), 2)
            _assert_deleted_polys_match(g, u, v, _cofactor_oracle if n <= 8 else _sympy_oracle)


def test_deleted_polys_match_on_the_order_100_construction():
    """The order-100 construction of the baseline: its pair, also against a
    Bareiss determinant at one point, and a pair that is not cospectral."""
    base = _gnp(48, 48)
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    attach = [AttachmentEdge(s, 0, x) for x in range(4) for s in (1, 2)]
    cg = build_a_cospectral(base, 0, h, attach)
    assert cg.graph.n == 100

    def bareiss(m, p):
        return p.evaluate(2) == bareiss_det([[(2 if i == j else 0) - x for j, x in enumerate(row)]
                                             for i, row in enumerate(m)])

    assert _assert_deleted_polys_match(cg.graph, *cg.pair, bareiss).cospectral
    assert not _assert_deleted_polys_match(cg.graph, 0, 1).cospectral


@pytest.mark.parametrize("fault", ["convolution", "diagonal"])
def test_a_wrong_derivation_fails_the_elimination_check(monkeypatch, fault):
    """Perturbing any one coefficient of the convolution, or any one power
    diagonal, raises InternalCheckError instead of certifying a wrong poly."""
    fx = load_fixture("figure3")
    u, v = fx.pair
    n = fx.graph.n
    for k in range(n - 1 if fault == "convolution" else n):
        if fault == "convolution":
            def wrong(char, diagonal, k=k, original=cospectra.exact.principal_char_poly):
                return original(char, diagonal) + IntPolynomial((0,) * k + (1,))

            monkeypatch.setattr(verify_module, "principal_char_poly", wrong)
        else:
            def wrong(m, u, v, k=k, original=cospectra.exact.power_diagonals):
                d_u, d_v = original(m, u, v)
                d_v[k] -= 1
                return d_u, d_v

            monkeypatch.setattr(verify_module, "power_diagonals", wrong)
        with pytest.raises(InternalCheckError):
            verify_a_cospectral(fx.graph, u, v)
