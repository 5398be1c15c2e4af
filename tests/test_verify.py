import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import cospectra
from cospectra import (
    ADJACENCY,
    FIXTURE_NAMES,
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
    eigendecompose_symmetric,
    laplacian_matrix,
    load_fixture,
    strong_cospectrality,
    verify_a_cospectral,
    verify_l_cospectral,
)
from cospectra import verify as verify_module
from cospectra.exact import (
    char_poly_from_traces,
    principal_minors_mod,
    principal_minors_mod_lists,
)
from cospectra.graph import ExactComputationError, walk_diagonals
from cospectra.verify import PYTHON_INT_MAX_ORDER
from cospectra.cli import EXIT_FAILS, EXIT_HOLDS, EXIT_INPUT, main

from _oracles import (
    bareiss_det,
    char_poly_at,
    projection_diagonal_equal_by_projectors,
    rational_krylov_orthogonal,
)

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _projection_equal(m, u, v) -> bool:
    """The numeric eigenprojector criterion E_uu = E_vv at 1e-8, from a
    certified decomposition of ``m`` and n x n projectors."""
    return projection_diagonal_equal_by_projectors(eigendecompose_symmetric(m), u, v, 1e-8)


REMOVED_NAMES = {
    "cospectra": ["DEFAULT_TOLERANCES", "PairReport", "Tolerances",
                  "projection_diagonal_equal", "verify_pair_full"],
    "cospectra.spectral": ["DEFAULT_TOLERANCES", "Tolerances", "projection_diagonal_equal"],
    "cospectra.verify": ["PairReport", "_advisory_decomposition", "failure_reason",
                         "verify_pair_full"],
}


def test_exports_resolve_and_removed_names_are_gone():
    """Every name in the hand-kept ``__all__`` resolves, and the names that
    served the dropped projector comparison exist nowhere."""
    import importlib

    assert len(set(cospectra.__all__)) == len(cospectra.__all__)
    for name in cospectra.__all__:
        assert hasattr(cospectra, name), name
    for module, names in REMOVED_NAMES.items():
        for name in names:
            assert not hasattr(importlib.import_module(module), name), (module, name)
            assert name not in cospectra.__all__


@pytest.mark.parametrize("command", [["verify", "--pair", "0,2"], ["induced", "--provenance", "{}"]])
def test_tol_is_no_option(tmp_path, capsys, command):
    g = tmp_path / "c4.txt"
    g.write_text(format_edge_list(C4))
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(g), *command[1:], "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err


def test_adjacency_report_positive():
    fx = load_fixture("figure1")
    r = verify_a_cospectral(fx.graph, *fx.pair)
    assert r.cospectral
    assert r.matrix_kind == ADJACENCY
    assert r.first_mismatch_k is None
    assert _projection_equal(adjacency_matrix(fx.graph), *fx.pair)  # numeric agrees here
    p, q = r.deleted_char_polys
    assert p == q == char_poly(adjacency_matrix(delete_vertex(fx.graph, fx.pair[0])))


def test_adjacency_report_negative_certificates():
    r = verify_a_cospectral(P3, 0, 1)
    assert not r.cospectral
    assert r.first_mismatch_k == 2
    assert not _projection_equal(adjacency_matrix(P3), 0, 1)
    p, q = r.deleted_char_polys
    assert p != q


def test_adjacency_json_shape():
    doc = verify_a_cospectral(P3, 0, 1).to_json()
    assert doc["matrix"] == ADJACENCY
    assert doc["cospectral"] is False
    crit = doc["criteria"]
    assert set(crit) == {
        "krylov_orthogonal",
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
    assert r.deleted_char_polys is None
    doc = r.to_json()
    assert doc["note"] == LAPLACIAN_NOTE
    assert "deleted_char_polys_equal" not in doc["criteria"]
    json.dumps(doc)


def test_laplacian_negative():
    r = verify_l_cospectral(P3, 0, 1)
    assert not r.cospectral
    assert r.first_mismatch_k is not None


def test_adjacency_cospectral_but_not_laplacian():
    # the two notions genuinely differ: this tree pair passes the adjacency
    # checks and fails the Laplacian one
    fx = load_fixture("figure1")
    assert verify_a_cospectral(fx.graph, *fx.pair).cospectral
    assert not verify_l_cospectral(fx.graph, *fx.pair).cospectral


def _verify_both_strong(tmp_path, capsys, g: Graph, u: int, v: int) -> tuple[int, dict]:
    """``verify --matrix both --strong --json``: the exit code and document."""
    f = tmp_path / "g.txt"
    f.write_text(format_edge_list(g))
    code = main(["verify", str(f), "--pair", f"{u},{v}", "--matrix", "both", "--strong", "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_pair_report_merges_all_three(tmp_path, capsys):
    """``--matrix both --strong`` merges the two reports and the adjacency
    strong verdict into one document."""
    code, doc = _verify_both_strong(tmp_path, capsys, C4, 0, 2)
    assert code == EXIT_HOLDS
    assert doc["adjacency"]["cospectral"]
    assert doc["laplacian"]["cospectral"]
    assert doc["strong"]["verdict"] == STRONG
    assert set(doc) == {"adjacency", "laplacian", "strong"}


def test_pair_report_negative(tmp_path, capsys):
    code, doc = _verify_both_strong(tmp_path, capsys, P3, 0, 1)
    assert code == EXIT_FAILS
    assert not doc["adjacency"]["cospectral"]
    assert not doc["laplacian"]["cospectral"]
    assert doc["strong"]["verdict"] == NOT_COSPECTRAL


def test_pair_validation():
    with pytest.raises(ValueError):
        verify_a_cospectral(P3, 0, 0)
    with pytest.raises(ValueError):
        verify_a_cospectral(P3, 0, 5)
    with pytest.raises(ValueError):
        verify_l_cospectral(P3, -1, 2)
    # bool is an int subclass, but True is no vertex id
    with pytest.raises(ValueError, match="True"):
        verify_a_cospectral(P3, True, 2)
    with pytest.raises(ValueError, match="False"):
        verify_l_cospectral(P3, 2, False)


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
    """The walk verdict agrees with Krylov orthogonality decided by explicit
    rational Krylov bases, and with the deleted-vertex char polys."""
    g, u, v = gup
    r = verify_a_cospectral(g, u, v)
    assert r.cospectral == rational_krylov_orthogonal(adjacency_matrix(g), u, v)
    p_u, p_v = r.deleted_char_polys
    assert r.cospectral == (p_u == p_v)
    # the mismatch certificate appears exactly on failure
    assert (r.first_mismatch_k is None) == r.cospectral


@given(graph_and_pair())
@settings(max_examples=40, deadline=None)
def test_advisory_projection_agrees_numerically(gup):
    """On small graphs the numeric projector criterion, which verify no
    longer computes, matches the exact verdict."""
    g, u, v = gup
    r = verify_a_cospectral(g, u, v)
    assert _projection_equal(adjacency_matrix(g), u, v) == r.cospectral


def _gnp(seed, n, p=0.3):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    )


@pytest.mark.parametrize("n", [20, 24])
def test_laplacian_verify_on_random_graphs(n):
    """The Laplacian decomposition certifies, and its projector criterion
    agrees with the exact verdict."""
    for seed in range(25):
        g = _gnp(seed, n)
        r = verify_l_cospectral(g, 0, 1)
        assert _projection_equal(laplacian_matrix(g), 0, 1) == r.cospectral


def test_laplacian_verify_cli_never_reports_bad_input(tmp_path, capsys):
    for seed in range(3):
        f = tmp_path / f"g{seed}.txt"
        f.write_text(format_edge_list(_gnp(seed, 32)))
        assert main(["verify", str(f), "--pair", "0,1", "--matrix", "l"]) != EXIT_INPUT


def test_verify_on_random_graphs_of_order_40():
    """A and L verify on 25 seeded G(40, 0.3) graphs: every A and L
    decomposition is certified and its projector criterion agrees with the
    exact verdict."""
    for seed in range(25):
        g = _gnp(seed, 40)
        for verify, matrix in ((verify_a_cospectral, adjacency_matrix),
                               (verify_l_cospectral, laplacian_matrix)):
            r = verify(g, 0, 1)
            assert _projection_equal(matrix(g), 0, 1) == r.cospectral


def test_advisory_failure_is_reported_not_raised(monkeypatch):
    """A failing decomposition cannot reach a report, which never
    decomposes; only the strong verdict of a cospectral pair raises it."""
    from cospectra import ClusteringError

    def fail(*args, **kwargs):
        raise ClusteringError("clustering failure", {})

    monkeypatch.setattr("cospectra.verify.eigendecompose_symmetric", fail)
    adjacency, laplacian = verify_a_cospectral(C4, 0, 2), verify_l_cospectral(C4, 0, 2)
    assert adjacency.cospectral and laplacian.cospectral
    for report in (adjacency, laplacian):
        with pytest.raises(ClusteringError):
            strong_cospectrality(report)
    # a pair that is not cospectral needs no decomposition for its strong verdict
    assert strong_cospectrality(verify_a_cospectral(P3, 0, 1)).verdict == NOT_COSPECTRAL


def test_report_without_failure_has_no_error_key():
    """A report carries exact fields only: no projector criterion, tolerance
    or error, and no decomposition."""
    r = verify_a_cospectral(C4, 0, 2)
    doc = r.to_json()
    assert "projection_error" not in doc and "projection_tolerance" not in doc
    assert "projection_diagonal_equal" not in doc["criteria"]
    assert not hasattr(r, "decomposition")


# ---------------------------------------------------------------------------
# the deleted-vertex char polys derived from the walk, against the oracles


def _sympy_char_poly(m):
    import sympy

    t = sympy.Symbol("t")
    coeffs = sympy.Poly(sympy.Matrix(m).charpoly(t).as_expr(), t).all_coeffs()
    return IntPolynomial.from_coeffs([int(c) for c in reversed(coeffs)])


def _assert_deleted_polys_match(g, u, v, oracle=None):
    """The report's derived polys equal the Lanczos char polys of G-u and
    G-v built explicitly, and ``oracle``'s when one is given."""
    r = verify_a_cospectral(g, u, v)
    for w, p in zip((u, v), r.deleted_char_polys):
        deleted = adjacency_matrix(delete_vertex(g, w))
        assert p == char_poly(deleted)
        if oracle is not None:
            assert oracle(deleted, p)
    p_u, p_v = r.deleted_char_polys
    assert (p_u == p_v) == r.cospectral
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


def _small_and_large():
    """(graph, pair) of figure3, which the Python-int path verifies, and of
    an A-construction one vertex above that path's order."""
    small, large = load_fixture("figure3"), cospectra.random_instance(0)
    assert small.graph.n <= PYTHON_INT_MAX_ORDER < large.graph.n
    return [(small.graph, small.pair), (large.graph, large.pair)]


@pytest.mark.parametrize("fault", ["convolution", "diagonal", "trace"])
def test_a_wrong_derivation_fails_the_elimination_check(monkeypatch, fault):
    """Perturbing any one coefficient of the convolution, any one power
    diagonal, or, where the Python-int path derives phi(G) from them, any one
    trace raises instead of certifying a wrong poly: InternalCheckError, or
    ExactComputationError when Newton's identities leave a remainder (the
    numpy path has no such division)."""
    for g, (u, v) in _small_and_large():
        n = g.n
        python_ints = n <= PYTHON_INT_MAX_ORDER
        if fault == "convolution":
            ks = range(n - 1)
        elif fault == "diagonal":
            ks = range(n)
        else:
            ks = range(1, n + 1) if python_ints else ()
        for k in ks:
            if fault == "convolution":
                def wrong(char, diagonal, k=k, original=cospectra.exact.principal_char_poly):
                    return original(char, diagonal) + IntPolynomial((0,) * k + (1,))

                monkeypatch.setattr(verify_module, "principal_char_poly", wrong)
            elif fault == "diagonal" and python_ints:
                def wrong(g, starts, count, laplacian=False, k=k, original=walk_diagonals):
                    diagonals = original(g, starts, count, laplacian)
                    diagonals[v][k] -= 1
                    return diagonals

                monkeypatch.setattr(verify_module, "walk_diagonals", wrong)
            elif fault == "diagonal":
                def wrong(m, u, v, k=k, original=cospectra.exact.power_diagonals):
                    d_u, d_v = original(m, u, v)
                    d_v[k] -= 1
                    return d_u, d_v

                monkeypatch.setattr(verify_module, "power_diagonals", wrong)
            else:
                def wrong(traces, k=k, original=char_poly_from_traces):
                    return original([*traces[:k], traces[k] + 1, *traces[k + 1 :]])

                monkeypatch.setattr(verify_module, "char_poly_from_traces", wrong)
            errors = (InternalCheckError, ExactComputationError) if python_ints else InternalCheckError
            with pytest.raises(errors):
                verify_a_cospectral(g, u, v)
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# the Python-int path against the numpy kernels


def _assert_paths_agree(g: Graph, u: int, v: int) -> bool:
    """The A and L reports of (u, v) agree field by field between the
    Python-int path and the numpy path, forced by the order bound, and so do
    the two eliminations; returns the A verdict."""
    reports = []
    with pytest.MonkeyPatch.context() as mp:
        for bound in (g.n, g.n - 1):  # Python ints, then numpy
            mp.setattr(verify_module, "PYTHON_INT_MAX_ORDER", bound)
            reports.append((verify_a_cospectral(g, u, v), verify_l_cospectral(g, u, v)))
    (a_int, l_int), (a_np, l_np) = reports
    for ints, arrays in ((a_int, a_np), (l_int, l_np)):
        fields = ("cospectral", "first_mismatch_k", "deleted_char_polys", "char")
        assert [getattr(ints, f) for f in fields] == [getattr(arrays, f) for f in fields]
        assert ints == arrays and ints.to_json() == arrays.to_json()
        assert isinstance(ints.matrix, list) and (arrays.matrix == ints.matrix).all()
    a = adjacency_matrix(g)
    assert principal_minors_mod_lists(a, u, v) == principal_minors_mod(a, u, v)
    return a_int.cospectral


@given(graph_and_pair(max_n=PYTHON_INT_MAX_ORDER + 4))
@settings(max_examples=60, deadline=None)
def test_python_int_path_agrees_with_the_numpy_path(gup):
    _assert_paths_agree(*gup)


def test_python_int_path_agrees_on_fixtures_and_random_instances():
    """Every fixture on its pair, and random_instance seeds 0-199 of both
    kinds on the certified pair and on (0, n - 1)."""
    verdicts = set()
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        assert _assert_paths_agree(fx.graph, *fx.pair)
    for kind in ("A", "L"):
        for seed in range(200):
            cg = cospectra.random_instance(seed, kind=kind)
            for u, v in (cg.pair, (0, cg.graph.n - 1)):
                verdicts.add(_assert_paths_agree(cg.graph, u, v))
    assert verdicts == {True, False}
