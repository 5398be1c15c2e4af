import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from cospectra import (
    Graph,
    IntPolynomial,
    adjacency_matrix,
    char_poly,
    delete_vertex,
    laplacian_matrix,
    multiplicity_structure,
)
from cospectra import (
    AttachmentEdge,
    CrossEdge,
    build_a_cospectral,
    build_l_cospectral,
    exact,
)
from cospectra.exact import (
    ExactComputationError,
    first_difference,
    power_diagonals,
    principal_char_poly,
    principal_minors_mod,
)

from _oracles import (
    bareiss_det,
    char_poly_at,
    char_poly_bound_by_every_term,
    cofactor_det,
    first_krylov_mismatch_bigint,
    first_power_diagonal_mismatch_bigint,
    lanczos_char_poly_mod_reference,
    power_diagonals_bigint,
    rational_krylov_orthogonal,
)

# ---------------------------------------------------------------------------
# frozen hand-derived values

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
CLAW = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_char_poly_path3_adjacency():
    # det(tI - A) for the 3-path: t^3 - 2t
    assert char_poly(adjacency_matrix(PATH3)).coeffs == (0, -2, 0, 1)


def test_char_poly_path3_laplacian():
    # 3x3 cofactor expansion by hand: t^3 - 4t^2 + 3t
    assert char_poly(laplacian_matrix(PATH3)).coeffs == (0, 3, -4, 1)


def test_char_poly_triangle():
    # t^3 - 3t - 2 = (t - 2)(t + 1)^2
    assert char_poly(adjacency_matrix(TRIANGLE)).coeffs == (-2, -3, 0, 1)


def test_char_poly_claw():
    # t^4 - 3t^2 = t^2 (t^2 - 3)
    assert char_poly(adjacency_matrix(CLAW)).coeffs == (0, 0, -3, 0, 1)


def test_multiplicity_structure_triangle():
    struct = multiplicity_structure(char_poly(adjacency_matrix(TRIANGLE)))
    assert struct.content == 1
    assert [(f.coeffs, m) for f, m in struct.factors] == [
        ((-2, 1), 1),  # t - 2, simple
        ((1, 1), 2),  # t + 1, doubled
    ]


def test_multiplicity_structure_claw():
    struct = multiplicity_structure(char_poly(adjacency_matrix(CLAW)))
    assert [(f.coeffs, m) for f, m in struct.factors] == [
        ((-3, 0, 1), 1),  # t^2 - 3
        ((0, 1), 2),  # t^2
    ]


def test_multiplicity_structure_nonmonic_content():
    # 3 (t - 1)^2 (t + 2) = 3t^3 - 9t + 6
    p = IntPolynomial.from_coeffs([6, -9, 0, 3])
    struct = multiplicity_structure(p)
    assert struct.content == 3
    assert [(f.coeffs, m) for f, m in struct.factors] == [
        ((2, 1), 1),
        ((-1, 1), 2),
    ]
    assert struct.reconstruct() == p


def test_multiplicity_structure_rejects_zero():
    with pytest.raises(ValueError):
        multiplicity_structure(IntPolynomial(()))


def test_constant_polynomial_structure():
    struct = multiplicity_structure(IntPolynomial((5,)))
    assert struct.factors == () and struct.content == 5


# ---------------------------------------------------------------------------
# determinant and char poly against independent oracles


def int_matrices(max_n=5, lo=-4, hi=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        return [
            [draw(st.integers(min_value=lo, max_value=hi)) for _ in range(n)]
            for _ in range(n)
        ]

    return build()


def symmetric_int_matrices(max_n=6, lo=-3, hi=3, min_n=1):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = draw(st.integers(min_value=lo, max_value=hi))
                m[i][j] = x
                m[j][i] = x
        return m

    return build()


@given(int_matrices())
def test_bareiss_determinant_matches_cofactor(m):
    assert bareiss_det(m) == cofactor_det(m)


@given(symmetric_int_matrices(max_n=5, lo=-4, hi=4, min_n=0))
@settings(max_examples=60)
def test_char_poly_matches_pointwise_oracle(m):
    p = char_poly(m)
    for x in (-2, -1, 0, 1, 2, 3):
        assert p.evaluate(x) == char_poly_at(m, x)


@given(symmetric_int_matrices(max_n=4, lo=-4, hi=4, min_n=0))
@settings(max_examples=40, deadline=None)  # sympy's first charpoly calls are slow
def test_char_poly_matches_sympy(m):
    p = char_poly(m)
    t = sympy.Symbol("t")
    expected = sympy.Matrix(m).charpoly(t).as_expr() if m else sympy.Integer(1)
    ours = sum(c * t**i for i, c in enumerate(p.coeffs))
    assert sympy.expand(ours - expected) == 0


def test_char_poly_empty_and_single():
    assert char_poly([]).coeffs == (1,)
    assert char_poly([[7]]).coeffs == (-7, 1)


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly([[1, 2]])


@pytest.mark.parametrize(
    "m", [[[0, 1], [0, 0]], [[1, 2, 3], [2, 1, 0], [3, 1, 1]], [[0, (1 << 29) - 1], [1, 0]]]
)
def test_char_poly_refuses_a_non_symmetric_matrix(m):
    with pytest.raises(ValueError, match="not symmetric"):
        char_poly(m)


# ---------------------------------------------------------------------------
# char poly at the orders users run, against Bareiss determinants


def _gnp(seed, n, p=0.3):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    )


def _assert_matches_bareiss(m, xs=(-2, 0, 5)):
    p = char_poly(m)
    n = len(m)
    assert p.degree == n and p.is_monic
    for x in xs:
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        assert p.evaluate(x) == bareiss_det(shifted)
    return p


@pytest.mark.parametrize("n", [40, 60, 100])
@pytest.mark.parametrize("matrix", [adjacency_matrix, laplacian_matrix])
def test_char_poly_matches_bareiss_on_random_graphs(n, matrix):
    _assert_matches_bareiss(matrix(_gnp(n, n)))


def test_char_poly_dense_complete_laplacian():
    """L(K_60) has two distinct eigenvalues, so every Krylov block closes
    after at most two Lanczos steps."""
    n = 60
    lap = laplacian_matrix(Graph.from_edges(n, [(u, w) for u in range(n) for w in range(u)]))
    p = _assert_matches_bareiss(lap)
    # spectrum of L(K_n): 0 once, n with multiplicity n - 1
    assert p == IntPolynomial((0, 1)) * IntPolynomial((-n, 1)) ** (n - 1)


def _symmetric_beyond_int64(rng, n):
    """A symmetric matrix with entries +-2**70 + [-9, 9]."""
    return _symmetric(rng, n, [s * (1 << 70) + d for s in (-1, 1) for d in range(-9, 10)])


def _assert_refused(m):
    """Every kernel refuses m, whose absolute row sums reach 2**29."""
    from cospectra.spectral import eigendecompose_symmetric

    for kernel in (char_poly, eigendecompose_symmetric):
        with pytest.raises(ExactComputationError, match="row sum"):
            kernel(m)
    for kernel in (power_diagonals, principal_minors_mod):
        with pytest.raises(ExactComputationError, match="row sum"):
            kernel(m, 0, len(m) - 1)


def test_char_poly_entries_beyond_int64():
    """Entries beyond int64 lie outside the one domain of the kernels, and
    every kernel refuses them rather than reading Python ints."""
    rng = random.Random(70)
    for n in (2, 5, 8):
        _assert_refused(_symmetric_beyond_int64(rng, n))
    for x in (1 << 70, -(1 << 66), 1 << 63, -(1 << 63)):
        with pytest.raises(ExactComputationError, match="row sum"):
            char_poly([[x]])


def test_char_poly_zero_subdiagonal_pivots():
    """A symmetric permutation matrix (an involution) and a block-diagonal
    matrix close a Krylov block after one to three Lanczos steps, so the run
    restarts many times."""
    rng = random.Random(5)
    points = list(range(40))
    rng.shuffle(points)
    perm = list(range(40))
    for x, y in zip(points[:24:2], points[1:24:2]):  # 12 transpositions, 16 fixed points
        perm[x], perm[y] = y, x
    pm = [[int(perm[i] == j) for j in range(40)] for i in range(40)]
    expected = IntPolynomial((1,))
    seen = set()
    for start in range(40):  # det(tI - P) = prod over cycles of (t^len - 1)
        if start in seen:
            continue
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = perm[v]
            length += 1
        expected = expected * IntPolynomial.from_coeffs([-1] + [0] * (length - 1) + [1])
    assert _assert_matches_bareiss(pm) == expected
    block = [[0, 2, -1], [2, 0, 3], [-1, 3, 1]]
    bd = [[0] * 30 for _ in range(30)]
    for k in range(10):
        for i in range(3):
            for j in range(3):
                bd[3 * k + i][3 * k + j] = block[i][j]
    assert _assert_matches_bareiss(bd) == char_poly(block) ** 10
    assert char_poly([[0] * 7 for _ in range(7)]).coeffs == (0,) * 7 + (1,)


def test_char_poly_matches_bareiss_at_small_orders_and_beyond_int64():
    """Orders 0, 1, 5, 6 and 7, adjacency and Laplacian, and entries at the
    row-sum limit, each at its own order and prime count; entries beyond
    int64 are refused."""
    g = _gnp(7, 30)
    limit = exact._MAX_ROW_SUM
    for m in (
        adjacency_matrix(g),
        [],
        [[3]],
        adjacency_matrix(delete_vertex(g, 0)),
        laplacian_matrix(g),
        laplacian_matrix(delete_vertex(g, 5)),
        [[-(limit - 1)]],
        [[limit - 2, 1], [1, 2 - limit]],
    ):
        assert char_poly(m) == _assert_matches_bareiss(m, xs=(-1, 0, 3))
    assert char_poly([]) == IntPolynomial((1,))
    _assert_refused(_symmetric_beyond_int64(random.Random(71), 5))
    with pytest.raises(ExactComputationError, match="row sum"):
        char_poly([[-(1 << 66)]])


def test_char_poly_refuses_a_lift_that_is_not_monic(monkeypatch):
    """A residue that makes the lifted leading coefficient other than 1 is a
    failed sanity check, not a returned polynomial."""
    original = exact._lanczos_char_poly_mod

    def tampered(m, primes):
        out, lost = original(m, primes)
        out[:, -1] = (out[:, -1] + 1) % primes
        return out, lost

    assert char_poly([[0, 1], [1, 0]]) == IntPolynomial((-1, 0, 1))
    monkeypatch.setattr(exact, "_lanczos_char_poly_mod", tampered)
    with pytest.raises(ExactComputationError, match="sanity check"):
        char_poly([[0, 1], [1, 0]])


def _lanczos_runs(monkeypatch) -> list:
    """Record the primes and the unlucky mask of every modular Lanczos run."""
    original = exact._lanczos_char_poly_mod
    runs = []

    def recorded(m, primes):
        out, lost = original(m, primes)
        runs.append((list(primes), lost.tolist()))
        return out, lost

    monkeypatch.setattr(exact, "_lanczos_char_poly_mod", recorded)
    return runs


def test_char_poly_replaces_unlucky_primes(monkeypatch):
    """On primes 3, 5, 7, ... norms vanish often: each unlucky prime is
    passed over for the next ones, and the lift still equals the Bareiss
    and sympy char polys."""
    small = [p for p in range(3, 2000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]
    monkeypatch.setattr(exact, "_PRIMES", small)
    runs = _lanczos_runs(monkeypatch)
    rng = random.Random(11)
    matrices = [_symmetric(rng, n, (-4, -1, 0, 1, 2, 3)) for n in (2, 3, 4, 5, 6, 8)]
    for seed in range(3):
        matrices += [adjacency_matrix(_twin_rich(seed, 12)), laplacian_matrix(_twin_rich(seed, 12))]
    t = sympy.Symbol("t")
    replaced = 0
    for m in matrices:
        runs.clear()
        p = _assert_matches_bareiss(m)
        expected = sympy.Matrix(m).charpoly(t).as_expr()
        assert sympy.expand(sum(c * t**i for i, c in enumerate(p.coeffs)) - expected) == 0
        lifted = runs.pop()
        assert not any(lifted[1])
        for primes, lost in runs:  # every unlucky prime was replaced
            unlucky = {q for q, out in zip(primes, lost) if out}
            assert unlucky and not unlucky.intersection(lifted[0])
            replaced += 1
    assert replaced >= len(matrices)


def _twin_rich(seed, n):
    """Every vertex of a small random quotient blown up into a class of
    twins, so the char poly has factors of high multiplicity."""
    rng = random.Random(seed)
    k = rng.randint(3, 6)
    quotient = {(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.5}
    cls = [rng.randrange(k) for _ in range(n)]
    clique = [rng.random() < 0.5 for _ in range(k)]
    edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if (cls[u] == cls[w] and clique[cls[u]]) or (min(cls[u], cls[w]), max(cls[u], cls[w])) in quotient
    ]
    return Graph.from_edges(n, edges)


def _sympy_sqf(p):
    t = sympy.Symbol("t")
    expr = sum(c * t**i for i, c in enumerate(p.coeffs))
    _, factors = sympy.sqf_list(sympy.Poly(expr, t))
    return sorted(
        (mult, tuple(int(c) for c in reversed(poly.all_coeffs()))) for poly, mult in factors
    )


@pytest.mark.parametrize("seed", range(8))
def test_multiplicity_structure_matches_sympy_on_twin_rich_graphs(seed):
    g = _twin_rich(seed, 20 + 3 * seed)
    for matrix in (adjacency_matrix, laplacian_matrix):
        p = char_poly(matrix(g))
        struct = multiplicity_structure(p)
        assert sorted((m, f.coeffs) for f, m in struct.factors) == _sympy_sqf(p)
        assert max(m for _, m in struct.factors) > 1


def test_multiplicity_structure_without_the_heuristic_gcd(monkeypatch):
    """The primitive PRS fallback alone gives the same decomposition."""
    polys = [char_poly(adjacency_matrix(_twin_rich(seed, 24))) for seed in range(4)]
    polys.append(IntPolynomial.from_coeffs([6, -9, 0, 3]))
    expected = [multiplicity_structure(p) for p in polys]
    monkeypatch.setattr(exact, "_heuristic_gcd", lambda a, b: None)
    assert [multiplicity_structure(p) for p in polys] == expected


C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def _disjoint_copies(g, copies):
    return Graph.from_edges(
        g.n * copies, [(u + c * g.n, w + c * g.n) for c in range(copies) for u, w in g.edges]
    )


@pytest.mark.parametrize(
    "m",
    [
        [[0] * 7 for _ in range(7)],
        adjacency_matrix(_disjoint_copies(C5, 6)),
        laplacian_matrix(_disjoint_copies(CLAW, 8)),
        adjacency_matrix(_twin_rich(2, 26)),
        laplacian_matrix(_twin_rich(5, 35)),
    ],
    ids=["zero-7", "A-6xC5", "L-8xclaw", "A-twin-rich", "L-twin-rich"],
)
def test_char_poly_restarts_on_derogatory_matrices(m):
    """Each Krylov block spans at most as many dimensions as m has distinct
    eigenvalues, fewer than n here, so the run closes blocks and restarts."""
    p = _assert_matches_bareiss(m)
    distinct = sum(f.degree for f, _ in multiplicity_structure(p).factors)
    assert distinct < len(m)


def test_char_poly_bound_is_the_largest_term():
    """The bound read off the one term where the squared terms stop rising
    equals the bound over every term: on zero matrices (F = 0), adjacency
    and Laplacian matrices of G(n, 0.3), and entries of -50..50."""
    for n in [*range(41), 64, 100]:
        g = _gnp(n, n)
        zero = [[0] * n for _ in range(n)]
        wide = _symmetric(random.Random(n), n, range(-50, 51))
        for m in (zero, adjacency_matrix(g), laplacian_matrix(g), wide):
            a = exact.int_array(m)
            assert exact._char_poly_bound(a) == char_poly_bound_by_every_term(a), n


def test_char_poly_bound_sums_squares_beyond_int64():
    """At order 64 with diagonal 2**29 - 1, ||m||_F^2 exceeds 2**63, so an
    int64 sum over the whole array would overflow; the bound sums the rows
    in Python ints and still equals the bound over every term, and the char
    poly is exact."""
    import numpy as np

    d = exact._MAX_ROW_SUM - 1
    a = exact.int_array([[d if i == j else 0 for j in range(64)] for i in range(64)])
    assert 64 * d * d > 2**63 and int(np.sum(a * a)) != 64 * d * d  # the int64 sum wraps
    assert exact._char_poly_bound(a) == char_poly_bound_by_every_term(a)
    assert char_poly(a) == IntPolynomial((-d, 1)) ** 64
    signed = a.copy()
    signed[1::2, 1::2] *= -1
    assert char_poly(signed) == (IntPolynomial((-d, 1)) * IntPolynomial((d, 1))) ** 32


_TINY_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def lanczos_runs(draw):
    """(the int64 array of a symmetric matrix, the primes of one run): one
    random block or the block-diagonal sum of repeated random blocks, which
    is derogatory, on the primes ``char_poly`` picks or on one to four tiny
    ones, modulo which norms vanish often."""
    blocks = draw(st.lists(symmetric_int_matrices(max_n=4, lo=-4, hi=4), min_size=1, max_size=3))
    blocks = [b for b in blocks for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    n = sum(map(len, blocks))
    m, offset = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            m[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    a = exact.int_array(m)
    tiny = st.lists(st.sampled_from(_TINY_PRIMES), min_size=1, max_size=4, unique=True)
    primes = draw(st.one_of(st.just(exact._primes_covering(exact._char_poly_bound(a))), tiny))
    return a, primes


@given(lanczos_runs())
# unlucky on 3: a norm vanishes modulo 3 but not modulo 5
@example((exact.int_array([[0, 1, 2, -2], [1, 0, 1, 0], [2, 1, 2, -1], [-2, 0, -1, 2]]), [3, 5]))
# two copies of a block: a restart after two steps
@example((exact.int_array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), [3, 5]))
@settings(max_examples=150, deadline=None)
def test_lanczos_matches_the_reference_loop(run):
    """The Lanczos loop returns the residues and the unlucky mask of the
    reference loop in ``_oracles``, restarts and unlucky primes included."""
    a, primes = run
    expected, expected_lost = lanczos_char_poly_mod_reference(a, primes)
    out, lost = exact._lanczos_char_poly_mod(a, primes)
    assert lost.tolist() == expected_lost.tolist()
    assert (None if out is None else out.tolist()) == (
        None if expected is None else expected.tolist()
    )


# ---------------------------------------------------------------------------
# polynomial arithmetic


def int_polys(max_deg=6, lo=-9, hi=9):
    return st.builds(
        IntPolynomial.from_coeffs,
        st.lists(st.integers(min_value=lo, max_value=hi), max_size=max_deg + 1),
    )


@given(int_polys(), int_polys())
def test_poly_product_evaluates(p, q):
    r = p * q
    for x in (-2, 0, 1, 3):
        assert r.evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(int_polys())
def test_poly_json_round_trip(p):
    assert IntPolynomial.from_json(p.to_json()) == p


@given(int_polys(), st.integers(min_value=0, max_value=6))
def test_poly_power_matches_repeated_multiplication(p, k):
    """Binary powering gives the product of k copies, the zero and constant
    polynomials and k = 0 included."""
    expected = IntPolynomial((1,))
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_poly_evaluate_fraction():
    p = IntPolynomial.from_coeffs([1, 0, 1])  # 1 + t^2
    assert p.evaluate(Fraction(1, 2)) == Fraction(5, 4)


def test_poly_str():
    assert str(IntPolynomial.from_coeffs([-2, -3, 0, 1])) == "t^3 - 3*t - 2"
    assert str(IntPolynomial(())) == "0"


@given(st.lists(st.tuples(st.sampled_from([(1, 1), (-1, 1), (-2, 1), (1, 0, 1)]),
                          st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=3),
       st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0))
@settings(max_examples=50)
def test_multiplicity_structure_reconstructs_known_products(factors, content):
    p = IntPolynomial((content,))
    for coeffs, mult in factors:
        p = p * IntPolynomial.from_coeffs(coeffs) ** mult
    struct = multiplicity_structure(p)
    assert struct.reconstruct() == p
    # multiplicities in the result are pairwise distinct and ascending
    mults = [m for _, m in struct.factors]
    assert mults == sorted(set(mults))


@given(symmetric_int_matrices(max_n=5))
@settings(max_examples=40)
def test_multiplicity_structure_matches_sympy_sqf(m):
    p = char_poly(m)
    struct = multiplicity_structure(p)
    t = sympy.Symbol("t")
    expr = sum(c * t**i for i, c in enumerate(p.coeffs))
    _, sympy_factors = sympy.sqf_list(sympy.Poly(expr, t))
    expected = sorted(
        (mult, tuple(int(c) for c in reversed(poly.all_coeffs())))
        for poly, mult in sympy_factors
    )
    ours = sorted((mult, f.coeffs) for f, mult in struct.factors)
    assert ours == expected


@given(int_polys(max_deg=4), int_polys(max_deg=4), int_polys(max_deg=3))
@settings(max_examples=80)
def test_gcd_paths_match_sympy(a, b, c):
    if a.is_zero or b.is_zero or c.is_zero:
        return
    x, y = a * c, b * c
    t = sympy.Symbol("t")
    g = sympy.gcd(*(sum(k * t**i for i, k in enumerate(p.coeffs)) for p in (x, y)))
    expected = exact._primitive(
        IntPolynomial.from_coeffs(list(reversed(sympy.Poly(g, t).all_coeffs())))
    )
    x, y = exact._primitive(x), exact._primitive(y)
    assert exact._prs_gcd(x, y) == expected
    heuristic = exact._heuristic_gcd(x, y)
    assert heuristic is None or heuristic == expected
    assert exact._primitive_gcd(x, y) == expected


# ---------------------------------------------------------------------------
# the power-diagonal walk, which also decides Krylov orthogonality


def test_path3_endpoints_power_diagonal():
    # endpoints of the 3-path are swapped by an automorphism: all criteria agree
    a = adjacency_matrix(PATH3)
    assert _assert_walks_match(a, 0, 2, rational=True) is None


def test_path3_center_vs_endpoint():
    a = adjacency_matrix(PATH3)
    # (A^2)_{00} = 1 but (A^2)_{11} = 2: first mismatch at k = 2
    assert _assert_walks_match(a, 0, 1, rational=True) == 2


def test_pair_validation():
    a = adjacency_matrix(PATH3)
    with pytest.raises(ValueError):
        power_diagonals(a, 0, 0)
    with pytest.raises(ValueError):
        power_diagonals(a, 0, 5)
    with pytest.raises(ValueError):
        power_diagonals([[0, 1], [1, 1]][:1] * 2, 0, 1)  # not symmetric
    for kernel in (power_diagonals, principal_minors_mod):
        with pytest.raises(ValueError, match=r"\(0, 1\) out of range: the graph has no vertices$"):
            kernel([], 0, 1)
    for u, v in ((True, 2), (0, False)):  # numpy would read a bool as a mask
        with pytest.raises(ValueError, match="out of range"):
            power_diagonals(a, u, v)
        with pytest.raises(ValueError, match="out of range"):
            principal_minors_mod(a, u, v)


def graphs_with_pairs(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        g = Graph.from_edges(n, edges)
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
        return g, u, v

    return build()


@given(graphs_with_pairs())
@settings(max_examples=80, deadline=None)
def test_criteria_equivalence_and_oracles(gp):
    """The walk agrees with the deleted-vertex definition, with both
    Python-integer walks and with a rational Gram-matrix oracle."""
    g, u, v = gp
    a = adjacency_matrix(g)
    by_char = char_poly(adjacency_matrix(delete_vertex(g, u))) == char_poly(
        adjacency_matrix(delete_vertex(g, v))
    )
    assert by_char == (_assert_walks_match(a, u, v, rational=True) is None)


# a Laplacian construction of order 24, whose certified pair walks every power
L24 = build_l_cospectral(_gnp(12, 12), 0, [CrossEdge(x, x) for x in range(0, 12, 3)])


@given(graphs_with_pairs(max_n=5))
@example((L24.graph, *L24.pair))
@example((L24.graph, 1, 2))
@settings(max_examples=40, deadline=None)
def test_laplacian_krylov_matches_oracle(gp):
    g, u, v = gp
    _assert_walks_match(laplacian_matrix(g), u, v, rational=True)


# ---------------------------------------------------------------------------
# the modular walk against the Python-integer walks


def _assert_walks_match(m, u, v, rational=False):
    """The modular walk's first mismatch equals both Python-integer walks',
    the power diagonals' and the Krylov form's, and (when ``rational``) its
    None is the rational Krylov oracle's orthogonality."""
    diagonals = power_diagonals(m, u, v)
    k = first_difference(*diagonals)
    assert diagonals == power_diagonals_bigint(m, u, v)
    assert k == first_power_diagonal_mismatch_bigint(m, u, v)
    assert k == first_krylov_mismatch_bigint(m, u, v)
    if rational:
        assert (k is None) == rational_krylov_orthogonal(m, u, v)
    return k


def _symmetric(rng, n, entries):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice(entries)
    return m


def _swap_symmetric(rng, n, u, v, entries):
    """A random symmetric matrix invariant under swapping u and v, so that
    (u, v) is cospectral and every walk runs to the end."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice(entries)
    swap = list(range(n))
    swap[u], swap[v] = v, u
    return [[m[i][j] + m[swap[i]][swap[j]] for j in range(n)] for i in range(n)]


# the large entries keep every row sum of the order-12 matrices below the
# walk's limit of 2**29
@pytest.mark.parametrize("entries", [(-3, -1, 0, 2), (0, 1 << 22, -(1 << 21) + 7, 5)])
def test_modular_walks_on_signed_and_large_entries(entries):
    rng = random.Random(len(entries) + entries[-1])
    for n in (2, 3, 5, 8, 12):
        u, v = rng.sample(range(n), 2)
        m = _swap_symmetric(rng, n, u, v, entries)
        assert _assert_walks_match(m, u, v, rational=n <= 5) is None
        m[u][u] += 1  # breaks the symmetry at power 1
        assert _assert_walks_match(m, u, v) == 1
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        m = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        _assert_walks_match(m, u, v, rational=n <= 5)


@pytest.mark.parametrize("base_n", [18, 30, 48])
def test_modular_walks_at_the_orders_users_run(base_n):
    """Constructions of order 40 to 100, whose certified pairs walk every
    power, and the same graphs with a pair that differs early."""
    base = _gnp(base_n, base_n)
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    cg = build_a_cospectral(base, 0, h, [AttachmentEdge(s, 0, x) for x in range(4) for s in (1, 2)])
    a = adjacency_matrix(cg.graph)
    assert _assert_walks_match(a, *cg.pair) is None
    assert _assert_walks_match(a, 0, 2 * base_n) is not None
    cl = build_l_cospectral(base, 0, [CrossEdge(x, x) for x in range(0, base_n, 3)])
    lap = laplacian_matrix(cl.graph)
    assert _assert_walks_match(lap, *cl.pair) is None
    _assert_walks_match(lap, 1, 2)


def test_modular_walks_see_a_multiple_of_their_primes():
    """A difference divisible by the first primes the walk uses is nonzero
    modulo the next: the bound, not chance, sets how many primes run."""
    first, second = exact._primes_covering(1 << 40)[:2]
    assert first_difference(*power_diagonals([[first, 0], [0, 0]], 0, 1)) == 1
    # (m^2)_00 - (m^2)_11 = a^2 - b^2 = first * second, with entries below 2**24
    a, b = (first + second) // 2, (first - second) // 2
    m = [[0, 0, a, 0], [0, 0, 0, b], [a, 0, 0, 0], [0, b, 0, 0]]
    assert first_difference(*power_diagonals(m, 0, 1)) == 2


# ---------------------------------------------------------------------------
# the modular kernels at and beyond the prime ceiling, and the order guard


def _near_the_ceiling():
    """Entries just below, at and above the primes the kernels use, of both
    signs.  They are at most 2**24 + 5, so every row sum of a matrix of
    order at most 9 stays below the kernels' limit of 2**29."""
    top, next_ = exact._prime(0), exact._prime(1)
    ceiling = exact._PRIME_CEILING
    return (0, 1, -1, top, -top, top + 1, next_ - 1, ceiling - 1, -(ceiling + 5))


def _principal_minor(m, w):
    return [[x for j, x in enumerate(row) if j != w] for i, row in enumerate(m) if i != w]


def _shifted(m, x):
    return [[(x if i == j else 0) - e for j, e in enumerate(row)] for i, row in enumerate(m)]


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_kernels_stay_exact_near_and_above_the_prime_ceiling(n):
    """char_poly, the walk, the principal char polys and the elimination
    check on symmetric matrices whose entries are the primes or just off
    them; a multiple of two primes, or an entry beyond int64, is refused."""
    rng = random.Random(n)
    m = _symmetric(rng, n, _near_the_ceiling())
    char = _assert_matches_bareiss(m, xs=(-1, 0, 3))
    u, v = rng.sample(range(n), 2)
    diagonals = power_diagonals(m, u, v)
    assert diagonals == power_diagonals_bigint(m, u, v)
    prime, t0, minors = principal_minors_mod(m, u, v)
    assert minors[0] == bareiss_det(_shifted(m, t0)) % prime
    for w, diagonal, minor in zip((u, v), diagonals, minors[1:]):
        p = principal_char_poly(char, diagonal)
        assert p == _assert_matches_bareiss(_principal_minor(m, w), xs=(-1, 0, 3))
        assert minor == p.evaluate(t0) % prime
    top, next_ = exact._prime(0), exact._prime(1)
    for x in (top * next_, -(top * next_) + 2, (1 << 63) + 1, -(1 << 64) + 3):
        big = [row[:] for row in m]
        big[u][v] = big[v][u] = x
        _assert_refused(big)


def test_principal_char_poly_needs_one_diagonal_entry_per_degree():
    with pytest.raises(ValueError):
        principal_char_poly(IntPolynomial((0, 0, 1)), [1])


def _assert_minors_match_bareiss(m, u, v):
    prime, t0, minors = principal_minors_mod(m, u, v)
    assert prime == exact._prime(0)
    shifted = _shifted(m, t0)
    expected = [bareiss_det(shifted)] + [
        bareiss_det(_principal_minor(shifted, w)) for w in (u, v)
    ]
    assert list(minors) == [x % prime for x in expected]
    return t0


def test_elimination_check_swaps_zero_pivots_and_moves_off_singular_points():
    """A pivot that vanishes modulo the prime (but not over the integers) is
    swapped; a singular block moves t0 to the next point, deterministically."""
    t0, prime = exact._T0, exact._prime(0)
    rng = random.Random(3)
    m = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
    m[0][0] = t0 + prime  # (t0 I - m)[0][0] = -prime: zero modulo prime
    assert _assert_minors_match_bareiss(m, 4, 5) == t0
    m[0] = [t0, 0, 0, 0, 7, -2]  # row 0 of the block vanishes at t0 only
    assert _assert_minors_match_bareiss(m, 4, 5) == t0 + 1
    assert _assert_minors_match_bareiss(m, 0, 5) == t0  # row 0 now carries u
    assert _assert_minors_match_bareiss([[1, 2], [3, 4]], 1, 0) == t0  # no block


def test_kernels_refuse_orders_where_int64_sums_could_overflow():
    """Below the guard, a sum of n residue products plus a residue fits int64;
    at the guard the kernels refuse before they allocate anything."""
    limit, ceiling = exact._MAX_ORDER, exact._PRIME_CEILING
    assert (limit - 1) * (ceiling - 1) ** 2 + ceiling < 2**63 <= limit * ceiling**2
    exact._check_order(limit - 1)

    class Row:
        def __len__(self):
            return limit

    huge = [Row()] * limit  # order 2**15 without its entries
    with pytest.raises(ExactComputationError, match="not below"):
        char_poly(huge)
    with pytest.raises(ExactComputationError, match="not below"):
        power_diagonals(huge, 0, 1)
    with pytest.raises(ExactComputationError, match="not below"):
        principal_minors_mod(huge, 0, 1)


def test_walk_row_sum_limit_keeps_float64_sums_exact():
    """A residue below the prime ceiling times a row sum below the limit is
    below 2**53, where float64 holds every integer; so is each partial sum."""
    assert exact._PRIME_CEILING * exact._MAX_ROW_SUM <= 2**53
    assert exact._MAX_ROW_SUM == 1 << 29


# ---------------------------------------------------------------------------
# the half-length walk: Gram products, its row-sum limit and the one array


def test_walk_needs_a_pair_so_order_one_is_refused():
    with pytest.raises(ValueError):
        power_diagonals([[5]], 0, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 10, 11])
def test_walk_gram_split_at_odd_and_even_orders(n):
    """(m^k)_ww = (m^i e_w) . (m^(k-i) e_w), i = floor(k/2), for every k < n:
    the last power is a square at odd n and a product of neighbours at even n."""
    rng = random.Random(n)
    for entries in ((0, 1), (-2, -1, 0, 1, 3)):
        m = _symmetric(rng, n, entries)
        u, v = rng.sample(range(n), 2)
        assert power_diagonals(m, u, v) == power_diagonals_bigint(m, u, v)


def _with_row_sum(rng, n, norm, sign):
    """A symmetric matrix of order n whose largest absolute row sum is norm,
    reached in row 0 through its diagonal entry of the given sign."""
    m = _symmetric(rng, n, (-(1 << 24), -7, 0, 1, (1 << 24) - 3))
    m[0][0] = sign * (norm - sum(abs(x) for x in m[0][1:]))
    assert max(sum(map(abs, row)) for row in m) == norm
    return m


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_walk_exact_up_to_the_row_sum_limit_and_refused_at_it(n):
    """At ||m||_inf = 2**29 - 1 a residue times a row sums to nearly 2**53
    and the walk still matches the Python-integer walk; at 2**29 it refuses."""
    rng = random.Random(n)
    limit = exact._MAX_ROW_SUM
    for sign in (1, -1):
        m = _with_row_sum(rng, n, limit - 1, sign)
        for u, v in ((0, n - 1), (n - 1, 0)):
            assert power_diagonals(m, u, v) == power_diagonals_bigint(m, u, v)
        with pytest.raises(ExactComputationError, match="row sum"):
            power_diagonals(_with_row_sum(rng, n, limit, sign), 0, 1)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_char_poly_and_minors_exact_up_to_the_row_sum_limit_and_refused_at_it(n):
    """At ||m||_inf = 2**29 - 1 the float64 product m q of every Lanczos step
    sums to nearly 2**53, and char_poly and the elimination still match
    Bareiss, for both signs; at 2**29 both refuse."""
    rng = random.Random(n)
    limit = exact._MAX_ROW_SUM
    for sign in (1, -1):
        m = _with_row_sum(rng, n, limit - 1, sign)
        _assert_matches_bareiss(m, xs=(-1, 0, 3))
        _assert_minors_match_bareiss(m, 0, n - 1)
        _assert_minors_match_bareiss(m, n - 1, 0)
        m = _with_row_sum(rng, n, limit, sign)
        with pytest.raises(ExactComputationError, match="row sum"):
            char_poly(m)
        with pytest.raises(ExactComputationError, match="row sum"):
            principal_minors_mod(m, 0, 1)


@pytest.mark.parametrize("entries", [_near_the_ceiling()], ids=["primes"])
def test_walk_exact_across_digit_planes(entries):
    """The walk on entries just below, at and above the primes, at orders of
    both parities up to 8, against the Python-integer walk."""
    rng = random.Random(len(entries))
    for n in (2, 3, 4, 7, 8):
        m = _symmetric(rng, n, entries)
        u, v = rng.sample(range(n), 2)
        assert power_diagonals(m, u, v) == power_diagonals_bigint(m, u, v)


@pytest.mark.parametrize("n", [9, 16, 25, 40])
def test_walk_exact_on_laplacians(n):
    rng = random.Random(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lap = laplacian_matrix(Graph.from_edges(n, [e for e in pairs if rng.random() < 0.4]))
    for u, v in ((0, 1), (n - 2, n - 1), (0, n // 2)):
        assert power_diagonals(lap, u, v) == power_diagonals_bigint(lap, u, v)


def test_graph_matrices_are_int64_and_large_entries_refused():
    """int_array returns int64 inside the domain, an int64 array as it is,
    and refuses an absolute row sum of 2**29, reached by one entry or by
    several, and an entry beyond int64, in a list or an object array."""
    import numpy as np

    limit = exact._MAX_ROW_SUM
    lap = laplacian_matrix(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert exact.int_array(lap).dtype == np.int64
    assert exact.int_array([[limit - 1, 0], [0, 1 - limit]]).dtype == np.int64
    inside = np.array([[1 - limit, 0], [0, 1]], dtype=object)
    assert exact.int_array(inside).dtype == np.int64
    for x in (limit, -limit, 1 << 63, -(1 << 63), -(1 << 70)):
        for m in ([[x, 0], [0, 1]], np.array([[x, 0], [0, 1]], dtype=object)):
            with pytest.raises(ExactComputationError, match="row sum"):
                exact.int_array(m)
    with pytest.raises(ExactComputationError, match=f"row sum {limit} "):
        exact.int_array([[limit // 2, limit // 2], [limit // 2, 0]])
    with pytest.raises(ValueError, match="not square"):
        exact.int_array(np.zeros((2, 3), dtype=np.int64))
    a = exact.int_array(lap)
    assert exact.int_array(a) is a


@pytest.mark.parametrize(
    "m",
    [
        [[0.5]],
        [[1.9, 0], [0, 0]],
        [[1, 0], [0, 1.0]],
        [[1, 2**70], [2**70, 0.5]],
        [["1"]],
        [[1j]],
        "float",
        "complex",
        "object",
        "str",
    ],
)
def test_int_array_refuses_a_non_integer_entry(m):
    """A non-integer entry is refused, in a list or an array of any dtype
    that can hold one: int64 conversion would truncate 1.9 to 1 and read
    "1" as 1.  The float case gave char_poly([[0.5]]) = t."""
    import numpy as np

    if isinstance(m, str):
        m = np.array([[0, 1.5], [1.5, 0]], dtype=object if m == "object" else m)
    with pytest.raises(ValueError, match="is not an integer"):
        exact.int_array(m)
    with pytest.raises(ValueError, match="is not an integer"):
        char_poly(m)


def test_int_array_refuses_a_uint64_entry_beyond_int64():
    """2**64 - 1 as uint64 wrapped to -1 in the int64 conversion; an entry
    of 2**63 or more is refused as a row sum, one below is read as it is."""
    import numpy as np

    for x in (2**63, 2**64 - 1):
        with pytest.raises(ExactComputationError, match=f"row sum {x} "):
            exact.int_array(np.array([[x]], dtype=np.uint64))
    assert exact.int_array(np.array([[0, 7], [7, 1]], dtype=np.uint64)).tolist() == [[0, 7], [7, 1]]


def test_int_array_keeps_every_integer_input():
    """Lists of Python ints or bools, arrays of every integer width and of
    bool, and object arrays of integers all read as the same int64 array."""
    import numpy as np

    expected = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    inputs = [expected, *([[t(x) for x in row] for row in expected] for t in (bool, np.int8))]
    inputs += [np.array(expected, dtype=t) for t in (np.int8, np.int32, np.uint8, np.uint64, bool)]
    inputs.append(np.array(expected, dtype=object))
    for m in inputs:
        a = exact.int_array(m)
        assert a.dtype == np.int64 and a.tolist() == expected
    assert exact.int_array([]).shape == (0, 0)
    assert char_poly([[True, True], [True, False]]) == char_poly([[1, 1], [1, 0]])
