"""Cospectrality verdicts with machine-checkable certificates.

Adjacency cospectrality is decided by one exact walk comparing the power
diagonals (A^k)_uu and (A^k)_vv for k < n.  The same walk yields the
deleted-vertex characteristic polynomials of record: by the walk generating
function, ((tI - A)^-1)_uu = phi(G-u) / phi(G), so phi(G-u) is the
convolution of phi(G) with the lifted diagonal (A^k)_uu, and one char poly,
that of A alone, serves the certificate and the --strong decomposition.
Their equality then agrees with the walk verdict by algebra, so the runtime
check is independent instead: one Gaussian elimination of t0 I - A modulo a
prime below 2**24 yields det(t0 I - A) and both deleted-vertex minors, which
must equal phi(G), phi(G-u) and phi(G-v) at t0 modulo that prime; a mismatch
would mean a library bug and raises immediately.  For a symmetric matrix
the walk also decides Krylov orthogonality, as
(e_u + e_v) . M^k (e_u - e_v) = (M^k)_uu - (M^k)_vv, so a report holds the
one walk result, ``first_mismatch_k``, and prints every walk criterion from
it, the equality of the deleted-vertex polys included.  Laplacian
cospectrality is decided by the same walk on the Laplacian.  The third
equivalent criterion, equal eigenprojector diagonals, adds nothing to these
exact ones and is not computed: a report holds no floating point, and only
``strong_cospectrality`` on a cospectral pair decomposes its matrix
numerically; its signs carry the decomposition's cluster labels, so an
integer eigenvalue prints exactly.

Two paths compute these same values, selected by the order n.  Up to
``PYTHON_INT_MAX_ORDER`` everything is Python ints and numpy is not
imported: the walks A^i e_x step along the neighbour lists from every
vertex x (``graph.walk_diagonals``), so they give (A^k)_xx for every x and
k <= n, whose sums are the traces p_k = tr A^k; phi(G) follows from those by
Newton's identities (``exact.char_poly_from_traces``), each division exact;
the Laplacian walk starts from u and v alone; and the elimination check is
``exact.principal_minors_mod_lists``, which returns what
``principal_minors_mod`` does.  The report then holds the list matrix, which
``strong_cospectrality`` converts when it decomposes.  Above that order the
numpy kernels run: Lanczos for phi(G), the walk from u and v modulo primes,
and the vectorised elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import (
    IntPolynomial,
    char_poly,
    char_poly_from_traces,
    first_difference,
    int_array,
    power_diagonals,
    principal_char_poly,
    principal_minors_mod,
    principal_minors_mod_lists,
)
from .graph import (
    CospectraError,
    Graph,
    IntMatrix,
    adjacency_matrix,
    laplacian_matrix,
    walk_diagonals,
)
from .spectral import (
    NOT_COSPECTRAL,
    StrongCospectralityResult,
    eigendecompose_symmetric,
    strong_from_decomposition,
)

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"

# The largest order that ``verify_a_cospectral`` and ``verify_l_cospectral``
# decide in Python ints alone, importing no numpy; above it the numpy kernels
# run.  Measured in one process (means over 12 random G(n, 0.3), pair (0, 1),
# best of 30 calls each, one BLAS thread, 2 shared CPUs, two runs), Python
# ints against numpy, in ms:
#   A: n = 9  0.26-0.35 vs 0.36-0.38   n = 10  0.29-0.32 vs 0.37-0.40
#      n = 11 0.40-0.43 vs 0.39-0.40   n = 12  0.48-0.52 vs 0.44-0.47
#   L: n = 11 0.061 vs 0.074-0.078     n = 12  0.079-0.083 vs 0.079-0.084
# A command pays about 80 ms more to import numpy, so on every bundled
# figure (at most 11 vertices) ``verify`` runs this path.
PYTHON_INT_MAX_ORDER = 11

LAPLACIAN_NOTE = (
    "Laplacian cospectrality of a vertex pair does not imply that the "
    "vertex-deleted subgraphs have equal Laplacian spectra; no such claim "
    "is made or checked here."
)


class InternalCheckError(CospectraError):
    """An exact result failed its independent runtime check — a library bug."""


@dataclass(frozen=True)
class CospectralityReport:
    """Verdict for one pair against one matrix, with certificates.

    ``first_mismatch_k`` is the one exact walk's result: the first power k
    with (M^k)_uu != (M^k)_vv, or None, which is the verdict ``cospectral``.
    The walk criteria (Krylov orthogonality, and for the adjacency matrix
    the power diagonals and the equality of the deleted-vertex polys) are
    that one fact: ``to_json`` writes their keys from it, and no attribute
    restates it.  The deleted-vertex polynomials
    (adjacency only, derived from the same walk) and the first failing power
    are included so the verdict can be re-checked independently.  ``matrix``
    is the tested matrix as converted once (the lists themselves up to
    ``PYTHON_INT_MAX_ORDER``, which the decomposition converts), and
    ``char`` its char poly when the report computed one (adjacency only), so
    that ``strong_cospectrality`` can decompose the matrix without
    converting it again or computing its char poly again.
    """

    pair: tuple[int, int]
    matrix_kind: str
    first_mismatch_k: int | None
    matrix: IntMatrix | np.ndarray = field(repr=False, compare=False)
    deleted_char_polys: tuple[IntPolynomial, IntPolynomial] | None = None  # adjacency only
    note: str | None = None
    char: IntPolynomial | None = field(default=None, repr=False, compare=False)

    @property
    def cospectral(self) -> bool:
        return self.first_mismatch_k is None

    def to_json(self) -> dict:
        k = self.first_mismatch_k
        doc: dict = {
            "pair": list(self.pair),
            "matrix": self.matrix_kind,
            "cospectral": self.cospectral,
            "criteria": {"krylov_orthogonal": self.cospectral},
        }
        if self.matrix_kind == ADJACENCY:
            doc["criteria"]["deleted_char_polys_equal"] = self.cospectral
            doc["criteria"]["power_diagonal_equal"] = self.cospectral
        certificates: dict = {}
        if self.deleted_char_polys is not None:
            p, q = self.deleted_char_polys
            certificates["deleted_char_polys"] = [p.to_json(), q.to_json()]
        if k is not None:
            if self.matrix_kind == ADJACENCY:
                certificates["first_power_mismatch_k"] = k
            certificates["first_krylov_mismatch_k"] = k
        if certificates:
            doc["certificates"] = certificates
        if self.note:
            doc["note"] = self.note
        return doc


def verify_a_cospectral(g: Graph, u: int, v: int) -> CospectralityReport:
    """Decide adjacency cospectrality of (u, v) exactly.

    One walk decides the verdict and, with the char poly of A, yields the
    deleted-vertex characteristic polynomials of record, which are checked
    against an independent elimination at one point.  Up to order
    ``PYTHON_INT_MAX_ORDER`` the walks start from every vertex and also give
    the char poly, by Newton's identities, all in Python ints.
    """
    _check_pair(g, u, v)
    if g.n <= PYTHON_INT_MAX_ORDER:
        a = adjacency_matrix(g)
        diagonals = walk_diagonals(g, range(g.n), g.n + 1)
        char = char_poly_from_traces([sum(column) for column in zip(*diagonals)])
        d_u, d_v = diagonals[u][:-1], diagonals[v][:-1]
        minors = principal_minors_mod_lists(a, u, v)
    else:
        a = int_array(adjacency_matrix(g))
        char = char_poly(a)
        d_u, d_v = power_diagonals(a, u, v)
        minors = principal_minors_mod(a, u, v)
    return CospectralityReport(
        pair=(u, v),
        matrix_kind=ADJACENCY,
        first_mismatch_k=first_difference(d_u, d_v),
        matrix=a,
        deleted_char_polys=_deleted_char_polys(u, v, char, d_u, d_v, minors),
        char=char,
    )


def _check_pair(g: Graph, u: int, v: int) -> None:
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("pair vertices must be distinct")


def _deleted_char_polys(
    u: int,
    v: int,
    char: IntPolynomial,
    d_u: list[int],
    d_v: list[int],
    minors: tuple[int, int, tuple[int, int, int]],
) -> tuple[IntPolynomial, IntPolynomial]:
    """The char polys of G-u and G-v, from that of G and the power diagonals,
    checked against ``minors``, det(t0 I - A) and its two deleted-vertex
    minors modulo a prime as ``principal_minors_mod`` returns them."""
    p_u, p_v = principal_char_poly(char, d_u), principal_char_poly(char, d_v)
    prime, t0, values = minors
    if values != tuple(f.evaluate(t0) % prime for f in (char, p_u, p_v)):
        raise InternalCheckError(
            f"char polys of G, G-{u} and G-{v} disagree with the elimination "
            f"at t = {t0} modulo {prime}"
        )
    return p_u, p_v


def verify_l_cospectral(g: Graph, u: int, v: int) -> CospectralityReport:
    """Decide Laplacian cospectrality of (u, v) by the exact power-diagonal
    walk on the Laplacian, which also decides its Krylov criterion; up to
    order ``PYTHON_INT_MAX_ORDER`` the walk L y = D y - A y steps along the
    neighbour lists in Python ints.

    The report carries a fixed note that equality of deleted-vertex
    Laplacian spectra is a different (stronger) property that this verdict
    does not assert.
    """
    _check_pair(g, u, v)
    if g.n <= PYTHON_INT_MAX_ORDER:
        lap = laplacian_matrix(g)
        k = first_difference(*walk_diagonals(g, (u, v), g.n, laplacian=True))
    else:
        lap = int_array(laplacian_matrix(g))
        k = first_difference(*power_diagonals(lap, u, v))
    return CospectralityReport(
        pair=(u, v),
        matrix_kind=LAPLACIAN,
        first_mismatch_k=k,
        matrix=lap,
        note=LAPLACIAN_NOTE,
    )


def strong_cospectrality(report: CospectralityReport) -> StrongCospectralityResult:
    """Strong cospectrality of a report's pair for the report's own matrix
    (adjacency or Laplacian).

    A pair that is not cospectral is classified from the exact verdict
    alone.  Otherwise this is the one place ``verify`` decomposes: the
    report's matrix, with the char poly the report holds (computed here for
    the Laplacian), and a decomposition that cannot be certified raises its
    ``SpectralNumericError``.
    """
    if not report.cospectral:
        return StrongCospectralityResult(verdict=NOT_COSPECTRAL, signs=())
    dec = eigendecompose_symmetric(report.matrix, char=report.char)
    return strong_from_decomposition(dec, *report.pair)
