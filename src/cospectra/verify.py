"""Cospectrality verdicts with machine-checkable certificates.

Adjacency cospectrality is decided by one exact walk comparing the power
diagonals (A^k)_uu and (A^k)_vv for k < n.  The same walk yields the
deleted-vertex characteristic polynomials of record: by the walk generating
function, ((tI - A)^-1)_uu = phi(G-u) / phi(G), so phi(G-u) is the
convolution of phi(G) with the lifted diagonal (A^k)_uu, and one char-poly
sweep of A alone serves the certificate and the advisory decomposition.
Their equality then agrees with the walk verdict by algebra, so the runtime
check is independent instead: one Gaussian elimination of t0 I - A modulo a
prime below 2**24 yields det(t0 I - A) and both deleted-vertex minors, which
must equal phi(G), phi(G-u) and phi(G-v) at t0 modulo that prime; a mismatch
would mean a library bug and raises immediately.  For a symmetric matrix
the walk also decides Krylov orthogonality, as
(e_u + e_v) . M^k (e_u - e_v) = (M^k)_uu - (M^k)_vv, so a report runs it
once and reads both criteria from that one result.  Laplacian cospectrality
is decided by the same walk on the Laplacian.  The eigenprojector
comparison is numeric and advisory: it is reported alongside, never used as
the verdict, and when the numeric decomposition fails it is reported as
unknown with the reason instead of aborting the exact verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import (
    IntPolynomial,
    char_poly,
    char_polys,
    first_difference,
    first_power_diagonal_mismatch,
    int_array,
    power_diagonals,
    principal_char_poly,
    principal_minors_mod,
)
from .graph import CospectraError, Graph, adjacency_matrix, laplacian_matrix
from .spectral import (
    DEFAULT_TOLERANCES,
    NOT_COSPECTRAL,
    SpectralDecomposition,
    SpectralNumericError,
    StrongCospectralityResult,
    Tolerances,
    eigendecompose_symmetric,
    projection_diagonal_equal,
    strong_from_decomposition,
)

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"

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
    with (M^k)_uu != (M^k)_vv, or None, which is the verdict.  Every walk
    criterion (Krylov orthogonality, and for the adjacency matrix the power
    diagonals) reads it.  The deleted-vertex polynomials (adjacency only,
    derived from the same walk) and the first failing power are included so
    the verdict can be re-checked independently.  ``projection_equal`` is
    the numeric advisory criterion; it never influences ``cospectral``, and
    it is None when the numeric decomposition failed, with that failure in
    ``projection_error``.
    ``decomposition`` is the numeric decomposition the comparison used, kept
    so that later checks on the same matrix reuse it.
    """

    pair: tuple[int, int]
    matrix_kind: str
    first_mismatch_k: int | None
    projection_equal: bool | None
    projection_tolerance: float
    deleted_char_polys: tuple[IntPolynomial, IntPolynomial] | None = None  # adjacency only
    note: str | None = None
    projection_error: SpectralNumericError | None = field(default=None, compare=False)
    decomposition: SpectralDecomposition | None = field(
        default=None, repr=False, compare=False
    )

    # the one walk's result, under the name of each criterion it decides

    @property
    def cospectral(self) -> bool:
        return self.first_mismatch_k is None

    @property
    def krylov_orthogonal(self) -> bool:
        return self.cospectral

    @property
    def first_krylov_mismatch_k(self) -> int | None:
        return self.first_mismatch_k

    @property
    def char_polys_equal(self) -> bool | None:
        if self.deleted_char_polys is None:
            return None
        p_u, p_v = self.deleted_char_polys
        return p_u == p_v

    @property
    def power_diagonal_equal(self) -> bool | None:
        return self.cospectral if self.matrix_kind == ADJACENCY else None

    @property
    def first_power_mismatch_k(self) -> int | None:
        return self.first_mismatch_k if self.matrix_kind == ADJACENCY else None

    def to_json(self) -> dict:
        doc: dict = {
            "pair": list(self.pair),
            "matrix": self.matrix_kind,
            "cospectral": self.cospectral,
            "criteria": {
                "krylov_orthogonal": self.krylov_orthogonal,
                "projection_diagonal_equal": self.projection_equal,
            },
            "projection_tolerance": repr(self.projection_tolerance),
        }
        if self.projection_error is not None:
            doc["projection_error"] = failure_reason(self.projection_error)
        if self.matrix_kind == ADJACENCY:
            doc["criteria"]["deleted_char_polys_equal"] = self.char_polys_equal
            doc["criteria"]["power_diagonal_equal"] = self.power_diagonal_equal
        certificates: dict = {}
        if self.deleted_char_polys is not None:
            p, q = self.deleted_char_polys
            certificates["deleted_char_polys"] = [p.to_json(), q.to_json()]
        if self.first_power_mismatch_k is not None:
            certificates["first_power_mismatch_k"] = self.first_power_mismatch_k
        if self.first_krylov_mismatch_k is not None:
            certificates["first_krylov_mismatch_k"] = self.first_krylov_mismatch_k
        if certificates:
            doc["certificates"] = certificates
        if self.note:
            doc["note"] = self.note
        return doc


def failure_reason(exc: Exception) -> str:
    """One line naming a failed advisory computation: its type and message."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class PairReport:
    """Merged verdicts for one pair: both matrices plus strong cospectrality.

    ``strong`` is None when the pair is adjacency-cospectral but the
    adjacency decomposition failed (the reason is in the adjacency report).
    """

    adjacency: CospectralityReport
    laplacian: CospectralityReport
    strong: StrongCospectralityResult | None

    def to_json(self) -> dict:
        return {
            "adjacency": self.adjacency.to_json(),
            "laplacian": self.laplacian.to_json(),
            "strong": None if self.strong is None else self.strong.to_json(),
        }


def _advisory_decomposition(
    m: np.ndarray, tolerances: Tolerances, char: IntPolynomial | None = None
) -> tuple[SpectralDecomposition | None, SpectralNumericError | None]:
    """The numeric decomposition behind the advisory projector comparison,
    or its failure: the exact verdict never waits on it."""
    try:
        return eigendecompose_symmetric(m, char=char, tolerances=tolerances), None
    except SpectralNumericError as exc:
        return None, exc


def verify_a_cospectral(
    g: Graph,
    u: int,
    v: int,
    tol: float = 1e-8,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CospectralityReport:
    """Decide adjacency cospectrality of (u, v) exactly.

    One walk decides the verdict and, with the char poly of A, yields the
    deleted-vertex characteristic polynomials of record, which are checked
    against an independent elimination at one point.  The numeric projector
    comparison (threshold ``tol``) is reported as advisory data.
    """
    _check_pair(g, u, v)
    a = int_array(adjacency_matrix(g))
    return _adjacency_report(a, u, v, tol, tolerances, char_poly(a))


def _check_pair(g: Graph, u: int, v: int) -> None:
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("pair vertices must be distinct")


def _deleted_char_polys(
    a: np.ndarray,
    u: int,
    v: int,
    char: IntPolynomial,
    d_u: list[int],
    d_v: list[int],
) -> tuple[IntPolynomial, IntPolynomial]:
    """The char polys of G-u and G-v, from that of G and the power diagonals,
    checked against det(t0 I - A) and its two deleted-vertex minors modulo a
    prime."""
    p_u, p_v = principal_char_poly(char, d_u), principal_char_poly(char, d_v)
    prime, t0, minors = principal_minors_mod(a, u, v)
    if minors != tuple(f.evaluate(t0) % prime for f in (char, p_u, p_v)):
        raise InternalCheckError(
            f"char polys of G, G-{u} and G-{v} disagree with the elimination "
            f"at t = {t0} modulo {prime}"
        )
    return p_u, p_v


def _adjacency_report(
    a: np.ndarray,
    u: int,
    v: int,
    tol: float,
    tolerances: Tolerances,
    char: IntPolynomial,
) -> CospectralityReport:
    """The adjacency report of (u, v) from the char poly of G."""
    d_u, d_v = power_diagonals(a, u, v)
    deleted = _deleted_char_polys(a, u, v, char, d_u, d_v)
    dec, error = _advisory_decomposition(a, tolerances, char)
    return CospectralityReport(
        pair=(u, v),
        matrix_kind=ADJACENCY,
        first_mismatch_k=first_difference(d_u, d_v),
        projection_equal=None if dec is None else projection_diagonal_equal(dec, u, v, tol),
        projection_tolerance=tol,
        deleted_char_polys=deleted,
        projection_error=error,
        decomposition=dec,
    )


def verify_l_cospectral(
    g: Graph,
    u: int,
    v: int,
    tol: float = 1e-8,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CospectralityReport:
    """Decide Laplacian cospectrality of (u, v) by the exact power-diagonal
    walk on the Laplacian, which also decides its Krylov criterion.

    The numeric Laplacian eigenprojector comparison is advisory.  The report
    carries a fixed note that equality of deleted-vertex Laplacian spectra is
    a different (stronger) property that this verdict does not assert.
    """
    _check_pair(g, u, v)
    return _laplacian_report(int_array(laplacian_matrix(g)), u, v, tol, tolerances)


def _laplacian_report(
    lap: np.ndarray,
    u: int,
    v: int,
    tol: float,
    tolerances: Tolerances,
    char: IntPolynomial | None = None,
) -> CospectralityReport:
    """The Laplacian report of (u, v); the decomposition computes the char
    poly of ``lap`` unless it is given."""
    k = first_power_diagonal_mismatch(lap, u, v)
    dec, error = _advisory_decomposition(lap, tolerances, char)
    return CospectralityReport(
        pair=(u, v),
        matrix_kind=LAPLACIAN,
        first_mismatch_k=k,
        projection_equal=None if dec is None else projection_diagonal_equal(dec, u, v, tol),
        projection_tolerance=tol,
        note=LAPLACIAN_NOTE,
        projection_error=error,
        decomposition=dec,
    )


def strong_cospectrality(report: CospectralityReport) -> StrongCospectralityResult:
    """Strong cospectrality of a report's pair for the report's own matrix
    (adjacency or Laplacian), from its exact verdict and the decomposition it
    already holds.

    Raises the report's numeric failure when the pair is cospectral but its
    decomposition could not be certified.
    """
    if not report.cospectral:
        return StrongCospectralityResult(verdict=NOT_COSPECTRAL, signs=())
    if report.decomposition is None:
        raise report.projection_error
    u, v = report.pair
    return strong_from_decomposition(
        report.decomposition, u, v, report.projection_tolerance
    )


def verify_pair_full(
    g: Graph,
    u: int,
    v: int,
    tol: float = 1e-8,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> PairReport:
    """Run the adjacency, Laplacian, and strong-cospectrality checks together;
    one sweep computes the char polys of A and L, and the strong check reuses
    the adjacency decomposition."""
    _check_pair(g, u, v)
    a = int_array(adjacency_matrix(g))
    lap = int_array(laplacian_matrix(g))
    char_a, char_l = char_polys([a, lap])
    adjacency = _adjacency_report(a, u, v, tol, tolerances, char_a)
    laplacian = _laplacian_report(lap, u, v, tol, tolerances, char_l)
    unknown = adjacency.cospectral and adjacency.decomposition is None
    return PairReport(
        adjacency=adjacency,
        laplacian=laplacian,
        strong=None if unknown else strong_cospectrality(adjacency),
    )
