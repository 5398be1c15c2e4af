"""Cospectrality verdicts with machine-checkable certificates.

Adjacency cospectrality is decided two independent exact ways: the
characteristic polynomials of G-u and G-v, and one walk comparing the power
diagonals (A^k)_uu and (A^k)_vv.  The two must agree — disagreement would
mean a library bug and raises immediately.  For a symmetric matrix the walk
also decides Krylov orthogonality, as (e_u + e_v) . M^k (e_u - e_v) =
(M^k)_uu - (M^k)_vv, so a report runs it once and reads both criteria from
that one result.  Laplacian cospectrality is decided by the same walk on the
Laplacian.  The eigenprojector comparison is numeric and advisory: it is
reported alongside, never used as the verdict, and when the numeric
decomposition fails it is reported as unknown with the reason instead of
aborting the exact verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import IntPolynomial, char_polys, first_power_diagonal_mismatch
from .graph import (
    CospectraError,
    Graph,
    IntMatrix,
    adjacency_matrix,
    delete_vertex,
    laplacian_matrix,
)
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
    """Two provably equivalent exact criteria disagreed — a library bug."""


@dataclass(frozen=True)
class CospectralityReport:
    """Verdict for one pair against one matrix, with certificates.

    ``first_mismatch_k`` is the one exact walk's result: the first power k
    with (M^k)_uu != (M^k)_vv, or None, which is the verdict.  Every walk
    criterion (Krylov orthogonality, and for the adjacency matrix the power
    diagonals) reads it.  The deleted-vertex polynomials (adjacency only) and
    the first failing power are included so the verdict can be re-checked
    independently.  ``projection_equal`` is the numeric advisory criterion;
    it never influences ``cospectral``, and it is None when the numeric
    decomposition failed, with that failure in ``projection_error``.
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
    m: IntMatrix, tolerances: Tolerances, char: IntPolynomial | None = None
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
    """Decide adjacency cospectrality of (u, v) exactly, two ways.

    The deleted-vertex characteristic polynomials are the certificate of
    record; the power-diagonal walk re-derives the same verdict and must
    agree.  The numeric projector comparison (threshold ``tol``) is reported
    as advisory data.
    """
    _check_pair(g, u, v)
    a = adjacency_matrix(g)
    # the decomposition needs the char poly of a; one sweep computes all three
    polys = char_polys([*_deleted_adjacency(g, u, v), a])
    return _adjacency_report(a, u, v, tol, tolerances, *polys)


def _check_pair(g: Graph, u: int, v: int) -> None:
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("pair vertices must be distinct")


def _deleted_adjacency(g: Graph, u: int, v: int) -> list[IntMatrix]:
    return [adjacency_matrix(delete_vertex(g, u)), adjacency_matrix(delete_vertex(g, v))]


def _adjacency_report(
    a: IntMatrix,
    u: int,
    v: int,
    tol: float,
    tolerances: Tolerances,
    p_u: IntPolynomial,
    p_v: IntPolynomial,
    char: IntPolynomial,
) -> CospectralityReport:
    """The adjacency report of (u, v) from the char polys of G-u, G-v and G."""
    by_char = p_u == p_v
    k = first_power_diagonal_mismatch(a, u, v)
    if by_char != (k is None):
        raise InternalCheckError(
            f"exact criteria disagree on pair ({u}, {v}): "
            f"char={by_char} walk={k is None}"
        )
    dec, error = _advisory_decomposition(a, tolerances, char)
    return CospectralityReport(
        pair=(u, v),
        matrix_kind=ADJACENCY,
        first_mismatch_k=k,
        projection_equal=None if dec is None else projection_diagonal_equal(dec, u, v, tol),
        projection_tolerance=tol,
        deleted_char_polys=(p_u, p_v),
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
    return _laplacian_report(laplacian_matrix(g), u, v, tol, tolerances)


def _laplacian_report(
    lap: IntMatrix,
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
    one sweep computes every char poly they need, and the strong check reuses
    the adjacency decomposition."""
    _check_pair(g, u, v)
    a = adjacency_matrix(g)
    lap = laplacian_matrix(g)
    p_u, p_v, char_a, char_l = char_polys([*_deleted_adjacency(g, u, v), a, lap])
    adjacency = _adjacency_report(a, u, v, tol, tolerances, p_u, p_v, char_a)
    laplacian = _laplacian_report(lap, u, v, tol, tolerances, char_l)
    unknown = adjacency.cospectral and adjacency.decomposition is None
    return PairReport(
        adjacency=adjacency,
        laplacian=laplacian,
        strong=None if unknown else strong_cospectrality(adjacency),
    )
