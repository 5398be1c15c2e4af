"""Numeric spectral decomposition steered by exact multiplicity data.

Floating point enters the library only here.  Eigenvalues and eigenvectors
come from LAPACK (``numpy.linalg.eigh``); their grouping into eigenspaces is
never decided by numeric gaps alone: the exact squarefree structure of the
characteristic polynomial fixes how many distinct eigenvalues exist and with
what multiplicities, the exact signs of the squarefree factors at short
dyadic points between the groups prove that each group holds one root of
the right multiplicity, and any mismatch is a hard error rather than a
silent regrouping.  A decomposition keeps the eigenvector matrix and each
cluster its block of it; the strong classification reads Gram products of
the rows of that matrix, as (E e_w)_x = sum over the cluster's columns c of
B_xc B_wc, so no n x n projector is formed.
The one threshold here is a fixed module constant; the command line fixes
one more, how near ``reduce-multiplicity --eigenvalue`` must lie to an
eigenvalue.  ``verify`` reaches this module only for a strong verdict on a
cospectral pair; ``induced`` reads the eigenprojections of e_u - e_v off
the one decomposition of the constructed graph that its direct check reads
too, and ``reduce-multiplicity`` reads eigenvectors itself and the grown
graph's multiplicities by place, as Cauchy interlacing fixes them.  numpy
is imported by the functions that use it, and ``construct`` by the induced
path, so importing this module loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, ldexp
from typing import TYPE_CHECKING

from .exact import (
    IntPolynomial,
    MultiplicityStructure,
    char_poly,
    check_symmetric,
    int_array,
    multiplicity_structure,
)
from .graph import CospectraError, Graph, IntMatrix, adjacency_matrix

if TYPE_CHECKING:  # construct is loaded on the induced path alone
    from .construct import ConstructedGraph

STRONG = "strong"
COSPECTRAL_ONLY = "cospectral-only"
NOT_COSPECTRAL = "not-cospectral"
STRONG_CERTIFIED = "strong-certified"
INCONCLUSIVE = "inconclusive"


class SpectralNumericError(CospectraError):
    """A numeric computation failed to meet its accuracy contract."""


class ClusteringError(SpectralNumericError):
    """Numeric eigenvalues could not be reconciled with the exact
    multiplicity structure; carries the separating points, the per-interval
    multiplicities and group sizes, and the eigenvalues in ``.diagnostics``."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


# The one numeric threshold of this module, fixed: a projection norm at most
# PROJECTION_TOL counts as zero (the strong signs, the induced base
# coefficients).
PROJECTION_TOL = 1e-8


# ---------------------------------------------------------------------------
# decomposition with exact multiplicities


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One certified eigenspace, held as its block of orthonormal
    eigenvectors."""

    value: float  # mean of the certified group of numeric eigenvalues
    multiplicity: int  # exact, from the squarefree structure
    basis: np.ndarray  # n x multiplicity, orthonormal columns


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    matrix: np.ndarray  # the ``exact.int_array`` of the decomposed matrix
    clusters: tuple[EigenCluster, ...]  # ascending by value
    structure: MultiplicityStructure
    # dyadic t_0 < ... < t_D from the certificate: cluster i holds the one
    # exact root in (t_i, t_{i+1})
    separators: tuple[float, ...]
    # n x n orthonormal eigenvectors, ascending; cluster i is the block of
    # columns from starts[i] up to the next start
    eigenvectors: np.ndarray
    starts: tuple[int, ...]

    def _group_sums(self, rows: np.ndarray) -> np.ndarray:
        """Per cluster, the sum of each row's entries over its columns."""
        import numpy as np

        return np.add.reduceat(rows, self.starts, axis=-1)

    def cluster_nearest(self, x: float) -> EigenCluster:
        if not self.clusters:
            raise CospectraError("empty decomposition: an order-0 matrix has no eigenvalue")
        return min(self.clusters, key=lambda cl: abs(cl.value - x))


def _dyadic_sign(coeffs: tuple[int, ...], a: int, e: int) -> int:
    """Sign of f(a / 2**e): the sign of 2**(e*d) f(a / 2**e), which is the
    integer sum of c_i a^i 2**(e*(d-i)), by homogeneous Horner."""
    acc = 0
    shift = 0
    for c in reversed(coeffs):
        acc = acc * a + (c << shift)
        shift += e
    return (acc > 0) - (acc < 0)


def _most_even(lo: int, hi: int) -> int:
    """The integer in [lo, hi] divisible by the largest power of two."""
    if lo <= 0 <= hi:
        return 0
    if hi < 0:
        return -_most_even(-hi, -lo)
    # lo - 1 and hi agree above the highest bit j where they differ, and hi
    # has the 1 there: hi with its bits below j cleared lies in [lo, hi],
    # and no multiple of 2**(j+1) does
    j = ((lo - 1) ^ hi).bit_length() - 1
    return hi >> j << j


def _dyadic_in_gap(x: float, y: float) -> tuple[int, int]:
    """(a, e) with a / 2**e the dyadic rational of least denominator in the
    middle half [x + g/4, y - g/4] of the gap g = y - x >= 0, exactly."""
    (xa, xb), (ya, yb) = x.as_integer_ratio(), y.as_integer_ratio()
    b = max(xb, yb)  # floats are dyadic: x = xs / b and y = ys / b
    xs, ys = xa * (b // xb), ya * (b // yb)
    c = _most_even(3 * xs + ys, xs + 3 * ys)  # over 4 b
    e = (4 * b).bit_length() - 1
    shift = min(e, (c & -c).bit_length() - 1) if c else e
    return c >> shift, e - shift


def _certified_groups(
    struct: MultiplicityStructure, vals: np.ndarray
) -> tuple[list[int], list[float]]:
    """Sizes of the groups of ascending ``vals``, one per distinct exact root,
    each proven to match that root's multiplicity, and the points t_0, ...,
    t_D that separate them.

    The D distinct roots (D = sum of the factor degrees) are separated by
    cutting ``vals`` at its D-1 widest gaps.  Each cut is the shortest
    dyadic rational in the middle half of its gap, and an integer at least
    one below and one above the spectrum closes the list t_0 <= ... <= t_D.  A
    squarefree factor f of a symmetric matrix's characteristic polynomial
    has deg f distinct real roots, so if the exact sign of f changes in
    exactly deg f of the intervals (t_{i-1}, t_i), each of them holds
    exactly one root of f and the others hold none.  When every interval is
    claimed by exactly one factor and holds as many values as that factor's
    multiplicity, the grouping is certified; anything else raises a
    clustering failure.
    """
    import numpy as np

    d = sum(f.degree for f, _ in struct.factors)
    cuts = sorted(np.argsort(-np.diff(vals), kind="stable")[: d - 1].tolist())
    ascending = vals.tolist()
    dyadic = [(floor(ascending[0]) - 1, 0)]
    dyadic += [_dyadic_in_gap(ascending[c], ascending[c + 1]) for c in cuts]
    dyadic.append((ceil(ascending[-1]) + 1, 0))
    points = [ldexp(a, -e) for a, e in dyadic]
    sizes = np.diff([0, *(c + 1 for c in cuts), len(vals)]).tolist()
    expected = [0] * d  # per interval: summed multiplicity of the claiming factors
    certified = True
    for f, mult in struct.factors:
        values = [_dyadic_sign(f.coeffs, a, e) for a, e in dyadic]
        changes = [i for i in range(d) if (values[i] > 0) != (values[i + 1] > 0)]
        certified = certified and 0 not in values and len(changes) == f.degree
        for i in changes:
            expected[i] += mult
    # the factors then claim d intervals in all; as every group is nonempty,
    # expected == sizes leaves no interval unclaimed, so none claimed twice
    if not (certified and expected == sizes):
        raise ClusteringError(
            "clustering failure: numeric eigenvalues do not match the exact "
            "multiplicity structure",
            diagnostics={
                "separating_points": points,
                "expected_multiplicities": expected,
                "assigned_counts": sizes,
                "numeric_eigenvalues": ascending,
            },
        )
    return sizes, points


def eigendecompose_symmetric(
    m: IntMatrix | np.ndarray,
    char: IntPolynomial | None = None,
) -> SpectralDecomposition:
    """Spectral decomposition whose cluster sizes are dictated by the exact
    squarefree structure of the characteristic polynomial.

    Raises a clustering failure (with diagnostics) unless the grouping of the
    LAPACK eigenvalues is certified against the exact structure by the sign
    changes of each squarefree factor.
    """
    import numpy as np

    a = int_array(m)
    n = check_symmetric(a)
    if char is None:
        char = char_poly(a)
    if char.degree != n:
        raise ValueError(
            f"characteristic polynomial degree {char.degree} does not match order {n}"
        )
    if n == 0:
        struct0 = MultiplicityStructure((), 1)
        empty = np.zeros((0, 0))
        return SpectralDecomposition(a, (), struct0, (), empty, ())
    struct = multiplicity_structure(char)
    vals, vecs = np.linalg.eigh(a.astype(np.float64))
    sizes, separators = _certified_groups(struct, vals)
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    clusters = tuple(
        EigenCluster(
            value=float(vals[start]) if size == 1 else float(vals[start : start + size].mean()),
            multiplicity=size,
            basis=vecs[:, start : start + size],
        )
        for start, size in zip(starts, sizes)
    )
    return SpectralDecomposition(
        matrix=a,
        clusters=clusters,
        structure=struct,
        separators=tuple(separators),
        eigenvectors=vecs,
        starts=tuple(starts),
    )


# ---------------------------------------------------------------------------
# strong cospectrality


@dataclass(frozen=True)
class StrongCospectralityResult:
    """Verdict plus the per-cluster sign pattern.

    ``signs`` pairs each cluster eigenvalue with +1 (projections agree), -1
    (projections are opposite), 0 (both projections vanish), or None (neither
    relation holds — the cluster that demotes the verdict).
    """

    verdict: str
    signs: tuple[tuple[float, int | None], ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "signs": [
                {"eigenvalue": repr(val), "sign": sign} for val, sign in self.signs
            ],
        }


def strong_from_decomposition(
    dec: SpectralDecomposition, u: int, v: int
) -> StrongCospectralityResult:
    """Per-eigenspace sign classification of a pair already known to be
    cospectral for the matrix ``dec`` decomposes: strongly cospectral when
    every eigenprojector E has E e_u = ±E e_v within ``PROJECTION_TOL`` on
    the projection norms, cospectral-only otherwise.  For an orthonormal block
    B, ||E (e_u -+ e_v)|| = ||B_u -+ B_v||, over that block's rows u and v."""
    import numpy as np

    bu, bv = dec.eigenvectors[[u, v]]
    norms = np.sqrt(dec._group_sums(np.stack([bu - bv, bu + bv]) ** 2))
    signs: list[tuple[float, int | None]] = []
    verdict = STRONG
    for cl, diff, summ in zip(dec.clusters, *norms.tolist()):
        if diff <= PROJECTION_TOL and summ <= PROJECTION_TOL:
            signs.append((cl.value, 0))
        elif diff <= PROJECTION_TOL:
            signs.append((cl.value, 1))
        elif summ <= PROJECTION_TOL:
            signs.append((cl.value, -1))
        else:
            signs.append((cl.value, None))
            verdict = COSPECTRAL_ONLY
    return StrongCospectralityResult(verdict=verdict, signs=tuple(signs))


# ---------------------------------------------------------------------------
# induced eigenvalues of the adjacency construction


@dataclass(frozen=True, eq=False)
class InducedEigenpair:
    """An eigenvalue of the base graph lifted to the constructed graph.

    The unit vector is +w on copy 1, -w on copy 2, zero on H (up to rounding);
    ``base_coefficient`` is the norm of the base eigenprojection of e_{v_c},
    and ``multiplicity_in_big`` is the exact multiplicity of the eigenvalue in
    the constructed graph.
    """

    eigenvalue: float
    base_coefficient: float
    vector: np.ndarray
    multiplicity_in_big: int

    @property
    def simple_in_big(self) -> bool:
        return self.multiplicity_in_big == 1


def _induced_eigenpairs(
    cg: ConstructedGraph
) -> tuple[tuple[InducedEigenpair, ...], SpectralDecomposition]:
    """The eigenvalues the base graph forces on a pure adjacency construction,
    and the decomposition of the constructed graph's adjacency matrix they
    were read from.

    Every power A^k d of d = e_u - e_v vanishes on H and is antisymmetric
    across the two copies (``check_a_claims``), so for every eigenvalue of
    the constructed graph the eigenprojection E d is the lift (w, -w, 0) of
    w = E_base e_{v_c}.  The induced eigenvalues are those with E d nonzero;
    each pair carries the base coefficient ||E d|| / sqrt 2, the unit vector
    E d / ||E d|| and the exact multiplicity of its eigenvalue upstairs.  For
    an orthonormal block B, E d = B (B_u - B_v)^T, of norm ||B_u - B_v||.
    Orbit cross-connection edges break the lift, so a construction after
    cross-connection is refused.
    """
    import numpy as np

    from .construct import A_KIND, check_a_claims

    if cg.kind != A_KIND:
        raise ValueError("induced eigenpairs are defined for adjacency constructions")
    if cg.cross_connected:
        raise ValueError("induced eigenpairs are not defined after orbit cross-connection")
    violation = check_a_claims(cg)
    if violation is not None:
        raise CospectraError(
            "internal inconsistency: the Krylov space of e_u - e_v leaves the "
            f"lifted subspace: claim {violation.claim} fails; {violation.detail}"
        )
    dec = eigendecompose_symmetric(adjacency_matrix(cg.graph))
    u, v = cg.pair
    diff = dec.eigenvectors[u] - dec.eigenvectors[v]
    coeffs = np.sqrt(dec._group_sums(diff**2) / 2.0).tolist()
    out: list[InducedEigenpair] = []
    for cl, start, coeff in zip(dec.clusters, dec.starts, coeffs):
        if coeff <= PROJECTION_TOL:
            continue
        vector = cl.basis @ diff[start : start + cl.multiplicity]
        unit = vector / np.linalg.norm(vector)
        out.append(InducedEigenpair(cl.value, coeff, unit, cl.multiplicity))
    return tuple(out), dec


@dataclass(frozen=True, eq=False)
class SimplicityVerdict:
    """Outcome of the simplicity-based strong cospectrality certificate.

    ``strong-certified`` means every induced eigenvalue is simple in the
    constructed graph, which forces strong cospectrality of the pair;
    ``inconclusive`` means some induced eigenvalue is degenerate upstairs, in
    which case nothing is claimed either way and the direct numeric check is
    attached for comparison.
    """

    verdict: str
    induced: tuple[InducedEigenpair, ...]
    direct: StrongCospectralityResult

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "induced": [
                {
                    "eigenvalue": repr(p.eigenvalue),
                    "base_coefficient": repr(p.base_coefficient),
                    "multiplicity_in_big": p.multiplicity_in_big,
                    "simple": p.simple_in_big,
                }
                for p in self.induced
            ],
            "direct": self.direct.to_json(),
        }


def strong_via_simplicity(cg: ConstructedGraph) -> SimplicityVerdict:
    """Certify strong cospectrality of the constructed pair via simplicity of
    every induced eigenvalue; degenerate cases come back ``inconclusive``.

    A certificate is always cross-checked against the direct per-eigenspace
    comparison; disagreement is an internal error (it would mean one of the
    two methods is wrong), not a report.
    """
    pairs, big_dec = _induced_eigenpairs(cg)
    # the claims `_induced_eigenpairs` checked make the pair cospectral: A^k d
    # is antisymmetric across the copies, so (A^k)_uu - (A^k)_vv
    # = (A^k d)_u + (A^k d)_v = 0 for every k
    direct = strong_from_decomposition(big_dec, *cg.pair)
    if pairs and all(p.simple_in_big for p in pairs):
        if direct.verdict != STRONG:
            raise CospectraError(
                "internal inconsistency: simplicity certificate says strong but "
                f"the direct check returned {direct.verdict!r}"
            )
        return SimplicityVerdict(STRONG_CERTIFIED, pairs, direct)
    return SimplicityVerdict(INCONCLUSIVE, pairs, direct)


# ---------------------------------------------------------------------------
# multiplicity reduction by pendant attachment


@dataclass(frozen=True)
class PendantReductionReport:
    eigenvalue: float
    attach_vertex: int
    new_vertex: int
    old_multiplicity: int
    new_multiplicity: int
    certified: bool  # new multiplicity is exactly old - 1
    upper_neighbor: float  # the grown graph's eigenvalue at the old block's first place
    lower_neighbor: float  # the grown graph's eigenvalue just past the old block
    strict_interlacing: bool

    def to_json(self) -> dict:
        return {
            "eigenvalue": repr(self.eigenvalue),
            "attach_vertex": self.attach_vertex,
            "new_vertex": self.new_vertex,
            "old_multiplicity": self.old_multiplicity,
            "new_multiplicity": self.new_multiplicity,
            "certified": self.certified,
            "upper_neighbor": repr(self.upper_neighbor),
            "lower_neighbor": repr(self.lower_neighbor),
            "strict_interlacing": self.strict_interlacing,
        }


def _integer_root_or_value(dec: SpectralDecomposition, i: int) -> float:
    """The integer c in the certified interval of cluster i at which a
    squarefree factor of the characteristic polynomial vanishes, evaluated
    exactly, as a float; the cluster's numeric value when there is none."""
    lo, hi = dec.separators[i], dec.separators[i + 1]
    for c in range(floor(lo) + 1, ceil(hi)):
        if any(f.evaluate(c) == 0 for f, _ in dec.structure.factors):
            return float(c)
    return dec.clusters[i].value


def attach_pendant_reduce(
    g: Graph,
    dec: SpectralDecomposition,
    cluster: EigenCluster,
) -> tuple[Graph, PendantReductionReport]:
    """Attach one pendant vertex so a repeated adjacency eigenvalue loses
    exactly one unit of multiplicity.

    ``dec`` is the adjacency decomposition of ``g`` and ``cluster`` one of its
    clusters, of eigenvalue theta and multiplicity l.  The pendant goes on the
    vertex w carrying the largest eigenvector component of the cluster; the
    columns are unit vectors, so that component is at least 1/sqrt(n), and
    some theta-eigenvector is nonzero at w.  So w is a downer vertex: theta
    has multiplicity exactly l - 1 in phi(G - w).  As phi(G + pendant)
    = t phi(G) - phi(G - w), theta keeps multiplicity exactly l - 1 in the
    grown graph, theta = 0 included.  ``certified`` and
    ``strict_interlacing`` therefore hold on every certified grouping; a
    false one would be a library bug.

    The old adjacency matrix is a principal submatrix of the grown one, so
    Cauchy interlacing gives mu_i >= lambda_i >= mu_{i+1} on the descending
    spectra: with j0 eigenvalues above theta, the grown graph's places
    j0 + 2 ... j0 + l (counted from 1) hold theta exactly.  The certified
    grouping names each place's exact cluster, so the new multiplicity is
    l - 1 plus one for each of places j0 + 1 and j0 + l + 1 in the same
    cluster: ``certified`` (l - 1) and ``strict_interlacing`` (both in other
    clusters) are the same fact.  A reported eigenvalue or neighbour whose
    certified interval holds an integer root of the characteristic
    polynomial is that integer, not its LAPACK approximation.
    """
    import numpy as np

    if cluster.multiplicity < 2:
        raise ValueError("multiplicity reduction needs a repeated eigenvalue")
    if not np.array_equal(dec.matrix, adjacency_matrix(g)):
        raise ValueError("decomposition is not of this graph's adjacency matrix")
    i = next((i for i, cl in enumerate(dec.clusters) if cl is cluster), None)
    if i is None:
        raise ValueError("cluster does not belong to this graph's decomposition")
    v_m = int(np.argmax(np.abs(cluster.basis).max(axis=1)))
    new_vertex = g.n
    grown = Graph(g.n + 1, g.edges | {(v_m, new_vertex)})
    new_dec = eigendecompose_symmetric(adjacency_matrix(grown))
    # the old eigenvalue block's first place in the descending spectra
    j0 = sum(cl.multiplicity for cl in dec.clusters[i + 1 :])
    # the cluster index of each eigenvalue of the grown graph, descending
    new_desc = [c for c, cl in enumerate(new_dec.clusters) for _ in range(cl.multiplicity)][::-1]
    above, here, below = new_desc[j0], new_desc[j0 + 1], new_desc[j0 + cluster.multiplicity]
    new_mult = new_dec.clusters[here].multiplicity
    return grown, PendantReductionReport(
        eigenvalue=_integer_root_or_value(dec, i),
        attach_vertex=v_m,
        new_vertex=new_vertex,
        old_multiplicity=cluster.multiplicity,
        new_multiplicity=new_mult,
        certified=new_mult == cluster.multiplicity - 1,
        upper_neighbor=_integer_root_or_value(new_dec, above),
        lower_neighbor=_integer_root_or_value(new_dec, below),
        strict_interlacing=above != here != below,
    )
