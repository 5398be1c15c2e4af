"""Exact integer linear algebra: characteristic polynomials, the
power-diagonal walk, the principal char polys it yields, and squarefree
decomposition.

Everything in this module is exact: arbitrary-precision integers, and
floats only where every value they hold is an integer below 2**53.  Each
matrix enters the kernels through ``int_array``, the one entry check: it
refuses an order of 2**15 or more before reading any entry, any entry that
is not an integer, and any matrix with an absolute row sum of 2**29 or
more (a uint64 entry of 2**63 included), and returns the int64 array that
the symmetry check, the a-priori bounds and every kernel read.  Graph
matrices have ||A||_inf <= n - 1 and ||L||_inf <= 2 (n - 1), far inside
that domain.  Each kernel imports numpy when it runs, so importing this
module does not load it.  The kernels work modulo primes below 2**24,
vectorised over the primes, and every product by m is one float64 product
by m itself, shared by every prime and exact in that domain (the one
overflow argument is stated beside ``_PRIME_CEILING``).
``char_poly`` computes the characteristic polynomial of one symmetric
matrix, and refuses any other, by Lanczos over GF(p) (one product by m per
step, a restart whenever a Krylov block closes, unlucky primes replaced by
the next ones) and lifts it by the Chinese remainder theorem under an
a-priori coefficient bound.  The run keeps every row [q_k | phi_k], Krylov
vector beside partial char poly, in one history array; a step is the
product by m, one Gram product for <q, q> and <q, m q> on every prime, the
inverses, alpha and gamma in Python ints, and one batched product of those
coefficients with the last rows, which writes the next row.
``power_diagonals`` walks m^i e_u and m^i e_v for i <= n/2 only, and reads
(m^k)_uu for every k < n as the Gram product (m^i e_u) . (m^(k-i) e_u),
i = floor(k/2), which holds as m is symmetric.
``principal_char_poly`` derives det(tI - m_(u)) from det(tI - m) and
(m^k)_uu by the walk generating function, and ``principal_minors_mod``
evaluates det(t0 I - m) and both principal minors at one point modulo one
prime, by one elimination, to check such a derivation independently.
Polynomial coefficients are stored low-degree first; the zero polynomial is
the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb, gcd, isqrt, prod
from operator import mul
from typing import Container, Sequence

from .graph import _MAX_ORDER, ExactComputationError, IntMatrix, _check_order


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients low-degree first, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use from_coeffs to normalize")

    @staticmethod
    def from_coeffs(coeffs: Sequence[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(int(c) for c in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.from_coeffs(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial.from_coeffs([-c for c in other.coeffs])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result, square = IntPolynomial((1,)), self
        while k:  # binary powering: one squaring per bit of k
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings (low-degree first), arbitrary size safe."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "IntPolynomial":
        return IntPolynomial.from_coeffs([int(s) for s in data])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append(f"{sign} {body}" if terms else f"{sign}{body}")
        return " ".join(terms)


# ---------------------------------------------------------------------------
# matrix helpers


def check_square(m: IntMatrix) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def int_array(m: IntMatrix | np.ndarray) -> np.ndarray:
    """The square integer matrix m as the int64 array every kernel reads,
    the one entry check of the kernels: an order of 2**15 or more is refused
    before any entry is read, and an absolute row sum of 2**29 or more after
    (``ExactComputationError`` both; see ``_PRIME_CEILING``); a non-integer entry
    is refused with ``ValueError``.  An int64 array is returned as it is."""
    import numpy as np

    n = len(m)
    _check_order(n)
    if isinstance(m, np.ndarray):
        if m.shape != (n, n):
            raise ValueError("matrix is not square")
        a = m
    else:
        check_square(m)
        a = np.array(m).reshape(n, n)
    if a.dtype.kind not in "biu":
        # numpy reads a list with an integer beyond int64 as float64 or object
        a = np.array(m, dtype=object).reshape(n, n)
        bad = next((x for x in a.flat if not isinstance(x, (int, np.integer, np.bool_))), None)
        if bad is not None:
            raise ValueError(f"matrix entry {bad!r} is not an integer")
    # the entries first, in their own type, so that neither the int64
    # conversion nor abs nor a row sum wraps
    inside = not n or -_MAX_ROW_SUM < a.min() and a.max() < _MAX_ROW_SUM
    if inside:
        a = a.astype(np.int64, copy=False)
    if not inside or _inf_norm(a) >= _MAX_ROW_SUM:
        norm = max(sum(abs(int(x)) for x in row) for row in m)
        raise ExactComputationError(
            f"largest absolute row sum {norm} is not below {_MAX_ROW_SUM}: float64 sums could round"
        )
    return a


def _inf_norm(a: np.ndarray) -> int:
    """max(1, largest absolute row sum of a)."""
    import numpy as np

    return max(1, int(np.abs(a).sum(axis=1).max(initial=0)))


def check_symmetric(a: np.ndarray) -> int:
    """The order of the ``int_array`` a, which must be symmetric."""
    import numpy as np

    if not np.array_equal(a, a.T):
        i, j = np.argwhere(np.triu(a != a.T, 1))[0].tolist()  # the first asymmetric entry
        raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return len(a)


# ---------------------------------------------------------------------------
# characteristic polynomial: Lanczos modulo primes below 2**24, then CRT

# The one overflow argument, for the domain ``int_array`` admits: order
# n < 2**15 (``graph._MAX_ORDER``) and every absolute row sum below 2**29.
# Every modulus is below 2**24, so every residue r has |r| < 2**24.
# * Each product by m (the walk's step, the Lanczos step's m q) runs in
#   float64: every partial sum of y m, y a row of residues, is an integer of
#   absolute value below 2**24 * 2**29 = 2**53, which float64 holds exactly
#   whatever order BLAS sums in.
# * Every int64 sum (a Gram product, the projection off the closed blocks,
#   the walk's diagonals) adds fewer than 2**15 products of two residues,
#   each below 2**48, and at most one residue more, so it stays below 2**63.
#   The Lanczos update, the coefficients (-gamma, -alpha, 1) times the
#   history rows, and the elimination's row update add three or fewer.
# * m % p is one int64 remainder per entry, and the a-priori bound
#   ``_char_poly_bound`` sums squares row by row: a row's sum of squares is
#   at most its absolute row sum squared, below 2**58, and the rows are
#   added in Python ints.
_PRIME_CEILING = 1 << 24
_MAX_ROW_SUM = (1 << 53) // _PRIME_CEILING
# the largest primes below _PRIME_CEILING, descending; grows on demand and is
# the same list for every caller
_PRIMES: list[int] = []


def _is_prime(m: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 decides every m < 3 215 031 751
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The (i + 1)-th largest prime below ``_PRIME_CEILING``."""
    while len(_PRIMES) <= i:
        candidate = _PRIMES[-1] - 2 if _PRIMES else _PRIME_CEILING - 1
        while not _is_prime(candidate):
            candidate -= 2
        _PRIMES.append(candidate)
    return _PRIMES[i]


def _primes_covering(bound: int, skip: Container[int] = ()) -> list[int]:
    """The fewest leading primes of ``_PRIMES`` not in skip whose product exceeds 2 * bound."""
    primes = (p for p in map(_prime, count()) if p not in skip)
    chosen: list[int] = []
    while prod(chosen) <= 2 * bound:
        chosen.append(next(primes))
    return chosen


def _char_poly_bound(a: np.ndarray) -> int:
    """An integer B >= |c| for every coefficient c of det(tI - a).

    With F = ||a||_F^2, Schur's inequality gives sum |lambda|^2 <= F, so the
    mean of the |lambda| is at most sqrt(F / n), and Maclaurin's inequality
    then bounds the k-th elementary symmetric function of the |lambda|, which
    bounds |c_{n-k}|, by C(n, k) (F / n)^(k/2).  This holds for every square
    integer matrix, symmetric or not.  The squares C(n, k)^2 F^k / n^k of
    these bounds rise while (n - k)^2 F > (k + 1)^2 n and fall after, so B
    is read off the one term at the first k where they stop rising.
    """
    n = len(a)
    if not n:
        return 1
    fro2 = sum((a * a).sum(axis=1).tolist())  # row by row: see _PRIME_CEILING
    k = next(k for k in range(1, n + 1) if (n - k) ** 2 * fro2 <= (k + 1) ** 2 * n)
    return isqrt(-(-(comb(n, k) ** 2 * fro2**k) // n**k)) + 1  # ceiling


def _lift(residues: list[list[int]], primes: list[int]) -> list[int]:
    """The integers of least absolute value whose residue modulo primes[i] is
    residues[i][j], one per column j (Chinese remainder theorem)."""
    modulus = prod(primes)
    weights = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    half = modulus // 2
    out: list[int] = []
    for column in zip(*residues):
        c = sum(map(mul, column, weights)) % modulus
        out.append(c - modulus if c > half else c)
    return out


def _lanczos_char_poly_mod(
    m: np.ndarray, primes: list[int]
) -> tuple[np.ndarray | None, np.ndarray]:
    """(det(tI - m) modulo each prime, low-degree first, or None; the mask
    of unlucky primes) for the symmetric ``int_array`` m, by unnormalised
    Lanczos over GF(p) (Lanczos 1950; Eberly and Kaltofen 1997), in lockstep
    over the primes.

    Step k takes w = m q_k, alpha_k = <w, q_k> / <q_k, q_k> and
    gamma_k = <q_k, q_k> / <q_(k-1), q_(k-1)>, so that
    q_(k+1) = w - alpha_k q_k - gamma_k q_(k-1) and
    phi_(k+1) = (t - alpha_k) phi_k - gamma_k phi_(k-1).  Where q_(k+1)
    vanishes on every prime, its Krylov block is closed, and as m is
    symmetric so is the complement of the blocks so far: the run restarts at
    the first e_j outside them, projected off them, with gamma = 0, and the
    blocks' polys multiply to det(tI - m).  A prime on which a norm <q, q>
    vanishes is unlucky, unless q vanishes on every prime and so closes a
    block; then no coefficients are returned.

    Row k + 1 of one history array holds s_k = [q_k | phi_k] (row 0 is
    zero), so that the closed blocks are its rows' leading n columns and one
    product [-gamma_k, -alpha_k, 1] (s_(k-1), s_k, [m q_k | t phi_k])
    writes s_(k+1).  The inner products <q_k, q_k> and <q_k, m q_k> come
    from one Gram product per step, and the scalars are Python ints.  The
    products m q_k of every prime are one float64 product by m itself (see
    ``_PRIME_CEILING``).
    """
    import numpy as np

    copies, n = len(primes), len(m)
    m_float = m.astype(np.float64)
    mod = np.array(primes, dtype=np.int64)[:, None]
    mod_float = mod.astype(np.float64)
    history = np.zeros((copies, n + 2, 2 * n + 1), dtype=np.int64)
    # q_0 = e_0, where a restart with no closed block would start, and phi_0 = 1
    history[:, 1, 0] = history[:, 1, n] = 1
    inverses: list[list[int]] = []  # 1 / <q_k, q_k> on each prime, per step
    inverse_prev = [0] * copies  # gamma_0 = 0
    for k in range(n):
        s, nxt = history[:, k + 1], history[:, k + 2]
        q = s[:, :n]
        if not np.count_nonzero(q):  # q_k vanishes on every prime
            # restart at the first e_j whose projection r_j off the closed
            # blocks has <r_j, r_j> = 1 - sum_i q_i[j]^2 / <q_i, q_i> nonzero
            # on some prime (one has unless p divides n - k, the trace)
            basis = history[:, 1 : k + 1, :n]
            scale = np.array(inverses, dtype=np.int64).T[:, :, None]
            c = basis * scale % mod[:, :, None]  # q_i[j] / <q_i, q_i>
            rest = (1 - np.einsum("pki,pki->pi", c, basis)) % mod
            j = rest.any(axis=0).argmax()
            q[:] = -np.einsum("pk,pki->pi", c[:, :, j], basis)
            q[:, j] += 1
            q %= mod
            inverse_prev = [0] * copies
        # q m = (m q^T)^T, as m is symmetric
        np.remainder(q @ m_float, mod_float, out=nxt[:, :n], casting="unsafe")
        end = n + k + 2  # phi_(k+1) has degree k + 1
        nxt[:, n + 1 : end] = s[:, n : end - 1]
        # [[<q_k, q_k>], [<m q_k, q_k>]] on each prime
        gram = np.matmul(history[:, k + 1 : k + 3, :n], q[:, :, None]).tolist()
        inverse, coef = [], []  # coef: -gamma_k, -alpha_k, 1 on each prime
        for ((norm,), (wq,)), p, prev in zip(gram, primes, inverse_prev):
            norm %= p
            if not norm:
                return None, np.array([x % p == 0 for ((x,), _), p in zip(gram, primes)])
            inverse.append(pow(norm, -1, p))
            coef += -(norm * prev % p), -(wq * inverse[-1] % p), 1
        inverses.append(inverse)
        coef = np.array(coef, dtype=np.int64).reshape(copies, 1, 3)
        update = np.matmul(coef, history[:, k : k + 3, :end])
        np.remainder(update, mod[:, :, None], out=nxt[:, None, :end])
        inverse_prev = inverse
    return history[:, n + 1, n:], np.zeros(copies, dtype=bool)


def char_poly(m: IntMatrix | np.ndarray) -> IntPolynomial:
    """Characteristic polynomial det(tI - m) of a symmetric integer matrix
    inside the domain of ``int_array``, exactly; a matrix outside it raises
    ``ExactComputationError``, and one that is not symmetric ``ValueError``.

    One Lanczos run goes over enough primes below 2**24 that their product
    exceeds twice the a-priori coefficient bound, and the residues are
    lifted to the unique integers of least absolute value by the Chinese
    remainder theorem.  An unlucky prime is passed over for the next ones
    and the run repeats: as <q, q> > 0 over the rationals, only finitely
    many primes are unlucky.  The result is asserted monic of degree n.
    """
    a = int_array(m)
    n = check_symmetric(a)
    bound, unlucky, residues = _char_poly_bound(a), set(), None
    while residues is None:
        primes = _primes_covering(bound, unlucky)
        residues, lost = _lanczos_char_poly_mod(a, primes)
        unlucky.update(p for p, out in zip(primes, lost) if out)
    p = IntPolynomial.from_coeffs(_lift(residues.tolist(), primes))
    if p.degree != n or not p.is_monic:
        raise ExactComputationError(
            f"characteristic polynomial sanity check failed (degree {p.degree})"
        )
    return p


# ---------------------------------------------------------------------------
# the power-diagonal walk, and the principal char polys it yields


def power_diagonals(m: IntMatrix | np.ndarray, u: int, v: int) -> tuple[list[int], list[int]]:
    """((m^k)_uu for k < n) and ((m^k)_vv for k < n) of a symmetric integer
    matrix m inside the domain of ``int_array``, exactly.

    The walk m^i e_u, m^i e_v runs for i <= n/2 only, modulo primes whose
    product exceeds 2 ||m||_inf^(n-1); as m is symmetric, (m^k)_uu is the
    Gram product (m^i e_u) . (m^(k-i) e_u) with i = floor(k/2).  Each step
    is one float64 product by m, shared by every prime and exact (see
    ``_PRIME_CEILING``).  Each value is at most ||m||_inf^k in absolute value,
    so it lifts exactly by the Chinese remainder theorem.
    """
    import numpy as np

    a = int_array(m)
    n = check_symmetric(a)
    _check_pair(n, u, v)
    primes = _primes_covering(_inf_norm(a) ** (n - 1))
    m_float = a.astype(np.float64)
    # one row per (prime, start vertex); residues r modulo p are float64
    # integers with |r| < p, as fmod leaves them
    mod = np.repeat(np.array(primes, dtype=np.float64), 2)[:, None]
    walk = np.zeros((n // 2 + 1, 2 * len(primes), n))
    walk[0, 0::2, u] = walk[0, 1::2, v] = 1
    for i in range(n // 2):  # y m = (m y^T)^T, as m is symmetric
        np.fmod(walk[i] @ m_float, mod, out=walk[i + 1])
    x = walk.astype(np.int64)
    diagonals = np.empty((n, 2 * len(primes)), dtype=np.int64)
    diagonals[0::2] = (x * x).sum(axis=2)[: (n + 1) // 2]  # k = 2i
    diagonals[1::2] = (x[:-1] * x[1:]).sum(axis=2)[: n // 2]  # k = 2i + 1
    diagonals %= mod.astype(np.int64).T
    lifted = _lift(diagonals.T.reshape(len(primes), 2 * n).tolist(), primes)
    return lifted[:n], lifted[n:]


def first_difference(xs: Sequence[int], ys: Sequence[int]) -> int | None:
    """The first index at which xs and ys differ, or None."""
    return next((k for k, (x, y) in enumerate(zip(xs, ys)) if x != y), None)


def first_power_diagonal_mismatch(m: IntMatrix | np.ndarray, u: int, v: int) -> int | None:
    """Smallest k in 0..n-1 with (m^k)_{uu} != (m^k)_{vv}, or None.

    Powers 0..n-1 suffice: the diagonal entries are moment sequences of degree-n
    spectral measures, determined by their first n moments.  As m is
    symmetric, (m^k)_{uu} - (m^k)_{vv} = (e_u + e_v) . m^k (e_u - e_v), so None
    also means that the Krylov spaces of e_u + e_v and e_u - e_v are
    orthogonal.  The value is exact (see ``power_diagonals``).
    """
    return first_difference(*power_diagonals(m, u, v))


def principal_char_poly(char: IntPolynomial, diagonal: Sequence[int]) -> IntPolynomial:
    """det(tI - m_(u)), m without row and column u, from char = det(tI - m)
    and diagonal = ((m^k)_uu for k = 0..n-1).

    By the walk generating function, ((tI - m)^-1)_uu = det(tI - m_(u)) / char
    = sum_k (m^k)_uu t^-(k+1) (Godsil-Smith), so the coefficient of t^j is
    sum_{k < n-j} [t^(j+k+1)] char * (m^k)_uu: a convolution, in Python ints.
    """
    n = char.degree
    if len(diagonal) != n:
        raise ValueError(f"{len(diagonal)} diagonal entries for a polynomial of degree {n}")
    c = char.coeffs
    return IntPolynomial.from_coeffs([sum(map(mul, c[j + 1 :], diagonal)) for j in range(n)])


# the first evaluation point of ``principal_minors_mod``: above the spectral
# radius of the adjacency matrix of every graph of order below 2**15, so that
# t0 I - A and its principal submatrices are nonsingular over the integers
_T0 = _MAX_ORDER


def principal_minors_mod(
    m: IntMatrix | np.ndarray, u: int, v: int
) -> tuple[int, int, tuple[int, int, int]]:
    """(p, t0, (det(t0 I - m), det(t0 I - m_(u)), det(t0 I - m_(v)))) modulo
    p, the largest prime below 2**24, by one Gaussian elimination.

    The rows and columns are ordered with v and u last and the other n - 2
    eliminated, with row swaps among them only; the 2 x 2 Schur complement S
    left over (order v, u) gives det(t0 I - m) = d det S,
    det(t0 I - m_(u)) = d S_vv and det(t0 I - m_(v)) = d S_uu, where d is
    the determinant of the eliminated block.  When that block is singular
    modulo p, t0 moves on to t0 + 1: its determinant is a monic polynomial
    of degree n - 2 in t0, so one of the first n - 1 points is regular.
    """
    import numpy as np

    a = int_array(m)
    n = len(a)
    _check_pair(n, u, v)
    p = _prime(0)
    order = [i for i in range(n) if i != u and i != v] + [v, u]
    reduced = (a % p)[np.ix_(order, order)]
    diagonal = np.diag_indices(n)
    for t0 in count(_T0):
        e = -reduced % p
        e[diagonal] = (e[diagonal] + t0) % p
        d = 1
        for k in range(n - 2):
            if not e[k, k]:
                below = np.flatnonzero(e[k + 1 : n - 2, k])
                if not below.size:
                    break  # the eliminated block is singular modulo p
                r = k + 1 + int(below[0])
                e[[k, r]] = e[[r, k]]
                d = -d
            pivot = int(e[k, k])
            d = d * pivot % p
            factor = e[k + 1 :, k] * pow(pivot, -1, p) % p
            rest = e[k + 1 :, k + 1 :]
            rest -= factor[:, None] * e[k, k + 1 :]
            rest %= p
        else:
            (s_vv, s_vu), (s_uv, s_uu) = e[n - 2 :, n - 2 :].tolist()
            return p, t0, (d * (s_vv * s_uu - s_vu * s_uv) % p, d * s_vv % p, d * s_uu % p)


def _check_pair(n: int, u: int, v: int) -> None:
    if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):  # bool is no index
        bounds = f" 0..{n - 1}" if n else ": the graph has no vertices"
        raise ValueError(f"vertex pair ({u}, {v}) out of range{bounds}")
    if u == v:
        raise ValueError("pair vertices must be distinct")


# ---------------------------------------------------------------------------
# squarefree (multiplicity) structure: Yun's algorithm over the integers
#
# A primitive gcd divides both arguments in Z[x] (Gauss's lemma), so every
# division in Yun's algorithm below is exact over the integers.


def _primitive(a: IntPolynomial) -> IntPolynomial:
    """``a`` over the gcd of its coefficients, with positive leading coefficient."""
    content = gcd(*a.coeffs)
    if a.leading < 0:
        content = -content
    return IntPolynomial(tuple(c // content for c in a.coeffs))


def _divide(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """The quotient a / b when b divides a in Z[x], else None."""
    shift = a.degree - b.degree
    if shift < 0:
        return None if a.coeffs else IntPolynomial(())
    rem = list(a.coeffs)
    quo = [0] * (shift + 1)
    for i in range(shift, -1, -1):
        q, r = divmod(rem[i + b.degree], b.leading)
        if r:
            return None
        if q:
            quo[i] = q
            for j in range(b.degree):
                rem[i + j] -= q * b.coeffs[j]
    return None if any(rem[: b.degree]) else IntPolynomial(tuple(quo))


def _exact_quotient(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    quo = _divide(a, b)
    if quo is None:
        raise ExactComputationError("inexact polynomial division in squarefree split")
    return quo


def _heuristic_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """GCDHEU (Char, Geddes and Gonnet): the primitive gcd of two primitive
    polynomials read off the integer gcd of their values at t = xi, or None
    when six evaluation points give no candidate that divides both.

    With xi >= 2 min(|a|_inf, |b|_inf) + 2, Cauchy's bound puts every root
    of the input of smaller max-norm below xi / 2 in absolute value; then a
    candidate that divides both inputs is their gcd, not a proper factor of
    it, since such a factor h would give |h(xi)| > xi / 2 and push the
    leading xi-adic digit of gamma past xi / 2.
    """
    xi = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 2
    for _ in range(6):
        gamma = gcd(a.evaluate(xi), b.evaluate(xi))
        digits: list[int] = []  # xi-adic digits of gamma, each in (-xi/2, xi/2]
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        candidate = _primitive(IntPolynomial(tuple(digits)))
        if _divide(a, candidate) is not None and _divide(b, candidate) is not None:
            return candidate
        xi = xi * 73794 // 27011  # about 2.73 times larger, still above the bound
    return None


def _prs_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd of two primitive polynomials by the primitive
    polynomial remainder sequence: slower than GCDHEU but never fails."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        rem = a
        while rem.degree >= b.degree:
            # lead(b) * rem - lead(rem) * t^shift * b cancels the leading term
            shifted = IntPolynomial((0,) * (rem.degree - b.degree) + b.coeffs)
            rem = IntPolynomial((b.leading,)) * rem - IntPolynomial((rem.leading,)) * shifted
        a, b = b, (rem if rem.is_zero else _primitive(rem))
    return a


def _primitive_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """gcd(a, b) in Z[x], primitive with positive leading coefficient; at
    most one argument may be zero."""
    if b.is_zero:
        return _primitive(a)
    if a.is_zero:
        return _primitive(b)
    a, b = _primitive(a), _primitive(b)
    heuristic = _heuristic_gcd(a, b)
    return heuristic if heuristic is not None else _prs_gcd(a, b)


@dataclass(frozen=True)
class MultiplicityStructure:
    """Squarefree decomposition: ``content * prod(f^m for f, m in factors) == p``.

    Factors are primitive integer polynomials with positive leading
    coefficient, pairwise distinct multiplicities m >= 1, sorted by m.  For a
    monic input the content is 1 and every factor is monic.
    """

    factors: tuple[tuple[IntPolynomial, int], ...]
    content: int

    def reconstruct(self) -> IntPolynomial:
        p = IntPolynomial((self.content,))
        for f, m in self.factors:
            p = p * f**m
        return p


def multiplicity_structure(p: IntPolynomial) -> MultiplicityStructure:
    """Yun's squarefree decomposition of the primitive part of p over Z[x]."""
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if p.degree == 0:
        return MultiplicityStructure((), p.coeffs[0])
    f = _primitive(p)
    df = f.derivative()
    g = _primitive_gcd(f, df)
    out: list[tuple[IntPolynomial, int]] = []
    if g.degree == 0:
        out.append((f, 1))
    else:
        c = _exact_quotient(f, g)
        d = _exact_quotient(df, g) - c.derivative()
        i = 1
        while c.degree > 0:
            a = _primitive_gcd(c, d)
            if a.degree > 0:
                out.append((a, i))
            c = _exact_quotient(c, a)
            d = _exact_quotient(d, a) - c.derivative()
            i += 1
    # the factors are primitive with positive leading coefficients, so their
    # product is f itself and p = content * f
    struct = MultiplicityStructure(tuple(out), p.leading // f.leading)
    if struct.reconstruct() != p:
        raise ExactComputationError("squarefree decomposition failed to reconstruct input")
    return struct
