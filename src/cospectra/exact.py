"""Exact integer/rational linear algebra: characteristic polynomials,
power-traces, Krylov orthogonality, and squarefree decomposition.

Everything in this module is computed over arbitrary-precision integers or
``fractions.Fraction``; no floats anywhere.  Polynomial coefficients are stored
low-degree first; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Sequence

from .graph import CospectraError, IntMatrix

Scalar = int | Fraction
Vector = list[Scalar]


class ExactComputationError(CospectraError):
    pass


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
        result = IntPolynomial((1,))
        for _ in range(k):
            result = result * self
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


def check_symmetric(m: IntMatrix) -> int:
    n = check_square(m)
    for i in range(n):
        ri = m[i]
        for j in range(i + 1, n):
            if ri[j] != m[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return n


def mat_vec(m: IntMatrix, x: Sequence[Scalar]) -> Vector:
    """Exact matrix-vector product."""
    n = len(m)
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} does not match matrix order {n}")
    out: Vector = []
    for row in m:
        acc: Scalar = 0
        for a, b in zip(row, x):
            if a:
                acc += a * b
        out.append(acc)
    return out


def power_vector(m: IntMatrix, x: Sequence[Scalar], k: int) -> Vector:
    """Compute ``m^k x`` exactly by iterated multiplication."""
    n = check_square(m)
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} does not match matrix order {n}")
    if k < 0:
        raise ValueError("power must be nonnegative")
    v = list(x)
    for _ in range(k):
        v = mat_vec(m, v)
    return v


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant; mutates ``rows``.

    All intermediate divisions are exact by the Bareiss identity, so every
    entry stays an integer.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk = rows[k]
        akk = pk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
            ri[k] = 0
        prev = akk
    return sign * rows[n - 1][n - 1]


def determinant(m: IntMatrix) -> int:
    check_square(m)
    return _det_bareiss([list(row) for row in m])


def _divide_by_linear(coeffs: list[int], root: int) -> list[int]:
    # synthetic division of p by (x - root); remainder must vanish
    out: list[int] = []
    acc = 0
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    quotient, remainder = out[:-1], out[-1]
    if remainder != 0:
        raise ExactComputationError("nonzero remainder in exact linear division")
    return list(reversed(quotient))


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - m), exactly.

    Evaluates the determinant at t = 0..n with fraction-free Bareiss
    elimination and interpolates through the n+1 integer samples; the result
    is asserted monic of degree n.
    """
    n = check_square(m)
    if n == 0:
        return IntPolynomial((1,))
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        rows = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        ys.append(_det_bareiss(rows))
    # master(t) = prod (t - x_i); Lagrange basis via exact synthetic division
    master = [1]
    for x in xs:
        master = [
            (master[i - 1] if i > 0 else 0) - x * (master[i] if i < len(master) else 0)
            for i in range(len(master) + 1)
        ]
    acc = [Fraction(0)] * (n + 1)
    for x, y in zip(xs, ys):
        if y == 0:
            continue
        q = _divide_by_linear(master, x)
        denom = 1
        for other in xs:
            if other != x:
                denom *= x - other
        w = Fraction(y, denom)
        for i, c in enumerate(q):
            acc[i] += w * c
    coeffs: list[int] = []
    for c in acc:
        if c.denominator != 1:
            raise ExactComputationError("interpolation produced a non-integer coefficient")
        coeffs.append(int(c))
    p = IntPolynomial.from_coeffs(coeffs)
    if p.degree != n or not p.is_monic:
        raise ExactComputationError(
            f"characteristic polynomial sanity check failed (degree {p.degree})"
        )
    return p


# ---------------------------------------------------------------------------
# cospectrality criteria, exact


def first_power_diagonal_mismatch(m: IntMatrix, u: int, v: int) -> int | None:
    """Smallest k in 0..n-1 with (m^k)_{uu} != (m^k)_{vv}, or None.

    Powers 0..n-1 suffice: the diagonal entries are moment sequences of degree-n
    spectral measures, determined by their first n moments.
    """
    n = check_symmetric(m)
    _check_pair(n, u, v)
    eu: Vector = [0] * n
    ev: Vector = [0] * n
    eu[u] = 1
    ev[v] = 1
    for k in range(n):
        if eu[u] != ev[v]:
            return k
        if k + 1 < n:
            eu = mat_vec(m, eu)
            ev = mat_vec(m, ev)
    return None


def power_diagonal_equal(m: IntMatrix, u: int, v: int) -> bool:
    return first_power_diagonal_mismatch(m, u, v) is None


def first_krylov_mismatch(m: IntMatrix, u: int, v: int) -> int | None:
    """Smallest k in 0..2n-2 with (e_u + e_v) . m^k (e_u - e_v) != 0, or None.

    None means the Krylov spaces generated by e_u + e_v and e_u - e_v are
    orthogonal; 2n-1 powers suffice because each Krylov space has dimension
    at most n and <x, m^k y> for k <= 2n-2 spans all pairings of the two bases.
    """
    n = check_symmetric(m)
    _check_pair(n, u, v)
    y: Vector = [0] * n
    y[u] = 1
    y[v] = -1
    for k in range(2 * n - 1):
        if y[u] + y[v] != 0:
            return k
        if k + 1 < 2 * n - 1:
            y = mat_vec(m, y)
    return None


def krylov_orthogonal(m: IntMatrix, u: int, v: int) -> bool:
    return first_krylov_mismatch(m, u, v) is None


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex pair ({u}, {v}) out of range 0..{n - 1}")
    if u == v:
        raise ValueError("pair vertices must be distinct")


# ---------------------------------------------------------------------------
# squarefree (multiplicity) structure via Yun's algorithm

FPoly = list[Fraction]  # dense Fraction coefficients, low-degree first


def _fp_from_int(p: IntPolynomial) -> FPoly:
    return [Fraction(c) for c in p.coeffs]


def _fp_trim(p: FPoly) -> FPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fp_deriv(p: FPoly) -> FPoly:
    return _fp_trim([i * c for i, c in enumerate(p)][1:])


def _fp_divmod(a: FPoly, b: FPoly) -> tuple[FPoly, FPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q: FPoly = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv_lead
        if coef:
            q[i] = coef
            for j, bc in enumerate(b):
                a[i + j] -= coef * bc
    return _fp_trim(q), _fp_trim(a)


def _fp_monic(p: FPoly) -> FPoly:
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _fp_gcd(a: FPoly, b: FPoly) -> FPoly:
    a, b = list(a), list(b)
    while b:
        _, r = _fp_divmod(a, b)
        a, b = b, r
    return _fp_monic(a)


def _fp_exact_div(a: FPoly, b: FPoly) -> FPoly:
    q, r = _fp_divmod(a, b)
    if r:
        raise ExactComputationError("inexact polynomial division in squarefree split")
    return q


def _primitive_int(p: FPoly) -> tuple[IntPolynomial, Fraction]:
    """Scale a rational polynomial to a primitive integer one (positive lead).

    Returns (primitive, scale) with primitive == p / scale.
    """
    if not p:
        raise ValueError("zero polynomial has no primitive part")
    denom_lcm = 1
    for c in p:
        denom_lcm = denom_lcm * c.denominator // int_gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p]
    content = 0
    for c in ints:
        content = int_gcd(content, abs(c))
    if ints[-1] < 0:
        content = -content
    prim = [c // content for c in ints]
    return IntPolynomial(tuple(prim)), Fraction(content, denom_lcm)


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

    def to_json(self) -> dict:
        return {
            "content": str(self.content),
            "factors": [
                {"coefficients": f.to_json(), "multiplicity": m} for f, m in self.factors
            ],
        }


def multiplicity_structure(p: IntPolynomial) -> MultiplicityStructure:
    """Yun's squarefree decomposition via repeated gcd(p, p')."""
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if p.degree == 0:
        return MultiplicityStructure((), p.coeffs[0])
    f = _fp_from_int(p)
    g = _fp_gcd(f, _fp_deriv(f))
    out: list[tuple[IntPolynomial, int]] = []
    if len(g) == 1:
        prim, _ = _primitive_int(f)
        out.append((prim, 1))
    else:
        c = _fp_exact_div(f, g)
        d = _fp_trim(
            [a - b for a, b in _zip_pad(_fp_exact_div(_fp_deriv(f), g), _fp_deriv(c))]
        )
        i = 1
        while len(c) > 1:
            a = _fp_gcd(c, d)
            if len(a) > 1:
                prim, _ = _primitive_int(a)
                out.append((prim, i))
            c = _fp_exact_div(c, a)
            d = _fp_trim([x - y for x, y in _zip_pad(_fp_exact_div(d, a), _fp_deriv(c))])
            i += 1
    # whatever rational constant is left over must combine with the factor
    # scales into the integer content of p
    lead_prod = Fraction(1)
    for prim, mult in out:
        lead_prod *= Fraction(prim.leading) ** mult
    content = Fraction(p.coeffs[-1]) / lead_prod
    if content.denominator != 1:
        raise ExactComputationError("squarefree content is not an integer")
    struct = MultiplicityStructure(tuple(out), int(content))
    if struct.reconstruct() != p:
        raise ExactComputationError("squarefree decomposition failed to reconstruct input")
    return struct


def _zip_pad(a: FPoly, b: FPoly) -> list[tuple[Fraction, Fraction]]:
    la, lb = len(a), len(b)
    size = max(la, lb)
    zero = Fraction(0)
    return [
        (a[i] if i < la else zero, b[i] if i < lb else zero) for i in range(size)
    ]
