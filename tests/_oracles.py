"""Independent reference implementations used only to check the library."""

from __future__ import annotations

import itertools
from fractions import Fraction

from cospectra import ConstructedGraph, Graph, adjacency_matrix, laplacian_matrix
from cospectra.construct import ClaimViolation
from cospectra.exact import mat_vec


def cofactor_det(m: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion (fine for n <= 7)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    rest = m[1:]
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Every division is exact by the Bareiss identity, so every entry stays an
    integer; usable at the orders users run.
    """
    rows = [list(row) for row in m]
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


def char_poly_at(m: list[list[int]], x: int) -> int:
    """det(xI - m) via cofactor expansion."""
    n = len(m)
    shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
    return cofactor_det(shifted)


def is_automorphism(g: Graph, pi: list[int]) -> bool:
    if sorted(pi) != list(range(g.n)):
        return False
    return all(g.has_edge(pi[u], pi[v]) for u, v in g.edges)


def brute_force_orbits(g: Graph, fixed: int | None) -> list[list[int]]:
    """Orbits by enumerating all n! permutations; usable for n <= 7."""
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pi in itertools.permutations(range(g.n)):
        if fixed is not None and pi[fixed] != fixed:
            continue
        if is_automorphism(g, list(pi)):
            for a, b in enumerate(pi):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(vs) for vs in groups.values()), key=lambda o: o[0])


def rational_krylov_orthogonal(m: list[list[int]], u: int, v: int) -> bool:
    """Krylov orthogonality decided by building both Krylov bases explicitly
    over the rationals and checking all pairwise inner products."""
    n = len(m)

    def matvec(x):
        return [sum(Fraction(m[i][j]) * x[j] for j in range(n)) for i in range(n)]

    # spanning sets of the two Krylov spaces; orthogonality of the spans is
    # exactly the all-pairs inner product check
    def span_vectors(vec):
        out = [list(vec)]
        for _ in range(n - 1):
            vec = matvec(vec)
            out.append(list(vec))
        return out

    s = [Fraction(0)] * n
    d = [Fraction(0)] * n
    s[u] += 1
    s[v] += 1
    d[u] += 1
    d[v] -= 1
    for a in span_vectors(s):
        for b in span_vectors(d):
            if sum(x * y for x, y in zip(a, b)) != 0:
                return False
    return True


def _matvec(m: list[list[int]], x: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x) if a) for row in m]


def first_power_diagonal_mismatch_bigint(m: list[list[int]], u: int, v: int) -> int | None:
    """Smallest k < n with (m^k)_uu != (m^k)_vv, by walking e_u and e_v in
    Python integers."""
    n = len(m)
    eu = [int(i == u) for i in range(n)]
    ev = [int(i == v) for i in range(n)]
    for k in range(n):
        if eu[u] != ev[v]:
            return k
        eu, ev = _matvec(m, eu), _matvec(m, ev)
    return None


def first_krylov_mismatch_bigint(m: list[list[int]], u: int, v: int) -> int | None:
    """Smallest k <= 2n - 2 with (e_u + e_v) . m^k (e_u - e_v) != 0, by
    walking e_u - e_v in Python integers."""
    n = len(m)
    y = [int(i == u) - int(i == v) for i in range(n)]
    for k in range(2 * n - 1):
        if y[u] + y[v] != 0:
            return k
        y = _matvec(m, y)
    return None


def claim_violation_full_walk(cg: ConstructedGraph) -> ClaimViolation | None:
    """The construction claims of `check_a_claims` / `check_l_claims`,
    checked at every power k = 0..N-1 with a dense matrix-vector product."""
    if cg.kind == "A":
        return _run_claim_powers_dense(cg, adjacency_matrix(cg.graph), start=[1, -1], claims="a")
    return _run_claim_powers_dense(cg, laplacian_matrix(cg.graph), start=[1, 1], claims="l")


def _run_claim_powers_dense(
    cg: ConstructedGraph, matrix: list[list[int]], start: list[int], claims: str
) -> ClaimViolation | None:
    big_n = cg.graph.n
    vec: list[int] = [0] * big_n
    vec[cg.pair[0]] = start[0]
    vec[cg.pair[1]] = start[1]
    sign = -1 if claims == "a" else 1
    for k in range(big_n):
        if claims == "a":
            for hid in cg.h_map:
                if vec[hid] != 0:
                    return ClaimViolation(
                        "h-support", k, f"power {k} has value {vec[hid]} at H vertex {hid}"
                    )
        for b in range(cg.base_n):
            if vec[cg.g1_map[b]] != sign * vec[cg.g2_map[b]]:
                name = "copy-antisymmetry" if claims == "a" else "copy-symmetry"
                return ClaimViolation(
                    name,
                    k,
                    f"power {k}: value {vec[cg.g1_map[b]]} at copy-1 image of {b} vs "
                    f"{vec[cg.g2_map[b]]} at copy-2 image",
                )
        for idx, orbit in enumerate(cg.orbit_partition.orbits):
            for copy_map in (cg.g1_map, cg.g2_map):
                vals = {vec[copy_map[b]] for b in orbit}
                if len(vals) > 1:
                    return ClaimViolation(
                        "orbit-constancy",
                        k,
                        f"power {k}: orbit {idx} takes values {sorted(vals)} in one copy",
                    )
        if k + 1 < big_n:
            vec = mat_vec(matrix, vec)
    return None
