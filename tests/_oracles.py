"""Independent reference implementations used only to check the library."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb, isqrt

from cospectra import ConstructedGraph, Graph, adjacency_matrix, laplacian_matrix
from cospectra.construct import ClaimViolation
from cospectra.spectral import (
    COSPECTRAL_ONLY,
    EigenCluster,
    PROJECTION_TOL,
    STRONG,
    InducedEigenpair,
    SpectralDecomposition,
    SpectralNumericError,
    StrongCospectralityResult,
    eigendecompose_symmetric,
)
from cospectra.orbits import (
    OrbitPartition,
    SearchLimitError,
    _color_classes,
    _edge_color_pairs,
    _partition,
    _search_cap,
    _UnionFind,
)


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


def char_poly_bound_by_every_term(a) -> int:
    """The char-poly coefficient bound max(1, max over k of
    isqrt(ceil(C(n, k)^2 F^k / n^k)) + 1), F = ||a||_F^2, evaluated at every
    k = 1..n."""
    n = len(a)
    fro2 = sum(int(x) ** 2 for row in a for x in row)  # Python ints: no int64 overflow
    bound = 1
    for k in range(1, n + 1):
        square = -(-(comb(n, k) ** 2 * fro2**k) // n**k)  # ceiling
        bound = max(bound, isqrt(square) + 1)
    return bound


def lanczos_char_poly_mod_reference(m, primes):
    """(det(tI - m) modulo each prime, low-degree first, or None; the mask
    of unlucky primes) for the int64 array m of a symmetric matrix, by
    unnormalised Lanczos over GF(p), in lockstep over the primes: the loop
    that reduces m modulo each prime into a copy of its own, multiplies by
    each copy in int64, keeps each Krylov vector in a basis array, its
    norm's inverse in a second one, and the last two [q | phi] rows in their
    own arrays.

    Step k takes w = m q_k, alpha_k = <w, q_k> / <q_k, q_k> and
    gamma_k = <q_k, q_k> / <q_(k-1), q_(k-1)>, so that
    q_(k+1) = w - alpha_k q_k - gamma_k q_(k-1) and
    phi_(k+1) = (t - alpha_k) phi_k - gamma_k phi_(k-1).  Where q_(k+1)
    vanishes on every prime the run restarts at the first e_j outside the
    closed blocks, projected off them, with gamma = 0.  A prime on which a
    norm <q, q> vanishes is unlucky, unless q vanishes on every prime; then
    no coefficients are returned.
    """
    import numpy as np

    modulus = np.array(primes, dtype=np.int64)
    r = m % modulus[:, None, None]  # one residue copy of m per prime
    copies, n, _ = r.shape
    mod = modulus[:, None]
    basis = np.zeros((copies, n, n), dtype=np.int64)  # q_k
    inverses = np.zeros((copies, n), dtype=np.int64)  # 1 / <q_k, q_k>
    # s = [q_k | phi_k], so that one update s_(k+1) = [m q_k | t phi_k]
    # - alpha_k s_k - gamma_k s_(k-1) advances both
    s = np.zeros((copies, 2 * n + 1), dtype=np.int64)
    s[:, n] = 1
    s_prev = np.zeros_like(s)
    zero = np.zeros((copies, 1), dtype=np.int64)
    norm = np.zeros(copies, dtype=np.int64)
    for k in range(n):
        q = s[:, :n]
        if not norm.all() and not q.any():  # always at k = 0
            # restart at the first e_j whose projection r_j off the closed
            # blocks has <r_j, r_j> = 1 - sum_i q_i[j]^2 / <q_i, q_i> nonzero
            # on some prime (one has unless p divides n - k, the trace)
            c = basis[:, :k] * inverses[:, :k, None] % mod[:, :, None]  # q_i[j] / <q_i, q_i>
            rest = (1 - np.einsum("pki,pki->pi", c, basis[:, :k])) % mod
            j = rest.any(axis=0).argmax()
            q[:] = -np.einsum("pk,pki->pi", c[:, :, j], basis[:, :k])
            q[:, j] += 1
            q %= mod
            norm, inverse_prev = rest[:, j], 0
        if not norm.all():
            return None, norm == 0
        inverse = np.array([pow(x, -1, p) for x, p in zip(norm.tolist(), primes)])
        basis[:, k], inverses[:, k] = q, inverse
        w = np.einsum("pij,pj->pi", r, q) % mod
        alpha = np.einsum("pi,pi->p", w, q) % modulus * inverse % modulus
        gamma = norm * inverse_prev % modulus
        nxt = np.concatenate((w, zero, s[:, n:-1]), axis=1)
        nxt -= alpha[:, None] * s
        nxt -= gamma[:, None] * s_prev
        nxt %= mod
        s, s_prev = nxt, s
        norm, inverse_prev = np.einsum("pi,pi->p", s[:, :n], s[:, :n]) % modulus, inverse
    return s[:, n:], np.zeros(copies, dtype=bool)


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


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Equitable refinement with canonical color ids, to a fixed point."""
    n = g.n
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _search(g: Graph, colors1: list[int], colors2: list[int]) -> list[int] | None:
    """A color-respecting automorphism carrying refined colors1 onto colors2, or None."""
    classes1 = _color_classes(colors1)
    classes2 = _color_classes(colors2)
    if sorted(classes1) != sorted(classes2):
        return None
    if any(len(classes1[c]) != len(classes2[c]) for c in classes1):
        return None
    target = None
    for c in sorted(classes1):
        size = len(classes1[c])
        if size > 1 and (target is None or size > len(classes1[target])):
            target = c
    if target is None:
        # discrete: colors define the only candidate bijection; verify edges
        pi = [0] * g.n
        for c, members in classes1.items():
            pi[members[0]] = classes2[c][0]
        for u, v in g.edges:
            if not g.has_edge(pi[u], pi[v]):
                return None
        return pi
    u = classes1[target][0]
    fresh = g.n  # strictly larger than any refined color id
    for w in classes2[target]:
        c1 = list(colors1)
        c2 = list(colors2)
        c1[u] = fresh
        c2[w] = fresh
        found = _search(g, _refine(g, c1), _refine(g, c2))
        if found is not None:
            return found
    return None


def automorphism_orbits_per_vertex(
    g: Graph, fixed: int | None = None, max_n: int | None = None
) -> OrbitPartition:
    """Orbits of Aut(g, fixed) by refining each vertex individualized to a
    fixed point and searching every same-cell pair whose refined colorings
    have equal edge color pairs, smallest pairs first."""
    cap = _search_cap(max_n)
    if g.n > cap:
        raise SearchLimitError(
            f"graph has {g.n} vertices, above the orbit search limit {cap}"
        )
    if fixed is not None:
        g.check_vertex(fixed, "fixed vertex")
    base = [0] * g.n
    if fixed is not None:
        base[fixed] = 1
    stable = _refine(g, list(base))
    # vertex -> (refined coloring with it individualized, its edge color pairs)
    individualized: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}

    def refined_with(v: int) -> tuple[list[int], list[tuple[int, int]]]:
        if v not in individualized:
            colors = list(base)
            colors[v] = 2
            colors = _refine(g, colors)
            individualized[v] = (colors, _edge_color_pairs(g, colors))
        return individualized[v]

    uf = _UnionFind(g.n)
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if stable[u] != stable[w] or uf.find(u) == uf.find(w):
                continue
            if fixed is not None and fixed in (u, w):
                continue
            c1, pairs1 = refined_with(u)
            c2, pairs2 = refined_with(w)
            if pairs1 != pairs2:
                continue
            pi = _search(g, c1, c2)
            if pi is not None:
                for x, y in enumerate(pi):
                    uf.union(x, y)
    return _partition(fixed, _color_classes([uf.find(v) for v in range(g.n)]).values())


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


def power_diagonals_bigint(m: list[list[int]], u: int, v: int) -> tuple[list[int], list[int]]:
    """((m^k)_uu for k < n) and ((m^k)_vv for k < n), by walking e_u and e_v
    in Python integers."""
    n = len(m)
    eu = [int(i == u) for i in range(n)]
    ev = [int(i == v) for i in range(n)]
    d_u, d_v = [], []
    for _ in range(n):
        d_u.append(eu[u])
        d_v.append(ev[v])
        eu, ev = _matvec(m, eu), _matvec(m, ev)
    return d_u, d_v


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
            vec = _matvec(matrix, vec)
    return None


# ---------------------------------------------------------------------------
# spectral criteria read off the n x n eigenprojectors


def projector(cl: EigenCluster):
    """The n x n orthogonal projector B B^T onto a cluster's eigenspace,
    symmetrized."""
    p = cl.basis @ cl.basis.T
    return (p + p.T) / 2.0


def projection_diagonal_equal_by_projectors(
    d: SpectralDecomposition, u: int, v: int, tol: float
) -> bool:
    """True when every eigenprojector, formed as an n x n matrix, has equal
    (u,u) and (v,v) entries within tol."""
    return all(abs(p[u, u] - p[v, v]) <= tol for p in map(projector, d.clusters))


def strong_by_projectors(
    dec: SpectralDecomposition, u: int, v: int, tol: float = 1e-8
) -> StrongCospectralityResult:
    """The per-eigenspace sign classification, from the norms of E e_u -+ E e_v
    with every eigenprojector E formed as an n x n matrix."""
    import numpy as np

    signs = []
    verdict = STRONG
    for cl in dec.clusters:
        pu, pv = projector(cl)[:, [u, v]].T
        diff = float(np.linalg.norm(pu - pv))
        summ = float(np.linalg.norm(pu + pv))
        if diff <= tol and summ <= tol:
            signs.append((cl.value, 0))
        elif diff <= tol:
            signs.append((cl.value, 1))
        elif summ <= tol:
            signs.append((cl.value, -1))
        else:
            signs.append((cl.value, None))
            verdict = COSPECTRAL_ONLY
    return StrongCospectralityResult(verdict=verdict, signs=tuple(signs))


def groups_certified_at_midpoints(struct, vals) -> list[int]:
    """Group sizes of ascending ``vals`` certified at the float midpoints of
    the D-1 widest gaps and at vals[0] - 1 and vals[-1] + 1, with each
    factor's sign evaluated at those points as Fractions; [] when the
    certificate fails."""
    d = sum(f.degree for f, _ in struct.factors)
    gaps = sorted(range(len(vals) - 1), key=lambda i: (-(vals[i + 1] - vals[i]), i))
    cuts = sorted(gaps[: d - 1])
    points = [vals[0] - 1.0, *((vals[c] + vals[c + 1]) / 2.0 for c in cuts), vals[-1] + 1.0]
    bounds = [0, *(c + 1 for c in cuts), len(vals)]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    expected = [0] * d
    for f, mult in struct.factors:
        signs = [f.evaluate(Fraction(t)) for t in points]
        if 0 in signs:
            return []
        changes = [i for i in range(d) if (signs[i] > 0) != (signs[i + 1] > 0)]
        if len(changes) != f.degree:
            return []
        for i in changes:
            expected[i] += mult
    return sizes if expected == sizes else []


# ---------------------------------------------------------------------------
# induced eigenpairs through the base graph


def residual_tol(fro: float) -> float:
    """The residual threshold of a matrix with Frobenius norm ``fro``:
    1e-8 of it, and at least 1e-8."""
    return 1e-8 * max(1.0, fro)


def cluster_at(dec: SpectralDecomposition, x: float) -> EigenCluster:
    """The cluster of ``dec`` whose certified interval holds x, when it lies
    within the residual tolerance of x; no guessing."""
    import numpy as np

    tol = residual_tol(float(np.linalg.norm(dec.matrix)))
    i = bisect_left(dec.separators, x) - 1
    if 0 <= i < len(dec.clusters) and abs(dec.clusters[i].value - x) <= tol:
        return dec.clusters[i]
    raise SpectralNumericError(
        f"eigenvalue {x!r} is not within {tol:.3e} of the cluster whose "
        "certified interval holds it; cannot assign an exact multiplicity"
    )


def base_graph(cg: ConstructedGraph) -> Graph:
    """The base G recovered from copy 1, whose ids are the base ids themselves."""
    members = set(cg.g1_map)
    return Graph.from_edges(
        cg.base_n, [e for e in cg.graph.edges if e[0] in members and e[1] in members]
    )


def induced_eigenpairs_by_base_lift(cg: ConstructedGraph) -> tuple[InducedEigenpair, ...]:
    """The induced eigenpairs from a second graph: every eigenspace of the
    base graph whose projector, formed as a b x b matrix, moves e_{v_c}, its
    projection w lifted by hand to (+w, -w, 0) / sqrt 2 and residual-checked
    against the constructed graph's adjacency matrix, and the multiplicity
    of its eigenvalue upstairs looked up by value."""
    import numpy as np

    base = base_graph(cg)
    big = cg.graph
    base_dec = eigendecompose_symmetric(adjacency_matrix(base))
    big_dec = eigendecompose_symmetric(adjacency_matrix(big))
    res_tol = residual_tol(float(np.linalg.norm(big_dec.matrix)))
    e_vc = np.zeros(base.n)
    e_vc[cg.orbit_partition.fixed] = 1.0
    out: list[InducedEigenpair] = []
    for cl in base_dec.clusters:
        proj = projector(cl) @ e_vc
        coeff = float(np.linalg.norm(proj))
        if coeff <= PROJECTION_TOL:
            continue
        w = proj / coeff
        lifted = np.zeros(big.n)
        for b in range(base.n):
            lifted[cg.g1_map[b]] = w[b]
            lifted[cg.g2_map[b]] = -w[b]
        lifted /= np.sqrt(2.0)
        residual = float(np.linalg.norm(big_dec.matrix @ lifted - cl.value * lifted))
        if residual > res_tol:
            raise SpectralNumericError(
                f"lifted vector residual {residual:.3e} exceeds {res_tol:.3e} "
                f"at eigenvalue {cl.value!r}"
            )
        mult = cluster_at(big_dec, cl.value).multiplicity
        out.append(
            InducedEigenpair(
                eigenvalue=cl.value,
                base_coefficient=coeff,
                vector=lifted,
                multiplicity_in_big=mult,
            )
        )
    return tuple(out)
