"""Graph helpers the benchmark uses to make inputs and to know their answers.

Nothing here imports cospectra: the known answers must not come from the
program under test.  Graphs are ``(n, edges)`` with edges as sorted
``(u, v)`` pairs, ``u < v``.
"""

from __future__ import annotations

import random
from collections import deque

Edges = list[tuple[int, int]]


def norm(edges) -> Edges:
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def edge_text(n: int, edges) -> str:
    """The edge-list format cospectra reads and prints (sorted edges)."""
    edges = norm(edges)
    return "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


def parse_edge_text(text: str) -> tuple[int, Edges]:
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = norm((int(a), int(b)) for a, b in rows[1:])
    if len(edges) != m or len(rows) != m + 1:
        raise ValueError("edge list does not match its header")
    return n, edges


def neighbours(n: int, edges) -> list[list[int]]:
    nb: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nb[u].append(v)
        nb[v].append(u)
    return nb


def walk_cospectral(n: int, edges, u: int, v: int, laplacian: bool) -> bool:
    """Exact closed-walk test: (M^k)_uu == (M^k)_vv for k < n, M = A or L = D - A.

    Both diagonals are moment sequences of spectral measures with at most n
    atoms, so n powers decide equality of all of them (and so cospectrality).
    """
    nb = neighbours(n, edges)
    deg = [len(a) for a in nb]

    def step(x: list[int]) -> list[int]:
        if laplacian:
            return [deg[i] * x[i] - sum(x[j] for j in nb[i]) for i in range(n)]
        return [sum(x[j] for j in nb[i]) for i in range(n)]

    xu = [0] * n
    xv = [0] * n
    xu[u] = 1
    xv[v] = 1
    for _ in range(n):
        if xu[u] != xv[v]:
            return False
        xu, xv = step(xu), step(xv)
    return True


def distances(n: int, edges, source: int) -> list[int]:
    nb = neighbours(n, edges)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in nb[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def refine(nb: list[list[int]], colours: list[int]) -> list[int]:
    """Coarsest equitable refinement with canonical colour ids (sorted signatures)."""
    n = len(nb)
    while True:
        sigs = [(colours[v], tuple(sorted(colours[w] for w in nb[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colours:
            return colours
        colours = new


def cells(n: int, edges, fixed: int) -> list[list[int]]:
    """Cells of the equitable partition refined from ``{fixed}`` vs the rest.

    Every cell is a union of orbits of Aut(G, fixed), and walk vectors from
    ``fixed`` are constant on cells, which is all the constructions need.
    """
    colours = refine(neighbours(n, edges), [int(v == fixed) for v in range(n)])
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        groups.setdefault(c, []).append(v)
    return sorted(groups.values())


def exact_orbits(n: int, edges) -> list[list[int]] | None:
    """Orbits of the full automorphism group, or None when undecided.

    Decided when individualising any one vertex refines to a discrete
    colouring: each (u, w) then has exactly one candidate map, which is an
    automorphism or not.
    """
    nb = neighbours(n, edges)
    edge_set = set(norm(edges))
    inverse = []
    for u in range(n):
        col = refine(nb, [int(v == u) for v in range(n)])
        if len(set(col)) != n:
            return None
        inv = [0] * n
        for v, c in enumerate(col):
            inv[c] = v
        inverse.append((col, inv))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        col_u = inverse[u][0]
        for w in range(u + 1, n):
            if find(u) == find(w):
                continue
            inv_w = inverse[w][1]
            pi = [inv_w[col_u[x]] for x in range(n)]
            if all((min(pi[a], pi[b]), max(pi[a], pi[b])) in edge_set for a, b in edge_set):
                parent[find(w)] = find(u)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# seeded graph families


def random_connected(rng: random.Random, n: int, m: int) -> Edges:
    """A random recursive tree plus random edges, exactly m edges in all."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, max(0, m - len(edges))))
    return norm(edges)


def with_twins(rng: random.Random, n: int, twins: int, density: float = 0.3) -> Edges:
    """Connected graph on n vertices, the last ``twins`` of which copy the
    neighbourhood of an earlier vertex (false twins), so that Aut(G) and the
    equitable cells are not trivial.  The core has a fixed edge count, which
    keeps the cost of one order from varying much between seeds."""
    core = n - twins
    edges = random_connected(rng, core, round(density * core * (core - 1) / 2))
    nb = neighbours(core, edges)
    for t in range(core, n):
        src = rng.randrange(core)
        edges += [(w, t) for w in nb[src]]
    return norm(edges)


def random_cubic(rng: random.Random, n: int) -> Edges:
    """Uniform simple 3-regular graph by the pairing model with rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(pairs) == 3 * n // 2 and -1 not in distances(n, pairs, 0):
            return sorted(pairs)


def relabel(rng: random.Random, n: int, edges) -> tuple[list[int], Edges]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, norm((perm[u], perm[v]) for u, v in edges)


def cycle(n: int) -> Edges:
    return norm((i, (i + 1) % n) for i in range(n))


def hypercube(d: int) -> Edges:
    return norm((x, x ^ (1 << i)) for x in range(1 << d) for i in range(d))


def circulant(n: int, jumps) -> Edges:
    return norm((i, (i + j) % n) for i in range(n) for j in jumps)


def petersen() -> Edges:
    return norm([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def complete_bipartite(a: int, b: int) -> Edges:
    return [(i, a + j) for i in range(a) for j in range(b)]


def star(k: int) -> Edges:
    return [(0, i) for i in range(1, k + 1)]


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]
