"""Vertex partitions that respect a distinguished vertex.

`equitable_partition`, which the constructions balance on, is one colour
refinement with no search and no size limit; it never uses the distance
profiles below, since constructions balance on the coarsest equitable
partition.  The orbit computation is exact: vertices u, w end up in the same
orbit only when an explicit automorphism mapping u to w (and fixing the
distinguished vertex, when one is given) has been found.  Candidate pairs
are pruned with color refinement, then decided by an
individualization-refinement backtracking search
(McKay and Piperno, *Practical graph isomorphism, II*, J. Symb. Comput. 60,
2014); images of every discovered automorphism are merged through a
union-find, so at most n-1 successful searches are needed.

When refinement from the distinguished vertex leaves a cell of two or more
vertices, as on any regular graph, where it splits nothing, the search does
not start from that refinement alone.  Each vertex's color is extended by its
distance profile, the size of its ball of radius 1, 2, ... until no ball
grows, and the result is refined again.  An automorphism fixing the
distinguished vertex preserves distances, hence profiles, so no orbit spans
two of these base colors.  The balls are int bitsets, each radius one OR
over the neighbors' balls: O(diameter * m) in all.  On 82-94 % of random
cubic graphs of orders 20 to 40 the profiles alone tell every vertex apart,
and no vertex is individualized.

Otherwise each non-singleton base cell is walked once, in vertex order.  A
vertex already merged with a smaller one is skipped; each other vertex u is
compared with every later w of its cell not yet in its orbit.  Each vertex
is individualized from the base and refined at most once, and the result is
kept.  Refinement is equivariant and its color ids canonical, so an
automorphism mapping u to w carries u's coloring onto w's, and with it the
multiset of (min, max) color pairs over the edges; a pair whose multisets
differ is not searched.  A failed search is final: no automorphism maps u
onto w, so none maps any vertex of u's orbit onto w.  No step skips a pair
that an automorphism joins, so none changes a partition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graph import CospectraError, Graph

DEFAULT_MAX_N = 64
MAX_N_ENV_VAR = "COSPECTRA_MAX_N"


class SearchLimitError(CospectraError):
    """Raised when a graph exceeds the configured orbit search limit."""


def _search_cap(override: int | None) -> int:
    if override is not None:
        if override < 0:
            raise ValueError(f"max_n must be nonnegative, got {override}")
        return override
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise CospectraError(f"{MAX_N_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise CospectraError(f"{MAX_N_ENV_VAR} must be nonnegative, got {raw!r}")
    return cap


def _check_search_order(n: int, max_n: int | None = None) -> None:
    """Refuse an order above the search limit ``_search_cap(max_n)``."""
    cap = _search_cap(max_n)
    if n > cap:
        raise SearchLimitError(f"graph has {n} vertices, above the orbit search limit {cap}")


def _neighbor_lists(g: Graph) -> list[tuple[int, ...]]:
    return [g.neighbors(v) for v in range(g.n)]


def _base_colors(adj: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """``colors`` split by distance profiles and refined: where the searches start.

    A vertex's profile is its color followed by |ball of radius r| for
    r = 1, 2, ... until no ball grows.  The balls are int bitsets, each
    radius one OR over the neighbors' balls, so the profiles cost
    O(diameter * m).  An automorphism preserving ``colors`` preserves
    distances, hence profiles: an orbit never spans two base colors.
    """
    balls = [1 << v for v in range(len(adj))]
    sizes = []
    while True:
        grown = []
        for ball, nbrs in zip(balls, adj):
            for u in nbrs:
                ball |= balls[u]
            grown.append(ball)
        if grown == balls:
            break
        balls = grown
        sizes.append([ball.bit_count() for ball in balls])
    profiles = list(zip(colors, *sizes))
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    return _refine(adj, [rank[p] for p in profiles])


def _refine(adj: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Equitable (degree-aware) refinement with canonical color ids: rounds
    until one changes nothing.

    In a round, a vertex's signature is (color, sorted multiset of neighbor
    colors); its new color is the signature's rank among the distinct ones.
    Ranks are assigned by sorted signature order, so equivalent colorings on
    two graphs refine to identical ids — which is what lets two searches
    individualize "the same" color class consistently.
    """
    while True:
        get = colors.__getitem__
        sigs = [(c, tuple(sorted(map(get, nbrs)))) for c, nbrs in zip(colors, adj)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _color_classes(colors: list[int]) -> dict[int, list[int]]:
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return classes


def _edge_color_pairs(g: Graph, colors: list[int]) -> list[tuple[int, int]]:
    """Sorted multiset of (min, max) color pairs over the edges of g."""
    return sorted(
        (colors[a], colors[b]) if colors[a] <= colors[b] else (colors[b], colors[a])
        for a, b in g.edges
    )


def _search(
    g: Graph, adj: list[tuple[int, ...]], colors1: list[int], colors2: list[int]
) -> list[int] | None:
    """Find a color-respecting automorphism, or None.

    Returns a permutation pi with colors1[v] == colors2[pi(v)] for all v and
    pi an automorphism of g.  Both colorings must already be refined; the
    branch cell is the first largest non-singleton class, the domain vertex is
    its smallest member, and every range candidate is tried.
    """
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
    c1 = list(colors1)
    c1[u] = fresh
    refined1 = _refine(adj, c1)  # the domain side does not depend on w
    for w in classes2[target]:
        c2 = list(colors2)
        c2[w] = fresh
        found = _search(g, adj, refined1, _refine(adj, c2))
        if found is not None:
            return found
    return None


def automorphism_witness(
    g: Graph, u: int, w: int, fixed: int | None = None
) -> list[int] | None:
    """An explicit automorphism of ``g`` mapping u to w (fixing ``fixed``), or None.

    No command calls it yet.  It stays public because it is tested against
    brute force, and it is the evidence that a certified pair is not merely
    similar: the permutation that a ``verify --similar`` would print."""
    g.check_vertex(u)
    g.check_vertex(w)
    if fixed is not None:
        g.check_vertex(fixed, "fixed vertex")
    if u == w:
        return list(range(g.n))  # identity
    if fixed is not None and fixed in (u, w):
        return None  # a map fixing `fixed` cannot move it onto/away from u or w
    adj = _neighbor_lists(g)
    base = _base_colors(adj, [int(v == fixed) for v in range(g.n)])
    c1 = list(base)
    c2 = list(base)
    c1[u] = c2[w] = g.n  # a color no base color equals
    return _search(g, adj, _refine(adj, c1), _refine(adj, c2))


def _unite(
    g: Graph, adj: list[tuple[int, ...]], uf: _UnionFind, c1: list[int], c2: list[int]
) -> None:
    """Search for an automorphism carrying refined ``c1`` onto ``c2`` and
    merge its cycles, if one is found."""
    pi = _search(g, adj, c1, c2)
    if pi is not None:
        for x, y in enumerate(pi):
            uf.union(x, y)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of Aut(g, fixed) — or of the full Aut(g) when fixed is None — or
    the cells of `equitable_partition`, the "orbits" of a construction.

    Orbits are sorted internally and listed in order of their minimum element,
    so equal inputs always produce identical partitions.
    """

    fixed: int | None
    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    def orbit_index(self, v: int) -> int:
        return self.orbit_of[v]

    def to_json(self) -> dict:
        return {
            "fixed": self.fixed,
            "orbits": [list(o) for o in self.orbits],
        }


def same_orbit(p: OrbitPartition, u: int, v: int) -> bool:
    if not (0 <= u < len(p.orbit_of) and 0 <= v < len(p.orbit_of)):
        raise ValueError(f"vertex pair ({u}, {v}) out of range")
    return p.orbit_of[u] == p.orbit_of[v]


def automorphism_orbits(
    g: Graph, fixed: int | None = None, max_n: int | None = None
) -> OrbitPartition:
    """Orbit partition of the vertices under automorphisms fixing ``fixed``.

    ``fixed=None`` computes orbits of the full automorphism group.  Graphs
    larger than the search limit (``max_n`` argument, else the
    ``COSPECTRA_MAX_N`` environment variable, else 64; a negative limit is
    refused) are rejected with a search limit error rather than risking an
    unbounded search.
    """
    _check_search_order(g.n, max_n)
    if fixed is not None:
        g.check_vertex(fixed, "fixed vertex")
    adj = _neighbor_lists(g)
    stable = _refine(adj, [int(v == fixed) for v in range(g.n)])
    if len(set(stable)) == g.n:
        return _partition(fixed, ([v] for v in range(g.n)))  # refinement alone decides
    base = _base_colors(adj, stable)
    refined: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}

    def individualized(v: int) -> tuple[list[int], list[tuple[int, int]]]:
        """v's coloring, individualized from the base and refined, and its
        edge color pairs: computed at most once."""
        if v not in refined:
            colors = _refine(adj, base[:v] + [g.n] + base[v + 1 :])
            refined[v] = colors, _edge_color_pairs(g, colors)
        return refined[v]

    uf = _UnionFind(g.n)
    # `fixed` is a singleton cell; an orbit never spans two cells
    for cell in _color_classes(base).values():
        for i, u in enumerate(cell):
            if uf.find(u) != u:
                continue  # merged with a smaller vertex, which stands for it
            for w in cell[i + 1 :]:
                if uf.find(w) != uf.find(u):
                    (c1, pairs1), (c2, pairs2) = individualized(u), individualized(w)
                    if pairs1 == pairs2:
                        _unite(g, adj, uf, c1, c2)
    return _partition(fixed, _color_classes([uf.find(v) for v in range(g.n)]).values())


def equitable_partition(g: Graph, fixed: int) -> OrbitPartition:
    """Coarsest equitable partition of ``g`` in which ``fixed`` is a cell alone.

    One refinement from {fixed} against the rest, listed as orbits are.  Each
    cell is a union of orbits of Aut(g, fixed), and can be strictly coarser
    (Godsil, *Algebraic Combinatorics*, ch. 5).
    """
    g.check_vertex(fixed, "fixed vertex")
    colors = [int(v == fixed) for v in range(g.n)]
    return _partition(fixed, _color_classes(_refine(_neighbor_lists(g), colors)).values())


def _partition(fixed: int | None, cells) -> OrbitPartition:
    """The partition into ``cells``, each sorted, listed by smallest vertex."""
    orbits = tuple(sorted(tuple(sorted(cell)) for cell in cells))
    orbit_of = [0] * sum(map(len, orbits))
    for idx, orbit in enumerate(orbits):
        for v in orbit:
            orbit_of[v] = idx
    return OrbitPartition(fixed=fixed, orbits=orbits, orbit_of=tuple(orbit_of))
