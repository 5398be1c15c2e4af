"""Vertex partitions that respect a distinguished vertex.

`equitable_partition`, which the constructions balance on, is one colour
refinement with no search and no size limit.  The orbit computation is
exact: vertices u, w end up in the same orbit only when an explicit
automorphism mapping u to w (and fixing the distinguished vertex, when one is
given) has been found.  Candidate pairs are pruned first with equitable color
refinement, then decided by an individualization-refinement backtracking
search; images of every discovered automorphism are merged through a
union-find, so at most n-1 successful searches are needed.

Before a pair (u, w) is searched, each vertex is individualized once and
refined, and the pair is skipped unless the two refined colorings have the
same multiset of (min, max) color pairs over the edges.  Refinement assigns
canonical color ids, so an automorphism fixing the distinguished vertex and
mapping u to w carries one refined coloring onto the other and its edge
multiset with it: a skipped pair has no such automorphism, and the pruning
never changes a partition.  On an asymmetric regular graph this replaces
n(n-1)/2 failing searches by n refinements.
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
        return override
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise CospectraError(f"{MAX_N_ENV_VAR} must be an integer, got {raw!r}") from None


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Equitable (degree-aware) refinement with canonical color ids.

    Repeatedly replaces each vertex color by the canonical rank of
    (color, sorted multiset of neighbor colors) until stable.  Ranks are
    assigned by sorted signature order, so equivalent colorings on two graphs
    refine to identical ids — which is what lets two searches individualize
    "the same" color class consistently.
    """
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


def _search(g: Graph, colors1: list[int], colors2: list[int]) -> list[int] | None:
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
    for w in classes2[target]:
        c1 = list(colors1)
        c2 = list(colors2)
        c1[u] = fresh
        c2[w] = fresh
        found = _search(g, _refine(g, c1), _refine(g, c2))
        if found is not None:
            return found
    return None


def automorphism_witness(
    g: Graph, u: int, w: int, fixed: int | None = None
) -> list[int] | None:
    """An explicit automorphism of ``g`` mapping u to w (fixing ``fixed``), or None."""
    g.check_vertex(u)
    g.check_vertex(w)
    base = [0] * g.n
    if fixed is not None:
        g.check_vertex(fixed, "fixed vertex")
        base[fixed] = 1
    if u == w:
        return list(range(g.n))  # identity
    if fixed is not None and fixed in (u, w):
        return None  # a map fixing `fixed` cannot move it onto/away from u or w
    c1 = list(base)
    c2 = list(base)
    c1[u] = 2
    c2[w] = 2
    return _search(g, _refine(g, c1), _refine(g, c2))


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
    ``COSPECTRA_MAX_N`` environment variable, else 64) are rejected with a
    search limit error rather than risking an unbounded search.
    """
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


def equitable_partition(g: Graph, fixed: int) -> OrbitPartition:
    """Coarsest equitable partition of ``g`` in which ``fixed`` is a cell alone.

    One refinement from {fixed} against the rest, listed as orbits are.  Each
    cell is a union of orbits of Aut(g, fixed), and can be strictly coarser
    (Godsil, *Algebraic Combinatorics*, ch. 5).
    """
    g.check_vertex(fixed, "fixed vertex")
    colors = [int(v == fixed) for v in range(g.n)]
    return _partition(fixed, _color_classes(_refine(g, colors)).values())


def _partition(fixed: int | None, cells) -> OrbitPartition:
    """The partition into ``cells``, each sorted, listed by smallest vertex."""
    orbits = tuple(sorted(tuple(sorted(cell)) for cell in cells))
    orbit_of = [0] * sum(map(len, orbits))
    for idx, orbit in enumerate(orbits):
        for v in orbit:
            orbit_of[v] = idx
    return OrbitPartition(fixed=fixed, orbits=orbits, orbit_of=tuple(orbit_of))
