"""Vertex partitions that respect a distinguished vertex.

`equitable_partition`, which the constructions balance on, is one colour
refinement with no search and no size limit; it never uses the distance
profiles below, since constructions balance on the coarsest equitable
partition.  The orbit computation is exact: vertices u, w end up in the same
orbit only when an explicit automorphism mapping u to w (and fixing the
distinguished vertex, when one is given) has been found.  Candidate pairs are pruned with color refinement,
then decided by an individualization-refinement backtracking search
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
and no round of the lockstep below runs.

Every vertex of a non-singleton base cell is individualized, and all these
colorings are refined in lockstep, one round at a time.  After each round a
group of vertices that no round has told apart yet is split by the round's
key: the sorted distinct signatures the round ranks, and whether the round
changed the coloring.  Rounds are equivariant and color ids canonical, so an
automorphism fixing the distinguished vertex and mapping u to w carries u's
round-r coloring onto w's and their keys are equal at every round: a vertex
left alone in its group is a singleton orbit and stops refining, as does one
already merged with a smaller member of its group.  When a group's colorings
stop changing, each is the refinement with its vertex individualized, and a
pair in it is searched unless the two colorings have different multisets of
(min, max) color pairs over the edges, which an automorphism also carries
along.  No step prunes a pair that an automorphism joins, so none changes a
partition.  From the plain base, a vertex of an asymmetric cubic graph is
alone after about four rounds, where refining it to a fixed point takes
seven or more.

Before the lockstep, the smallest vertex of each base cell is refined in
step with the other members in turn and searched against each, until a
round tells the two apart or a search fails.  On a vertex-transitive graph
the automorphisms found this way merge the whole cell, so the lockstep
refines nothing there; on an asymmetric one the first pair comes apart in
a few rounds.
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


def _round(adj: list[tuple[int, ...]], colors: list[int]) -> tuple[list, list[int]]:
    """One refinement round: the sorted distinct signatures and the new colors.

    A vertex's signature is (color, sorted multiset of neighbor colors); its
    new color is the signature's rank among the distinct ones.  Ranks are
    assigned by sorted signature order, so equivalent colorings on two graphs
    refine to identical ids — which is what lets two searches individualize
    "the same" color class consistently.
    """
    get = colors.__getitem__
    sigs = [(c, tuple(sorted(map(get, nbrs)))) for c, nbrs in zip(colors, adj)]
    order = sorted(set(sigs))
    rank = {s: i for i, s in enumerate(order)}
    return order, [rank[s] for s in sigs]


def _refine(adj: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Equitable (degree-aware) refinement with canonical color ids: rounds
    until one changes nothing."""
    while True:
        new = _round(adj, colors)[1]
        if new == colors:
            return colors
        colors = new


def _round_key(order: list, changed: bool) -> tuple:
    """What the lockstep search splits a group by after a round: equal for
    two individualized vertices that an automorphism maps one onto the other."""
    return tuple(order), changed


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
    for w in classes2[target]:
        c1 = list(colors1)
        c2 = list(colors2)
        c1[u] = fresh
        c2[w] = fresh
        found = _search(g, adj, _refine(adj, c1), _refine(adj, c2))
        if found is not None:
            return found
    return None


def automorphism_witness(
    g: Graph, u: int, w: int, fixed: int | None = None
) -> list[int] | None:
    """An explicit automorphism of ``g`` mapping u to w (fixing ``fixed``), or None."""
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


def _settle_pair(
    adj: list[tuple[int, ...]], c1: list[int], c2: list[int]
) -> tuple[list[int], list[int]] | None:
    """Refine two colorings in step: their fixed points, or None as soon as a
    round's keys tell them apart."""
    while True:
        (order1, new1), (order2, new2) = _round(adj, c1), _round(adj, c2)
        if _round_key(order1, new1 != c1) != _round_key(order2, new2 != c2):
            return None
        if new1 == c1 and new2 == c2:
            return c1, c2
        c1, c2 = new1, new2


def _unite(
    g: Graph, adj: list[tuple[int, ...]], uf: _UnionFind, c1: list[int], c2: list[int]
) -> bool:
    """Search for an automorphism carrying refined ``c1`` onto ``c2`` and
    merge its cycles; whether one was found."""
    pi = _search(g, adj, c1, c2)
    if pi is None:
        return False
    for x, y in enumerate(pi):
        uf.union(x, y)
    return True


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
    cap = _search_cap(max_n)
    if g.n > cap:
        raise SearchLimitError(
            f"graph has {g.n} vertices, above the orbit search limit {cap}"
        )
    if fixed is not None:
        g.check_vertex(fixed, "fixed vertex")
    adj = _neighbor_lists(g)
    stable = _refine(adj, [int(v == fixed) for v in range(g.n)])
    if len(set(stable)) == g.n:
        return _partition(fixed, ([v] for v in range(g.n)))  # refinement alone decides
    base = _base_colors(adj, stable)
    # one group per non-singleton cell; `fixed` is a singleton cell
    groups = [c for c in _color_classes(base).values() if len(c) > 1]
    colors = {v: base[:v] + [g.n] + base[v + 1 :] for group in groups for v in group}
    uf = _UnionFind(g.n)
    # a cell's smallest vertex against the others: merges a transitive cell
    for group in groups:
        u = group[0]
        for w in group[1:]:
            if uf.find(u) == uf.find(w):
                continue
            settled = _settle_pair(adj, colors[u], colors[w])
            if settled is None:
                break
            c1, c2 = settled
            if _edge_color_pairs(g, c1) != _edge_color_pairs(g, c2):
                break
            if not _unite(g, adj, uf, c1, c2):
                break
    # the lockstep: every group advances one round, then splits by its keys
    while groups:
        refining = []
        for group in groups:
            split: dict[tuple, list[int]] = {}
            moved: set[int] = set()
            roots: set[int] = set()
            for v in group:
                root = uf.find(v)
                if root in roots:
                    continue  # merged with a smaller member, which stands for it
                roots.add(root)
                order, new = _round(adj, colors[v])
                if new != colors[v]:
                    colors[v] = new
                    moved.add(v)
                split.setdefault(_round_key(order, v in moved), []).append(v)
            for members in split.values():
                if len(members) == 1:
                    continue  # alone: its orbit has no vertex not merged with it
                if not moved.isdisjoint(members):
                    refining.append(members)
                    continue
                # settled: colors[v] is the refinement with v individualized
                pairs = {v: _edge_color_pairs(g, colors[v]) for v in members}
                for i, u in enumerate(members):
                    for w in members[i + 1 :]:
                        if uf.find(u) != uf.find(w) and pairs[u] == pairs[w]:
                            _unite(g, adj, uf, colors[u], colors[w])
        groups = refining
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
