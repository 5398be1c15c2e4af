"""Orbit-respecting gluing constructions that certify cospectral pairs.

Two builders share a layout convention: copy 1 of the base graph G occupies
ids ``0..n-1`` (identity map), copy 2 occupies ``n..2n-1``, and any glue block
H occupies ``2n..2n+r-1``.  The certified pair is always
``(v_c, n + v_c)`` — the two images of the distinguished base vertex.

An "orbit" of a construction is a cell of `equitable_partition(G, v_c)`; the
cell indicators span a subspace invariant under A and L, all the rules need.

* Adjacency construction: both copies are attached to H so that every
  H-vertex has the same number of neighbors inside corresponding orbits
  in either copy.  The pair is adjacency-cospectral.
* Laplacian construction: no H; copy-1 vertices are joined directly to copy-2
  vertices of the *same* orbit.  The pair is Laplacian-cospectral.
* Orbit cross-connection: an adjacency construction can additionally be
  modified by joining the two images of one orbit along a perfect matching,
  preserving adjacency cospectrality.

Each builder validates its orbit-counting precondition exactly and rejects
invalid inputs; `check_a_claims` / `check_l_claims` re-verify, power by power,
the exact vector identities that make the constructions work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from .graph import CospectraError, Graph, _check_order
from .orbits import OrbitPartition, equitable_partition

A_KIND = "A"
L_KIND = "L"


class InvalidConstructionError(CospectraError):
    """Input rejected by a construction validator.

    For attachment problems the exception carries the full validation report
    as ``.validation``.
    """

    def __init__(self, message: str, validation: "AttachmentValidation | None" = None):
        super().__init__(message)
        self.validation = validation


@dataclass(frozen=True)
class AttachmentEdge:
    """One glue edge: H-vertex ``h_vertex`` to ``g_vertex`` in copy ``side`` (1 or 2)."""

    side: int
    g_vertex: int
    h_vertex: int


@dataclass(frozen=True)
class CrossEdge:
    """One Laplacian-construction edge: copy-1 ``g1_vertex`` to copy-2 ``g2_vertex``
    (both given as base-graph ids)."""

    g1_vertex: int
    g2_vertex: int


@dataclass(frozen=True)
class AttachmentValidation:
    """Per-(H-vertex, orbit) attachment counts for the two copies."""

    valid: bool
    entries: tuple[tuple[int, int, int, int], ...]  # (h_vertex, orbit_index, count1, count2)
    problems: tuple[str, ...]
    orbit_partition: OrbitPartition


@dataclass(frozen=True)
class ConstructedGraph:
    """A built graph plus the provenance needed to verify and re-derive it."""

    graph: Graph
    kind: str  # A_KIND or L_KIND
    g1_map: tuple[int, ...]  # base vertex -> id of its copy-1 image
    g2_map: tuple[int, ...]
    h_map: tuple[int, ...]  # empty for the Laplacian construction
    pair: tuple[int, int]
    orbit_partition: OrbitPartition
    cross_connected: bool = False  # True once connect_orbits has been applied

    @property
    def base_n(self) -> int:
        return len(self.g1_map)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "pair": list(self.pair),
            "g1_map": list(self.g1_map),
            "g2_map": list(self.g2_map),
            "h_map": list(self.h_map),
            "orbits": self.orbit_partition.to_json(),
            "cross_connected": self.cross_connected,
        }

    def dot_blocks(self) -> dict[str, tuple[int, ...]]:
        blocks = {"g1": self.g1_map, "g2": self.g2_map}
        if self.h_map:
            blocks["h"] = self.h_map
        return blocks


def _validate_attachments(
    g: Graph,
    h: Graph,
    attachments: list[AttachmentEdge] | tuple[AttachmentEdge, ...],
    partition: OrbitPartition,
) -> AttachmentValidation:
    """The orbit-counting rule of ``build_a_cospectral`` on ``partition``: an
    out-of-range id raises ValueError, a violation comes back in the report."""
    problems: list[str] = []
    seen: set[tuple[int, int, int]] = set()
    counts: dict[tuple[int, int], list[int]] = {}
    for att in attachments:
        if att.side not in (1, 2):
            raise ValueError(f"attachment side must be 1 or 2, got {att.side}")
        g.check_vertex(att.g_vertex, "attachment G-vertex")
        h.check_vertex(att.h_vertex, "attachment H-vertex")
        key = (att.side, att.g_vertex, att.h_vertex)
        if key in seen:
            problems.append(
                f"duplicate attachment (side {att.side}, g {att.g_vertex}, h {att.h_vertex})"
            )
            continue
        seen.add(key)
        orbit = partition.orbit_index(att.g_vertex)
        slot = counts.setdefault((att.h_vertex, orbit), [0, 0])
        slot[att.side - 1] += 1
    entries = []
    for (hv, orbit), (c1, c2) in sorted(counts.items()):
        entries.append((hv, orbit, c1, c2))
        if c1 != c2:
            problems.append(
                f"h-vertex {hv} has {c1} neighbors in copy 1 of orbit {orbit} "
                f"but {c2} in copy 2"
            )
    return AttachmentValidation(
        valid=not problems,
        entries=tuple(entries),
        problems=tuple(problems),
        orbit_partition=partition,
    )


def build_a_cospectral(
    g: Graph,
    v_c: int,
    h: Graph,
    attachments: list[AttachmentEdge] | tuple[AttachmentEdge, ...],
) -> ConstructedGraph:
    """Glue two copies of ``g`` to ``h`` so that the two images of ``v_c``
    are adjacency-cospectral.

    Layout: copy 1 = ``0..n-1`` (identity), copy 2 = ``n..2n-1``,
    H = ``2n..2n+r-1``.  Invalid attachments are rejected with the validation
    report attached to the exception.
    """
    return _build_a_cospectral(g, v_c, h, attachments, equitable_partition(g, v_c))


def _build_a_cospectral(
    g: Graph,
    v_c: int,
    h: Graph,
    attachments: list[AttachmentEdge] | tuple[AttachmentEdge, ...],
    partition: OrbitPartition,
    built: Graph | None = None,
) -> ConstructedGraph:
    """`build_a_cospectral` on a known partition; ``built``, when given, is
    the glued graph already, and only the checks run."""
    validation = _validate_attachments(g, h, attachments, partition)
    if not validation.valid:
        raise InvalidConstructionError(
            "attachment rule violated: " + "; ".join(validation.problems),
            validation,
        )
    n = g.n
    if built is None:
        _check_order(2 * n + h.n)
        edges: list[tuple[int, int]] = []
        edges.extend(g.edges)
        edges.extend((n + a, n + b) for a, b in g.edges)
        edges.extend((2 * n + a, 2 * n + b) for a, b in h.edges)
        for att in attachments:
            gid = att.g_vertex if att.side == 1 else n + att.g_vertex
            edges.append((gid, 2 * n + att.h_vertex))
        built = Graph.from_edges(2 * n + h.n, edges)
    return ConstructedGraph(
        graph=built,
        kind=A_KIND,
        g1_map=tuple(range(n)),
        g2_map=tuple(range(n, 2 * n)),
        h_map=tuple(range(2 * n, 2 * n + h.n)),
        pair=(v_c, n + v_c),
        orbit_partition=validation.orbit_partition,
    )


def connect_orbits(
    cg: ConstructedGraph,
    orbit_index: int,
    bijection: list[tuple[int, int]] | tuple[tuple[int, int], ...],
) -> ConstructedGraph:
    """Join the copy-1 and copy-2 images of one orbit by a perfect matching.

    ``bijection`` pairs constructed-graph ids: each (copy-1 image, copy-2
    image) of the chosen orbit exactly once.  Adjacency cospectrality of the
    certified pair is preserved.  Only adjacency constructions qualify.
    """
    if cg.kind != A_KIND:
        raise InvalidConstructionError("orbit cross-connection applies to adjacency constructions only")
    if not (0 <= orbit_index < cg.orbit_partition.count):
        raise ValueError(f"orbit index {orbit_index} out of range")
    orbit = cg.orbit_partition.orbits[orbit_index]
    want1 = {cg.g1_map[b] for b in orbit}
    want2 = {cg.g2_map[b] for b in orbit}
    got1 = [p[0] for p in bijection]
    got2 = [p[1] for p in bijection]
    if sorted(got1) != sorted(want1) or sorted(got2) != sorted(want2):
        raise InvalidConstructionError(
            f"pairing is not a bijection between the copy images of orbit {orbit_index}: "
            f"copy-1 side {sorted(got1)} vs {sorted(want1)}, "
            f"copy-2 side {sorted(got2)} vs {sorted(want2)}"
        )
    try:
        new_graph = cg.graph.add_edges(bijection)
    except ValueError as exc:  # duplicate or loop edge
        raise InvalidConstructionError(f"cross-connection rejected: {exc}") from None
    return replace(cg, graph=new_graph, cross_connected=True)


def build_l_cospectral(
    g: Graph,
    v_c: int,
    cross_edges: list[CrossEdge] | tuple[CrossEdge, ...],
) -> ConstructedGraph:
    """Join two copies of ``g`` by orbit-respecting cross edges so that the two
    images of ``v_c`` are Laplacian-cospectral.

    Every cross edge must connect a copy-1 vertex to a copy-2 vertex lying in
    the same cell of `equitable_partition(g, v_c)`; an edge violating that is
    named in the rejection together with the two orbits (cells) involved.
    """
    return _build_l_cospectral(g, v_c, cross_edges, equitable_partition(g, v_c))


def _build_l_cospectral(
    g: Graph,
    v_c: int,
    cross_edges: list[CrossEdge] | tuple[CrossEdge, ...],
    partition: OrbitPartition,
    built: Graph | None = None,
) -> ConstructedGraph:
    """`build_l_cospectral` on a known partition; ``built``, when given, is
    the joined graph already, and only the checks run."""
    _check_cross_edges(g, cross_edges, partition)
    n = g.n
    if built is None:
        _check_order(2 * n)
        edges: list[tuple[int, int]] = []
        edges.extend(g.edges)
        edges.extend((n + a, n + b) for a, b in g.edges)
        edges.extend((ce.g1_vertex, n + ce.g2_vertex) for ce in cross_edges)
        built = Graph.from_edges(2 * n, edges)
    return ConstructedGraph(
        graph=built,
        kind=L_KIND,
        g1_map=tuple(range(n)),
        g2_map=tuple(range(n, 2 * n)),
        h_map=(),
        pair=(v_c, n + v_c),
        orbit_partition=partition,
    )


def _check_cross_edges(
    g: Graph,
    cross_edges: list[CrossEdge] | tuple[CrossEdge, ...],
    partition: OrbitPartition,
) -> None:
    """Reject a cross edge with an end outside ``g``, one joining two cells
    of ``partition``, or a repeated one."""
    seen: set[tuple[int, int]] = set()
    for ce in cross_edges:
        g.check_vertex(ce.g1_vertex, "cross-edge copy-1 vertex")
        g.check_vertex(ce.g2_vertex, "cross-edge copy-2 vertex")
        o1 = partition.orbit_index(ce.g1_vertex)
        o2 = partition.orbit_index(ce.g2_vertex)
        if o1 != o2:
            raise InvalidConstructionError(
                f"cross edge ({ce.g1_vertex}, {ce.g2_vertex}) joins orbit {o1} "
                f"to orbit {o2}; cross edges must stay within one orbit"
            )
        key = (ce.g1_vertex, ce.g2_vertex)
        if key in seen:
            raise InvalidConstructionError(
                f"duplicate cross edge ({ce.g1_vertex}, {ce.g2_vertex})"
            )
        seen.add(key)


# ---------------------------------------------------------------------------
# exact re-verification of the construction identities


@dataclass(frozen=True)
class ClaimViolation:
    claim: str
    power: int
    detail: str


def check_a_claims(cg: ConstructedGraph) -> ClaimViolation | None:
    """Exactly verify, for k = 0..c with d = e_pair0 - e_pair1:

    (i)   (A^k d) vanishes on every H vertex,
    (ii)  (A^k d) is antisymmetric across the two copies, and
    (iii) (A^k d) is constant on each orbit image within a copy.

    The vectors meeting (i)-(iii) form a subspace W, and c (at most N-1) is
    an upper bound on its dimension: one value per cell, plus one for each
    base vertex outside every cell and each graph vertex outside the copies
    and H.  Checking k <= c suffices: c+1 vectors in W are linearly
    dependent, so the Krylov space of d is spanned by powers already checked
    and lies in W.

    Returns the first violation, or None if all claims hold.
    """
    if cg.kind != A_KIND:
        raise ValueError("adjacency claims apply to adjacency constructions")
    return _run_claim_powers(cg, start=(1, -1), claims="a")


def check_l_claims(cg: ConstructedGraph) -> ClaimViolation | None:
    """Exactly verify, for k = 0..c with s = e_pair0 + e_pair1:

    (i)  (L^k s) agrees on the two copy images of every base vertex, and
    (ii) (L^k s) is constant on each orbit image within a copy.

    The vectors meeting (i)-(ii) form a subspace W, and c (at most N-1) is
    an upper bound on its dimension: one value per cell, plus one for each
    base vertex outside every cell and each graph vertex outside the two
    copies (H vertices included).  Checking k <= c suffices: c+1 vectors in
    W are linearly dependent, so the Krylov space of s is spanned by powers
    already checked and lies in W.

    Returns the first violation, or None if all claims hold.
    """
    if cg.kind != L_KIND:
        raise ValueError("laplacian claims apply to laplacian constructions")
    return _run_claim_powers(cg, start=(1, 1), claims="l")


def _claim_space_bound(cg: ConstructedGraph, claims: str) -> int:
    """Upper bound on the dimension of the claim subspace W.

    A vector of W is fixed by its copy-1 value on each cell, its copy-1
    value at each base vertex outside every cell, and its value at each
    vertex no claim ties: outside both copies and, for the A claims, outside
    H (which they hold at 0).
    """
    n, big_n = cg.base_n, cg.graph.n
    covered = {b for orbit in cg.orbit_partition.orbits for b in orbit if 0 <= b < n}
    tied = set(cg.g1_map) | set(cg.g2_map)
    if claims == "a":
        tied.update(cg.h_map)
    untied = big_n - sum(1 for x in tied if 0 <= x < big_n)
    return cg.orbit_partition.count + n - len(covered) + untied


def _run_claim_powers(
    cg: ConstructedGraph, start: tuple[int, int], claims: str
) -> ClaimViolation | None:
    graph = cg.graph
    big_n = graph.n
    g1, g2 = cg.g1_map, cg.g2_map
    adj = [graph.neighbors(x) for x in range(big_n)]
    # a one-vertex cell is constant in every vector
    cells = [
        (idx, [g1[b] for b in orbit], [g2[b] for b in orbit])
        for idx, orbit in enumerate(cg.orbit_partition.orbits)
        if len(orbit) > 1
    ]
    vec: list[int] = [0] * big_n
    vec[cg.pair[0]] = start[0]
    vec[cg.pair[1]] = start[1]
    sign = -1 if claims == "a" else 1
    last = min(_claim_space_bound(cg, claims), big_n - 1)
    for k in range(last + 1):
        if claims == "a":
            for hid in cg.h_map:
                if vec[hid] != 0:
                    return ClaimViolation(
                        "h-support", k, f"power {k} has value {vec[hid]} at H vertex {hid}"
                    )
        if [vec[x] for x in g1] != [sign * vec[x] for x in g2]:
            for b in range(cg.base_n):
                if vec[g1[b]] != sign * vec[g2[b]]:
                    name = "copy-antisymmetry" if claims == "a" else "copy-symmetry"
                    return ClaimViolation(
                        name,
                        k,
                        f"power {k}: value {vec[g1[b]]} at copy-1 image of {b} vs "
                        f"{vec[g2[b]]} at copy-2 image",
                    )
        for idx, images1, images2 in cells:
            for images in (images1, images2):
                vals = {vec[x] for x in images}
                if len(vals) > 1:
                    return ClaimViolation(
                        "orbit-constancy",
                        k,
                        f"power {k}: orbit {idx} takes values {sorted(vals)} in one copy",
                    )
        if k < last:
            get = vec.__getitem__
            if claims == "a":
                vec = [sum(map(get, nbrs)) for nbrs in adj]
            else:  # L x = deg x - A x
                vec = [len(nbrs) * vec[x] - sum(map(get, nbrs)) for x, nbrs in enumerate(adj)]
    return None


# ---------------------------------------------------------------------------
# seeded random instances


def random_instance(
    seed: int,
    max_g: int = 6,
    max_h: int = 4,
    density: float = 0.5,
    kind: str = A_KIND,
) -> ConstructedGraph:
    """A valid seeded construction; identical seeds give identical graphs.

    The base graph is a random connected graph on 2..max_g vertices with a
    random distinguished vertex; its orbits are the cells of
    `equitable_partition`.  For adjacency instances each (H-vertex,
    orbit) block receives, with probability ``density``, k matching attachment
    targets sampled without replacement from each copy of the orbit.  For
    Laplacian instances each orbit receives, with probability ``density``, a
    few distinct orbit-respecting cross pairs.  A glued order the kernels
    refuse (``graph._check_order``) is refused as soon as the drawn orders
    fix it, before the edges of the graph drawn last are: 2n for L, at least
    2n + 1 for A, and 2n + r once H's order r is drawn.  The check draws
    nothing, so it leaves every graph it lets through unchanged.
    """
    if kind not in (A_KIND, L_KIND):
        raise ValueError(f"kind must be {A_KIND!r} or {L_KIND!r}, got {kind!r}")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    if max_g < 2:
        raise ValueError("max_g must be at least 2")
    if kind == A_KIND and max_h < 1:
        raise ValueError("max_h must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(2, max_g)
    _check_order(2 * n if kind == L_KIND else 2 * n + 1)  # H has a vertex at least
    g = _random_connected_graph(rng, n)
    v_c = rng.randrange(n)
    partition = equitable_partition(g, v_c)
    if kind == A_KIND:
        r = rng.randint(1, max_h)
        _check_order(2 * n + r)
        h = _random_graph(rng, r)
        attachments: list[AttachmentEdge] = []
        for hv in range(h.n):
            for oi, orbit in enumerate(partition.orbits):
                if rng.random() >= density:
                    continue
                k = rng.randint(1, len(orbit))
                for gv in sorted(rng.sample(orbit, k)):
                    attachments.append(AttachmentEdge(1, gv, hv))
                for gv in sorted(rng.sample(orbit, k)):
                    attachments.append(AttachmentEdge(2, gv, hv))
        return _build_a_cospectral(g, v_c, h, attachments, partition)
    cross: list[CrossEdge] = []
    for orbit in partition.orbits:
        if rng.random() >= density:
            continue
        pool = list(itertools.product(orbit, orbit))
        k = rng.randint(1, min(len(pool), max(1, len(orbit))))
        cross.extend(
            CrossEdge(a, b) for a, b in sorted(rng.sample(pool, k))
        )
    return _build_l_cospectral(g, v_c, cross, partition)


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # random spanning tree
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return Graph.from_edges(n, edges)


def _random_graph(rng: random.Random, n: int) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    return Graph.from_edges(n, edges)
