"""Bundled example graphs with certified cospectral pairs.

Each fixture self-verifies on first load: its certified pair must pass an
exact adjacency-cospectrality check in Python integers (and construction
fixtures must pass their exact per-power claims), otherwise loading raises.
Results are cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .construct import (
    AttachmentEdge,
    ConstructedGraph,
    build_a_cospectral,
    check_a_claims,
    connect_orbits,
)
from .exact import mat_vec
from .graph import CospectraError, Graph, adjacency_matrix


class FixtureError(CospectraError):
    pass


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    graph: Graph
    pair: tuple[int, int]
    constructed: ConstructedGraph | None  # None for the hand-built tree


# what each fixture is, kept apart from the code that makes it, so that
# listing the catalog builds nothing
_DESCRIPTIONS = {
    "figure1": "9-vertex tree with a cospectral pair (3, 6) not related by any "
    "automorphism",
    "figure3": "11-vertex adjacency construction from two claws and three glue "
    "vertices; certified pair (0, 4)",
    "figure4": "9-vertex adjacency construction from two triangles and a 3-vertex "
    "glue block with one internal edge; certified pair (0, 3)",
    "figure5-left": "9-vertex star construction with the leaf orbit cross-connected "
    "by [(1, 4), (2, 5)]; certified pair (0, 3)",
    "figure5-right": "9-vertex star construction with the leaf orbit cross-connected "
    "by [(1, 5), (2, 4)]; certified pair (0, 3)",
    "figure6-a": "8-vertex pure adjacency construction on two 3-stars; certified "
    "pair (0, 3)",
    "figure6-b": "10-vertex construction on two 3-stars with a 4-vertex glue block "
    "and the leaf orbit cross-connected; certified pair (0, 3)",
    "figure6-c": "8-vertex construction on two 3-stars with an edge-joined glue "
    "pair and a crossed leaf matching; certified pair (0, 3)",
}

_STAR3 = Graph.from_edges(3, [(0, 1), (0, 2)])  # path/star on 3 vertices, center 0


def _fixture_tree() -> Fixture:
    # the classic 9-vertex tree whose cospectral pair (3, 6) is not exchanged
    # by any automorphism
    g = Graph.from_edges(
        9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
    )
    return Fixture(
        name="figure1",
        description=_DESCRIPTIONS["figure1"],
        graph=g,
        pair=(3, 6),
        constructed=None,
    )


def _fixture_claw() -> Fixture:
    # two claws glued to three H vertices: one leaf each vs. all three on one leaf
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    h = Graph.from_edges(3, [])
    attachments = [
        AttachmentEdge(1, 1, 0),
        AttachmentEdge(1, 2, 1),
        AttachmentEdge(1, 3, 2),
        AttachmentEdge(2, 3, 0),
        AttachmentEdge(2, 3, 1),
        AttachmentEdge(2, 3, 2),
    ]
    cg = build_a_cospectral(claw, 0, h, attachments)
    return Fixture(
        name="figure3",
        description=_DESCRIPTIONS["figure3"],
        graph=cg.graph,
        pair=cg.pair,
        constructed=cg,
    )


def _fixture_triangles() -> Fixture:
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    h = Graph.from_edges(3, [(0, 1)])
    attachments = [
        AttachmentEdge(1, 2, 1),
        AttachmentEdge(2, 1, 1),
        AttachmentEdge(1, 2, 2),
        AttachmentEdge(2, 2, 2),
    ]
    cg = build_a_cospectral(triangle, 0, h, attachments)
    return Fixture(
        name="figure4",
        description=_DESCRIPTIONS["figure4"],
        graph=cg.graph,
        pair=cg.pair,
        constructed=cg,
    )


def _base_star_construction() -> ConstructedGraph:
    h = Graph.from_edges(3, [])
    attachments = [
        AttachmentEdge(1, 2, 0),
        AttachmentEdge(2, 1, 0),
        AttachmentEdge(1, 1, 1),
        AttachmentEdge(2, 1, 1),
        AttachmentEdge(1, 2, 2),
        AttachmentEdge(2, 1, 2),
    ]
    return build_a_cospectral(_STAR3, 0, h, attachments)


def _leaf_orbit_index(cg: ConstructedGraph) -> int:
    return cg.orbit_partition.orbit_index(1)  # orbit of the two leaves


def _fixture_star_pair(name: str, bijection: list[tuple[int, int]]) -> Fixture:
    cg = _base_star_construction()
    cg = connect_orbits(cg, _leaf_orbit_index(cg), bijection)
    return Fixture(
        name=name,
        description=_DESCRIPTIONS[name],
        graph=cg.graph,
        pair=cg.pair,
        constructed=cg,
    )


def _fixture_small_a() -> Fixture:
    # smallest pure construction in the family: two 3-stars, two glue vertices
    h = Graph.from_edges(2, [])
    attachments = [
        AttachmentEdge(1, 1, 0),
        AttachmentEdge(2, 1, 0),
        AttachmentEdge(1, 2, 1),
        AttachmentEdge(2, 1, 1),
    ]
    cg = build_a_cospectral(_STAR3, 0, h, attachments)
    return Fixture(
        name="figure6-a",
        description=_DESCRIPTIONS["figure6-a"],
        graph=cg.graph,
        pair=cg.pair,
        constructed=cg,
    )


def _fixture_small_b() -> Fixture:
    h = Graph.from_edges(4, [(2, 3)])
    attachments = [
        AttachmentEdge(1, 1, 0),
        AttachmentEdge(2, 1, 0),
        AttachmentEdge(1, 1, 1),
        AttachmentEdge(2, 2, 1),
        AttachmentEdge(1, 2, 2),
        AttachmentEdge(2, 2, 2),
    ]
    cg = build_a_cospectral(_STAR3, 0, h, attachments)
    cg = connect_orbits(cg, _leaf_orbit_index(cg), [(1, 4), (2, 5)])
    return Fixture(
        name="figure6-b",
        description=_DESCRIPTIONS["figure6-b"],
        graph=cg.graph,
        pair=cg.pair,
        constructed=cg,
    )


def _fixture_small_c() -> Fixture:
    h = Graph.from_edges(2, [(0, 1)])
    attachments = [
        AttachmentEdge(1, 1, 0),
        AttachmentEdge(2, 1, 0),
        AttachmentEdge(1, 0, 1),
        AttachmentEdge(2, 0, 1),
        AttachmentEdge(1, 1, 1),
        AttachmentEdge(2, 2, 1),
    ]
    cg = build_a_cospectral(_STAR3, 0, h, attachments)
    cg = connect_orbits(cg, _leaf_orbit_index(cg), [(1, 5), (2, 4)])
    return Fixture(
        name="figure6-c",
        description=_DESCRIPTIONS["figure6-c"],
        graph=cg.graph,
        pair=cg.pair,
        constructed=cg,
    )


_BUILDERS = {
    "figure1": _fixture_tree,
    "figure3": _fixture_claw,
    "figure4": _fixture_triangles,
    "figure5-left": lambda: _fixture_star_pair("figure5-left", [(1, 4), (2, 5)]),
    "figure5-right": lambda: _fixture_star_pair("figure5-right", [(1, 5), (2, 4)]),
    "figure6-a": _fixture_small_a,
    "figure6-b": _fixture_small_b,
    "figure6-c": _fixture_small_c,
}

FIXTURE_NAMES = tuple(_BUILDERS)


@functools.lru_cache(maxsize=None)
def load_fixture(name: str) -> Fixture:
    """Build (and self-verify) a bundled fixture by name."""
    if name not in _BUILDERS:
        raise FixtureError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    fx = _BUILDERS[name]()
    if not _power_diagonals_equal(fx.graph, *fx.pair):
        raise FixtureError(f"fixture {name!r} failed its own cospectrality check")
    if fx.constructed is not None and not fx.constructed.cross_connected:
        violation = check_a_claims(fx.constructed)
        if violation is not None:
            raise FixtureError(
                f"fixture {name!r} failed an exact construction claim: {violation}"
            )
    return fx


def _power_diagonals_equal(g: Graph, u: int, v: int) -> bool:
    """(A^k)_uu == (A^k)_vv for k = 0..n-1, which makes u and v cospectral:
    these are the first n moments of the two vertices' spectral measures,
    and on the at most n eigenvalues of A, n moments fix the weights."""
    a = adjacency_matrix(g)
    walk_u = [int(x == u) for x in range(g.n)]
    walk_v = [int(x == v) for x in range(g.n)]
    for _ in range(g.n):
        if walk_u[u] != walk_v[v]:
            return False
        walk_u, walk_v = mat_vec(a, walk_u), mat_vec(a, walk_v)
    return True


def fixture_catalog() -> dict[str, str]:
    """Fixture name -> description, in catalog order, without building any."""
    return {name: _DESCRIPTIONS[name] for name in FIXTURE_NAMES}
