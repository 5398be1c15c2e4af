"""Bundled example graphs with certified cospectral pairs.

Each fixture self-verifies on first load: its certified pair must pass an
exact adjacency-cospectrality check in Python integers, and every
construction fixture, cross-connected ones included, must pass its exact
per-power claims (``check_a_claims``), otherwise loading raises.
Results are cached.  The catalog is data: naming and describing the fixtures
builds none, and ``construct`` is loaded only to build a construction.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

from .graph import CospectraError, Graph

if TYPE_CHECKING:
    from .construct import ConstructedGraph


class FixtureError(CospectraError):
    pass


class Fixture(NamedTuple):
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

# the classic 9-vertex tree whose cospectral pair (3, 6) is not exchanged by
# any automorphism
_TREE = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)])

# graphs as (order, edges)
_CLAW = (4, [(0, 1), (0, 2), (0, 3)])
_TRIANGLE = (3, [(0, 1), (0, 2), (1, 2)])
_STAR3 = (3, [(0, 1), (0, 2)])  # path/star on 3 vertices, center 0
_STAR_ATTACHMENTS = [(1, 2, 0), (2, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2)]

# each adjacency construction, on distinguished base vertex 0: the base graph,
# the glue graph H, the attachments (side, base vertex, H vertex), and the
# matching that then cross-connects the leaf orbit, or None
_CONSTRUCTIONS = {
    # two claws glued to three H vertices: one leaf each vs. all three on one leaf
    "figure3": (
        _CLAW,
        (3, []),
        [(1, 1, 0), (1, 2, 1), (1, 3, 2), (2, 3, 0), (2, 3, 1), (2, 3, 2)],
        None,
    ),
    "figure4": (_TRIANGLE, (3, [(0, 1)]), [(1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)], None),
    "figure5-left": (_STAR3, (3, []), _STAR_ATTACHMENTS, [(1, 4), (2, 5)]),
    "figure5-right": (_STAR3, (3, []), _STAR_ATTACHMENTS, [(1, 5), (2, 4)]),
    # smallest pure construction in the family: two 3-stars, two glue vertices
    "figure6-a": (_STAR3, (2, []), [(1, 1, 0), (2, 1, 0), (1, 2, 1), (2, 1, 1)], None),
    "figure6-b": (
        _STAR3,
        (4, [(2, 3)]),
        [(1, 1, 0), (2, 1, 0), (1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2)],
        [(1, 4), (2, 5)],
    ),
    "figure6-c": (
        _STAR3,
        (2, [(0, 1)]),
        [(1, 1, 0), (2, 1, 0), (1, 0, 1), (2, 0, 1), (1, 1, 1), (2, 2, 1)],
        [(1, 5), (2, 4)],
    ),
}

FIXTURE_NAMES = tuple(_DESCRIPTIONS)


def _build(name: str) -> Fixture:
    """The fixture ``name``, built but not yet self-verified."""
    if name == "figure1":
        return Fixture(name, _DESCRIPTIONS[name], _TREE, (3, 6), None)
    from .construct import AttachmentEdge, build_a_cospectral, connect_orbits

    base, h, attachments, matching = _CONSTRUCTIONS[name]
    cg = build_a_cospectral(
        Graph.from_edges(*base), 0, Graph.from_edges(*h), [AttachmentEdge(*a) for a in attachments]
    )
    if matching is not None:
        cg = connect_orbits(cg, cg.orbit_partition.orbit_index(1), matching)  # the leaf orbit
    return Fixture(name, _DESCRIPTIONS[name], cg.graph, cg.pair, cg)


@functools.lru_cache(maxsize=None)
def load_fixture(name: str) -> Fixture:
    """Build (and self-verify) a bundled fixture by name."""
    if name not in _DESCRIPTIONS:
        raise FixtureError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    fx = _build(name)
    if not _power_diagonals_equal(fx.graph, *fx.pair):
        raise FixtureError(f"fixture {name!r} failed its own cospectrality check")
    if fx.constructed is not None:
        from .construct import check_a_claims

        violation = check_a_claims(fx.constructed)
        if violation is not None:
            raise FixtureError(
                f"fixture {name!r} failed an exact construction claim: {violation}"
            )
    return fx


def _power_diagonals_equal(g: Graph, u: int, v: int) -> bool:
    """(A^k)_uu == (A^k)_vv for k = 0..n-1, which makes u and v cospectral:
    these are the first n moments of the two vertices' spectral measures,
    and on the at most n eigenvalues of A, n moments fix the weights.  The
    walks A^k e_u and A^k e_v step along the neighbour lists in Python ints."""
    adj = [g.neighbors(x) for x in range(g.n)]
    walk_u = [int(x == u) for x in range(g.n)]
    walk_v = [int(x == v) for x in range(g.n)]
    for _ in range(g.n):
        if walk_u[u] != walk_v[v]:
            return False
        walk_u = [sum(map(walk_u.__getitem__, nbrs)) for nbrs in adj]
        walk_v = [sum(map(walk_v.__getitem__, nbrs)) for nbrs in adj]
    return True


def fixture_catalog() -> dict[str, str]:
    """Fixture name -> description, in catalog order, without building any."""
    return {name: _DESCRIPTIONS[name] for name in FIXTURE_NAMES}
