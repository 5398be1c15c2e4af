"""Simple undirected graphs with exact integer matrices.

Vertices are always ``0..n-1``; edges are unordered pairs with no loops and no
multiplicity.  Matrices are plain lists of lists of Python ints so that every
downstream computation can stay exact.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]
IntMatrix = list[list[int]]


class CospectraError(Exception):
    """Base class for all library-defined errors."""


class EdgeListParseError(CospectraError, ValueError):
    """Malformed edge-list text; the message names the offending line."""


class ExactComputationError(CospectraError):
    """An input outside the domain of the exact kernels, or a failed exact check."""


# The exact kernels take orders below 2**15 (``exact`` states the overflow
# argument).  The bound lives here, so that a command can refuse a declared
# order before it builds the graph, whose size grows with it, and without
# loading ``exact``.
_MAX_ORDER = 1 << 15


def _check_order(n: int) -> None:
    if n >= _MAX_ORDER:
        raise ExactComputationError(
            f"matrix order {n} is not below {_MAX_ORDER}: int64 residue sums could overflow"
        )


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable simple undirected graph on vertices ``0..n-1``.

    ``edges`` are normalized pairs (u < v), kept as a frozenset: any other
    iterable is copied into one, and an edge it repeats is refused.  Equal,
    and hashed alike, when ``n`` and ``edges`` are; assigning an attribute
    raises AttributeError.
    """

    __slots__ = ("n", "edges", "_adjacency")

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if not isinstance(edges, frozenset):
            listed = list(edges)
            edges = frozenset(listed)
            if len(edges) != len(listed):
                seen: set[Edge] = set()
                u, v = next(e for e in listed if e in seen or seen.add(e))
                raise ValueError(f"duplicate edge ({u}, {v})")
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) is not a normalized pair inside 0..{n - 1}")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", edges)
        init(self, "_adjacency", tuple(tuple(sorted(a)) for a in nbrs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return type(self), (self.n, self.edges)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing edge order and rejecting loops/duplicates."""
        normalized: list[Edge] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            normalized.append(_normalize_edge(u, v))
        return Graph(n, normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges if u != v else False

    def check_vertex(self, v: int, name: str = "vertex") -> None:
        # not isinstance(v, int): bool is an int subclass, but no vertex id
        if type(v) is not int or not (0 <= v < self.n):
            bounds = f" 0..{self.n - 1}" if self.n else ": the graph has no vertices"
            raise ValueError(f"{name} {v!r} out of range{bounds}")

    def add_edges(self, new_edges: Iterable[tuple[int, int]]) -> "Graph":
        """Return a copy with the given edges added; duplicates are an error."""
        extra: set[Edge] = set()
        for u, v in new_edges:
            self.check_vertex(u)
            self.check_vertex(v)
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            e = _normalize_edge(u, v)
            if e in self.edges or e in extra:
                raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
            extra.add(e)
        return Graph(self.n, self.edges | extra)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    The first non-comment line is ``n m`` (vertex and edge counts); the next
    ``m`` non-comment lines are ``u v`` pairs.  Lines whose first non-blank
    character is ``#`` and blank lines are ignored.  Every malformed input
    raises :class:`EdgeListParseError` naming the 1-based line number.
    """
    return Graph(*_parse_edge_list(text))


def _parse_edge_list(text: str) -> tuple[int, frozenset[Edge]]:
    """The declared order and the edges of an edge list, checked as
    ``parse_edge_list`` checks them; a caller can refuse the order before
    the graph, whose size grows with it, is built."""
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListParseError(f"line {lineno}: counts must be nonnegative, got {raw!r}")
            header = (a, b)
            n = a
            continue
        if len(edges) >= header[1]:
            raise EdgeListParseError(
                f"line {lineno}: more than the declared {header[1]} edges"
            )
        if not (0 <= a < n and 0 <= b < n):
            raise EdgeListParseError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        if a == b:
            raise EdgeListParseError(f"line {lineno}: loop at vertex {a}")
        e = _normalize_edge(a, b)
        if e in seen:
            raise EdgeListParseError(f"line {lineno}: duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        edges.append(e)
    if header is None:
        raise EdgeListParseError("line 1: missing 'n m' header line")
    if len(edges) != header[1]:
        raise EdgeListParseError(
            f"declared {header[1]} edges but found {len(edges)}"
        )
    return n, frozenset(edges)


def format_edge_list(g: Graph) -> str:
    """Serialize to the same format ``parse_edge_list`` reads (sorted edges)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def adjacency_matrix(g: Graph) -> IntMatrix:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return a


def laplacian_matrix(g: Graph) -> IntMatrix:
    """Laplacian L = D - A as an exact integer matrix."""
    lap = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        lap[v][v] = g.degree(v)
    for u, v in g.edges:
        lap[u][v] = -1
        lap[v][u] = -1
    return lap


def walk_diagonals(
    g: Graph, starts: Iterable[int], count: int, laplacian: bool = False
) -> list[list[int]]:
    """[(M^k)_xx for k < count] for each x in ``starts``, M the adjacency
    matrix of g or, with ``laplacian``, its Laplacian D - A, in Python ints.

    The walk M^i e_x steps along the neighbour lists, (A y)_z the sum of y
    over the neighbours of z and (L y)_z = deg(z) y_z - (A y)_z, for
    i <= count / 2 only: as M is symmetric, (M^k)_xx is the Gram product
    (M^i e_x) . (M^(k-i) e_x) with i = floor(k/2).
    """
    adj = g._adjacency
    out = []
    for x in starts:
        y = [0] * g.n
        y[x] = 1
        walk = [y]
        for _ in range(count // 2):
            if laplacian:
                y = [len(nbrs) * y_z - sum(map(y.__getitem__, nbrs)) for y_z, nbrs in zip(y, adj)]
            else:
                y = [sum(map(y.__getitem__, nbrs)) for nbrs in adj]
            walk.append(y)
        out.append([sum(map(mul, walk[k // 2], walk[k - k // 2])) for k in range(count)])
    return out


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex ``v`` and compact ids: vertices above ``v`` shift down by one.

    The result lives on ``0..n-2``; callers comparing against the parent graph
    must account for the shift themselves.
    """
    g.check_vertex(v)
    remap = [w if w < v else w - 1 for w in range(g.n)]
    edges = [
        (remap[a], remap[b]) for a, b in g.edges if a != v and b != v
    ]
    return Graph.from_edges(g.n - 1, edges)


def to_dot(
    g: Graph,
    highlight: Sequence[int] = (),
    blocks: Mapping[str, Sequence[int]] | None = None,
) -> str:
    """Render as Graphviz DOT.

    ``highlight`` vertices are filled; ``blocks`` maps a label (e.g. ``"g1"``)
    to vertex ids, rendered as a labeled cluster.
    """
    for v in highlight:
        g.check_vertex(v, "highlight vertex")
    out = ["graph cospectra {", "  node [shape=circle];"]
    covered: set[int] = set()
    if blocks:
        for label in blocks:
            ids = blocks[label]
            for v in ids:
                g.check_vertex(v, f"block {label!r} vertex")
            out.append(f"  subgraph cluster_{label} {{")
            out.append(f'    label="{label}";')
            for v in ids:
                out.append(f"    {v};")
                covered.add(v)
            out.append("  }")
    for v in range(g.n):
        if v not in covered:
            out.append(f"  {v};")
    for v in highlight:
        out.append(f"  {v} [style=filled, fillcolor=lightblue];")
    for u, v in g.sorted_edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
