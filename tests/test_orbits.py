import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cospectra import (
    CospectraError,
    Graph,
    SearchLimitError,
    automorphism_orbits,
    automorphism_witness,
    equitable_partition,
)
from cospectra import orbits

from _oracles import automorphism_orbits_per_vertex, brute_force_orbits, is_automorphism


def small_graphs(min_n=1, max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, edges)

    return build()


# -- frozen cases ------------------------------------------------------------


def test_star_orbits_fixing_center():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = automorphism_orbits(star, 0)
    assert p.orbits == ((0,), (1, 2, 3))
    assert p.orbit_of[1] == p.orbit_of[3] != p.orbit_of[0]


def test_star_orbits_fixing_leaf():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = automorphism_orbits(star, 1)
    # fixing one leaf leaves the other two exchangeable
    assert p.orbits == ((0,), (1,), (2, 3))


def test_cycle_full_group_is_transitive():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    p = automorphism_orbits(c5)
    assert p.orbits == ((0, 1, 2, 3, 4),)
    assert p.fixed is None


def test_cycle_orbits_with_fixed_vertex():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    p = automorphism_orbits(c5, 0)
    # the reflection through 0 pairs (1,4) and (2,3)
    assert p.orbits == ((0,), (1, 4), (2, 3))


def test_asymmetric_tree_has_singleton_orbits():
    g = Graph.from_edges(
        9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
    )
    p = automorphism_orbits(g)
    assert all(len(o) == 1 for o in p.orbits)
    assert automorphism_witness(g, 3, 6) is None


def test_petersen_vertex_transitive():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph.from_edges(10, outer + inner + spokes)
    p = automorphism_orbits(petersen)
    assert p.orbits == (tuple(range(10)),)


# -- oracle comparison -------------------------------------------------------


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_orbits_match_brute_force(g, data):
    fixed = data.draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=g.n - 1))
    )
    p = automorphism_orbits(g, fixed)
    assert [list(o) for o in p.orbits] == brute_force_orbits(g, fixed)
    assert p == automorphism_orbits_per_vertex(g, fixed)


@given(small_graphs(min_n=2), st.data())
@settings(max_examples=60, deadline=None)
def test_witness_is_a_real_automorphism(g, data):
    u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    w = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    pi = automorphism_witness(g, u, w)
    oracle = brute_force_orbits(g, None)
    same = any(u in o and w in o for o in oracle)
    if pi is None:
        assert not same
    else:
        assert pi[u] == w
        assert is_automorphism(g, pi)


@given(small_graphs(min_n=3), st.data())
@settings(max_examples=40, deadline=None)
def test_witness_respects_fixed_vertex(g, data):
    fixed = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    u = data.draw(st.integers(min_value=0, max_value=g.n - 1).filter(lambda x: x != fixed))
    w = data.draw(st.integers(min_value=0, max_value=g.n - 1).filter(lambda x: x != fixed))
    pi = automorphism_witness(g, u, w, fixed=fixed)
    if pi is not None:
        assert pi[fixed] == fixed
        assert pi[u] == w
        assert is_automorphism(g, pi)
    else:
        oracle = brute_force_orbits(g, fixed)
        assert not any(u in o and w in o for o in oracle)


# -- contract details --------------------------------------------------------


def test_orbit_partition_is_deterministic():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert automorphism_orbits(g, 0) == automorphism_orbits(g, 0)


def test_orbits_sorted_by_min_element():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])  # three disjoint edges
    p = automorphism_orbits(g)
    assert p.orbits == ((0, 1, 2, 3, 4, 5),)
    mins = [o[0] for o in automorphism_orbits(g, 0).orbits]
    assert mins == sorted(mins)


def test_search_limit():
    g = Graph.from_edges(5, [])
    with pytest.raises(SearchLimitError, match="search limit"):
        automorphism_orbits(g, max_n=4)
    assert automorphism_orbits(g, max_n=5).count == 1


def test_search_limit_env_override(monkeypatch):
    g = Graph.from_edges(5, [])
    monkeypatch.setenv("COSPECTRA_MAX_N", "3")
    with pytest.raises(SearchLimitError):
        automorphism_orbits(g)
    monkeypatch.setenv("COSPECTRA_MAX_N", "10")
    assert automorphism_orbits(g).count == 1
    monkeypatch.setenv("COSPECTRA_MAX_N", "zebra")
    with pytest.raises(Exception, match="COSPECTRA_MAX_N"):
        automorphism_orbits(g)


def test_a_negative_search_limit_is_refused(monkeypatch):
    g = Graph.from_edges(0, [])
    with pytest.raises(ValueError, match="max_n must be nonnegative, got -1"):
        automorphism_orbits(g, max_n=-1)
    monkeypatch.setenv("COSPECTRA_MAX_N", "-3")
    with pytest.raises(CospectraError, match="COSPECTRA_MAX_N must be nonnegative, got '-3'"):
        automorphism_orbits(g)
    assert automorphism_orbits(g, max_n=0).count == 0  # the argument overrides the variable


def test_fixed_vertex_out_of_range():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        automorphism_orbits(g, 7)


# -- pruning by the individualized edge-color invariant ------------------------


def _random_cubic(rng: random.Random, n: int) -> Graph:
    """A uniform-ish random simple 3-regular graph by rejection of pairings."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == len(stubs) // 2 and all(a != b for a, b in edges):
            return Graph.from_edges(n, edges)


def _relabelled(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])


def _circulant(n: int, steps) -> set[tuple[int, int]]:
    return {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}


def _hypercube(d: int) -> list[tuple[int, int]]:
    return [(v, v ^ (1 << i)) for v in range(1 << d) for i in range(d) if v < v ^ (1 << i)]


def _pruning_cases() -> list:
    rng = random.Random(2014)
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)]
    )
    cases = [(f"cubic{n}", _random_cubic(rng, n)) for n in (20, 30, 40)]
    cases += [
        ("Q4", _relabelled(rng, 16, _hypercube(4))),
        ("Q5", _relabelled(rng, 32, _hypercube(5))),
        ("C30", _relabelled(rng, 30, _circulant(30, (1,)))),
        ("petersen", _relabelled(rng, 10, petersen)),
        ("K3,5", _relabelled(rng, 8, [(i, 3 + j) for i in range(3) for j in range(5)])),
        ("K6,6", _relabelled(rng, 12, [(i, 6 + j) for i in range(6) for j in range(6)])),
        ("C16(1,3)", _relabelled(rng, 16, _circulant(16, (1, 3)))),
        ("C21(1,4,6)", _relabelled(rng, 21, _circulant(21, (1, 4, 6)))),
    ]
    for n, p in ((12, 0.1), (16, 0.1), (18, 0.3), (20, 0.5)):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        cases.append((f"G({n},{p})", Graph.from_edges(n, edges)))
    return [pytest.param(g, id=name) for name, g in cases]


def _without_distance_profiles(monkeypatch) -> None:
    """Start the searches from the refinement of {fixed} against the rest."""
    monkeypatch.setattr(orbits, "_base_colors", lambda adj, colors: colors)


@pytest.mark.parametrize("g", _pruning_cases())
def test_pruning_never_changes_a_partition(g, monkeypatch):
    # with a constant edge invariant and the plain base every same-color pair
    # is searched, as before the pruning existed
    pruned = [automorphism_orbits(g, fixed) for fixed in (None, 0)]
    monkeypatch.setattr(orbits, "_edge_color_pairs", lambda g, colors: [])
    _without_distance_profiles(monkeypatch)
    assert [automorphism_orbits(g, fixed) for fixed in (None, 0)] == pruned


def _chang() -> Graph:
    """A Chang graph: T(8) Seidel-switched on a perfect matching of K8."""
    pairs = list(itertools.combinations(range(8), 2))
    switched = {pairs.index(e) for e in ((0, 1), (2, 3), (4, 5), (6, 7))}
    return Graph.from_edges(28, [
        (i, j) for i, j in itertools.combinations(range(28), 2)
        if bool(set(pairs[i]) & set(pairs[j])) != ((i in switched) != (j in switched))
    ])


def _latin_square_graph(square) -> Graph:
    """Cells adjacent when they share a row, a column or a symbol."""
    k = len(square)
    cells = [(r, c, square[r][c]) for r in range(k) for c in range(k)]
    return Graph.from_edges(k * k, [
        (i, j) for i, j in itertools.combinations(range(k * k), 2)
        if any(a == b for a, b in zip(cells[i], cells[j]))
    ])


def _cfi(base_n: int, base_edges, twisted: bool) -> Graph:
    """The Cai-Furer-Immerman graph over a base graph, twisted on its first edge."""
    ids: dict[tuple, int] = {}
    edges = []
    for v in range(base_n):
        incident = [e for e, ends in enumerate(base_edges) if v in ends]
        for r in range(0, len(incident) + 1, 2):
            for subset in itertools.combinations(incident, r):
                m = ids.setdefault(("m", v, subset), len(ids))
                edges += [(m, ids.setdefault((v, e, e in subset), len(ids))) for e in incident]
    for e, (u, v) in enumerate(base_edges):
        for side in (False, True):
            edges.append((ids[(u, e, side)], ids[(v, e, side != (twisted and e == 0))]))
    return Graph.from_edges(len(ids), edges)


def _hard_cases() -> list:
    rng = random.Random(2026)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    latin = [[2, 3, 0, 4, 1], [0, 2, 1, 3, 4], [4, 0, 2, 1, 3], [3, 1, 4, 2, 0], [1, 4, 3, 0, 2]]
    cases = [
        ("chang", _chang()),
        ("latin5", _latin_square_graph(latin)),
        ("CFI(K4)", _cfi(4, k4, False)),
        ("CFI(K4)~", _cfi(4, k4, True)),
    ]
    return [pytest.param(_relabelled(rng, g.n, g.edges), id=name) for name, g in cases]


# the one-pass search against the per-vertex oracle; the name predates that search
@pytest.mark.parametrize("g", _pruning_cases() + _hard_cases())
def test_lockstep_matches_the_per_vertex_search(g):
    for fixed in (None, 0):
        assert automorphism_orbits(g, fixed) == automorphism_orbits_per_vertex(g, fixed)


def test_chang_graph_refines_each_domain_side_once(monkeypatch):
    # `_search` refines the individualized domain vertex once, not once per
    # range candidate: 489 refinements (870 when refined per candidate)
    refine = orbits._refine
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(orbits, "_refine", counted)
    assert automorphism_orbits(_chang()).count == 2
    assert calls <= 500


def _top_level_searches(monkeypatch) -> list[tuple[list[int], list[int]]]:
    """Record the two colorings of every top-level `_search` call, one that no
    search made."""
    search = orbits._search
    calls = []
    depth = 0

    def recorded(g, adj, colors1, colors2):
        nonlocal depth
        if depth == 0:
            calls.append((colors1, colors2))
        depth += 1
        try:
            return search(g, adj, colors1, colors2)
        finally:
            depth -= 1

    monkeypatch.setattr(orbits, "_search", recorded)
    return calls


def test_asymmetric_cubic_graph_stops_refining_singled_out_vertices(monkeypatch):
    # each vertex is refined at most once
    g = _random_cubic(random.Random(41), 40)
    refine = orbits._refine
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(orbits, "_refine", counted)
    assert automorphism_orbits(g).count == g.n
    # 2: the plain refinement and the profiles', which tell every vertex apart
    assert calls <= 2
    # from the plain base, 1 + n: each vertex individualized once, no search
    _without_distance_profiles(monkeypatch)
    calls = 0
    assert automorphism_orbits(g).count == g.n
    assert calls <= g.n + 2


def test_asymmetric_cubic_graph_searches_at_most_n_minus_1_pairs(monkeypatch):
    g = _random_cubic(random.Random(41), 40)
    searches = _top_level_searches(monkeypatch)
    p = automorphism_orbits(g)
    assert p.count == g.n  # asymmetric: every orbit is a singleton
    assert len(searches) <= 1  # 0 today; n(n-1)/2 = 780 without any pruning


def test_distance_profiles_keep_cycles_of_different_lengths_apart(monkeypatch):
    # C6 + C3 + C3 is 2-regular: refinement from the trivial coloring splits
    # nothing, but a C6 vertex sees 5 vertices within distance 2 and a C3 one 3
    g = Graph.from_edges(12, [
        *((i, (i + 1) % 6) for i in range(6)),
        *((6 + i, 6 + (i + 1) % 3) for i in range(3)),
        *((9 + i, 9 + (i + 1) % 3) for i in range(3)),
    ])
    searches = _top_level_searches(monkeypatch)
    assert automorphism_orbits(g).orbits == (tuple(range(6)), tuple(range(6, 12)))
    assert searches
    for colors1, colors2 in searches:
        # each coloring individualizes one vertex, and its singleton cells all
        # lie in that vertex's cycle
        sides = [
            {v < 6 for v, c in enumerate(colors) if colors.count(c) == 1}
            for colors in (colors1, colors2)
        ]
        assert len(sides[0]) == 1 and sides[0] == sides[1]


def test_order_64_orbits_are_witnessed():
    # two copies of a random cubic graph (swapping them merges twins) and a
    # relabelled circulant fixing one vertex (its reflection merges pairs)
    rng = random.Random(64)
    half = _random_cubic(rng, 32)
    twins = Graph.from_edges(64, [*half.edges, *((a + 32, b + 32) for a, b in half.edges)])
    circulant = _relabelled(rng, 64, _circulant(64, (1, 5)))
    for g, fixed in ((twins, None), (circulant, 0)):
        p = automorphism_orbits(g, fixed)
        assert p.count <= 33
        assert fixed is not None or all(p.orbit_of[v] == p.orbit_of[v + 32] for v in range(32))
        for orbit in p.orbits:
            for w in orbit[1:]:
                pi = automorphism_witness(g, orbit[0], w, fixed)
                assert pi is not None and pi[orbit[0]] == w and is_automorphism(g, pi)
                assert fixed is None or pi[fixed] == fixed


# -- the equitable partition the constructions balance on --------------------


@given(small_graphs(max_n=7), st.data())
@settings(max_examples=40, deadline=None)
def test_equitable_partition_is_equitable_and_a_union_of_orbits(g, data):
    fixed = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    p = equitable_partition(g, fixed)
    assert p.fixed == fixed and (fixed,) in p.orbits
    assert [o[0] for o in p.orbits] == sorted(o[0] for o in p.orbits)
    for cell in p.orbits:
        counts = {
            tuple(sum(g.has_edge(v, w) for w in other) for other in p.orbits)
            for v in cell
        }
        assert len(counts) == 1  # every vertex of a cell sees the same counts
    for orbit in brute_force_orbits(g, fixed):
        assert len({p.orbit_index(v) for v in orbit}) == 1


def test_equitable_partition_can_be_coarser_than_the_orbits():
    cubic10 = Graph.from_edges(10, [
        (0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 9), (2, 4), (2, 5),
        (2, 8), (3, 7), (5, 7), (5, 8), (6, 7), (6, 9), (8, 9),
    ])
    assert equitable_partition(cubic10, 9).orbits == ((0, 2, 3, 4, 5, 7), (1, 6, 8), (9,))
    assert automorphism_orbits(cubic10, 9).orbits == ((0, 3), (1, 6), (2, 5), (4, 7), (8,), (9,))


def test_equitable_partition_needs_no_search_and_has_no_size_limit(monkeypatch):
    def fail(*args):
        raise AssertionError("automorphism search ran")

    monkeypatch.setattr(orbits, "_search", fail)
    monkeypatch.setenv("COSPECTRA_MAX_N", "4")
    c70 = Graph.from_edges(70, [(i, (i + 1) % 70) for i in range(70)])
    p = equitable_partition(c70, 0)
    assert p.orbits == ((0,), *((i, 70 - i) for i in range(1, 35)), (35,))
    with pytest.raises(ValueError):
        equitable_partition(c70, 70)
