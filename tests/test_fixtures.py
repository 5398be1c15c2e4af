import random
from dataclasses import replace

import pytest

from cospectra import (
    FixtureError,
    Graph,
    adjacency_matrix,
    char_poly,
    check_a_claims,
    fixture_catalog,
    load_fixture,
    verify_a_cospectral,
)

ALL = [
    "figure1",
    "figure3",
    "figure4",
    "figure5-left",
    "figure5-right",
    "figure6-a",
    "figure6-b",
    "figure6-c",
]

FROZEN_EDGES = {
    "figure1": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 8), (6, 7)],
    "figure3": [
        (0, 1), (0, 2), (0, 3), (1, 8), (2, 9), (3, 10),
        (4, 5), (4, 6), (4, 7), (7, 8), (7, 9), (7, 10),
    ],
    "figure4": [
        (0, 1), (0, 2), (1, 2), (2, 7), (2, 8),
        (3, 4), (3, 5), (4, 5), (4, 7), (5, 8), (6, 7),
    ],
    "figure5-left": [
        (0, 1), (0, 2), (1, 4), (1, 7), (2, 5), (2, 6),
        (2, 8), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8),
    ],
    "figure5-right": [
        (0, 1), (0, 2), (1, 5), (1, 7), (2, 4), (2, 6),
        (2, 8), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8),
    ],
    "figure6-a": [(0, 1), (0, 2), (1, 6), (2, 7), (3, 4), (3, 5), (4, 6), (4, 7)],
    "figure6-b": [
        (0, 1), (0, 2), (1, 4), (1, 6), (1, 7), (2, 5), (2, 8),
        (3, 4), (3, 5), (4, 6), (5, 7), (5, 8), (8, 9),
    ],
    "figure6-c": [
        (0, 1), (0, 2), (0, 7), (1, 5), (1, 6), (1, 7), (2, 4),
        (3, 4), (3, 5), (3, 7), (4, 6), (5, 7), (6, 7),
    ],
}


def test_catalog_is_complete_and_ordered():
    catalog = fixture_catalog()
    assert list(catalog) == ALL
    assert all(desc for desc in catalog.values())


@pytest.mark.parametrize("name", ALL)
def test_catalog_description_is_the_fixture_description(name):
    assert fixture_catalog()[name] == load_fixture(name).description


@pytest.mark.parametrize("name", ALL)
def test_fixture_edges_frozen(name):
    fx = load_fixture(name)
    assert fx.graph.sorted_edges() == FROZEN_EDGES[name]
    assert fx.name == name
    assert fx.description


@pytest.mark.parametrize("name", ALL)
def test_fixture_pairs_are_cospectral(name):
    fx = load_fixture(name)
    assert verify_a_cospectral(fx.graph, *fx.pair).cospectral


@pytest.mark.parametrize("name", ["figure3", "figure4", "figure6-a"])
def test_pure_constructions_pass_exact_claims(name):
    fx = load_fixture(name)
    assert not fx.constructed.cross_connected
    assert check_a_claims(fx.constructed) is None


@pytest.mark.parametrize("name", ["figure5-left", "figure5-right", "figure6-b", "figure6-c"])
def test_cross_connected_fixtures_flagged(name):
    assert load_fixture(name).constructed.cross_connected


def test_figure1_has_no_construction():
    assert load_fixture("figure1").constructed is None


def test_figure5_variants_differ_but_share_base():
    left = load_fixture("figure5-left")
    right = load_fixture("figure5-right")
    # same vertex count and degree sequence...
    assert left.graph.n == right.graph.n
    degrees = lambda g: sorted(g.degree(v) for v in range(g.n))
    assert degrees(left.graph) == degrees(right.graph)
    # ...but provably non-isomorphic: whole-graph characteristic polynomials differ
    assert char_poly(adjacency_matrix(left.graph)) != char_poly(
        adjacency_matrix(right.graph)
    )


def test_unknown_name_raises():
    with pytest.raises(FixtureError):
        load_fixture("figure99")


def test_fixtures_are_cached():
    assert load_fixture("figure3") is load_fixture("figure3")


def test_self_check_rejects_a_pair_that_is_not_cospectral(monkeypatch):
    import cospectra.fixtures as fixtures

    build = fixtures._build

    def wrong_pair(name):
        return build(name)._replace(pair=(3, 5))

    monkeypatch.setattr(fixtures, "_build", wrong_pair)
    fixtures.load_fixture.cache_clear()  # a failed load is not cached
    with pytest.raises(FixtureError, match="failed its own cospectrality check"):
        load_fixture("figure1")


@pytest.mark.parametrize("name", ["figure5-left", "figure5-right", "figure6-b", "figure6-c"])
def test_self_check_runs_the_claims_of_cross_connected_fixtures(monkeypatch, name):
    """A cross-connected fixture passes the exact claims, and one whose
    copy-2 map is tampered fails to load, its graph and pair unchanged."""
    import cospectra.fixtures as fixtures

    assert check_a_claims(load_fixture(name).constructed) is None
    build = fixtures._build

    def tampered(name):
        fx = build(name)
        cg = fx.constructed
        return fx._replace(constructed=replace(cg, g2_map=cg.g2_map[::-1]))

    monkeypatch.setattr(fixtures, "_build", tampered)
    fixtures.load_fixture.cache_clear()
    with pytest.raises(FixtureError, match="failed an exact construction claim"):
        load_fixture(name)


def test_self_check_agrees_with_verify_on_random_pairs():
    import cospectra.fixtures as fixtures

    rng = random.Random(4)
    agreed = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(2, 9)
        g = Graph.from_edges(
            n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.4]
        )
        u, v = rng.sample(range(n), 2)
        verdict = fixtures._power_diagonals_equal(g, u, v)
        assert verdict == verify_a_cospectral(g, u, v).cospectral
        agreed[verdict] += 1
    assert agreed[True] and agreed[False]
