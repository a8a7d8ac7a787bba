"""Optional cross-checks against networkx (skipped when not installed).

These pit the package's codec and graph routines against a widely used
independent implementation; they add nothing to the contract, only
confidence.
"""

import random

import pytest

nx = pytest.importorskip("networkx")

from domrec import (
    Graph,
    mask_of,
    build_dk,
    d0_direct,
    dk_diameter,
    enumerate_minimal_dominating,
    sep_bottleneck,
)
from domrec.io_cli import export_graph6, parse_graph6
from hypothesis import given, settings

from conftest import bipartite_graphs, chordal_graphs, random_connected_graph, random_graph
from naive import independent_members, naive_d0, one_layer_mismatches, parser_round_trips


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def test_graph6_encoding_matches_networkx():
    rng = random.Random(12345)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 40), rng.random())
        mine = export_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert mine == theirs
        assert parse_graph6(theirs).adj == g.adj


def test_networkx_graph6_lines_parse_back():
    rng = random.Random(678)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 20), 0.4)
        line = nx.to_graph6_bytes(to_nx(g), header=True).decode().strip()
        assert parse_graph6(line).adj == g.adj


def test_dk_diameter_matches_networkx():
    rng = random.Random(31415)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6))
        rg = build_dk(g, g.n)
        mine = dk_diameter(rg)
        G = nx.Graph()
        G.add_nodes_from(range(rg.order()))
        G.add_edges_from(rg.edges)
        assert mine == nx.diameter(G)


def test_maximal_independent_sets_match_complement_cliques():
    rng = random.Random(2718)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        # The maximal independent sets are the minimal dominating sets with no edge inside.
        mine = independent_members(g, enumerate_minimal_dominating(g).sets)
        comp = nx.complement(to_nx(g))
        theirs = {frozenset(c) for c in nx.find_cliques(comp)}
        assert mine == theirs


def test_d0_direct_equals_sep_on_every_small_atlas_graph():
    # Every graph of order <= 7 with an edge, up to isomorphism, disconnected
    # ones included. naive_d0 and one_layer_mismatches build D_k by
    # definition, so up to order 6 the one-layer test is also checked
    # against routes that read no family.
    atlas = [G for G in nx.graph_atlas_g() if G.number_of_edges()]
    assert len(atlas) == 1245
    for G in atlas:
        g = Graph.from_edges(G.number_of_nodes(), G.edges())
        fam = enumerate_minimal_dominating(g)
        d0 = d0_direct(g, family=fam)
        assert d0 == sep_bottleneck(fam).sep
        if g.n <= 6:
            assert d0 == naive_d0(g)
            assert one_layer_mismatches(g) == []


def test_every_small_atlas_graph_builds_what_the_checked_constructor_builds():
    # The checked side takes its rows from networkx, not from Graph.from_edges.
    atlas = [G for G in nx.graph_atlas_g() if G.number_of_nodes()]
    assert len(atlas) == 1252
    for G in atlas:
        n = G.number_of_nodes()
        checked = Graph(n, tuple(mask_of(G.adj[v]) for v in range(n)))
        assert Graph.from_edges(n, G.edges()) == checked
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert parse_graph6(theirs) == checked
        for route, built, again in parser_round_trips(checked):
            assert built == again, route


def test_d0_sits_between_the_known_bounds_on_every_small_atlas_graph():
    # Gamma + 1 <= d0 <= Gamma + gamma (source paper; Haas & Seyffarth, "The
    # k-dominating graph", Graphs Combin. 30, 2014), d0 <= n - 1 once the
    # matching number mu is at least 2, and d0 <= n - mu + 1. The counts
    # pin how often each upper bound is met.
    at_gamma_sum = at_matching = 0
    for G in nx.graph_atlas_g():
        if not G.number_of_edges():
            continue
        n = G.number_of_nodes()
        fam = enumerate_minimal_dominating(Graph.from_edges(n, G.edges()))
        d0 = sep_bottleneck(fam).sep
        mu = len(nx.max_weight_matching(G, maxcardinality=True))
        assert fam.Gamma + 1 <= d0 <= fam.Gamma + fam.gamma
        assert d0 <= n - mu + 1
        if mu >= 2:
            assert d0 <= n - 1
        at_gamma_sum += d0 == fam.Gamma + fam.gamma
        at_matching += d0 == n - mu + 1
    assert (at_gamma_sum, at_matching) == (208, 466)


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs(), chordal_graphs())
def test_bipartite_and_chordal_strategies_draw_what_they_name(b, c):
    # The d0 = Gamma + 1 checks in test_separation.py rest on these draws.
    assert nx.is_bipartite(to_nx(b)) and any(b.adj)
    assert nx.is_chordal(to_nx(c)) and c.adj[0] & 1 << 1
