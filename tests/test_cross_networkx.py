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
    build_dk,
    d0_direct,
    dk_diameter,
    enumerate_minimal_dominating,
    sep_bottleneck,
)
from domrec.io_cli import export_graph6, parse_graph6
from conftest import random_connected_graph, random_graph
from naive import independent_members, naive_d0, one_layer_mismatches


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
