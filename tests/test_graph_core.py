import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrec import (
    Graph,
    InputError,
    UnsupportedGraphError,
    cartesian_product,
    complete_graph,
    cycle_graph,
    is_dominating,
    is_irredundant,
    is_minimal_dominating,
    mask_of,
    path_graph,
    private_neighbours,
    star,
    vertex_list,
)
from conftest import random_graph, small_graphs
from naive import naive_private_neighbours

K13 = star(3)  # centre 0, leaves 1..3


def test_graph_construction_rejects_bad_input():
    with pytest.raises(UnsupportedGraphError):
        Graph.from_edges(0, [])
    with pytest.raises(UnsupportedGraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(UnsupportedGraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(UnsupportedGraphError):
        Graph.from_edges(65, [])
    with pytest.raises(UnsupportedGraphError):
        Graph.from_edges(10**12, [])  # refused before allocating n adjacency rows
    with pytest.raises(UnsupportedGraphError):
        Graph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize("n, adj, message", [
    (2, (0b100, 0), "adjacency of vertex 0 mentions ids >= n"),
    (2, (0b01, 0), "self-loop at vertex 0"),
    (3, (0b010, 0, 0), "asymmetric adjacency between 1 and 0"),
    (3, (0b10, 0b01), "adjacency length does not match n"),
    (0, (), "graph must have at least one vertex"),
    (65, (0,) * 65, "graph has 65 vertices; supported maximum is 64"),
], ids=["id-at-least-n", "self-loop", "asymmetric", "adjacency-length", "no-vertex", "too-wide"])
def test_graph_direct_construction_rejects_bad_input(n, adj, message):
    with pytest.raises(UnsupportedGraphError) as err:
        Graph(n=n, adj=adj)
    assert str(err.value) == message


def test_closed_neighbourhoods():
    g = path_graph(3)
    assert g.closed[0] == mask_of([0, 1])
    assert g.closed[1] == mask_of([0, 1, 2])


def test_is_dominating_star():
    assert is_dominating(K13, mask_of([0]))
    assert not is_dominating(K13, mask_of([1]))
    assert is_dominating(K13, mask_of([1, 2, 3]))
    assert not is_dominating(K13, 0)


def test_is_dominating_rejects_foreign_vertices():
    with pytest.raises(InputError):
        is_dominating(K13, mask_of([7]))


def test_private_neighbours_star():
    leaves = mask_of([1, 2, 3])
    assert private_neighbours(K13, 1, leaves) == mask_of([1])
    assert private_neighbours(K13, 0, mask_of([0])) == mask_of([0, 1, 2, 3])
    with pytest.raises(InputError):
        private_neighbours(K13, 2, mask_of([0]))


def test_private_neighbours_path():
    p4 = path_graph(4)
    assert private_neighbours(p4, 1, mask_of([1, 2])) == mask_of([0])


def test_private_neighbours_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        d_ids = [v for v in range(g.n) if rng.random() < 0.5] or [0]
        d = mask_of(d_ids)
        for v in d_ids:
            got = set(vertex_list(private_neighbours(g, v, d)))
            assert got == naive_private_neighbours(g, v, frozenset(d_ids))


def test_is_minimal_dominating_examples():
    assert is_minimal_dominating(K13, mask_of([0]))
    assert not is_minimal_dominating(K13, mask_of([0, 1]))
    assert is_minimal_dominating(path_graph(4), mask_of([0, 3]))


def test_is_irredundant_examples():
    assert is_irredundant(K13, 0)  # empty set, vacuous
    k3 = complete_graph(3)
    assert not is_irredundant(k3, mask_of([0, 1]))


def test_cartesian_product_sizes():
    prod = cartesian_product(path_graph(3), complete_graph(3))
    assert prod.n == 9
    assert prod.edge_count() == 15
    k1 = complete_graph(1)
    g = cycle_graph(5)
    same = cartesian_product(k1, g)
    assert same.n == g.n and same.edge_count() == g.edge_count()
    square = cartesian_product(complete_graph(2), complete_graph(2))
    assert square.n == 4 and square.edge_count() == 4
    assert square.degree_sequence() == (2, 2, 2, 2)


def test_cartesian_product_width_guard():
    with pytest.raises(UnsupportedGraphError):
        cartesian_product(complete_graph(9), complete_graph(9))


def test_cartesian_product_commutes_on_degree_sequences():
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 4), 0.6)
        h = random_graph(rng, rng.randint(2, 4), 0.6)
        left = cartesian_product(g, h)
        right = cartesian_product(h, g)
        assert left.degree_sequence() == right.degree_sequence()
        assert left.edge_count() == right.edge_count()


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8), st.integers(min_value=0, max_value=255))
def test_minimal_implies_dominating_and_irredundant(g, raw):
    s = raw & g.full_mask
    if is_minimal_dominating(g, s):
        assert is_dominating(g, s)
        assert is_irredundant(g, s)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8), st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_dominating_is_upward_closed(g, raw_s, raw_extra):
    s = raw_s & g.full_mask
    t = s | (raw_extra & g.full_mask)
    if is_dominating(g, s):
        assert is_dominating(g, t)


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=8), st.integers(min_value=0, max_value=255))
def test_private_neighbours_inside_closed_neighbourhood(g, raw):
    d = raw & g.full_mask
    for v in vertex_list(d):
        assert private_neighbours(g, v, d) & ~g.closed[v] == 0
