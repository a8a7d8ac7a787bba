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
    generate_gkr,
    generate_qkr,
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
from naive import degree_sequence, edge_count, naive_private_neighbours, parser_round_trips

K13 = star(3)  # centre 0, leaves 1..3


def test_graph_construction_rejects_bad_input():
    # These refusals are the only guard on the from_edges route: the graph
    # it builds skips __post_init__, so each message is pinned.
    cases = [
        (3, [(-1, 0)], "edge (-1,0) out of range for n=3"),
        (2, [(0, 5)], "edge (0,5) out of range for n=2"),
        (2, [(0, 1), (1, 2)], "edge (1,2) out of range for n=2"),
        (3, [(0, 0)], "self-loop at vertex 0"),
        (3, [(0, 1), (1, 0)], "multi-edge (0, 1)"),
        (3, [(2, 1), (1, 2)], "multi-edge (1, 2)"),
        (3, [(1, 2), (1, 2)], "multi-edge (1, 2)"),
        (0, [], "graph must have at least one vertex"),
        (65, [], "graph has 65 vertices; supported maximum is 64"),
        # refused before allocating n adjacency rows
        (10**12, [], "graph has 1000000000000 vertices; supported maximum is 64"),
    ]
    for n, edges, message in cases:
        with pytest.raises(UnsupportedGraphError) as err:
            Graph.from_edges(n, edges)
        assert str(err.value) == message, (n, edges)


@pytest.mark.parametrize("n, edges", [
    (3, [(0.5, 1)]),
    (3, [(1, 0.5)]),
    (3.0, []),
    ("3", []),
    (3, [(True, 2.0)]),
    (3, [(0, 1), ("1", 2)]),
], ids=["float-first-id", "float-second-id", "float-n", "str-n", "float-after-bool", "str-id"])
def test_from_edges_refuses_non_int_input_by_name(n, edges):
    # A TypeError from inside from_edges would be an unnamed error.
    with pytest.raises(UnsupportedGraphError) as err:
        Graph.from_edges(n, edges)
    assert str(err.value) == "the vertex count and every edge endpoint must be an int"


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1, 2)], "every edge must be a pair of vertex ids"),
    (3, [(1,)], "every edge must be a pair of vertex ids"),
    (3, [(0, 1), 5], "every edge must be a pair of vertex ids"),
    (3, iter([(0, 1), ()]), "every edge must be a pair of vertex ids"),
    (3, 5, "edges must be an iterable of pairs, got int"),
    (3, None, "edges must be an iterable of pairs, got NoneType"),
], ids=["triple", "single", "int-edge", "empty-edge-from-iterator", "int-edges", "none-edges"])
def test_from_edges_names_a_malformed_edge_list(n, edges, message):
    with pytest.raises(UnsupportedGraphError) as err:
        Graph.from_edges(n, edges)
    assert str(err.value) == message


@pytest.mark.parametrize("n, adj", [
    (3.0, (0, 0, 0)),
    ("3", (0, 0, 0)),
    (3, (0, 0.0, 0)),
    (3, (0, 0, "0")),
], ids=["float-n", "str-n", "float-row", "str-row"])
def test_graph_direct_construction_refuses_non_int_input_by_name(n, adj):
    with pytest.raises(UnsupportedGraphError) as err:
        Graph(n=n, adj=adj)
    assert str(err.value) == "the vertex count and every adjacency row must be an int"


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


# Graph.from_edges builds without the __post_init__ checks. Each route
# through it must give the graph that the checked constructor gives;
# dataclass equality compares n, adj and closed.


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
def test_parsers_build_what_the_checked_constructor_builds(g):
    for route, built, checked in parser_round_trips(g):
        assert built == checked, route


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=5), small_graphs(max_n=5))
def test_cartesian_product_builds_what_the_checked_constructor_builds(g, h):
    prod = cartesian_product(g, h)
    assert prod == Graph(prod.n, prod.adj)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_edges_builds_the_pair_bits_that_are_set(data):
    # Bit p of pairs is the p-th pair in graph6's order; an edge list may
    # add the pairs left clear.
    n = data.draw(st.integers(min_value=1, max_value=64), label="n")
    pairs = data.draw(st.integers(min_value=0, max_value=(1 << n * (n - 1) // 2) - 1))
    order = [(i, j) for j in range(1, n) for i in range(j)]
    edges = [pair for p, pair in enumerate(order) if pairs >> p & 1]
    g = Graph.from_edges(n, pairs=pairs)
    assert g == Graph.from_edges(n, edges) == Graph(n, g.adj)
    rest = [pair[::-1] for p, pair in enumerate(order) if not pairs >> p & 1]
    assert Graph.from_edges(n, rest, pairs=pairs).adj == tuple(
        (1 << n) - 1 ^ 1 << v for v in range(n))


@pytest.mark.parametrize("n, edges, pairs, message", [
    (0, (), 1, "graph must have at least one vertex"),
    (65, (), 1, "graph has 65 vertices; supported maximum is 64"),
    (1, (), 1, "pair bits beyond the 0 pairs of n=1"),
    (3, (), 0b1000, "pair bits beyond the 3 pairs of n=3"),
    (3, (), -1, "pair bits beyond the 3 pairs of n=3"),
    (3, [(1, 2)], 0b100, "multi-edge (1, 2)"),
    (3.0, (), 1, "the vertex count and every edge endpoint must be an int"),
    (3, (), 1.0, "pairs must be an int, got float"),
    (3, (), "1", "pairs must be an int, got str"),
], ids=["no-vertex", "too-wide", "bit-past-no-pair", "bit-past-last-pair", "negative",
        "edge-repeats-a-pair", "float-n", "float-pairs", "str-pairs"])
def test_from_edges_refuses_bad_pair_bits(n, edges, pairs, message):
    with pytest.raises(UnsupportedGraphError) as err:
        Graph.from_edges(n, edges, pairs=pairs)
    assert str(err.value) == message


def test_families_build_what_the_checked_constructor_builds():
    graphs = [make(n) for n in range(1, 11) for make in (complete_graph, star, path_graph)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [make(k, r)[0] for make in (generate_gkr, generate_qkr)
               for k in range(3, 6) for r in range(1, k)]
    assert len(graphs) == 56
    for g in graphs:
        assert g == Graph(g.n, g.adj)


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
    assert edge_count(prod) == 15
    k1 = complete_graph(1)
    g = cycle_graph(5)
    same = cartesian_product(k1, g)
    assert same.n == g.n and edge_count(same) == edge_count(g)
    square = cartesian_product(complete_graph(2), complete_graph(2))
    assert square.n == 4 and edge_count(square) == 4
    assert degree_sequence(square) == (2, 2, 2, 2)


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
        assert degree_sequence(left) == degree_sequence(right)
        assert edge_count(left) == edge_count(right)


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
