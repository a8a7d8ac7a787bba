import random
import signal
from itertools import combinations, groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domrec import (
    Budget,
    BudgetError,
    InputError,
    build_dk,
    cartesian_product,
    complete_graph,
    connectivity_profile,
    cycle_graph,
    d0_direct,
    dk_diameter,
    dominating_sets_upto,
    enumerate_minimal_dominating,
    generate_gkr,
    Graph,
    MAX_VERTICES,
    generate_qkr,
    is_dominating,
    mask_of,
    path_graph,
    popcount,
    reconfig_path,
    star,
    vertex_list,
)
from domrec import domination, reconfig
from domrec.domination import _counts_and_family
from domrec.families import GkrLayout, QkrLayout
from domrec.io_cli import parse_graph6
from domrec.reconfig import _prim_edges, _swap_components
from conftest import SHAPES, random_connected_graph, random_graph, small_graphs
from naive import (
    _components,
    is_parity_bipartite,
    naive_d0,
    naive_diameter,
    naive_dk,
    naive_is_dominating,
    naive_layered_components,
    naive_prim_tree,
    naive_reconfig_path,
    naive_shortest_path_length,
    naive_swap_components,
    one_layer_mismatches,
)


def test_dk_of_complete_graph_is_punctured_hypercube():
    rg = build_dk(complete_graph(3), 3)
    assert rg.order() == 7 and rg.size() == 9
    assert rg.component_count == 1


def test_dk_star_examples():
    rg = build_dk(star(3), 2)
    assert rg.order() == 4 and rg.size() == 3
    # D_3 contains the leaf set as an isolated vertex.
    rg3 = build_dk(star(3), 3)
    leaves = mask_of([1, 2, 3])
    idx = rg3.verts.index(leaves)
    degree = sum(1 for a, b in rg3.edges if idx in (a, b))
    assert degree == 0
    assert rg3.component_count == 2


def test_dk_below_gamma_is_empty():
    rg = build_dk(star(3), 0)
    assert rg.order() == 0 and rg.size() == 0 and rg.component_count == 0


def test_dk_matches_naive_construction():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        k = rng.randint(0, g.n)
        rg = build_dk(g, k)
        verts, edges = naive_dk(g, k)
        assert [frozenset(vertex_list(m)) for m in rg.verts] == verts
        assert list(rg.edges) == edges
        assert rg.component_count == (_components(len(verts), edges) if verts else 0)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=6))
def test_dk_is_induced_subgraph_of_subset_hypercube(g, k):
    rg = build_dk(g, k)
    # Hypercube adjacency on the same vertex set must agree exactly.
    expected = {
        (a, b)
        for a in range(rg.order())
        for b in range(a + 1, rg.order())
        if popcount(rg.verts[a] ^ rg.verts[b]) == 1
    }
    assert set(rg.edges) == expected
    assert is_parity_bipartite(rg)


def test_d0_examples():
    assert d0_direct(star(4)) == 5
    prod = cartesian_product(path_graph(3), complete_graph(3))
    assert d0_direct(prod) == 5
    g43, _ = generate_gkr(4, 3)
    assert d0_direct(g43) == 7


def test_d0_direct_builds_no_layer_above_d0(monkeypatch):
    # Layers stream on demand: gkr(4,3) has 106,067 dominating sets, and
    # the test of layer d0 - 1 = 6 settles d0 = 7, so no set above size 6
    # is ever listed. Layer d0 - 1 is read only up to its first bridge:
    # qkr(4,3)'s layer 6 holds 23,655 sets. Layers below Gamma are skipped.
    # gkr(4,3) has n = 17, so d0_direct takes the tables; its layered route
    # is called directly. qkr(4,3), n = 20, is above the cutoff.
    drawn = {}

    def layers(*args):
        for size, layer in domination._dominating_layers(*args):
            drawn[size] = 0

            def counted(layer=layer, size=size):
                for mask in layer:
                    drawn[size] += 1
                    yield mask

            yield size, counted()

    monkeypatch.setattr(reconfig, "_dominating_layers", layers)
    g43, _ = generate_gkr(4, 3)
    assert g43.n <= domination._DOM_TABLE_MAX_N
    assert d0_direct(g43) == 7
    assert drawn == {}
    Gamma = enumerate_minimal_dominating(g43).Gamma
    assert reconfig._d0_from_layers(g43, Gamma, Budget()) == 7
    assert list(drawn) == [4, 5, 6]
    drawn.clear()
    q43, _ = generate_qkr(4, 3)
    assert q43.n > domination._DOM_TABLE_MAX_N
    assert d0_direct(q43) == 7
    assert list(drawn) == [3, 4, 5, 6] and drawn[3] == 0
    assert drawn[4] == 1088 and drawn[5] == 6642 and drawn[6] < 1000


@pytest.mark.parametrize("generate, k, r, budget, tables", [
    (generate_gkr, 3, 2, 5, True), (generate_qkr, 4, 3, 19, False)],
    ids=["gkr(3,2)", "qkr(4,3)"])
def test_d0_direct_checks_the_budget_on_both_routes(generate, k, r, budget, tables):
    # With the family given, only the route itself can refuse the graph.
    g, _ = generate(k, r)
    assert g.n > budget and (g.n <= domination._DOM_TABLE_MAX_N) == tables
    fam = enumerate_minimal_dominating(g)
    with pytest.raises(BudgetError):
        d0_direct(g, Budget(budget), family=fam)


def _both_routes(g):
    """(tables, layers): d0 by each route of d0_direct."""
    Gamma = enumerate_minimal_dominating(g).Gamma
    return (reconfig._d0_from_tables(g, Gamma, Budget()),
            reconfig._d0_from_layers(g, Gamma, Budget()))


# Every gkr and qkr with n <= _DOM_TABLE_MAX_N; at 18, qkr(5,2) and qkr(8,1) are the largest.
BELOW_CUTOFF = [(kind, k, r) for kind, layout in (("gkr", GkrLayout), ("qkr", QkrLayout))
                for k in range(3, 17) for r in range(1, k)
                if layout(k, r).order <= domination._DOM_TABLE_MAX_N]


@pytest.mark.parametrize("kind, k, r", BELOW_CUTOFF)
def test_d0_routes_agree_on_every_construction_below_the_cutoff(kind, k, r):
    g, _ = (generate_gkr if kind == "gkr" else generate_qkr)(k, r)
    assert _both_routes(g) == (k + r,) * 2


# Graphs whose d0 is Gamma + 2, so that d0_direct lifts a layer above Gamma:
# the one such graph of order 9, and the smallest gkr and qkr. Every
# connected graph of order <= 8 has d0 = Gamma + 1.
LIFTED = {"HJaGhVB": parse_graph6("HJaGhVB"), "gkr(3,2)": generate_gkr(3, 2)[0],
          "qkr(3,2)": generate_qkr(3, 2)[0]}


@pytest.mark.parametrize("name", LIFTED)
def test_d0_direct_matches_naive_where_a_layer_above_gamma_decides(name):
    g = LIFTED[name]
    assert enumerate_minimal_dominating(g).Gamma == 3
    assert d0_direct(g) == naive_d0(g) == 5


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LIFTED)), st.randoms(use_true_random=False))
def test_d0_direct_ignores_vertex_order_where_a_layer_above_gamma_decides(name, rnd):
    # Renaming the vertices reorders every layer, so the bridge that joins
    # layer Gamma + 1 is met at another point of the scan.
    g = LIFTED[name]
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert d0_direct(h) == 5
    assert _both_routes(h) == (5, 5)


def test_d0_matches_naive_on_random_graphs():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7))
        assert d0_direct(g) == naive_d0(g)


def test_d0_rejects_edgeless():
    with pytest.raises(InputError):
        d0_direct(Graph.from_edges(3, []))


def test_d0_handles_isolated_vertices_by_definition():
    # One edge plus an isolated vertex: the isolated vertex sits in every
    # dominating set.
    g = Graph.from_edges(3, [(0, 1)])
    assert d0_direct(g) == naive_d0(g)


def test_connectivity_profiles():
    prof = connectivity_profile(star(4))
    by_k = {e.k: e.connected for e in prof.profile}
    assert by_k == {1: True, 2: True, 3: True, 4: False, 5: True}

    prof_k3 = connectivity_profile(complete_graph(3))
    by_k = {e.k: e.connected for e in prof_k3.profile}
    assert by_k == {1: False, 2: True, 3: True}

    g43, _ = generate_gkr(4, 3)
    prof43 = connectivity_profile(g43)
    for e in prof43.profile:
        assert e.connected == (e.k >= 7)


def test_profile_orders_and_sizes_match_explicit_dk():
    rng = random.Random(17)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7), 0.6)
        prof = connectivity_profile(g)
        for entry in prof.profile:
            rg = build_dk(g, entry.k)
            assert entry.order == rg.order()
            assert entry.size == rg.size()
            assert entry.component_count == rg.component_count
            assert entry.connected == rg.connected


def test_connectivity_monotone_above_Gamma(corpus50):
    for g in corpus50:
        Gamma = enumerate_minimal_dominating(g).Gamma
        prof = connectivity_profile(g)
        seen_connected = False
        for e in prof.profile:
            if e.k <= Gamma:
                continue
            if seen_connected:
                assert e.connected, f"connectivity dipped above Gamma at k={e.k}"
            seen_connected = seen_connected or e.connected


def test_d0_sandwich_bounds(corpus50):
    for g in corpus50:
        fam = enumerate_minimal_dominating(g)
        d0 = d0_direct(g)
        assert fam.Gamma + 1 <= d0 <= fam.Gamma + fam.gamma


def test_reconfig_path_triangle():
    k3 = complete_graph(3)
    path = reconfig_path(k3, mask_of([0]), mask_of([1]), 2)
    assert path == [mask_of([0]), mask_of([0, 1]), mask_of([1])]


def test_reconfig_path_star_blocked_then_open():
    g = star(3)
    leaves, centre = mask_of([1, 2, 3]), mask_of([0])
    assert reconfig_path(g, leaves, centre, 3) is None
    path = reconfig_path(g, leaves, centre, 4)
    assert path is not None
    assert len(path) - 1 == naive_shortest_path_length(
        g, 4, frozenset({1, 2, 3}), frozenset({0})
    )
    assert len(path) - 1 == 4
    assert mask_of([0, 1, 2, 3]) in path
    for s in path:
        assert is_dominating(g, s) and popcount(s) <= 4
    for a, b in zip(path, path[1:]):
        assert popcount(a ^ b) == 1


def test_reconfig_path_validates_endpoints():
    g = star(3)
    with pytest.raises(InputError):
        reconfig_path(g, mask_of([1]), mask_of([0]), 3)
    with pytest.raises(InputError):
        reconfig_path(g, mask_of([1, 2, 3]), mask_of([0]), 2)


def test_union_bound_guarantees_connection():
    # Any two minimal dominating sets lie in one component of D_k as soon
    # as k reaches the size of their union (go up to the union, back down).
    rng = random.Random(47)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 7))
        fam = enumerate_minimal_dominating(g)
        for _ in range(5):
            a = fam.sets[rng.randrange(len(fam.sets))]
            b = fam.sets[rng.randrange(len(fam.sets))]
            k = popcount(a | b)
            path = reconfig_path(g, a, b, k)
            assert path is not None
            assert len(path) - 1 <= 2 * k  # crude sanity on the detour length


def _path_and_rounds(monkeypatch, g, a, b, k):
    """reconfig_path's answer on the table route, and the rounds of its sphere search."""
    calls, rounds = [], []
    near, spheres = reconfig._near, reconfig._spheres

    def counted_near(*args):
        calls.append(None)
        return near(*args)

    def counted_spheres(*args):
        before = len(calls)
        out = spheres(*args)
        rounds.append(len(calls) - before)
        return out

    monkeypatch.setattr(reconfig, "_near", counted_near)
    monkeypatch.setattr(reconfig, "_spheres", counted_spheres)
    assert g.n <= domination._DOM_TABLE_MAX_N
    path = reconfig_path(g, a, b, k)
    assert len(rounds) == 1
    return path, rounds[0], len(calls)


def test_path_tables_make_one_round_per_unit_of_distance(monkeypatch):
    # d rounds to meet, and fewer than d to rebuild the levels on a's side.
    gkr43 = generate_gkr(4, 3)[0]
    p3xp6 = cartesian_product(path_graph(3), path_graph(6))
    queries = [(gkr43, [1, 2, 3, 4], [1, 5, 9, 13], k) for k in (7, 8, 9)]
    queries += [(p3xp6, [1, 3, 7, 11, 13, 16], [1, 4, 8, 10, 12, 16], 7),
                (p3xp6, [2, 6, 10, 11, 14], [2, 6, 10, 11, 14], 5), (star(3), [1, 2, 3], [0], 4)]
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.7))
        sets = naive_dk(g, g.n)[0]
        a, b = rng.choice(sets), rng.choice(sets)
        queries.append((g, sorted(a), sorted(b), rng.randint(max(len(a), len(b)), g.n)))
    found = 0
    for g, a, b, k in queries:
        path, rounds, calls = _path_and_rounds(monkeypatch, g, mask_of(a), mask_of(b), k)
        if path is not None:
            found += 1
            d = len(path) - 1
            assert rounds == d and calls <= max(2 * d - 1, 0), (g, a, b, k)
    assert found >= 25


def test_path_tables_stop_once_the_smaller_side_stops_growing(monkeypatch):
    # star(17): the 17 leaves are isolated in D_17, while {0} lies in a component of
    # 2^17 - 1 sets; the search ends with the leaves' side, at its first or second round.
    leaves, centre = mask_of(range(1, 18)), mask_of([0])
    assert _path_and_rounds(monkeypatch, star(17), leaves, centre, 17)[:2] == (None, 1)
    assert _path_and_rounds(monkeypatch, star(17), centre, leaves, 17)[:2] == (None, 2)
    # gkr(4,3) at k = 6: the hub set's component has 92 sets and eccentricity 2, the
    # transversal's 9,040 sets and eccentricity 10.
    g = generate_gkr(4, 3)[0]
    path, rounds, _ = _path_and_rounds(monkeypatch, g, mask_of([1, 2, 3, 4]),
                                       mask_of([1, 5, 9, 13]), 6)
    assert path is None and rounds <= 2 * (2 + 1) < 10 + 1


@pytest.mark.parametrize("generate, k, r, budget, tables", [
    (generate_gkr, 3, 2, 5, True), (generate_qkr, 4, 3, 19, False)],
    ids=["gkr(3,2)", "qkr(4,3)"])
def test_path_checks_the_budget_on_both_routes(monkeypatch, generate, k, r, budget, tables):
    g, lay = generate(k, r)
    assert g.n > budget and (g.n <= domination._DOM_TABLE_MAX_N) == tables
    built = []
    monkeypatch.setattr(domination, "_vertex_tables", lambda n: built.append(n))
    with pytest.raises(BudgetError, match=f"max_n={budget}"):
        reconfig_path(g, lay.hub_mask, lay.hub_mask, k, Budget(budget))
    assert built == []


def test_reconfig_path_same_endpoints():
    g = star(3)
    assert reconfig_path(g, mask_of([0]), mask_of([0]), 1) == [mask_of([0])]


def test_reconfig_path_lengths_match_oracle():
    rng = random.Random(19)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6))
        fam = enumerate_minimal_dominating(g)
        a, b = fam.sets[0], fam.sets[-1]
        k = min(g.n, popcount(a) + popcount(b))
        path = reconfig_path(g, a, b, k)
        oracle = naive_shortest_path_length(
            g, k, frozenset(vertex_list(a)), frozenset(vertex_list(b))
        )
        if path is None:
            assert oracle is None
        else:
            assert len(path) - 1 == oracle


def test_dk_diameter_examples():
    assert dk_diameter(build_dk(star(3), 2)) == 2
    assert dk_diameter(build_dk(complete_graph(2), 2)) == 2
    # Disconnected level: diameter is absent.
    assert dk_diameter(build_dk(star(3), 3)) is None
    with pytest.raises(InputError):
        dk_diameter(build_dk(star(3), 0))


def test_dn_diameter_bound(corpus50):
    for g in corpus50[:20]:
        fam = enumerate_minimal_dominating(g)
        rg = build_dk(g, g.n)
        diam = dk_diameter(rg)
        assert diam is not None
        assert diam <= 2 * (g.n - fam.gamma)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7))
@example(SHAPES[0])
@example(SHAPES[1])
@example(SHAPES[2])
def test_profile_matches_naive_dk_and_layered_union_find(g):
    prof = connectivity_profile(g)
    layered = list(naive_layered_components(groupby(dominating_sets_upto(g, g.n), popcount)))
    assert [(e.k, e.component_count) for e in prof.profile] == layered
    assert prof.gamma == layered[0][0]
    for e in prof.profile:
        verts, edges = naive_dk(g, e.k)
        comps = _components(len(verts), edges)
        assert (e.order, e.size, e.component_count) == (len(verts), len(edges), comps)
        assert e.connected == (comps == 1)
    # Below gamma D_k is empty, and the profile starts at gamma.
    assert not naive_dk(g, prof.gamma - 1)[0]


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7), st.randoms(use_true_random=False))
@example(SHAPES[0], random.Random(0))
@example(SHAPES[1], random.Random(1))
@example(SHAPES[2], random.Random(2))
def test_layered_connectivity_ignores_order_within_a_layer(g, rnd):
    sets = dominating_sets_upto(g, g.n)
    layers = [(k, list(layer)) for k, layer in groupby(sets, popcount)]
    layered = list(naive_layered_components(layers))
    swaps = [naive_swap_components(frozenset(vertex_list(m)) for m in layer)
             for _k, layer in layers]
    shuffled = []
    for k, layer in layers:
        layer = layer[:]
        rnd.shuffle(layer)
        shuffled.append((k, layer))
    assert list(naive_layered_components(shuffled)) == layered
    assert [_swap_components(layer)[0] for _k, layer in shuffled] == swaps
    for k, comps in layered:
        verts, edges = naive_dk(g, k)
        assert comps == _components(len(verts), edges)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7))
@example(SHAPES[0])
@example(SHAPES[1])
@example(SHAPES[2])
@example(cycle_graph(6))
def test_dk_components_are_swap_components_of_one_layer(g):
    # For k > gamma, every set of D_k below size k - 1 grows into layer
    # k - 1, and a k-set either shrinks into it or is a minimal dominating
    # set, isolated in D_k. Two (k-1)-sets are joined in D_k exactly when
    # swaps join them (reconfig module docstring).
    assert one_layer_mismatches(g) == []


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7))
@example(SHAPES[0])
@example(SHAPES[1])
def test_dominating_set_counts_match_naive_count(g):
    expected = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            expected[size] += naive_is_dominating(g, frozenset(combo))
    assert _counts_and_family(g)[0] == expected


@pytest.mark.parametrize("block", [1, 3, reconfig._DIAMETER_BLOCK])
@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=7), st.integers(min_value=0, max_value=7))
@example(SHAPES[1], 5)
@example(SHAPES[2], 7)
@example(Graph.from_edges(3, [(0, 1), (1, 2)]), 3)  # P3: odd diameter 3
@example(star(3), 4)  # even diameter 4
@example(star(3), 1)  # one vertex {0}, of odd size: diameter 0 read at round 0
@example(Graph.from_edges(2, []), 2)  # one vertex {0, 1}, of even size: read at round 1
def test_dk_diameter_matches_all_pairs_bfs(block, g, k):
    rg = build_dk(g, k)
    if not rg.verts:
        with pytest.raises(InputError):
            dk_diameter(rg)
        return
    # Blocks of 1 and 3 sources run the multi-block path.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconfig, "_DIAMETER_BLOCK", block)
        assert dk_diameter(rg) == naive_diameter(g, k)


# reconfig_path against BFS over the sorted adjacency lists of naive_dk ---------


def _path_example(g, k, a, b):
    """Pin a path query by the canonical indices of its endpoints."""
    sets = [mask_of(d) for d in naive_dk(g, g.n)[0]]
    return example(g, k, sets.index(mask_of(a)), sets.index(mask_of(b)))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=7), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0), st.integers(min_value=0))
@_path_example(SHAPES[0], 5, range(5), range(5))  # edgeless: one dominating set
@_path_example(SHAPES[0], 4, range(5), range(5))  # ... above k
@_path_example(SHAPES[1], 5, [0, 1, 3, 5], [0, 2, 4])
@_path_example(SHAPES[1], 3, [0, 1, 4], [0, 2, 4])  # found:false
@_path_example(SHAPES[2], 3, [0, 4, 5], [1, 4, 5])  # found:false
@_path_example(SHAPES[2], 5, [0, 4, 5], [2, 3, 6])
@_path_example(star(3), 3, [1, 2, 3], [0])  # found:false
def test_reconfig_path_matches_naive_bfs(g, k, i, j):
    k = min(k, g.n)
    sets = naive_dk(g, g.n)[0]
    a, b = sets[i % len(sets)], sets[j % len(sets)]
    if max(len(a), len(b)) > k:
        with pytest.raises(InputError):
            reconfig_path(g, mask_of(a), mask_of(b), k)
        return
    path = reconfig_path(g, mask_of(a), mask_of(b), k)
    expected = naive_reconfig_path(g, k, a, b)
    assert (None if path is None else [frozenset(vertex_list(s)) for s in path]) == expected


# _prim_edges against the plain O(m^2) Prim loop ------------------------------


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7))
@example(Graph.from_edges(3, []))  # edgeless: one set, no tree edge
@example(Graph.from_edges(2, [(0, 1)]))  # two sets, one tree edge
@example(SHAPES[1])
@example(generate_gkr(4, 3)[0])  # 321 sets
@example(generate_qkr(4, 3)[0])  # 382 sets
@example(generate_gkr(5, 3)[0])  # 751 sets, packed again twice
@example(generate_qkr(5, 3)[0])  # 842 sets, all but one lane settled at once
def test_prim_tree_matches_naive_on_minimal_families(g):
    sets = enumerate_minimal_dominating(g).sets
    tree = list(_prim_edges(sets))
    assert tree == naive_prim_tree(sets)
    assert len(tree) == len(sets) - 1


@st.composite
def distinct_masks(draw, max_width=64):
    """Distinct vertex masks in any order, with subsets and supersets of
    each other drawn on purpose, which no minimal family has."""
    width = draw(st.integers(min_value=1, max_value=max_width))
    masks = st.integers(min_value=0, max_value=(1 << width) - 1)
    sets = draw(st.lists(masks, min_size=1, max_size=40))
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        a, b = draw(st.sampled_from(sets)), draw(masks)
        sets.append(draw(st.sampled_from([a | b, a & b])))
    return tuple(draw(st.permutations(list(dict.fromkeys(sets)))))


@settings(max_examples=300, deadline=None)
@given(distinct_masks())
@example((0b111,))
@example((0b011, 0b110))
@example((0b0001, 0b0011, 0b0111, 0b1111))  # a chain of nested sets
def test_prim_tree_matches_naive_on_synthetic_families(sets):
    assert list(_prim_edges(sets)) == naive_prim_tree(sets)


@settings(max_examples=300, deadline=None)
@given(distinct_masks())
@example((0b0001, 0b0011, 0b0111, 0b1111))
@example((0b1, 0b1110, 0b110))  # {1, 2} lowers {1, 2, 3} from |Y| + 1 to |Y|
# {1} waits at 2 behind seven singletons of lower index, and each {1, c} at
# |Y| + 1 = 3 must stay in its lane until {1} is taken and lowers it to 2.
@example((1, *(1 << a for a in range(3, 10)), 0b10,
          *(0b10 | 1 << c for c in range(20, 24)), 0b1_1100_0000_0000, 0b10_1100_0000_0000))
def test_prim_tree_retires_exactly_on_synthetic_families(sets):
    # With a lane floor of 2, small families take the retire path too: they
    # look for settled lanes every lanes / 2 steps and are packed again.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconfig, "_LANE_FLOOR", 2)
        patch.setattr(reconfig, "_RETIRE_EVERY", 2)
        assert list(_prim_edges(sets)) == naive_prim_tree(sets)


def test_prim_tree_advances_when_the_cadence_exceeds_the_floor():
    # Each checkpoint must take at least one step: with lanes // _RETIRE_EVERY
    # steps alone, _LANE_FLOOR <= lanes < _RETIRE_EVERY would take none, forever.
    # The alarm turns such a hang into a failure.
    rng = random.Random(4)
    families = [(0b011, 0b110, 0b101), (1, 2), (0b0001, 0b0011, 0b0111, 0b1111)]
    families += [enumerate_minimal_dominating(g).sets
                 for g in (star(3), cycle_graph(5), generate_gkr(3, 1)[0])]
    families += [tuple(dict.fromkeys(rng.getrandbits(12) for _ in range(m)))
                 for m in (5, 9, 17, 40)]

    def hang(signum, frame):
        raise TimeoutError("_prim_edges took no step at a checkpoint")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconfig, "_LANE_FLOOR", 2)
            patch.setattr(reconfig, "_RETIRE_EVERY", 4)
            for sets in families:
                assert list(_prim_edges(sets)) == naive_prim_tree(sets)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def nested_family_above_the_floor() -> tuple[int, ...]:
    """A family where a set Y sits at |Y| + 1 from the first step, while a
    proper subset X of Y is taken much later and lowers Y to |Y|.

    The root {0} is at |Y| + 1 = 11 from Y = {1..10} and at 10 from
    X = {1..9}. 300 sets {0, a, b} with a, b in 11..40 hold the root, so
    they sit at their own size and are taken first; then X, then Y. A set
    smaller than Y is left to take until X is taken, so Y must not be
    retired at |Y| + 1 before that.
    """
    root, y, x = 0b1, 0b111_1111_1110, 0b11_1111_1110
    fillers = [1 | 1 << a | 1 << b for a, b in combinations(range(11, 41), 2)][:300]
    rest = [y, x] + fillers
    random.Random(18).shuffle(rest)
    return (root, *rest)


def test_prim_tree_keeps_a_member_whose_subset_is_left_to_take():
    sets = nested_family_above_the_floor()
    assert len(sets) >= reconfig._LANE_FLOOR
    y, x = sets.index(0b111_1111_1110), sets.index(0b11_1111_1110)
    tree = naive_prim_tree(sets)
    taken = [child for _, _, child in tree]
    # Y reaches |Y| + 1 = 11 from the root, and X is taken after every filler.
    assert popcount(sets[0] | sets[y]) == 11
    assert taken.index(x) == len(sets) - 3
    assert (10, x, y) in tree
    assert list(_prim_edges(sets)) == tree


def test_prim_tree_byte_fields_hold_every_weight():
    # One byte per member holds |X u Y| with a guard bit; weights are at
    # most MAX_VERTICES and must stay below 127.
    assert MAX_VERTICES < 127
    low = (1 << 32) - 1
    high = low << 32
    full = (1 << 64) - 1
    assert list(_prim_edges((low, high))) == [(64, 0, 1)]
    rng = random.Random(64)
    halves = [rng.getrandbits(64) for _ in range(6)]
    families = [
        (low, high, 1, 1 << 63, low | 1 << 40, full),
        (full, high, low),
        tuple(x for h in halves for x in (h, full ^ h)) + (1 << 5, 1 << 60),
    ]
    for sets in families:
        assert max(popcount(x | y) for x in sets for y in sets) == 64
        assert list(_prim_edges(sets)) == naive_prim_tree(sets)
    # full is 64 from everything: it joins last, and ties go to the lowest index.
    assert list(_prim_edges(families[0]))[-1] == (64, 0, 5)
    assert list(_prim_edges(families[1])) == [(64, 0, 1), (64, 0, 2)]
