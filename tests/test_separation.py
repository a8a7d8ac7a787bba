import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domrec import (
    Budget,
    BudgetError,
    DomFamily,
    Graph,
    InputError,
    check_sep_equals_d0,
    complete_graph,
    cycle_graph,
    d0_direct,
    enumerate_minimal_dominating,
    generate_gkr,
    generate_qkr,
    path_graph,
    popcount,
    sep_at_most,
    sep_bottleneck,
    sep_brute_force,
    sep_value,
    star,
    vertex_list,
)
from domrec import separation
from domrec.reconfig import _packed
from conftest import (BOUND_BELOW_SEP, bipartite_graphs, chordal_graphs, edged_graphs,
                      random_connected_graph, small_graphs, synthetic_family)
from naive import partition_separation
from naive import naive_d0, naive_sep, naive_sep_report, naive_threshold_component


def test_sep_star():
    fam = enumerate_minimal_dominating(star(3))
    for rep in (sep_brute_force(fam), sep_bottleneck(fam)):
        assert rep.sep == 4
        pair = {frozenset(vertex_list(s)) for s in rep.witness_pair}
        assert pair == {frozenset({0}), frozenset({1, 2, 3})}
        assert rep.witness_partition == ((0,), (1,))


def test_sep_cycle_and_k2():
    c4 = enumerate_minimal_dominating(cycle_graph(4))
    assert len(c4.sets) == 6
    assert sep_brute_force(c4).sep == 3
    assert sep_bottleneck(c4).sep == 3
    assert naive_sep([frozenset(vertex_list(s)) for s in c4.sets]) == 3

    k2 = enumerate_minimal_dominating(complete_graph(2))
    assert sep_brute_force(k2).sep == 2
    assert sep_bottleneck(k2).sep == 2


def test_sep_rejects_single_set_family():
    fam = enumerate_minimal_dominating(Graph.from_edges(3, []))
    with pytest.raises(InputError):
        sep_brute_force(fam)
    with pytest.raises(InputError) as tree:
        sep_bottleneck(fam)
    with pytest.raises(InputError) as threshold:
        sep_at_most(fam, 5)
    assert str(threshold.value) == str(tree.value)


def test_sep_brute_force_family_size_cap():
    g43, _ = generate_gkr(4, 3)
    fam = enumerate_minimal_dominating(g43)
    with pytest.raises(BudgetError):
        sep_brute_force(fam)


def test_sep_constructions():
    g43, _ = generate_gkr(4, 3)
    assert sep_bottleneck(enumerate_minimal_dominating(g43)).sep == 7
    q43, _ = generate_qkr(4, 3)
    assert sep_bottleneck(enumerate_minimal_dominating(q43)).sep == 7


def _witness_is_valid(fam, rep):
    a, b = rep.witness_partition
    assert sorted(a + b) == list(range(len(fam.sets)))
    assert a and b
    # The witness pair straddles the partition and has union size sep.
    i = fam.sets.index(rep.witness_pair[0])
    j = fam.sets.index(rep.witness_pair[1])
    assert (i in a) != (j in a)
    assert popcount(rep.witness_pair[0] | rep.witness_pair[1]) == rep.sep
    # The partition achieves the separation value.
    assert partition_separation(fam, b) == rep.sep


def test_witnesses_are_valid_and_methods_agree(corpus50):
    rng = random.Random(99)
    graphs = [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(30)]
    checked = 0
    for g in graphs + corpus50[:20]:
        fam = enumerate_minimal_dominating(g)
        if len(fam.sets) < 2:
            continue
        rep_fast = sep_bottleneck(fam)
        _witness_is_valid(fam, rep_fast)
        assert rep_fast.sep >= fam.Gamma + 1
        if len(fam.sets) <= 15:
            rep_slow = sep_brute_force(fam)
            _witness_is_valid(fam, rep_slow)
            assert rep_slow.sep == rep_fast.sep
            checked += 1
        if len(fam.sets) <= 11:
            naive = naive_sep([frozenset(vertex_list(s)) for s in fam.sets])
            assert naive == rep_fast.sep
    assert checked >= 5, "corpus never exercised the brute-force oracle"


def test_sep_equals_d0_on_stars_and_product():
    for n in range(3, 6):
        ev = check_sep_equals_d0(star(n))
        assert ev.agree and ev.d0 == n + 1
    from domrec import cartesian_product, path_graph

    prod = cartesian_product(path_graph(3), complete_graph(3))
    ev = check_sep_equals_d0(prod)
    assert ev.agree and ev.d0 == 5


def test_sep_equals_d0_random_campaign(corpus50):
    for g in corpus50:
        ev = check_sep_equals_d0(g)
        assert ev.agree, f"sep={ev.sep} d0={ev.d0} on {g.edges()}"


def test_check_rejects_edgeless():
    with pytest.raises(InputError):
        check_sep_equals_d0(Graph.from_edges(2, []))


def test_sep_equals_d0_off_the_connected_corpus():
    from domrec import Graph

    # Disconnected but edged: two disjoint edges.
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    ev = check_sep_equals_d0(two_k2)
    assert ev.agree and ev.d0 == 3
    # One edge plus isolated vertices.
    dangling = Graph.from_edges(4, [(1, 2)])
    ev = check_sep_equals_d0(dangling)
    assert ev.agree and ev.d0 == 4


def test_sep_lower_bound_gamma_plus_one(corpus50):
    for g in corpus50[:25]:
        fam = enumerate_minimal_dominating(g)
        assert sep_bottleneck(fam).sep >= fam.Gamma + 1


def test_minimax_duality_on_synthetic_families():
    # The bottleneck-tree route must equal the literal partition scan for
    # arbitrary set collections, not just genuine minimal-dominating
    # families; this isolates the max-min-cut / MST-bottleneck duality.
    from domrec import DomFamily

    rng = random.Random(808)
    for _ in range(150):
        width = rng.randint(4, 10)
        m = rng.randint(2, min(11, (1 << width) - 1))
        sets = []
        while len(sets) < m:
            mask = rng.getrandbits(width) or 1
            if mask not in sets:
                sets.append(mask)
        fam = synthetic_family(sets)
        fast = sep_bottleneck(fam)
        slow = sep_brute_force(fam)
        assert fast.sep == slow.sep
        _witness_is_valid(fam, fast)
        _witness_is_valid(fam, slow)


def test_d0_equals_sep_is_exact_not_approximate():
    # The two routes share nothing: one scans D_k connectivity, the other
    # runs Prim on family pair weights. Equality on every instance is the
    # cross-validation contract.
    rng = random.Random(4242)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8))
        fam = enumerate_minimal_dominating(g)
        assert sep_bottleneck(fam).sep == d0_direct(g)


@settings(max_examples=150, deadline=None)
@given(edged_graphs())
@example(Graph.from_edges(5, [(1, 2)]))  # isolated vertices
@example(Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)]))  # two components
def test_d0_equals_sep_on_any_edged_graph(g):
    # hunt decides its threshold by asking whether sep <= Gamma + E - 1,
    # and computes sep only for a hit; this is the equality it relies on,
    # checked against the definition, off the connected corpus.
    fam = enumerate_minimal_dominating(g)
    assert naive_d0(g) == d0_direct(g) == sep_bottleneck(fam).sep


# sep_at_most: the threshold question, against sep and the definition ----------


# Haas and Seyffarth, "The k-dominating graph", Graphs Combin. 30 (2014):
# d0 = Gamma + 1 on bipartite and on chordal graphs. Both routes must meet it.


def assert_d0_is_gamma_plus_one(g):
    fam = enumerate_minimal_dominating(g)
    assert sep_bottleneck(fam).sep == fam.Gamma + 1
    assert d0_direct(g, family=fam) == fam.Gamma + 1


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs())
@example(path_graph(9))
@example(cycle_graph(8))
@example(Graph.from_edges(9, [(a, b) for a in range(3) for b in range(3, 6)]))  # K33, 3 isolated
def test_d0_is_gamma_plus_one_on_bipartite_graphs(g):
    assert_d0_is_gamma_plus_one(g)


@settings(max_examples=150, deadline=None)
@given(chordal_graphs())
@example(complete_graph(6))
@example(star(8))
@example(Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)]))
def test_d0_is_gamma_plus_one_on_chordal_graphs(g):
    assert_d0_is_gamma_plus_one(g)


@settings(max_examples=150, deadline=None)
@given(edged_graphs())
@example(Graph.from_edges(5, [(1, 2)]))  # isolated vertices
@example(Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)]))  # two components
def test_sep_at_most_matches_sep_and_the_definition(g):
    fam = enumerate_minimal_dominating(g)
    sep = sep_bottleneck(fam).sep
    if len(fam.sets) <= 11:  # naive_sep scans all 2^(m-1) partitions
        assert naive_sep([frozenset(vertex_list(s)) for s in fam.sets]) == sep
    for k in [*range(-1, fam.Gamma + fam.gamma + 2), 64, 200]:
        assert sep_at_most(fam, k) == (sep <= k)


def test_sep_at_most_on_synthetic_families():
    # Arbitrary distinct sets over up to 64 vertices, the empty set
    # included, at every k around the field range. m falls below the scan
    # cutoff, at it, just above it and well above it.
    cutoff = separation._SCAN_MAX_SETS
    rng = random.Random(1464)
    answers = {"scan": set(), "packed": set()}
    for _ in range(200):
        m = rng.choice([rng.randint(2, 12), cutoff, cutoff + 1, rng.randint(cutoff + 2, 4 * cutoff)])
        width = rng.choice([w for w in (4, 8, 16, 63, 64) if 1 << w >= 2 * m])
        sets = {0} if rng.random() < 0.2 else set()
        while len(sets) < m:
            sets.add(rng.getrandbits(width))
        fam = synthetic_family(sets)
        sep = sep_bottleneck(fam).sep
        for k in [*range(-2, 67), 126, 127, 128, 255, 256, 300, 1000]:
            got = sep_at_most(fam, k)
            assert got == (sep <= k)
            answers["scan" if m <= cutoff else "packed"].add(got)
    # Both routes gave both answers.
    assert answers == {"scan": {False, True}, "packed": {False, True}}


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("make", [generate_gkr, generate_qkr])
def test_sep_at_most_on_the_constructions(make, k):
    for r in range(1, k):
        fam = enumerate_minimal_dominating(make(k, r)[0])
        assert not sep_at_most(fam, k + r - 1)
        assert sep_at_most(fam, k + r)


def test_sep_at_most_guard_admits_no_weight_above_k():
    # Pair weights 4, 5, 4: sep is 4, so U_3 has no edge at all. A guard
    # built from (k + 1) per byte would admit weight k + 1 = 4 here.
    from domrec import DomFamily

    fam = DomFamily(sets=(19, 20, 38), gamma=2, Gamma=3)
    assert sep_bottleneck(fam).sep == 4
    assert not sep_at_most(fam, 3)
    assert sep_at_most(fam, 4)


# sep_bottleneck's witness, against the tree it is read off ---------------------


def report_tuple(rep):
    return rep.sep, rep.witness_partition, rep.witness_pair


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=8))
@example(Graph.from_edges(4, [(0, 1), (2, 3)]))  # U_{sep-1}: 4 components, on both sides
@example(Graph.from_edges(5, [(0, 3), (1, 2), (2, 4)]))  # 3 components, one off the side
@example(generate_gkr(3, 1)[0])  # p* is not member 0
@example(generate_gkr(4, 2)[0])
@example(generate_gkr(3, 2)[0])  # member 0 alone is member 0's component
def test_sep_bottleneck_matches_the_tree_oracle(g):
    fam = enumerate_minimal_dominating(g)
    if len(fam.sets) >= 2:
        assert report_tuple(sep_bottleneck(fam)) == naive_sep_report(fam.sets)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1) | st.integers(0, 63), min_size=2, max_size=40,
                unique=True))
# The cut of the largest set bounds sep from below, and t is tried upward from
# there. Here the bound is sep - 1, so the first try fails: U_t is disconnected.
@example([17, 14, 15])
@example([9, 13, 7])
def test_sep_bottleneck_matches_the_tree_oracle_on_synthetic_families(sets):
    # Any distinct sets: nested ones, the empty set and 64-vertex unions.
    fam = synthetic_family(sets)
    assert report_tuple(sep_bottleneck(fam)) == naive_sep_report(fam.sets)


GRID = [(make, k, r) for make in (generate_gkr, generate_qkr)
        for k in range(3, 6) for r in range(1, k)]


@pytest.mark.parametrize("make, k, r", GRID, ids=lambda v: getattr(v, "__name__", v))
def test_sep_bottleneck_matches_the_tree_oracle_on_the_grid(make, k, r):
    fam = enumerate_minimal_dominating(make(k, r)[0], Budget.resolve(40))
    assert report_tuple(sep_bottleneck(fam)) == naive_sep_report(fam.sets)


@pytest.mark.parametrize("make, k, r", GRID, ids=lambda v: getattr(v, "__name__", v))
def test_sep_bottleneck_draws_at_most_one_prim_edge_on_the_grid(monkeypatch, make, k, r):
    # Prim runs only until it takes p*, which sits at position 0 or 1 here;
    # a fallback to the full tree would draw m - 1 edges.
    drawn = []
    real = separation._prim_edges

    def counting(*args):
        for edge in real(*args):
            drawn.append(edge)
            yield edge

    monkeypatch.setattr(separation, "_prim_edges", counting)
    fam = enumerate_minimal_dominating(make(k, r)[0], Budget.resolve(40))
    assert sep_bottleneck(fam).sep == k + r
    assert len(drawn) <= 1


# sep_value and sep_bottleneck pack a large family once --------------------------


LARGE_FAMILIES = {
    "bound-below-sep": lambda: synthetic_family(BOUND_BELOW_SEP),
    "gkr(4,2)": lambda: enumerate_minimal_dominating(generate_gkr(4, 2)[0]),
    "qkr(4,3)": lambda: enumerate_minimal_dominating(generate_qkr(4, 3)[0]),
}


@pytest.mark.parametrize("route", [sep_value, sep_bottleneck], ids=["value", "witness"])
@pytest.mark.parametrize("name", LARGE_FAMILIES)
def test_one_call_packs_a_large_family_once(monkeypatch, route, name):
    # However many t the value search tries, a family of more than
    # _SCAN_MAX_SETS sets is packed once, and the witness search reuses it.
    fam = LARGE_FAMILIES[name]()
    assert len(fam.sets) > separation._SCAN_MAX_SETS
    packed, tried = [], []
    real_packed, real_component = separation._packed, separation._component

    def packing(sets):
        packed.append(sets)
        return real_packed(sets)

    def component(packing, t, start, unseen):
        tried.append(t)
        return real_component(packing, t, start, unseen)

    monkeypatch.setattr(separation, "_packed", packing)
    monkeypatch.setattr(separation, "_component", component)
    got = route(fam)
    assert (got if route is sep_value else got.sep) == naive_sep_report(fam.sets)[0]
    assert len(packed) == 1
    if name == "bound-below-sep":
        assert tried[:2] == [4, 5]  # two tries of the value search on the one packing


# The threshold search, against a plain BFS over pair weights ------------------


def assert_threshold_search_matches(fam, n):
    # Every t up to min(n, 2 Gamma), where U_t is complete; from member 0 and
    # from every member when the family is small.
    sets = fam.sets
    m = len(sets)
    packing = _packed(sets)
    everyone = packing[0] << 7
    for t in range(min(n, 2 * fam.Gamma) + 1):
        for start in range(m if m <= 12 else 1):
            want = naive_threshold_component(sets, t, start)
            got = separation._component(packing, t, start, everyone ^ 0x80 << 8 * start)
            assert [i for i in range(m) if got >> 8 * i & 0x80] == sorted(want), (t, start)
        assert sep_at_most(fam, t) == (len(want) == m), t


@settings(max_examples=150, deadline=None)
@given(edged_graphs())
@example(Graph.from_edges(4, [(0, 1), (2, 3)]))
@example(Graph.from_edges(5, [(0, 3), (1, 2), (2, 4)]))
def test_threshold_search_matches_a_plain_bfs(g):
    assert_threshold_search_matches(enumerate_minimal_dominating(g), g.n)


@pytest.mark.parametrize("make, k, r", [(make, k, r) for make in (generate_gkr, generate_qkr)
                                         for k in (3, 4) for r in range(1, k)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_threshold_search_matches_a_plain_bfs_on_the_grid(make, k, r):
    g = make(k, r)[0]
    assert_threshold_search_matches(enumerate_minimal_dominating(g), g.n)
