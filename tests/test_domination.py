import gc
import random
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings

from domrec import (
    Budget,
    BudgetError,
    Graph,
    cartesian_product,
    complete_graph,
    compute_ir,
    connectivity_profile,
    cycle_graph,
    d0_direct,
    dominating_sets_upto,
    enumerate_minimal_dominating,
    generate_gkr,
    generate_qkr,
    invariant_report,
    is_dominating,
    is_minimal_dominating,
    mask_of,
    path_graph,
    popcount,
    star,
    vertex_list,
)
from domrec import domination
from domrec.domination import _counts_and_family, _dominating_leaves
from conftest import SHAPES, random_graph, small_graphs
from naive import (
    compute_alpha,
    independent_members,
    naive_ir,
    naive_is_dominating,
    naive_maximal_independent_sets,
    naive_minimal_dfs,
    naive_minimal_dominating_sets,
    naive_prefix_counts,
    naive_prefix_sets,
)


def as_frozensets(masks):
    return {frozenset(vertex_list(m)) for m in masks}


def test_star_family():
    fam = enumerate_minimal_dominating(star(3))
    assert as_frozensets(fam.sets) == {frozenset({0}), frozenset({1, 2, 3})}
    assert fam.gamma == 1 and fam.Gamma == 3


def test_family_members_are_minimal_and_ordered():
    g = cartesian_product(path_graph(3), complete_graph(3))
    fam = enumerate_minimal_dominating(g)
    assert all(is_minimal_dominating(g, s) for s in fam.sets)
    cards = [popcount(s) for s in fam.sets]
    assert cards == sorted(cards)
    for a, b in zip(fam.sets, fam.sets[1:]):
        assert (popcount(a), a) < (popcount(b), b)


def test_no_family_member_contains_another():
    fam = enumerate_minimal_dominating(cycle_graph(6))
    for a in fam.sets:
        for b in fam.sets:
            if a != b:
                assert a & b != a, "one minimal dominating set contains another"


def test_enumeration_matches_naive_scan_on_random_graphs():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
        fam = enumerate_minimal_dominating(g)
        assert as_frozensets(fam.sets) == set(naive_minimal_dominating_sets(g))
    # A few instances at the top of the full-scan oracle range.
    for n, p in [(11, 0.3), (12, 0.5), (12, 0.7)]:
        g = random_graph(rng, n, p)
        fam = enumerate_minimal_dominating(g)
        assert as_frozensets(fam.sets) == set(naive_minimal_dominating_sets(g))


# The next three tests compare lists, so a duplicate or a change of order
# fails as well as a wrong set.
@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
@example(SHAPES[0])
@example(SHAPES[1])
@example(SHAPES[2])
def test_enumeration_matches_naive_scan_property(g):
    got = list(enumerate_minimal_dominating(g).sets)
    scan = [mask_of(s) for s in naive_minimal_dominating_sets(g)]
    assert got == sorted(scan, key=lambda m: (popcount(m), m))
    assert got == naive_minimal_dfs(g)


@pytest.mark.parametrize("k,r", [(k, r) for k in (3, 4, 5) for r in range(1, k)] + [(6, 3)])
@pytest.mark.parametrize("make", [generate_gkr, generate_qkr], ids=["gkr", "qkr"])
def test_minimal_sets_equal_id_order_dfs_on_constructions(make, k, r):
    g, _ = make(k, r)
    assert list(enumerate_minimal_dominating(g, Budget(max_n=30)).sets) == naive_minimal_dfs(g)


def test_minimal_sets_equal_id_order_dfs_beyond_full_scan():
    rng = random.Random(1014)
    for n in range(14, 25):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = random_graph(rng, n, p)
            assert list(enumerate_minimal_dominating(g).sets) == naive_minimal_dfs(g), (n, p)


def test_budget_refuses_before_any_table_is_built():
    g = path_graph(12)
    with patch.object(domination, "_subset_tables", wraps=domination._subset_tables) as tables:
        with pytest.raises(BudgetError, match="max_n=11"):
            enumerate_minimal_dominating(g, Budget(max_n=11))
        assert not tables.called
        enumerate_minimal_dominating(g, Budget(max_n=12))
        tables.assert_called_once_with(12)


@pytest.mark.parametrize("k,r", [(k, r) for k in (3, 4) for r in range(1, k)])
@pytest.mark.parametrize("make", [generate_gkr, generate_qkr], ids=["gkr", "qkr"])
def test_dominating_sets_equal_prefix_scan_on_constructions(make, k, r):
    g, _ = make(k, r)
    fam = enumerate_minimal_dominating(g)
    cap = fam.Gamma + fam.gamma
    assert dominating_sets_upto(g, cap) == naive_prefix_sets(g, cap)
    assert _counts_and_family(g)[0] == naive_prefix_counts(g)


def test_dominating_set_counts_equal_prefix_scan_beyond_full_scan():
    # The prefix scan slows most on sparse graphs (0.5 s at n=24, p=0.1;
    # 3 s at p=0.3), so those stop at n=19; dense ones go on to n=24.
    rng = random.Random(1114)
    for n in range(14, 25):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9) if n < 20 else (0.7, 0.9):
            g = random_graph(rng, n, p)
            assert _counts_and_family(g)[0] == naive_prefix_counts(g), (n, p)


def test_dominating_sets_equal_prefix_scan_on_random_graphs():
    # Up to 2^13 sets per listing, at every cap, so the cut at cap is checked too.
    rng = random.Random(1115)
    for n in range(9, 14):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rng, n, p)
            for cap in range(-1, n + 2):
                assert dominating_sets_upto(g, cap) == naive_prefix_sets(g, cap), (n, p, cap)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
@example(star(7))
@example(SHAPES[0])
@example(SHAPES[1])  # isolated vertex 0: its only option is itself
@example(SHAPES[2])
def test_dominating_leaves_partition_the_dominating_sets(g):
    # Each leaf (chosen, free) stands for chosen | T, T inside free; cut at
    # cap, those blocks must split the brute-force family with no overlap.
    dominating = [m for m in range(1 << g.n)
                  if naive_is_dominating(g, frozenset(vertex_list(m)))]
    for cap in range(g.n + 1):
        sets = []
        for chosen, free in _dominating_leaves(g, cap, None):
            assert is_dominating(g, chosen) and chosen & free == 0, (cap, chosen, free)
            free_bits = [1 << v for v in vertex_list(free)]
            for extra in range(cap - popcount(chosen) + 1):
                sets += [chosen | sum(more) for more in combinations(free_bits, extra)]
        assert len(sets) == len(set(sets)), cap
        assert sorted(sets) == [m for m in dominating if popcount(m) <= cap], cap


@pytest.mark.parametrize("g, leaves", [
    pytest.param(cartesian_product(path_graph(3), path_graph(6)), 3943, id="P3xP6"),
    pytest.param(cartesian_product(path_graph(4), cycle_graph(4)), 1871, id="P4xC4"),
    pytest.param(cartesian_product(cycle_graph(4), cycle_graph(4)), 1451, id="C4xC4"),
    pytest.param(cartesian_product(path_graph(4), path_graph(5)), 6397, id="P4xP5"),
    pytest.param(generate_gkr(4, 3)[0], 642, id="gkr(4,3)"),
])
def test_leaf_walk_branches_on_the_most_constrained_vertex(g, leaves):
    # Branching on the lowest undominated vertex gives 11,366, 4,120, 2,255
    # and 49,994 leaves on the products; gkr(4,3) gives 642 either way.
    assert len(_dominating_leaves(g, g.n, None)) == leaves


def test_gkr_and_qkr_family_counts():
    g, _ = generate_gkr(4, 3)
    fam = enumerate_minimal_dominating(g)
    assert len(fam.sets) == 321 and fam.gamma == 4 and fam.Gamma == 4
    q, _ = generate_qkr(4, 3)
    qfam = enumerate_minimal_dominating(q)
    assert len(qfam.sets) == 382 and qfam.gamma == 3 and qfam.Gamma == 4


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
@example(star(7))  # vertex 0 dominates, so most prefixes share one extension list
@example(SHAPES[0])
@example(SHAPES[1])
@example(SHAPES[2])
def test_dominating_sets_upto_matches_direct_filter(g):
    # The filter over all 2^n masks, sorted canonically: equality also rules
    # out duplicates and any other order.
    dominating = [m for m in range(1 << g.n) if is_dominating(g, m)]
    for cap in range(-1, g.n + 2):
        expected = sorted((m for m in dominating if popcount(m) <= cap),
                          key=lambda m: (popcount(m), m))
        assert dominating_sets_upto(g, cap) == expected


def test_dominating_sets_upto_stress_wider():
    # Same direct-filter oracle at the top of the practical 2^n range; also
    # guards against duplicate emission from the bulk-expansion path.
    rng = random.Random(777)
    for _ in range(4):
        g = random_graph(rng, rng.randint(12, 14), rng.uniform(0.2, 0.6))
        k = rng.randint(2, g.n)
        got = dominating_sets_upto(g, k)
        expected = [
            m for m in range(1 << g.n)
            if popcount(m) <= k and is_dominating(g, m)
        ]
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(expected)


@pytest.mark.parametrize("n, walked", [(18, False), (19, True)])
def test_dominating_sets_take_the_walk_above_the_table_limit(n, walked):
    g = path_graph(n)
    with patch.object(domination, "_dominating_leaves", wraps=domination._dominating_leaves) as walk:
        assert _counts_and_family(g)[0] == naive_prefix_counts(g)
        assert dominating_sets_upto(g, 8) == naive_prefix_sets(g, 8)
    assert walk.called == walked


def test_table_route_refuses_at_the_budget_before_any_table_is_built():
    g = path_graph(12)
    calls = (lambda budget: dominating_sets_upto(g, 5, budget),
             lambda budget: _counts_and_family(g, budget)[0])
    messages = set()
    for max_n in (64, 0):
        with patch.object(domination, "_DOM_TABLE_MAX_N", max_n), \
                patch.object(domination, "_vertex_tables", wraps=domination._vertex_tables) as tables:
            for call in calls:
                with pytest.raises(BudgetError, match="max_n=11") as refused:
                    call(Budget(max_n=11))
                messages.add(str(refused.value))
            assert not tables.called
    # Both routes refuse with the same message.
    assert messages == {"dominating set enumeration on n=12 exceeds enumeration budget max_n=11"
                        " (raise via --budget or DOMREC_BUDGET)"}
    with patch.object(domination, "_vertex_tables", wraps=domination._vertex_tables) as tables:
        dominating_sets_upto(g, 5, Budget(max_n=12))
    tables.assert_called_once_with(12)


def test_alpha_values():
    assert compute_alpha(complete_graph(3)) == 1
    assert compute_alpha(star(3)) == 3
    g, _ = generate_gkr(4, 3)
    assert compute_alpha(g) == 4


def test_maximal_independent_matches_naive():
    # The minimal dominating sets with no edge inside are all the maximal independent sets.
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        got = independent_members(g, enumerate_minimal_dominating(g).sets)
        assert got == set(naive_maximal_independent_sets(g))


def test_every_maximal_independent_set_is_minimal_dominating():
    rng = random.Random(37)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        fam = as_frozensets(enumerate_minimal_dominating(g).sets)
        for s in naive_maximal_independent_sets(g):
            assert s in fam


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=7))
@example(Graph.from_edges(5, []))
@example(Graph.from_edges(4, [(1, 2), (2, 3)]))  # isolated vertex 0
@example(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]))  # two components
def test_invariant_report_alpha_and_well_covered_match_naive(g):
    sizes = {len(s) for s in naive_maximal_independent_sets(g)}
    rep = invariant_report(g, include_ir=False)
    assert rep.alpha == max(sizes)
    assert rep.well_covered == (len(sizes) == 1)


def test_ir_values():
    assert compute_ir(complete_graph(4)) == 1
    assert compute_ir(complete_graph(6)) == 1
    assert compute_ir(star(3)) == 3
    g31, _ = generate_gkr(3, 1)
    assert compute_ir(g31) >= 2  # construction bound, k + r - 2
    assert compute_ir(g31) == 3


def test_ir_matches_naive():
    rng = random.Random(41)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        assert compute_ir(g) == naive_ir(g)


def test_domination_chain_gamma_Gamma_ir():
    rng = random.Random(43)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        rep = invariant_report(g, include_ir=True)
        assert rep.gamma <= rep.Gamma <= rep.ir


def test_invariant_report_examples():
    prod = cartesian_product(path_graph(3), complete_graph(3))
    rep = invariant_report(prod)
    assert rep.gamma == 3 and rep.Gamma == 3 and rep.well_dominated

    g43, _ = generate_gkr(4, 3)
    assert invariant_report(g43).well_dominated

    g42, _ = generate_gkr(4, 2)
    rep42 = invariant_report(g42)
    assert rep42.gamma == 3 and rep42.Gamma == 4
    assert not rep42.well_dominated and rep42.well_covered


def test_invariant_report_ir_skip_flag():
    g, _ = generate_gkr(4, 3)
    rep = invariant_report(g, include_ir=False)
    assert rep.ir is None
    rep_forced = invariant_report(g, include_ir=True)
    assert rep_forced.ir is not None and rep_forced.ir >= rep_forced.Gamma


def test_edgeless_graph_has_single_minimal_set():
    fam = enumerate_minimal_dominating(Graph.from_edges(4, []))
    assert len(fam.sets) == 1 and fam.sets[0] == mask_of(range(4))


def test_budget_rejects_oversize_enumeration():
    g = Graph.from_edges(30, [])
    with pytest.raises(BudgetError, match="budget"):
        enumerate_minimal_dominating(g, Budget(max_n=24))
    fam = enumerate_minimal_dominating(g, Budget(max_n=30))
    assert len(fam.sets) == 1


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DOMREC_BUDGET", "10")
    assert Budget.resolve().max_n == 10
    assert Budget.resolve(18).max_n == 18
    for value in ("junk", "0", "-3"):
        monkeypatch.setenv("DOMREC_BUDGET", value)
        with pytest.raises(BudgetError, match=f"DOMREC_BUDGET must be .* >= 1, got '{value}'"):
            Budget.resolve()


def test_enumerators_leave_no_cyclic_garbage():
    # Their working lists must be freed on return, not whenever the cyclic
    # collector next runs; otherwise a long hunt stream inflates the heap.
    g = cartesian_product(path_graph(3), complete_graph(3))
    gc.collect()
    gc.disable()
    try:
        enumerate_minimal_dominating(g)
        dominating_sets_upto(g, 5)
        _counts_and_family(g)[0]
        d0_direct(g)
        compute_ir(g)
        connectivity_profile(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
