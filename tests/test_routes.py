"""One route matrix: every route of every quantity against tests/naive.py.

A row of MATRIX is a quantity, its oracle, the module constant that picks
its route, the value of that constant that forces each route, the inputs
the row pins and a strategy that draws more. The pinned inputs are every
labelled graph with 2 <= n <= 5 and an edge (SMALL), seeded ones on both
sides of the cutoff, and those that earlier route tests pinned; the path
row's inputs are queries (g, a, b, k) on such graphs. A new cutoff adds a
row: test_every_cutoff_has_a_row fails until it does.
"""

import ast
import random
import re
from bisect import bisect_right
from collections import namedtuple
from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrec import (Graph, build_dk, cartesian_product, complete_graph, connectivity_profile,
                    cycle_graph, d0_direct, dominating_sets_upto, enumerate_minimal_dominating,
                    generate_gkr, generate_qkr, is_connected, mask_of, path_graph, popcount,
                    reconfig_path, sep_at_most, sep_bottleneck, sep_value, star, vertex_list)
from domrec import domination, reconfig, separation
from conftest import (BOUND_BELOW_SEP, SHAPES, edged_graphs, random_graph, small_graphs,
                      synthetic_families, synthetic_family)
from naive import (naive_d0, naive_dk, naive_minimal_dfs, naive_prefix_counts, naive_prefix_sets,
                   naive_prim_tree, naive_profile, naive_reconfig_path, naive_sep_report)

Row = namedtuple("Row", "quantity naive module constant routes pinned drawn")


def family(g):
    return synthetic_family(naive_minimal_dfs(g))


def near(cutoff, *ps, seed=0):
    """G(n, p) for each p, from Random(seed + n), at n = cutoff and at n = cutoff + 1."""
    return [random_graph(rng, n, p) for n in (cutoff, cutoff + 1)
            for rng in [random.Random(seed + n)] for p in ps]


def d0_graphs():
    """120 seeded graphs with an edge on 2 to 9 vertices, 20 or more of them disconnected."""
    rng, graphs = random.Random(29), []
    while len(graphs) < 120:
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.8))
        if any(g.adj):
            graphs.append(g)
    assert sum(not is_connected(g) for g in graphs) >= 20
    return graphs


def disjoint_union(g, h):
    return Graph.from_edges(g.n + h.n, [*g.edges(), *((u + g.n, v + g.n) for u, v in h.edges())])


def edits(g):
    """Every graph one edge toggle or one vertex deletion away from g."""
    pairs = set(g.edges())
    for u, v in combinations(range(g.n), 2):
        yield Graph.from_edges(g.n, sorted(pairs ^ {(u, v)}))
    for x in range(g.n):
        yield Graph.from_edges(g.n - 1, [(u - (u > x), v - (v > x)) for u, v in pairs
                                         if x not in (u, v)])


def lifting_graphs():
    """Graphs whose d0_direct lifts a layer above Gamma on the layered route.

    gkr(3,2) + gkr(3,2) (n = 20) and gkr(3,2) + qkr(3,2) (n = 22) have 4 and
    3 swap components at layer Gamma = 6, and d0 = 8. Those of the first
    are U + U', U + R', R + U' and R + R', for the hub sets U, U' and the
    rest R, R' of each copy's layer 3, and U + U' lifts next to the middle
    two only. Renamed so that each copy's u0 comes last, the leaf walk
    lists U + U' first, so it must join the middle two before they join
    R + R'. Below the cutoff: every edit of gkr(3,2) and qkr(3,2) with d0 =
    Gamma + 2, by d0 = sep (separation.py).
    """
    g32, q32 = generate_gkr(3, 2)[0], generate_qkr(3, 2)[0]
    u0_last = Graph.from_edges(g32.n, [((u - 1) % g32.n, (v - 1) % g32.n) for u, v in g32.edges()])
    return [disjoint_union(g32, g32), disjoint_union(u0_last, u0_last), disjoint_union(g32, q32),
            *(h for base in (g32, q32) for h in edits(base)
              if naive_sep_report(fam := naive_minimal_dfs(h))[0] == popcount(fam[-1]) + 2)]


def naive_listing(g):
    everything = naive_prefix_sets(g, g.n)  # canonical order: by size first
    sizes = list(map(popcount, everything))
    return [everything[:bisect_right(sizes, cap)] for cap in range(-3, g.n + 2)]


def naive_dk_edges(g):
    verts, edges = naive_dk(g, g.n)  # D_k is D_n on its first sets, those of size <= k
    sizes = list(map(len, verts))
    return [tuple(e for e in edges if e[1] < bisect_right(sizes, k)) for k in range(-3, g.n + 2)]


def sep_answers(fam, sep=None):
    """(sep_value, sep_bottleneck's sep, sep <= k at each k), or what they must be given sep."""
    ks = [*range(-1, 2 * fam.Gamma + 2), 64, 200]  # sep <= 2 Gamma: sep - 1 and sep are in
    if sep is None:
        return sep_value(fam), sep_bottleneck(fam).sep, [sep_at_most(fam, k) for k in ks]
    return sep, sep, [sep <= k for k in ks]


def path_queries(g, i=-1, above=None):
    """(g, a, b, k) for a and b g's first and i-th minimal sets, at each k from the larger of
    them to their union (or to `above` past the larger), and for a = b = the first."""
    fam = naive_minimal_dfs(g)
    a, b = fam[0], fam[i]
    low = max(popcount(a), popcount(b))
    high = max(low, popcount(a | b)) if above is None else low + above
    return [*((g, a, b, k) for k in range(low, high + 1)), (g, a, a, popcount(a))]


def id_queries(g, *queries):
    """(g, a, b, k) for each (a, b, k) given with a and b as id lists."""
    return [(g, mask_of(a), mask_of(b), k) for a, b, k in queries]


@st.composite
def drawn_path_queries(draw):
    """(g, a, b, k) for any graph on 1..8 vertices, any two dominating sets and any k allowed."""
    g = draw(small_graphs(max_n=8))
    sets = naive_prefix_sets(g, g.n)
    a, b = draw(st.sampled_from(sets)), draw(st.sampled_from(sets))
    return g, a, b, draw(st.integers(max(popcount(a), popcount(b)), g.n))


def naive_path(query):
    g, a, b, k = query
    path = naive_reconfig_path(g, k, frozenset(vertex_list(a)), frozenset(vertex_list(b)))
    return None if path is None else list(map(mask_of, path))


def profile_rows(g):
    """(k, order, size, components) of each level of connectivity_profile; connected must be
    components == 1."""
    profile = connectivity_profile(g)
    assert all(e.connected == (e.component_count == 1) for e in profile.profile)
    return [(e.k, e.order, e.size, e.component_count) for e in profile.profile]


SMALL = [Graph.from_edges(n, pairs=bits) for n in range(2, 6)
         for bits in range(1, 1 << n * (n - 1) // 2)]
DOMINATING = [*SMALL, Graph.from_edges(1, []), Graph.from_edges(8, []), SHAPES[1], SHAPES[2],
              star(7)]
LIMIT = [star(17), cartesian_product(path_graph(3), path_graph(6))]  # n = 18
TABLES = {"tables": 64, "walk": 0}
MIN_N, DOM_N = domination._TABLE_MAX_N, domination._DOM_TABLE_MAX_N
SCAN, FLOOR = separation._SCAN_MAX_SETS, reconfig._LANE_FLOOR
MATRIX = {
    "minimal family": Row(
        enumerate_minimal_dominating, family, domination, "_TABLE_MAX_N", TABLES,
        [*SMALL, Graph.from_edges(1, []), SHAPES[1], Graph.from_edges(13, [(0, 1), (5, 12)]),
         *near(MIN_N, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, seed=1300),
         *(g for n in (MIN_N, MIN_N + 1) for g in (
             path_graph(n), cycle_graph(n), star(n - 1), complete_graph(n),
             Graph.from_edges(n, []), Graph.from_edges(n, [(0, n - 1)])))],
        small_graphs(max_n=13)),
    # The counts of each size and the minimal family, from one set of tables.
    "counts": Row(
        domination._counts_and_family,
        lambda g: (naive_prefix_counts(g), tuple(naive_minimal_dfs(g))), domination,
        "_DOM_TABLE_MAX_N", TABLES, [*DOMINATING, *LIMIT, *near(DOM_N, 0.1, 0.35)],
        small_graphs(max_n=8)),
    "listing at each cap": Row(
        lambda g: [dominating_sets_upto(g, cap) for cap in range(-3, g.n + 2)], naive_listing,
        domination, "_DOM_TABLE_MAX_N", TABLES, [*DOMINATING, *LIMIT, *near(DOM_N, 0.1)],
        small_graphs(max_n=8)),
    # D_k's edges are read off the listing, whose row runs either side of the cutoff.
    "D_k edges": Row(
        lambda g: [build_dk(g, k).edges for k in range(-3, g.n + 2)], naive_dk_edges,
        domination, "_DOM_TABLE_MAX_N", TABLES, DOMINATING, small_graphs(max_n=8)),
    # Above 9 vertices naive_d0 is too slow, and d0 = sep (separation.py) stands in.
    "d0_direct": Row(
        d0_direct, lambda g: naive_d0(g) if g.n <= 9 else naive_sep_report(family(g).sets)[0],
        domination, "_DOM_TABLE_MAX_N", TABLES,
        [*SMALL, *d0_graphs(), *near(16, 0.35, 0.35), *near(DOM_N, 0.35), *lifting_graphs()],
        edged_graphs()),
    # Every level of the profile: the counts and the minimal family from one set of tables.
    "profile": Row(
        profile_rows, naive_profile, domination, "_DOM_TABLE_MAX_N", TABLES,
        [*DOMINATING, *near(14, 0.35), cartesian_product(cycle_graph(4), cycle_graph(4)),
         LIMIT[1]], small_graphs(max_n=8)),
    # The ends of a path, its ties and its absence; gkr(4,3) from the hub set to a
    # transversal is the benchmark's pair, with no path at k = 6 and one of length 6 at 7.
    "path": Row(
        lambda query: reconfig_path(*query), naive_path, domination, "_DOM_TABLE_MAX_N", TABLES,
        [*(q for g in DOMINATING for q in path_queries(g)),
         *id_queries(star(17), ([0], [0], 1), ([0, 1], [0, 2], 2), ([0, 1, 2], [0, 3], 3)),
         *id_queries(LIMIT[1], ([2, 6, 10, 11, 14], [3, 6, 7, 11, 15], 6),
                     ([1, 3, 7, 11, 13, 16], [1, 4, 8, 10, 12, 16], 7)),
         *(q for g in near(DOM_N, 0.35) for q in path_queries(g, 1, above=1)),
         *id_queries(generate_gkr(4, 3)[0], *(([1, 2, 3, 4], [1, 5, 9, 13], k) for k in (6, 7)))],
        drawn_path_queries()),
    "sep": Row(
        sep_answers, lambda fam: sep_answers(fam, naive_sep_report(fam.sets)[0]),
        separation, "_SCAN_MAX_SETS", {"scan": 10**9, "packed": 0},
        [*map(family, SMALL), *map(synthetic_family, (
            range(SCAN), range(SCAN + 1), [17, 14, 15], [9, 13, 7], BOUND_BELOW_SEP,
            [*range(1, 40), *(s << 32 for s in range(1, 40))]))],
        edged_graphs().map(family) | synthetic_families()),
    "Prim tree": Row(
        lambda fam: list(reconfig._prim_edges(fam.sets)), lambda fam: naive_prim_tree(fam.sets),
        reconfig, "_LANE_FLOOR", {"retired": 2, "never retired": 10**9},
        [*map(family, SMALL), synthetic_family(range(FLOOR - 1)), synthetic_family(range(FLOOR))],
        edged_graphs().map(family)),
}


def check(row, x):
    expected = row.naive(x)
    for route, value in row.routes.items():
        with patch.object(row.module, row.constant, value):
            assert row.quantity(x) == expected, (route, x)


@pytest.mark.parametrize("name", MATRIX)
def test_every_route_matches_naive_on_the_pinned_inputs(name):
    for x in MATRIX[name].pinned:
        check(MATRIX[name], x)


@pytest.mark.parametrize("name", MATRIX)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_route_matches_naive_on_drawn_inputs(name, data):
    check(MATRIX[name], data.draw(MATRIX[name].drawn))


def test_every_cutoff_has_a_row():
    # A private module-level constant named *_MAX_N, *_MAX_SETS or *_FLOOR picks a route by size.
    cutoffs = {(path.stem, t.id) for path in Path(domination.__file__).parent.glob("*.py")
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               for t in getattr(node, "targets", [getattr(node, "target", None)])
               if isinstance(t, ast.Name) and re.fullmatch(r"_\w*_(MAX_N|MAX_SETS|FLOOR)", t.id)}
    assert cutoffs == {(row.module.__name__.rpartition(".")[2], row.constant)
                       for row in MATRIX.values()}
