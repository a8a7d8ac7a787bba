"""Exact enumeration of dominating-set families and classical invariants.

Everything is exact: budgets refuse inputs that would take too long.

Minimal dominating sets of a graph with n <= _TABLE_MAX_N vertices come
from truth tables over its 2^n vertex subsets: a table is an int whose
bit S is set iff S has the property. With x_v the table of "v in S",

    Dom = AND over w of (OR over v in N[w] of x_v),
    Min = Dom & ~OR over v of ((Dom & ~x_v) << 2^v).

The first says that S dominates iff it meets every closed neighbourhood.
In the second, bit S of (Dom & ~x_v) << 2^v is set iff v is in S and
S - v dominates. Single deletions suffice: domination is closed upwards,
so if a proper subset T of S dominates, so does S - v for any v in S - T.
The OR over N[w] is looked up in two tables per n, one for the vertices
below n // 2 and one for the rest, so Dom costs two lookups per vertex.
The set bits of Min come out in ascending mask order. The tables are
built once per n and cached; at n = 13 they hold 0.23 MB.

The table route makes about 4n operations on 2^n-bit ints whatever the
family, and the walk below spends about 1 us a node, so the walk wins on
graphs with few minimal sets. Per graph, walk against tables, in us: medians of 15
alternating passes on one CPU of a 2-vCPU Xeon with Python 3.11, over 40
random graphs in each G(n, .35) row:

    graph          n   sets   walk   tables
    G(n, .35)     11     36    134     29
    G(n, .35)     12     53    194     44
    G(n, .35)     13     78    287     75
    G(n, .35)     14    112    420    123
    G(n, .35)     16    216    849    388
    path(13)      13     70    275     70
    cycle(13)     13     78    319     76
    gkr(4,2)      13     81    153     68
    star(12)      13      2     34     60
    K13           13     13     16     49
    K14           14     14     16     75
    qkr(4,2)      15     90    203    185

_TABLE_MAX_N is 13: the tables of n = 14, 15 and 16 would hold 0.60, 1.75
and 4.62 MB for the life of the process, and the loss on graphs with few
sets grows with 2^n (star(14), n = 15: 39 against 179 us).

Larger graphs use the minimal walk.

All dominating sets of a graph with n <= _DOM_TABLE_MAX_N vertices are
counted and listed from per-call truth tables (_dominating_tables): x_v
by doubling one period, Dom by the formula above with each OR taken
over the x_v themselves, and size_s, the table of |S| = s, by the doubling
recurrence over the vertices, up to the largest size the caller reads.
The count of size s is the bit count of Dom & size_s, and layer s is its
set bits, read in ascending mask order, which is canonical order within a
layer, so nothing is sorted. connectivity_profile also takes the minimal
family from the same Dom, by the formula for Min above
(_counts_and_family), so it builds one set of tables per graph. Nothing is
cached: the 2n + 2 tables hold (2n + 2) 2^n bits, 1.2 MB at n = 18, freed
on return. Per graph, walk against tables, in ms: medians of 7 alternating
runs on one CPU of a 2-vCPU Xeon with Python 3.11; the listing is cut at
n // 2; the G(n, .35) rows are medians over 5 connected graphs:

    graph        n     sets   count: walk  tables   list: walk  tables
    G(n, .35)   12     2529          0.13    0.07         0.65    0.23
    G(n, .35)   14    10605          0.20    0.16         1.93    0.88
    G(n, .35)   16    48063          0.88    0.64        14.88    5.87
    G(n, .35)   17    94223          1.02    1.10        17.08    8.28
    G(n, .35)   18   200571          0.97    1.31        37.74   18.55
    G(n, .35)   19   378479          1.69    3.88        57.34   28.46
    G(n, .35)   20   813785          1.75    6.18       160.98   77.08
    P3 x C4     12     2629          0.24    0.06         0.94    0.20
    C4 x C4     16    45707          1.04    0.29         9.50    2.75
    P3 x P6     18   105913          2.84    1.05        19.34    5.59
    P4 x P5     20   401253          4.86    4.50        57.20   22.76
    star(11)    12     2049          0.07    0.23         0.58    0.60
    star(16)    17    65537          0.04    0.56         6.66    4.36
    star(17)    18   131073          0.05    1.07        18.31   10.60
    gkr(4,2)    13     7037          0.15    0.08         1.17    0.44
    gkr(4,3)    17   106067          0.50    0.57        13.94    5.74
    qkr(5,2)    18   253309          0.28    1.19        40.14   19.42
    qkr(4,3)    20   955891          0.69    5.30       161.51   87.88

The tables list about twice as fast on every row. The walk counts a
leaf's comb(|free|, e) sets at once, so it counts faster where leaves
hold many sets: on stars, whose leaf {centre} holds half of all sets, on
qkr(5,2), and on G(n, .35) from n = 17. The tables count faster on the
grids. Their peak under tracemalloc is 0.71, 1.51, 3.17 and 6.67 MB at
n = 17, 18, 19 and 20. _DOM_TABLE_MAX_N = 18 keeps the listing's gain and
the grids' counts, at under 1.6 MB; the counts it slows lose at most
1.02 ms a graph (star(17)).

reconfig.d0_direct searches its layers in the same tables up to the same
cutoff. Per graph, each route's median of 7 runs in ms (of 5 on the rows
marked *) and the tables' peak under tracemalloc in MB, the round's
temporaries included, on the same CPU; a G(n, .35) row is the median of
5 connected graphs:

    graph        n   tables   layers   tables MB
    G(n, .35)   13     0.16     1.66     0.04
    G(n, .35)   15     0.50     7.80     0.16
    G(n, .35)   17     1.53    18.08     0.71
    G(n, .35)   18     2.94    30.94     1.50
    G(n, .35)   20    14.39   118.47     6.67
    gkr(4,2)    13     0.24     2.34     0.04
    qkr(4,2)    15     0.65     2.95     0.16
    gkr(4,3)    17     1.48     9.04     0.71
    qkr(5,2)    18     2.89    12.55     1.50
    P3 x P6 *   18     4.39    78.51     1.50
    star(17) *  18     1.46     0.25     1.50
    qkr(4,3)    20    14.65    15.04     6.67

The tables win on every row but qkr(4,3), a tie, and star(17), whose two
minimal sets put d0 at n. Memory sets the cutoff: at n = 18 the layers'
own peak was 1.08 to 5.17 MB on P3 x P6, qkr(5,2) and three G(18, .35),
and at n = 20 the tables would add 6.7 MB for no gain on qkr(4,3).

reconfig.reconfig_path searches from both ends in the same tables up to
the same cutoff, and breadth-first over D_k above it. Per query, each
route's median of 15 alternating runs in ms (of 7 on the rows marked *, of
3 on the G(n, .3) rows) and the tables' peak under tracemalloc in MB, the
spheres included, on the same CPU. gkr and qkr go from the hub set to the
transversal {1, k + 1, 2k + 1, ...}; P3 x P6 between its two gamma-sets at
k = 6 and from {1,3,7,11,13,16} to {1,4,8,10,12,16} at k = 7; star(17)
from its leaves to its centre; a G(n, .3) row, one seeded connected graph,
between its first and last minimal sets:

    query               n   length   search   tables   tables MB
    gkr(4,2)  k = 5    13     none     0.04     0.10     0.03
    gkr(4,2)  k = 6    13        5     0.41     0.17     0.03
    gkr(4,3)  k = 6    17     none     0.28     0.78     0.57
    gkr(4,3)  k = 7    17        6     2.88     1.11     0.61
    gkr(4,3)  k = 9    17        6    12.90     1.16     0.65
    qkr(5,2)  k = 6    18     none     0.06     0.86     1.09
    qkr(5,2)  k = 7    18        6     7.58     2.05     1.24
    P3 x P6   k = 6    18     none     0.08     1.42     1.10
    P3 x P6   k = 7 *  18       12     5.52     5.14     1.47
    star(17)  k = 17 * 18     none     0.03     1.74     1.49
    G(16, .3) k = 8    16        9    38.13     1.35     0.34
    G(18, .3) k = 8    18        9    64.38     4.75     1.44

The tables win wherever the search would visit many sets, and their work
is bounded by the distance. They lose by about their build, at most 1.7 ms
here, where an end's component is tiny, as on the levels with no path, and
tie on P3 x P6's long path, whose 12 rounds each cost about 6n operations
however few sets a sphere holds.

Above the cutoffs, two walks list dominating sets. Each node branches on an
undominated vertex u: every unbanned v in N[u] is tried in ascending
order, and is banned for the later siblings once its branch returns. Both
proofs below use only that u is not yet dominated, never which vertex it
is, so each walk chooses u by what it costs:

  * The minimal walk takes the lowest undominated vertex. The leaf walk's
    rule below cuts its nodes on the seed-71 hunt stream from 49,583 to
    36,624, but the scan for u eats most of that: hunt-stream ran
    8,927 -> 9,014 graphs/s with it, within the benchmark's noise.
  * The leaf walk takes the undominated vertex with the fewest unbanned
    closed neighbours, the lowest such vertex on a tie. A vertex with none
    ends the branch at once: no set below the node dominates it. On
    P3 x P6 this cuts the leaves from 11,366 to 3,943; the extra scan
    costs about 0.1 ms on gkr(4,3), whose 642 leaves do not change.

Minimal dominating sets: v joins the chosen set if every chosen vertex
keeps a private neighbour, and a full cover is emitted.

  * It is minimal: each chosen x has a private neighbour that only x
    dominates, so dropping x undominates it; domination is closed
    upwards, so no proper subset dominates either.
  * Each minimal dominating set S comes out once. The branch on the first
    member of S in N[u] bans only non-members and keeps chosen inside S,
    where private neighbours survive, until chosen dominates, i.e. is S.
    Each other sibling takes a non-member or bans a member of S.

Above _DOM_TABLE_MAX_N, every dominating set of size <= cap comes from
the leaf walk, which has no private-neighbour check and is cut once cap
vertices are chosen. A full cover is a leaf (chosen, free), free being the
vertices neither chosen nor banned there. Neither walk needs a coverage
prune: every branch dominates u.

  * Each dominating set S of size <= cap is chosen | T for exactly one
    leaf and one T inside free. While chosen lies inside S and banned
    outside it, S meets N[u]; the branch on the lowest member of S in
    N[u] keeps both conditions, since it bans only non-members, and every
    other sibling breaks one. Chosen stays a proper subset of S until it
    dominates, so the cap never cuts this path, and its leaf has S - chosen
    inside free. Conversely every chosen | T dominates, as chosen does.
    A branch ended for a vertex with no unbanned closed neighbour holds
    no such S: S would meet that neighbourhood outside banned.

gamma, Gamma, alpha and the well-covered flag are read off the one minimal
family: its members with no edge inside are the maximal independent sets.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations
from math import comb
from operator import or_
from typing import Iterable, Iterator, Optional

from .graph_core import (
    BudgetError,
    Graph,
    InputError,
    VertexSet,
    iter_vertices,
    popcount,
    vertex_list,
)

DEFAULT_MAX_N = 24
DEFAULT_IR_MAX_N = 20
BUDGET_ENV_VAR = "DOMREC_BUDGET"
# Largest n whose minimal family comes from truth tables (module docstring).
_TABLE_MAX_N = 13
# Largest n whose dominating sets are counted, listed and searched for d0 in truth
# tables, from the measured crossovers in the module docstring; above, the leaf walk.
_DOM_TABLE_MAX_N = 18
_SET_BIT = re.compile("1")


@dataclass(frozen=True)
class Budget:
    """Explicit enumeration limits; tune via CLI flag or DOMREC_BUDGET."""

    max_n: int = DEFAULT_MAX_N

    @staticmethod
    def resolve(max_n: Optional[int] = None) -> "Budget":
        if max_n is not None:
            return Budget(max_n=max_n)
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return Budget()
        try:
            max_n = int(env)
        except ValueError:
            max_n = 0
        if max_n < 1:
            raise BudgetError(f"{BUDGET_ENV_VAR} must be an integer >= 1, got {env!r}")
        return Budget(max_n=max_n)

    def check(self, g: Graph, what: str) -> None:
        if g.n > self.max_n:
            raise BudgetError(
                f"{what} on n={g.n} exceeds enumeration budget max_n={self.max_n}"
                f" (raise via --budget or {BUDGET_ENV_VAR})"
            )


@dataclass(frozen=True)
class DomFamily:
    """All minimal dominating sets, canonically ordered, plus gamma/Gamma."""

    sets: tuple[VertexSet, ...]
    gamma: int
    Gamma: int


def _require_at_least_two(fam: DomFamily) -> None:
    """The one edgeless rule: d0 and sep are defined only when G has an edge."""
    if len(fam.sets) < 2:
        raise InputError(
            "d0 and sep need a graph with at least one edge"
            " (an edgeless graph has one minimal dominating set)"
        )


@dataclass(frozen=True)
class InvariantReport:
    gamma: int
    Gamma: int
    alpha: int
    ir: Optional[int]
    num_minimal_dom_sets: int
    well_covered: bool
    well_dominated: bool


def _vertex_tables(n: int) -> list[int]:
    """x_v for each vertex v of n: bit S of x_v is set iff v is in S.

    x_v repeats 2^v clear bits, then 2^v set ones: one period, doubled by
    ORing in itself shifted by its span until it covers 2^n bits, which is
    linear in 2^n, unlike a division of the full table.
    """
    out = []
    for v in range(n):
        t, span = (1 << (1 << v)) - 1 << (1 << v), 2 << v
        while span < 1 << n:
            t |= t << span
            span <<= 1
        out.append(t)
    return out


def _dominating_tables(g: Graph, budget: Optional[Budget],
                       cap: Optional[int] = None) -> tuple[list[int], int, list[int]]:
    """(x, dom, sizes): truth tables over the 2^n subsets of g's vertices, for one call.

    x[v] has bit S set iff v is in S, dom iff S dominates, and sizes[s] iff
    |S| = s, for s = 0..cap (n by default; a cap above n is n). The budget is
    checked before any table is built. Nothing is cached: the n + cap + 2
    tables hold (n + cap + 2) 2^n bits, 1.2 MB at n = 18, and are freed once
    the caller drops them.
    """
    (budget or Budget.resolve()).check(g, "dominating set enumeration")
    n = g.n
    top = (n if cap is None else min(cap, n)) + 1  # the number of size tables
    x = _vertex_tables(n)
    dom = (1 << (1 << n)) - 1
    for c in g.closed:
        dom &= reduce(or_, map(x.__getitem__, vertex_list(c)))
    sizes = [1]  # over the vertices below v: sizes[s] has bit S set iff |S| = s
    for v in range(n):
        sizes = [a | b << (1 << v) for a, b in zip([*sizes, 0][:top], [0, *sizes])]
    return x, dom, sizes


@cache
def _subset_tables(n: int) -> tuple[int, tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]:
    """Truth tables over the subsets of n vertices: bit S of a table is S's entry.

    Returns (full, without, h, low, high). full has all 2^n bits set, and
    without[v] those of the sets without v. low[m] has bit S set iff S meets
    the mask m of vertices below h, high[m] iff S meets m << h.
    """
    full = (1 << (1 << n)) - 1
    x = _vertex_tables(n)
    h = n // 2

    def meets(tables: list[int]) -> tuple[int, ...]:
        out = [0]
        for t in tables:
            out += [m | t for m in out]
        return tuple(out)

    return full, tuple(full ^ t for t in x), h, meets(x[:h]), meets(x[h:])


def _minimal_from_tables(g: Graph) -> list[VertexSet]:
    """The minimal dominating sets of g in ascending mask order, from truth tables."""
    full, without, h, low, high = _subset_tables(g.n)
    below = (1 << h) - 1
    dom = full
    for c in g.closed:
        dom &= low[c & below] | high[c >> h]
    return _minimal_in(dom, without)


def _minimal_in(dom: int, without: Iterable[int]) -> list[VertexSet]:
    """The sets of Min (module docstring) in ascending mask order.

    dom is the table of the dominating sets, and without[v] that of "v not in S".
    """
    shrinks = 0  # bit S set iff S - v dominates for some v in S
    for v, rest in enumerate(without):
        shrinks |= (dom & rest) << (1 << v)
    return _members(dom & ~shrinks)


def _members(table: int) -> list[VertexSet]:
    """The sets S whose bit is set in table, in ascending mask order."""
    # format writes the highest bit first; reversed, character S is bit S.
    return list(map(re.Match.start, _SET_BIT.finditer(format(table, "b")[::-1])))


def _minimal_walk(g: Graph) -> list[VertexSet]:
    """The minimal dominating sets of g in ascending mask order, from the walk."""
    closed, full = g.closed, g.full_mask
    out: list[VertexSet] = []

    def rec(chosen: VertexSet, cover: VertexSet, privates: list[VertexSet],
            banned: VertexSet) -> None:
        if cover == full:
            out.append(chosen)
            return
        undominated = full ^ cover
        u = (undominated & -undominated).bit_length() - 1
        rest = closed[u] & ~banned
        while rest:
            low = rest & -rest
            rest ^= low
            cv = closed[low.bit_length() - 1]
            keep = ~cv
            shrunk = []
            for p in privates:
                p &= keep
                if not p:
                    break
                shrunk.append(p)
            else:
                shrunk.append(cv & ~cover)
                rec(chosen | low, cover | cv, shrunk, banned)
            banned |= low  # later siblings leave it out, so no set comes twice

    rec(0, 0, [], 0)
    del rec  # a self-recursive closure is a cycle; break it so its lists free now
    out.sort()
    return out


def enumerate_minimal_dominating(g: Graph, budget: Optional[Budget] = None) -> DomFamily:
    """All minimal dominating sets of g, in canonical order, with gamma and Gamma."""
    budget = budget or Budget.resolve()
    budget.check(g, "minimal dominating set enumeration")
    out = _minimal_from_tables(g) if g.n <= _TABLE_MAX_N else _minimal_walk(g)
    # Ascending masks, stably sorted by size, are in canonical (size, mask) order.
    out.sort(key=int.bit_count)
    return DomFamily(sets=tuple(out), gamma=popcount(out[0]), Gamma=popcount(out[-1]))


def _dominating_leaves(g: Graph, cap: int,
                       budget: Optional[Budget]) -> list[tuple[VertexSet, VertexSet]]:
    """(chosen, free) for each leaf of the walk, cut at cap, in the module docstring."""
    budget = budget or Budget.resolve()
    budget.check(g, "dominating set enumeration")
    closed, full = g.closed, g.full_mask
    over = g.n + 1  # more options than any vertex has
    leaves: list[tuple[VertexSet, VertexSet]] = []

    def rec(chosen: VertexSet, cover: VertexSet, count: int, banned: VertexSet) -> None:
        if cover == full:
            leaves.append((chosen, full & ~(chosen | banned)))
            return
        if count >= cap:
            return
        # rest: the unbanned closed neighbours of the undominated vertex with the fewest.
        undominated = full ^ cover
        allowed = full ^ banned
        fewest = over
        while undominated:
            low = undominated & -undominated
            undominated ^= low
            options = closed[low.bit_length() - 1] & allowed
            count_options = options.bit_count()
            if count_options < fewest:
                if not count_options:
                    return  # no branch can dominate this vertex: no leaf below
                fewest, rest = count_options, options
        while rest:
            low = rest & -rest
            rest ^= low
            rec(chosen | low, cover | closed[low.bit_length() - 1], count + 1, banned)
            banned |= low

    rec(0, 0, 0, 0)
    del rec  # a self-recursive closure is a cycle; break it so its lists free now
    return leaves


def _dominating_layers(g: Graph, cap: int,
                       budget: Optional[Budget]) -> Iterator[tuple[int, Iterator[VertexSet]]]:
    """Yield (size, layer) for each non-empty size <= cap, ascending; layers unsorted.

    Each layer is a lazy iterator, one leaf's combinations after another, each
    made only when reached, so a caller draws only the sets it reads and skips
    a layer it does not.
    """
    leaves = [(popcount(chosen), chosen, [1 << v for v in iter_vertices(free)])
              for chosen, free in _dominating_leaves(g, cap, budget)]
    for size in range(cap + 1):
        parts = [(chosen, free_bits, size - count) for count, chosen, free_bits in leaves
                 if count <= size <= count + len(free_bits)]
        if parts:
            yield size, chain.from_iterable(
                map(chosen.__or__, map(sum, combinations(free_bits, extra)))
                for chosen, free_bits, extra in parts)


def dominating_sets_upto(g: Graph, max_size: int,
                         budget: Optional[Budget] = None) -> list[VertexSet]:
    """All dominating sets of cardinality <= max_size, canonical order.

    Up to n = _DOM_TABLE_MAX_N, layer s is the set bits of Dom & size_s, already
    in ascending mask order; above it, the leaf walk's layers, each sorted.
    A negative max_size lists nothing, and is not checked against the budget.
    """
    if max_size < 0:
        return []
    cap = min(max_size, g.n)
    if g.n <= _DOM_TABLE_MAX_N:
        dom, sizes = _dominating_tables(g, budget, cap)[1:]
        return list(chain.from_iterable(map(_members, map(dom.__and__, sizes))))
    layers = _dominating_layers(g, cap, budget)
    return list(chain.from_iterable(sorted(layer) for _size, layer in layers))


def _counts_and_family(g: Graph, budget: Optional[Budget] = None
                       ) -> tuple[list[int], tuple[VertexSet, ...]]:
    """(counts, family): counts[j] dominating sets of cardinality j, for j = 0..n,
    and the minimal family in canonical order.

    Up to n = _DOM_TABLE_MAX_N both come from one call's tables: counts[j]
    is the bit count of Dom & size_j, and the family is Min (module
    docstring) taken from the same Dom. Above it, a leaf (chosen, free) of
    the walk stands for comb(|free|, e) sets of size |chosen| + e, and the
    family comes from enumerate_minimal_dominating.
    """
    if g.n <= _DOM_TABLE_MAX_N:
        x, dom, sizes = _dominating_tables(g, budget)
        full = (1 << (1 << g.n)) - 1
        family = _minimal_in(dom, map(full.__xor__, x))
        family.sort(key=int.bit_count)  # ascending masks, stably by size: canonical
        return [(dom & table).bit_count() for table in sizes], tuple(family)
    counts = [0] * (g.n + 1)
    shapes = Counter((popcount(chosen), popcount(free))
                     for chosen, free in _dominating_leaves(g, g.n, budget))
    for (count, free), leaves in shapes.items():
        for extra in range(free + 1):
            counts[count + extra] += leaves * comb(free, extra)
    return counts, enumerate_minimal_dominating(g, budget).sets


def compute_ir(g: Graph, budget: Optional[Budget] = None) -> int:
    """Maximum cardinality of an irredundant set, exact.

    Irredundance is hereditary downward, so a DFS over irredundant
    prefixes visits every irredundant set, and a prefix is cut once a
    chosen vertex loses its last private neighbour or it cannot beat the best.
    """
    budget = budget or Budget.resolve()
    budget.check(g, "irredundant set scan")
    n, closed = g.n, g.closed
    best = 0

    def rec(i: int, count: int, cover: VertexSet, privates: list[VertexSet]) -> None:
        nonlocal best
        if count > best:
            best = count
        if i == n or count + (n - i) <= best:
            return
        rec(i + 1, count, cover, privates)
        ci = closed[i]
        pn_new = ci & ~cover
        if pn_new == 0:
            return
        shrunk = []
        for p in privates:
            p &= ~ci
            if p == 0:
                return
            shrunk.append(p)
        shrunk.append(pn_new)
        rec(i + 1, count + 1, cover | ci, shrunk)

    rec(0, 0, 0, [])
    del rec  # a self-recursive closure is a cycle; break it so its lists free now
    return best


def invariant_report(
    g: Graph,
    budget: Optional[Budget] = None,
    include_ir: Optional[bool] = None,
) -> InvariantReport:
    """Aggregate gamma/Gamma/alpha/IR and the well-covered/-dominated flags.

    IR is skipped by default above DEFAULT_IR_MAX_N vertices; pass
    include_ir=True to force.
    """
    budget = budget or Budget.resolve()
    fam = enumerate_minimal_dominating(g, budget)
    # A maximal independent set is an independent dominating set, so it is in fam:
    # each of its members is its own private neighbour.
    adj = g.adj
    mis = []
    for d in fam.sets:
        rest = d
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & d:
                break
            rest ^= low
        else:
            mis.append(d)
    alpha = max(popcount(s) for s in mis)
    well_covered = all(popcount(s) == alpha for s in mis)
    if include_ir is None:
        include_ir = g.n <= DEFAULT_IR_MAX_N
    ir = compute_ir(g, budget) if include_ir else None
    return InvariantReport(
        gamma=fam.gamma,
        Gamma=fam.Gamma,
        alpha=alpha,
        ir=ir,
        num_minimal_dom_sets=len(fam.sets),
        well_covered=well_covered,
        well_dominated=fam.gamma == fam.Gamma,
    )
