"""Separation of the minimal-dominating-set family, two independent ways.

For a 2-partition of the family, its separation is the smallest union
cardinality |X u Y| over cross pairs; the separation of the graph is the
maximum of that over all 2-partitions. The brute-force route scans every
partition; the bottleneck route reads the same number off a minimum
spanning tree over pair weights w(X,Y) = |X u Y|: the max-min over cuts
equals the heaviest MST edge, and removing that edge exhibits a witness
partition. The tree is from reconfig._prim_edges, but the route does not
build it. sep is the least t at which U_t (below) is connected, tried
upward from a lower bound with threshold searches (sep_value), and the
witness comes from the components of U_{sep-1}: Prim runs only inside
member 0's component, and only until it takes one member (proofs in
sep_bottleneck). Each search (_component) packs one byte per set into a
few big ints (reconfig._packed) and gets the weights from one set to all
others in a few whole-int operations, never one pair at a time. It
pushes from the sets it reaches and pulls the few left unseen, after
Beamer, Asanovic and Patterson's direction-optimizing search (SC 2012).
The two routes are cross-validated in the tests rather than trusted on
faith.

Why d0 = sep. Let F be the minimal family and U_k the graph on F with
X ~ Y when |X u Y| <= k. Every cut of U_k has a cross edge exactly when
k >= sep, so U_k is connected exactly when k >= sep. For k >= Gamma, D_k
is connected exactly when U_k is:

  (<=) Every minimal set lies in D_k because k >= Gamma. Every S in D_k
  reaches a minimal subset by single deletions that keep it dominating,
  and the sizes only fall. For X ~ Y, the union X u Y dominates and has
  at most k elements, so X and Y each reach it by single additions.
  Hence all of D_k is one component.

  (=>) Take X, Y in F and a path X = S_0, ..., S_t = Y in D_k. Follow a
  minimal subset M_i of S_i, starting with M_0 = X. On an addition step,
  or on a deletion of a vertex outside M_i, keep M_{i+1} = M_i. On the
  deletion of a vertex of M_i, pick any minimal M_{i+1} inside S_{i+1};
  both M_i and M_{i+1} lie inside S_i, so |M_i u M_{i+1}| <= k and
  M_i ~ M_{i+1}. The last set Y is minimal, so its only minimal subset
  is Y itself and M_t = Y. Hence X and Y are joined in U_k.

When F has at least 2 sets, sep >= Gamma + 1: put a set X of size Gamma
alone on one side; no other minimal set Y is a subset of X, so
|X u Y| >= Gamma + 1 for every cross pair. Then D_k is connected for all
k >= sep (those k are >= Gamma), and D_{sep-1} is disconnected because
sep - 1 >= Gamma and U_{sep-1} is. So d0 = sep.

Isolated vertices do not break this. Such a vertex lies in every
dominating set, so in every set above, and nothing in the argument needs
G to be connected. F has at least 2 sets whenever G has an edge uv
(maximal independent sets through u and through v are distinct minimal
dominating sets); only the edgeless graph, with the single set V, is
excluded, and d0 is rejected there too.

This is why `domrec d0` reads d0 off sep_value by default, and why
sep_value can find sep by asking whether U_t is connected: the answer is
yes for every t >= sep and no below, so trying t upward from a lower
bound, the first yes is at sep. `hunt` needs only one yes/no answer: a
graph is a miss when U_k is connected at k = Gamma + E - 1, for the
threshold E on d0 - Gamma. sep_at_most asks exactly that, so sep_value
runs only on hits, for their sep. Every caller that needs only the
number calls sep_value; sep_bottleneck, which finds the same number on
its own packing and then the witness, runs for `domrec sep` alone.

The direct D_k scan (reconfig.d0_direct) stays the oracle: `d0 --method
direct|both` run it, `hunt` re-verifies every hit with it, and sep is
still checked against it on every corpus graph. It reads one layer of
D_k per k, never the minimal family's U_k: for k > Gamma, D_k is
connected iff the dominating sets of size k - 1 are connected under
single swaps. Each layer above Gamma takes its swap components from the
layer below, so layer d0 - 1 is read only up to the first bridge that
joins it (proofs in reconfig.py).

sep_at_most and sep_value pick their search by the family size m alone,
and pack a large family once, however many t they try. A family of at
most _SCAN_MAX_SETS = 64 sets is searched from member 0 in plain Python:
each popped X tests |X u Y| <= k against every set Y still unseen. That
is the definition of U_k's edges, and a "no" comes only when no set
popped has an edge to a set unseen, so the answer is exact. It costs
O(m^2) pair tests on a "no". A larger family is searched by _component,
whose packing (reconfig._packed) alone takes about three times as long
as a whole scan of an 18-set family, the median on `hunt` streams. The
ratio of scan time to packed time (packing and _component) per family,
median (max), over 400 random graphs G(n, p) with n in 9..17 and p in
0.15..0.6, asked at k = sep ("yes") and k = sep - 1 ("no"), on a 2-vCPU
Xeon with Python 3.11 (BENCH_scan.json):

    m          yes          no
    2..16      0.12 (0.31)  0.21 (0.35)
    17..32     0.15 (0.41)  0.36 (0.68)
    33..64     0.22 (0.64)  0.59 (1.54)
    65..128    0.27 (0.88)  0.99 (2.77)
    129..256   0.35 (2.40)  1.47 (4.47)
    257..512   0.60 (1.23)  2.08 (5.49)

A "no" up to 64 sets still gains in the median, and from 65 on it does
not: the scan's pair tests grow as m^2. On four seeded `hunt` streams of
1,000 random graphs with 7..11 vertices, at most 3 families in a stream
have more than 64 sets. The gkr/qkr(3,2) families (37 and 44 sets) are
scanned, and the gkr/qkr(4,2) ones (81 and 90 sets) are searched in lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .graph_core import BudgetError, Graph, VertexSet, popcount
from .domination import Budget, DomFamily, _require_at_least_two, enumerate_minimal_dominating
from .reconfig import _packed, _prim_edges, d0_direct

BRUTE_FORCE_MAX_FAMILY = 15
# sep_at_most scans a family of at most this many sets pair by pair (module docstring).
_SCAN_MAX_SETS = 64


@dataclass(frozen=True)
class SepReport:
    sep: int
    witness_partition: tuple[tuple[int, ...], tuple[int, ...]]
    witness_pair: tuple[VertexSet, VertexSet]
    method: str  # "brute_force" | "bottleneck"


@dataclass(frozen=True)
class D0SepEvidence:
    """Both connectivity-threshold computations side by side."""

    d0: int
    sep: int
    agree: bool


def sep_brute_force(fam: DomFamily) -> SepReport:
    """Literal definition: max over all 2-partitions of the min cross union.

    Pairs are scanned in ascending weight order, so each partition's
    minimum is found at the first straddling pair.
    """
    _require_at_least_two(fam)
    m = len(fam.sets)
    if m > BRUTE_FORCE_MAX_FAMILY:
        raise BudgetError(
            f"family of {m} sets exceeds brute-force partition limit"
            f" {BRUTE_FORCE_MAX_FAMILY}"
        )
    sets = fam.sets
    pairs = sorted(
        (popcount(sets[i] | sets[j]), i, j)
        for i in range(m)
        for j in range(i + 1, m)
    )
    best_sep = -1
    best_sides: tuple[int, int] = (0, 0)
    best_pair = (0, 1)
    # Index 0 stays on side A; side B ranges over subsets of the rest.
    for choice in range(1, 1 << (m - 1)):
        side_b = choice << 1
        for w, i, j in pairs:
            if ((side_b >> i) ^ (side_b >> j)) & 1:
                if w > best_sep:
                    best_sep = w
                    best_sides = (side_b, ((1 << m) - 1) & ~side_b)
                    best_pair = (i, j)
                break
    side_b_mask, side_a_mask = best_sides
    part_a = tuple(i for i in range(m) if (side_a_mask >> i) & 1)
    part_b = tuple(i for i in range(m) if (side_b_mask >> i) & 1)
    i, j = best_pair
    return SepReport(
        sep=best_sep,
        witness_partition=(part_a, part_b),
        witness_pair=(sets[i], sets[j]),
        method="brute_force",
    )


def sep_bottleneck(fam: DomFamily) -> SepReport:
    """Separation via the heaviest edge of a minimum spanning tree.

    The tree is from reconfig._prim_edges: rooted at member 0, it takes next
    the lowest index at the smallest distance to the tree, and a parent
    changes only on a strict decrease. The report is its first heaviest
    edge (sep, p*, c*), as the pair (p*, c*), and the subtree below it, as
    the partition. Neither needs the whole tree. Let C0 be member 0's
    component of U_{sep-1}.

    sep. The heaviest tree edge is the least t with U_t connected (module
    docstring), which is sep_value's number. _sep finds it on the packing
    made here, so the family is packed once, and _cut then takes the
    steps below once, at t = sep.

    The heaviest edge. While C0 is not all taken, a member of it is
    within sep - 1 of the tree and every other member is at least sep
    away. So Prim takes all of C0 first, through edges lighter than sep,
    and the members outside C0 play no part in that order. The next edge
    weighs sep, as U_sep is connected, so it is the first heaviest. Its
    child c* is the lowest index at distance sep from C0. Its parent p* is
    the first member of C0, in Prim's order, at weight sep from c*: the
    distance of c* only falls, never below sep, and its parent last
    changed when it reached sep. So reconfig._prim_edges, on the same
    packing, runs only until it takes such a member, and not at all when
    member 0 is one.

    The side. After c*, Prim takes the rest of c*'s component of U_{sep-1}
    in the same way, each member below one taken before it. Then, over and
    over, every member left is at least sep away, Prim takes the lowest
    index x at distance sep, and x's component follows below x. The parent
    of x is the first member taken at weight sep from x, so it lies in the
    earliest component taken that holds such a member. The subtree below
    c* is therefore the union of the components whose chain of parent
    components runs through c*'s, which takes component labels and tests
    at weight sep, not Prim's order. When c*'s component is all of the
    members outside C0, as on every gkr/qkr, it is the side.
    """
    _require_at_least_two(fam)
    sets = fam.sets
    m = len(sets)
    ones, _, size, beyond = packing = _packed(sets)
    sep = _sep(sets, packing)
    c0, c_star, side = _cut(packing, sep)
    near = ((sep * ones | ones << 7) - beyond(c_star, size)) & c0
    if near & 0x80:
        p_star = 0
    else:
        p_star = next(child for _, _, child in _prim_edges(sets, packing)
                      if near >> 8 * child & 0x80)
    return SepReport(
        sep=sep,
        witness_partition=(tuple(_members((ones << 7) ^ side, m)), tuple(_members(side, m))),
        witness_pair=(sets[p_star], sets[c_star]),
        method="bottleneck",
    )


def _cut(packing: tuple, sep: int) -> tuple[int, int, int]:
    """(C0, c*, the side below c*), as guard bits, at the separation sep.

    U_{sep-1} is disconnected and U_sep connected, so some member outside
    C0 is at weight sep from it, and c* is the lowest. The steps are those
    of sep_bottleneck's docstring. C0 and c*'s component are taken first;
    then any components left are taken in Prim's order: claims holds the
    members at weight sep from a component taken, and ours those of them
    that a component on the side reached first.
    """
    ones, sizes, size, beyond = packing
    m = len(sizes)
    everyone = ones << 7
    within = sep * ones | everyone
    c0 = _component(packing, sep - 1, 0, everyone ^ 0x80)
    rest = everyone ^ c0
    c_star = next(y for y in _members(rest, m) if (within - beyond(y, size)) & c0)
    rest ^= 0x80 << 8 * c_star
    side = _component(packing, sep - 1, c_star, rest)
    rest &= ~side
    if not rest:
        return c0, c_star, side

    def reach(comp: int) -> int:
        near = 0
        for z in _members(comp, m):
            near |= within - beyond(z, size)
        return near

    claims = reach(c0) & rest
    ours = reach(side) & rest & ~claims
    claims |= ours
    while rest:
        reached = claims & rest
        low = reached & -reached
        x = low.bit_length() // 8 - 1
        rest ^= low
        near = within - beyond(x, size)
        comp = low
        if (near - ones) & rest:
            comp = _component(packing, sep - 1, x, rest)
            rest &= ~comp
            near = reach(comp)
        fresh = near & rest & ~claims
        claims |= fresh
        if ours & low:
            side |= comp
            ours |= fresh
    return c0, c_star, side


def _members(flags: int, m: int) -> list[int]:
    """The members whose guard bit 0x80 flags holds, in index order."""
    return list(compress(range(m), flags.to_bytes(m, "little")))


def _component(packing: tuple, t: int, start: int, unseen: int) -> int:
    """Member start's component of U_t among start and unseen, as guard bits.

    packing is reconfig._packed(sets); unseen holds the guard bit 0x80 of
    every other member the search may reach. Push: a popped X marks its
    new neighbours at once, as byte i of (t | 0x80..) - |X u Y_i| keeps its
    guard bit exactly when |X u Y_i| <= t. No byte borrows, because t is
    clamped into [0, 126] and every weight is at most 64, and a t outside
    that range answers as its clamp does. Pull: once no more members are
    unseen than pops have gone by without a find, each unseen Y joins when
    (t | 0x80..) - |Y u Y_i| keeps the guard bit of a member seen. A pass
    that adds nobody closes the component; pulls cost at most as much as
    the idle pops before them. The search returns as soon as nothing is
    unseen.
    """
    ones, sizes, size, beyond = packing
    m = len(sizes)
    within = min(max(t, 0), 126) * ones | ones << 7
    seen = pending = 0x80 << 8 * start
    left = unseen.bit_count()
    idle = 0
    while unseen and pending:
        if left <= idle:
            for y in _members(unseen, m):
                if (within - beyond(y, size)) & seen:
                    seen |= 0x80 << 8 * y
            near = seen & unseen
            if not near:
                return seen
        else:
            low = pending & -pending
            pending ^= low
            near = (within - beyond(low.bit_length() // 8 - 1, size)) & unseen
        if near:
            unseen ^= near
            seen |= near
            pending |= near
            left -= near.bit_count()
            idle = 0
        else:
            idle += 1
    return seen


def sep_value(fam: DomFamily) -> int:
    """The separation sep, and so d0 (module docstring), without a witness.

    The cut that puts a largest set X alone on one side has its least
    cross weight, min |X u Y| over the other sets Y, at most sep. So t is
    tried upward from there, and the first t at which sep_at_most's
    question, whether U_t is connected, is answered yes is sep. A family
    of more than _SCAN_MAX_SETS sets is packed once for every try.
    """
    _require_at_least_two(fam)
    sets = fam.sets
    return _sep(sets, _packed(sets) if len(sets) > _SCAN_MAX_SETS else None)


def sep_at_most(fam: DomFamily, k: int) -> bool:
    """Whether sep <= k, that is whether U_k is connected (module docstring).

    Searches member 0's component of U_k and stops as soon as it holds
    every member: pair by pair in plain Python for a family of at most
    _SCAN_MAX_SETS sets, and by _component on the packed layout of
    reconfig._packed for a larger one. The scan splits the unseen sets by
    |X u Y| <= k, the edge of U_k itself, at every X it pops, so it is
    exact; why the route turns at 64 sets is in the module docstring.
    """
    _require_at_least_two(fam)
    sets = fam.sets
    return _at_most(sets, k, _packed(sets) if len(sets) > _SCAN_MAX_SETS else None)


def _sep(sets: tuple[VertexSet, ...], packing: Optional[tuple]) -> int:
    """sep_value of sets, each try asked of _at_most with this packing.

    A packing gives the bound's weights as one row, in |X| whole-int
    additions, where the plain loop forms each pair (X, Y) on its own.
    """
    if packing is None:
        big = max(sets, key=int.bit_count)
        t = min(map(int.bit_count, map(big.__or__, filter(big.__ne__, sets))))
    else:
        _, sizes, size, beyond = packing
        big = sizes.index(max(sizes))
        row = beyond(big, size).to_bytes(len(sizes), "little")
        t = min(row[:big] + row[big + 1:])
    while not _at_most(sets, t, packing):
        t += 1
    return t


def _at_most(sets: tuple[VertexSet, ...], k: int, packing: Optional[tuple]) -> bool:
    """sep_at_most of sets: by _component on packing, or by the scan when it is None."""
    if packing is not None:
        everyone = packing[0] << 7
        return _component(packing, k, 0, everyone ^ 0x80) == everyone
    unseen = sets[1:]
    todo = [sets[0]]
    while todo:
        x = todo.pop()
        far = []
        for y in unseen:
            if (x | y).bit_count() <= k:
                todo.append(y)
            else:
                far.append(y)
        if not far:
            return True
        unseen = far
    return False


def check_sep_equals_d0(
    g: Graph, budget: Optional[Budget] = None
) -> D0SepEvidence:
    """Cross-validate the two d_0 routes: direct scan vs separation."""
    budget = budget or Budget.resolve()
    fam = enumerate_minimal_dominating(g, budget)
    sep = sep_value(fam)
    d0 = d0_direct(g, budget, family=fam)
    return D0SepEvidence(d0=d0, sep=sep, agree=d0 == sep)
