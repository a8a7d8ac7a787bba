"""Separation of the minimal-dominating-set family, two independent ways.

For a 2-partition of the family, its separation is the smallest union
cardinality |X u Y| over cross pairs; the separation of the graph is the
maximum of that over all 2-partitions. The brute-force route scans every
partition; the bottleneck route reads the same number off a minimum
spanning tree over pair weights w(X,Y) = |X u Y|: the max-min over cuts
equals the heaviest MST edge, and removing that edge exhibits a witness
partition. The tree is reconfig._prim_tree's, which holds one byte per
set whose distance to the tree can still fall, and gets the weights from
each newly added set to all of those in a few whole-int operations,
never one pair at a time. A set Y drops its byte once its distance is
|Y|, or |Y| + 1 while no set left to add is smaller: a set X at least
as large is not inside Y, so |X u Y| >= |Y| + 1. The two routes are
cross-validated in the tests rather than trusted on faith.

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

This is why `domrec d0` reads d0 off sep_bottleneck by default. `hunt`
needs only the yes/no answer: a graph is a miss when U_k is connected at
k = Gamma + E - 1, for the threshold E on d0 - Gamma, and sep_at_most
asks exactly that, so sep_bottleneck runs only on hits, for their sep.
The direct D_k scan (reconfig.d0_direct) stays the oracle: `d0 --method
direct|both` run it, `hunt` re-verifies every hit with it, and sep is
still checked against it on every corpus graph. It reads one layer of
D_k per k, never the minimal family's U_k: for k > Gamma, D_k is
connected iff the dominating sets of size k - 1 are connected under
single swaps. Each layer above Gamma takes its swap components from the
layer below, so layer d0 - 1 is read only up to the first bridge that
joins it (proofs in reconfig.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph_core import BudgetError, Graph, VertexSet, popcount
from .domination import Budget, DomFamily, _require_at_least_two, enumerate_minimal_dominating
from .reconfig import _packed, _prim_tree, d0_direct

BRUTE_FORCE_MAX_FAMILY = 15


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

    The tree is reconfig._prim_tree's, whose ties break toward the lowest
    index, so the witness is deterministic. Its edges come in insertion
    order, parents before children, so the subtree cut off below the
    first heaviest edge is collected by one forward pass over the edges
    after it.
    """
    _require_at_least_two(fam)
    sets = fam.sets
    m = len(sets)
    tree_edges = _prim_tree(sets)  # (weight, parent, child)
    bottleneck = max(tree_edges, key=lambda e: e[0])
    sep, p_star, c_star = bottleneck
    side_c = {c_star}
    for _, a, b in tree_edges[tree_edges.index(bottleneck) + 1:]:
        if a in side_c:
            side_c.add(b)
    # The root, index 0, is never below a tree edge, so it is on p_star's side.
    part_p = tuple(i for i in range(m) if i not in side_c)
    return SepReport(
        sep=sep,
        witness_partition=(part_p, tuple(sorted(side_c))),
        witness_pair=(sets[p_star], sets[c_star]),
        method="bottleneck",
    )


def sep_at_most(fam: DomFamily, k: int) -> bool:
    """Whether sep <= k, that is whether U_k is connected (module docstring).

    Breadth-first search from member 0 of U_k, on the packed layout that
    reconfig._prim_tree uses (reconfig._packed): unseen holds the guard
    bit 0x80 of every member not reached yet. For a popped X, byte i of
    (k | 0x80..) - |X u Y_i| keeps its guard bit exactly when
    |X u Y_i| <= k; no byte borrows, because k is clamped into [0, 126]
    and every weight is at most 64, and a k outside that range answers as
    its clamp does. Masked by unseen, that marks X's new neighbours in a
    few whole-int operations. The search returns as soon as nothing is
    unseen, so a connected U_k is often settled after a few pops.
    """
    _require_at_least_two(fam)
    m = len(fam.sets)
    ones, _, size, beyond = _packed(fam.sets)
    guard = ones << 7
    within = min(max(k, 0), 126) * ones | guard
    unseen = guard ^ 0x80
    reached = [0]
    for x in reached:  # grows while it is read: a FIFO queue
        near = (within - beyond(x, size)) & unseen
        if near:
            unseen ^= near
            if not unseen:
                return True
            flags = near.to_bytes(m, "little")
            j = flags.find(128)
            while j >= 0:
                reached.append(j)
                j = flags.find(128, j + 1)
    return False


def check_sep_equals_d0(
    g: Graph, budget: Optional[Budget] = None
) -> D0SepEvidence:
    """Cross-validate the two d_0 routes: direct scan vs separation."""
    budget = budget or Budget.resolve()
    fam = enumerate_minimal_dominating(g, budget)
    sep = sep_bottleneck(fam).sep
    d0 = d0_direct(g, budget, family=fam)
    return D0SepEvidence(d0=d0, sep=sep, agree=d0 == sep)
