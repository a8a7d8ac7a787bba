"""Exact enumeration of dominating-set families and classical invariants.

Everything is exact: budgets refuse inputs that would take too long.

Minimal dominating sets branch on u, the lowest vertex not yet dominated.
Each unbanned v in N[u] is tried in ascending order: v joins the chosen
set if every chosen vertex keeps a private neighbour, and is banned for
the later siblings once its branch returns. A full cover is emitted.

  * It is minimal: each chosen x has a private neighbour that only x
    dominates, so dropping x undominates it; domination is closed
    upwards, so no proper subset dominates either.
  * Each minimal dominating set S comes out once. The branch on the first
    member of S in N[u] bans only non-members and keeps chosen inside S,
    where private neighbours survive, until chosen dominates, i.e. is S.
    Each other sibling takes a non-member or bans a member of S.

Every dominating set of size <= cap comes from one walk with the same
branching and bans but no private-neighbour check, cut once cap vertices
are chosen. A full cover is a leaf (chosen, free), free being the
vertices neither chosen nor banned there. Neither walk needs a coverage
prune: every branch dominates u.

  * Each dominating set S of size <= cap is chosen | T for exactly one
    leaf and one T inside free. While chosen lies inside S and banned
    outside it, S meets N[u]; the branch on the lowest member of S in
    N[u] keeps both conditions, since it bans only non-members, and every
    other sibling breaks one. Chosen stays a proper subset of S until it
    dominates, so the cap never cuts this path, and its leaf has S - chosen
    inside free. Conversely every chosen | T dominates, as chosen does.

gamma, Gamma, alpha and the well-covered flag are read off the one minimal
family: its members with no edge inside are the maximal independent sets.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Iterator, Optional

from .graph_core import BudgetError, Graph, InputError, VertexSet, iter_vertices, popcount

DEFAULT_MAX_N = 24
DEFAULT_IR_MAX_N = 20
BUDGET_ENV_VAR = "DOMREC_BUDGET"


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


def enumerate_minimal_dominating(g: Graph, budget: Optional[Budget] = None) -> DomFamily:
    """All minimal dominating sets of g, in canonical order, with gamma and Gamma."""
    budget = budget or Budget.resolve()
    budget.check(g, "minimal dominating set enumeration")
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
    # Two stable sorts give the canonical (size, mask) order without key tuples.
    out.sort()
    out.sort(key=int.bit_count)
    return DomFamily(sets=tuple(out), gamma=popcount(out[0]), Gamma=popcount(out[-1]))


def _dominating_leaves(g: Graph, cap: int,
                       budget: Optional[Budget]) -> list[tuple[VertexSet, VertexSet]]:
    """(chosen, free) for each leaf of the walk, cut at cap, in the module docstring."""
    budget = budget or Budget.resolve()
    budget.check(g, "dominating set enumeration")
    closed, full = g.closed, g.full_mask
    leaves: list[tuple[VertexSet, VertexSet]] = []

    def rec(chosen: VertexSet, cover: VertexSet, count: int, banned: VertexSet) -> None:
        if cover == full:
            leaves.append((chosen, full & ~(chosen | banned)))
            return
        if count >= cap:
            return
        undominated = full ^ cover
        u = (undominated & -undominated).bit_length() - 1
        rest = closed[u] & ~banned
        while rest:
            low = rest & -rest
            rest ^= low
            rec(chosen | low, cover | closed[low.bit_length() - 1], count + 1, banned)
            banned |= low

    rec(0, 0, 0, 0)
    del rec  # a self-recursive closure is a cycle; break it so its lists free now
    return leaves


def _dominating_layers(g: Graph, cap: int,
                       budget: Optional[Budget]) -> Iterator[tuple[int, list[VertexSet]]]:
    """Yield (size, layer) for each non-empty size <= cap, ascending; layers unsorted.

    A layer is built only when asked for, so a caller that stops early skips the rest.
    """
    leaves = [(popcount(chosen), chosen, [1 << v for v in iter_vertices(free)])
              for chosen, free in _dominating_leaves(g, cap, budget)]
    for size in range(cap + 1):
        layer: list[VertexSet] = []
        for count, chosen, free_bits in leaves:
            if count <= size:
                layer += map(chosen.__or__, map(sum, combinations(free_bits, size - count)))
        if layer:
            yield size, layer


def dominating_sets_upto(g: Graph, max_size: int,
                         budget: Optional[Budget] = None) -> list[VertexSet]:
    """All dominating sets of cardinality <= max_size, canonical order."""
    layers = _dominating_layers(g, min(max_size, g.n), budget)
    return list(chain.from_iterable(sorted(layer) for _size, layer in layers))


def _dominating_set_counts(g: Graph, budget: Optional[Budget] = None) -> list[int]:
    """counts[j] = number of dominating sets of cardinality j, for j = 0..n.

    A leaf (chosen, free) stands for comb(|free|, e) sets of size |chosen| + e.
    """
    counts = [0] * (g.n + 1)
    shapes = Counter((popcount(chosen), popcount(free))
                     for chosen, free in _dominating_leaves(g, g.n, budget))
    for (count, free), leaves in shapes.items():
        for extra in range(free + 1):
            counts[count + extra] += leaves * comb(free, extra)
    return counts


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
