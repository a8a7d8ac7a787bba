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

Every branch dominates u, so this route needs no coverage prune. The
id-order scans keep theirs: _scan_dominating_prefixes cuts a prefix that
leaves some undominated vertex no undecided closed neighbour; compute_ir
cuts one whose chosen vertex lost all private neighbours (they only
shrink as vertices are added) or that cannot beat the best size found.

gamma, Gamma, alpha and the well-covered flag are read off the one minimal
family: its members with no edge inside are the maximal independent sets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from .graph_core import BudgetError, Graph, VertexSet, popcount

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

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class InvariantReport:
    gamma: int
    Gamma: int
    alpha: int
    ir: Optional[int]
    num_minimal_dom_sets: int
    well_covered: bool
    well_dominated: bool


def minimal_dominating_sets(g: Graph, budget: Optional[Budget] = None) -> list[VertexSet]:
    """All minimal dominating sets of g, in canonical order."""
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
    return out


def enumerate_minimal_dominating(g: Graph, budget: Optional[Budget] = None) -> DomFamily:
    sets = minimal_dominating_sets(g, budget)
    if not sets:
        raise BudgetError("no minimal dominating set found; graph state inconsistent")
    cards = [popcount(s) for s in sets]
    return DomFamily(sets=tuple(sets), gamma=min(cards), Gamma=max(cards))


def _scan_dominating_prefixes(
    g: Graph, cap: int, budget: Optional[Budget], visit: Callable[[VertexSet, int, int], None]
) -> None:
    """Call visit(chosen, i, count) for each first dominating prefix of size <= cap.

    Ids are decided in order and a prefix is reported as soon as it
    dominates, with i its first undecided id. Every extension of it then
    dominates too, so the dominating sets of size <= cap are exactly the
    reported prefixes plus any ids from i..n-1, each set from one prefix.
    """
    budget = budget or Budget.resolve()
    budget.check(g, "dominating set enumeration")
    if cap < 0:
        return
    n, closed, full = g.n, g.closed, g.full_mask
    suffix = [0] * (n + 1)  # suffix[i]: the vertices that ids i..n-1 dominate
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | closed[i]

    def rec(i: int, chosen: VertexSet, count: int, cover: VertexSet) -> None:
        if cover == full:
            visit(chosen, i, count)
            return
        if i == n or count == cap:
            return
        if (full ^ cover) & ~suffix[i]:
            return
        rec(i + 1, chosen, count, cover)
        rec(i + 1, chosen | 1 << i, count + 1, cover | closed[i])

    rec(0, 0, 0, 0)
    del rec  # a self-recursive closure is a cycle; break it so its lists free now


def dominating_sets_upto(
    g: Graph, max_size: int, budget: Optional[Budget] = None
) -> list[VertexSet]:
    """All dominating sets of cardinality <= max_size, canonical order.

    Once a prefix of `count` ids first dominates at id i, the sets it
    stands for are the prefix joined with each subset of ids i..n-1 of at
    most room = cap - count members. That list of subsets depends only on
    (i, room), so it is built once, by doubling over the ids, and shared by
    every prefix with the same pair. Each shared list is emitted in full at
    least once, so the shared lists never hold more masks than the output.
    """
    n = g.n
    cap = min(max_size, n)
    out: list[VertexSet] = []
    shared: dict[tuple[int, int], list[VertexSet]] = {}

    def emit_extensions(mask: VertexSet, i: int, count: int) -> None:
        room = cap - count
        ext = shared.get((i, room))
        if ext is None:
            ext = [0]
            for v in range(i, n):
                b = 1 << v
                ext += [x | b for x in ext if x.bit_count() < room]
            shared[i, room] = ext
        out.extend([mask | x for x in ext])

    _scan_dominating_prefixes(g, cap, budget, emit_extensions)
    # Two stable sorts give the canonical (size, mask) order without key tuples.
    out.sort()
    out.sort(key=int.bit_count)
    return out


def _dominating_set_counts(g: Graph, budget: Optional[Budget] = None) -> list[int]:
    """counts[j] = number of dominating sets of cardinality j, for j = 0..n.

    A prefix of `count` ids that first dominates at id i stands for
    comb(n - i, e) sets of size count + e, so no set is listed.
    """
    n = g.n
    counts = [0] * (n + 1)

    def tally(_mask: VertexSet, i: int, count: int) -> None:
        for extra in range(n - i + 1):
            counts[count + extra] += comb(n - i, extra)

    _scan_dominating_prefixes(g, n, budget, tally)
    return counts


def compute_ir(g: Graph, budget: Optional[Budget] = None) -> int:
    """Maximum cardinality of an irredundant set, exact.

    Irredundance is hereditary downward, so a DFS over irredundant
    prefixes visits every irredundant set.
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
