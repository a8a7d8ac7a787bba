#!/usr/bin/env python3
"""Survey d0 - Gamma over all connected graphs of small order.

Without arguments this enumerates connected graphs up to isomorphism by
brute-force canonicalisation, which is practical up to n = 6. If you have
nauty installed, prefer streaming instead:

    geng -c 7 | domrec hunt --min-excess 2

A malformed DOMREC_BUDGET exits 2 before the first order, with one stderr
line naming the variable. A graph refused by the enumeration budget ends
the run with exit 4, as `domrec` does, with one stderr line naming it.
"""

import argparse
import sys
from itertools import combinations, permutations

from domrec import (
    Budget,
    BudgetError,
    Graph,
    enumerate_minimal_dominating,
    is_connected,
    sep_value,
)
from domrec.io_cli import export_graph6


def canonical_edges(n, edges):
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        ))
        if best is None or mapped < best:
            best = mapped
    return best


def connected_graphs_up_to_iso(n):
    pairs = list(combinations(range(n), 2))
    seen = set()
    for picks in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (picks >> i) & 1]
        if len(edges) < n - 1:
            continue
        g = Graph.from_edges(n, edges)
        if not is_connected(g):
            continue
        canon = canonical_edges(n, edges)
        if canon in seen:
            continue
        seen.add(canon)
        yield Graph.from_edges(n, list(canon))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5,
                        help="largest order to enumerate (default 5; 6 is slow)")
    args = parser.parse_args()
    try:
        budget = Budget.resolve()
    except BudgetError as exc:
        print(exc, file=sys.stderr)
        return 2
    histogram = {}
    extremal = []
    for n in range(2, args.max_n + 1):
        count = 0
        for g in connected_graphs_up_to_iso(n):
            count += 1
            try:
                fam = enumerate_minimal_dominating(g, budget)
                excess = sep_value(fam) - fam.Gamma  # d0 = sep (domrec.separation)
            except BudgetError as exc:
                print(f"n={n} {export_graph6(g)}: {exc}", file=sys.stderr)
                return 4
            histogram[excess] = histogram.get(excess, 0) + 1
            if excess >= 2:
                extremal.append((n, export_graph6(g), excess))
        print(f"n={n}: {count} connected graphs", file=sys.stderr)
    print("excess histogram (d0 - Gamma -> count):")
    for excess in sorted(histogram):
        print(f"  {excess}: {histogram[excess]}")
    if extremal:
        print("graphs with excess >= 2:")
        for n, g6, excess in extremal:
            print(f"  n={n} {g6} excess={excess}")
    else:
        print(f"no graph of order <= {args.max_n} has excess >= 2")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
