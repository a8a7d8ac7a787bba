#!/usr/bin/env python3
"""Diameters of D_k at and above the connectivity threshold.

Exploratory: for random connected graphs, report diam(D_{d0}) and
diam(D_n) next to the 2*(n - gamma) upper bound for D_n.

A malformed DOMREC_BUDGET exits 2 before the first row, with one stderr
line naming the variable. A graph refused by the enumeration budget ends
the run with exit 4, as `domrec` does; the rows already printed stay, and
one stderr line names the refused graph.
"""

import argparse
import random
import sys

from domrec import (
    Budget,
    BudgetError,
    Graph,
    build_dk,
    dk_diameter,
    enumerate_minimal_dominating,
    is_connected,
    sep_value,
)


def random_connected(rng, n):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.uniform(0.3, 0.7)]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument("--n-min", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    try:
        budget = Budget.resolve()
    except BudgetError as exc:
        print(exc, file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    print("n gamma Gamma d0 diam(D_d0) diam(D_n) bound")
    for row in range(1, args.count + 1):
        g = random_connected(rng, rng.randint(args.n_min, args.n_max))
        try:
            fam = enumerate_minimal_dominating(g, budget)
            d0 = sep_value(fam)  # d0 = sep (domrec.separation)
            diam_d0 = dk_diameter(build_dk(g, d0, budget))
            diam_top = dk_diameter(build_dk(g, g.n, budget))
        except BudgetError as exc:
            sys.stdout.flush()
            print(f"graph {row} (n={g.n}): {exc}", file=sys.stderr)
            return 4
        bound = 2 * (g.n - fam.gamma)
        print(f"{g.n} {fam.gamma} {fam.Gamma} {d0} {diam_d0} {diam_top} {bound}")
        assert diam_top is not None and diam_top <= bound
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
