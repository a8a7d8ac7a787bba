#!/usr/bin/env python3
"""Print the headline table for both constructions over the (k, r) grid.

For each grid point this recomputes, from scratch, the minimal-dominating
family, the direct connectivity threshold d0, and the separation value,
and shows that d0 = k + r on every row (gamma differs by one between the
two constructions). It also runs the construction's structure checks
(`domrec verify`) and prints verify=ok or the names of the checks that
failed; a failed check counts as a MISMATCH.

Each family is enumerated once per row; d0, sep and the structure checks
all read it.

Exit status: 0 when every row is ok, 1 on a MISMATCH. A malformed
DOMREC_BUDGET exits 2 before the first row, with one stderr line naming
the variable. A row refused by the enumeration budget (DOMREC_BUDGET, at
most n = 24 by default) ends the run with exit 4, and an input error with
exit 3, as `domrec` does; the rows already printed stay, and stderr names
the refused row.
"""

import argparse
import sys
import time
from functools import partial

from domrec import (
    Budget,
    BudgetError,
    DomrecError,
    d0_direct,
    enumerate_minimal_dominating,
    generate_gkr,
    generate_qkr,
    sep_value,
    verify_gkr_structure,
    verify_qkr_structure,
)


def row(name, g, expect_d0, verify, budget=None):
    """Print one row; verify takes the family as `family=`."""
    t0 = time.perf_counter()
    fam = enumerate_minimal_dominating(g, budget)
    d0 = d0_direct(g, budget, family=fam)
    sep = sep_value(fam)
    failed = [c.name for c in verify(family=fam).failures()]
    dt = time.perf_counter() - t0
    flag = "ok" if d0 == sep == expect_d0 and not failed else "MISMATCH"
    print(f"{name:10s} n={g.n:3d} |D|={len(fam.sets):4d} "
          f"gamma={fam.gamma} Gamma={fam.Gamma} d0={d0} sep={sep} "
          f"verify={','.join(failed) or 'ok'} [{flag}, {dt:.2f}s]")
    return flag == "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=4,
                        help="largest clique size to include (default 4)")
    args = parser.parse_args()
    try:
        budget = Budget.resolve()
    except BudgetError as exc:
        print(exc, file=sys.stderr)
        return 2
    ok = True
    constructions = (("gkr", generate_gkr, verify_gkr_structure),
                     ("qkr", generate_qkr, verify_qkr_structure))
    for k in range(3, args.k_max + 1):
        for r in range(1, k):
            for kind, generate, verify in constructions:
                name = f"{kind}({k},{r})"
                try:
                    ok &= row(name, generate(k, r)[0], k + r, partial(verify, k, r), budget)
                except DomrecError as exc:
                    sys.stdout.flush()
                    print(f"{name}: {exc}", file=sys.stderr)
                    return 4 if isinstance(exc, BudgetError) else 3
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
