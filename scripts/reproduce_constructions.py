#!/usr/bin/env python3
"""Print the headline table for both constructions over the (k, r) grid.

For each grid point this recomputes, from scratch, the minimal-dominating
family, the direct connectivity threshold d0, and the separation value,
and shows that d0 = k + r on every row (gamma differs by one between the
two constructions). It also runs the construction's structure checks
(`domrec verify`) and prints verify=ok or the names of the checks that
failed; a failed check counts as a MISMATCH.
"""

import argparse
import time
from functools import partial

from domrec import (
    d0_direct,
    enumerate_minimal_dominating,
    generate_gkr,
    generate_qkr,
    sep_bottleneck,
    verify_gkr_structure,
    verify_qkr_structure,
)


def row(name, g, expect_d0, verify):
    t0 = time.perf_counter()
    fam = enumerate_minimal_dominating(g)
    d0 = d0_direct(g, family=fam)
    sep = sep_bottleneck(fam).sep
    failed = [c.name for c in verify().failures()]
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
    ok = True
    for k in range(3, args.k_max + 1):
        for r in range(1, k):
            g, _ = generate_gkr(k, r)
            q, _ = generate_qkr(k, r)
            ok &= row(f"gkr({k},{r})", g, k + r, partial(verify_gkr_structure, k, r))
            ok &= row(f"qkr({k},{r})", q, k + r, partial(verify_qkr_structure, k, r))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
