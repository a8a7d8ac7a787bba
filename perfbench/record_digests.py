"""Record the stdout digests that the benchmark compares outputs against.

    python3 perfbench/record_digests.py

Runs every item that carries a digest key (full and short sizes, and the
reference items), refuses to record an output that fails its own checks,
and rewrites perfbench/digests.json. Rerun it only when a change to domrec
is meant to change output bytes, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in workloads.WORKLOADS.values():
        items = workload.build(1, "full") + workload.build(1, "short") + workload.reference()
        for item in items:
            if item.digest_key is None or item.digest_key in digests:
                continue
            rc, stdout, stderr, _, _ = run.call(item)
            problems = item.check(rc, stdout)
            if problems:
                print(f"{item.name}: {problems} {stderr}", file=sys.stderr)
                return 1
            digests[item.digest_key] = hashlib.sha256(stdout.encode()).hexdigest()
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
