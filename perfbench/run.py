"""The domrec benchmark: one workload per run, driven through `domrec.io_cli.main`.

    python3 perfbench/run.py --workload hunt-stream --seed 1 --seconds 35 --trace 0

Each run is one fresh process, pinned to one CPU. It first times the cold
import of domrec plus its parser set-up, here and in eight child processes
(setup_s is the median). It then builds the workload's inputs from the seed
and calls the CLI in-process, one item after another (closed loop, no
concurrency), with stdin, stdout and stderr swapped for in-memory text.
Whole passes over the workload's items repeat until --seconds is spent;
the first pass only warms up.
`--jobs 1` and an explicit `--budget` are pinned in every call, and
DOMREC_JOBS/DOMREC_BUDGET are removed from the environment. Every output is
checked (workloads.py); a failed check, nonzero exit or exception counts as a
failed item.

Times are reported in reference seconds (speed.py): wall time divided by the
host's slowdown measured alongside, so that runs on a busy shared host
compare. The raw wall time is printed too. A pass's time is the sum over its
items of each item's median over the run's passes.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes, reports per-layer metrics (tracing.py) and writes the spans
to perfbench/out/. Human-readable lines come first; the last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_CHILDREN = 8
SETUP_PROBES = 40
ENV_SCRUB = ("DOMREC_JOBS", "DOMREC_BUDGET")
END_TO_END = {"setup_s": "s", "wall_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB"}


def time_setup() -> float:
    """Cold import of the CLI module plus its argument parser, in reference
    seconds; probes just before and after give the host's slowdown."""
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        speed.probe()
        probes.append(time.perf_counter() - start)
    start = time.perf_counter()
    from domrec import io_cli

    io_cli.build_parser()
    elapsed = time.perf_counter() - start
    for _ in range(SETUP_PROBES):
        begin = time.perf_counter()
        speed.probe()
        probes.append(time.perf_counter() - begin)
    return elapsed * speed.REFERENCE_PROBE_S / statistics.median(probes)


def setup_samples() -> list[float]:
    samples = [time_setup()]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return samples


def call(item: workloads.Item) -> tuple[int, str, str, float, float]:
    """Run one CLI item in-process: (exit code, stdout, stderr, start, end)."""
    from domrec import io_cli

    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(item.stdin), out, err
    start = time.perf_counter()
    try:
        rc = io_cli.main(list(item.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an exception is a failed item, reported below
        rc = -1
        err.write(traceback.format_exc())
    finally:
        end = time.perf_counter()
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue(), start, end


class Judge:
    """Counts attempted and failed items. An item's output is checked the
    first time; later passes must repeat its exit code and bytes exactly."""

    def __init__(self, digests: dict[str, str]) -> None:
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, tuple[int, str, bool]] = {}
        self.problems: list[str] = []

    def judge(self, item: workloads.Item, rc: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        first = self.first.get(item.name)
        if first is not None and first[:2] == (rc, stdout):
            self.failed += not first[2]
            return
        try:
            problems = item.check(rc, stdout)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"output has an unexpected shape: {exc!r}"]
        if first is not None:
            problems.append("output differs from the first pass")
        if item.digest_key is not None:
            want = self.digests.get(item.digest_key, "none")
            got = hashlib.sha256(stdout.encode()).hexdigest()
            if got != want:
                problems.append(f"stdout digest {got[:12]} != recorded {want[:12]}")
        self.first.setdefault(item.name, (rc, stdout, not problems))
        if problems:
            self.failed += 1
            self.problems += [f"{item.name}: {p}" for p in problems]
            if rc != 0 and stderr:
                self.problems.append(f"{item.name}: stderr: {stderr.strip()[-500:]}")


class Pass:
    """Per-item times of one pass, raw and in reference seconds."""

    def __init__(self, items: list[workloads.Item], judge: Judge,
                 sampler: speed.SpeedSampler) -> None:
        results = [call(item) for item in items]
        self.raw = [end - start for *_, start, end in results]
        self.ref = [sampler.reference_seconds(start, end) for *_, start, end in results]
        for item, (rc, stdout, stderr, _, _) in zip(items, results):
            judge.judge(item, rc, stdout, stderr)


def pass_time(passes: list[Pass], raw: bool = False) -> float:
    """Sum over items of each item's median over the passes."""
    return sum(statistics.median(t) for t in zip(*(p.raw if raw else p.ref for p in passes)))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="domrec benchmark (one workload per run)")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="small inputs, the fewest passes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        p.error("--workload is required")
    return args


def measure(args: argparse.Namespace, items: list[workloads.Item], judge: Judge,
            sampler: speed.SpeedSampler) -> tuple[dict[bool, list[Pass]], list[list[tracing.Span]]]:
    """Passes until --seconds is spent; with --trace 1 every other pass is
    traced. The first pass grows the heap, is slower than the rest by up to
    a quarter, and is checked but not timed."""
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    spans: list[list[tracing.Span]] = []
    tracer = tracing.Tracer()
    min_passes = 2 if args.trace else 1
    phase_start = time.perf_counter()
    Pass(items, judge, sampler)
    while True:
        traced = bool(args.trace) and len(passes[False]) > len(passes[True])
        if traced:
            tracer.install()
            try:
                passes[True].append(Pass(items, judge, sampler))
            finally:
                tracer.restore()
            spans.append(tracer.take())
        else:
            passes[False].append(Pass(items, judge, sampler))
        if len(passes[False]) + len(passes[True]) < min_passes:
            continue
        next_pass = max(pass_time(p, raw=True) for p in passes.values() if p)
        if args.short or time.perf_counter() - phase_start + next_pass > args.seconds:
            return passes, spans


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for name in ENV_SCRUB:
        os.environ.pop(name, None)
    if not (SRC / "domrec" / "__init__.py").is_file():
        print(f"perfbench: no domrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(time_setup()))
        return 0
    # One CPU for the program and the speed sampler, so the sampler sees the
    # speed the program gets.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = setup_samples()
    import domrec

    if Path(domrec.__file__).resolve().parent != SRC / "domrec":
        print(f"perfbench: imported domrec from {domrec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    items = workload.build(args.seed, "short" if args.short else "full")
    judge = Judge(json.loads(DIGESTS.read_text()))
    with speed.SpeedSampler() as sampler:
        passes, spans = measure(args, items, judge, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for item in workload.reference():
        rc, stdout, stderr, _, _ = call(item)
        judge.judge(item, rc, stdout, stderr)

    graphs = sum(item.graphs for item in items)
    wall_s = pass_time(passes[False])
    if args.trace:
        per_pass = [tracing.layer_metrics(tracing.layer_totals(s)) for s in spans]
        report = {name: statistics.median(p[name] for p in per_pass) for name in tracing.PER_LAYER}
        report["trace_overhead_ratio"] = pass_time(passes[True]) / wall_s
        units = dict(tracing.PER_LAYER, trace_overhead_ratio="ratio")
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"), spans)
        for line in tracing.summary(spans, sum(sum(p.raw) for p in passes[True])):
            print(line)
    else:
        report = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "graphs_per_s": graphs / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    for problem in judge.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items, {graphs} graphs"
          f" a pass; {len(passes[False])} untraced and {len(passes[True])} traced passes")
    for traced, label in ((False, "untraced"), (True, "traced")):
        if passes[traced]:
            print(f"{label} passes, raw wall: "
                  + " ".join(f"{sum(p.raw):.3f}" for p in passes[traced]) + " s; reference: "
                  + " ".join(f"{sum(p.ref):.3f}" for p in passes[traced]) + " s")
    print(f"raw_wall_s {pass_time(passes[False], raw=True):.6g} s")
    print(f"error_rate {judge.failed / judge.attempted:.6g} ratio"
          f" ({judge.failed} failed of {judge.attempted} items)")
    for name, value in report.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
    }))
    return 0 if judge.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
