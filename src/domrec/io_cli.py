"""Graph formats, report serialization, and the `domrec` command line.

Formats:
  * graph6 - byte-exact to the published encoding (6-bit groups offset 63,
    upper-triangle column-major adjacency bits, short or 3-byte length
    header). One graph per line; streams compose with external generators.
  * edge list - one `u v` pair per line, 0-based ids, `#` comments,
    vertex count inferred as max id + 1.

All stdout is deterministic across reruns; timings and progress go to
stderr only. Exit codes: 0 ok, 2 usage, 3 parse/input, 4 budget,
5 assertion failure (cross-check disagreement or structure violation).
A reader that closes stdout early (`domrec hunt | head -1`) ends the
command quietly with exit 0, as a broken pipe ends other filters.
An early stop of `hunt` (exit 3, 4 or 5) stops reading stdin; its stderr
`hunt: N graphs` then counts the graphs judged, up to and including the
one that stopped it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import closing
from dataclasses import asdict
from functools import lru_cache, partial
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .graph_core import (
    MAX_VERTICES,
    BudgetError,
    Graph,
    InputError,
    UnsupportedGraphError,
    VertexSet,
    cartesian_product,
    mask_of,
    vertex_list,
)
from .domination import (BUDGET_ENV_VAR, Budget, enumerate_minimal_dominating,
                         invariant_report)
from .families import (
    complete_graph,
    cycle_graph,
    generate_gkr,
    generate_qkr,
    path_graph,
    star,
    verify_gkr_structure,
    verify_qkr_structure,
)
from .reconfig import (
    _BINARY_DIGITS,
    ReconfigGraph,
    build_dk,
    connectivity_profile,
    d0_direct,
    dk_diameter,
    reconfig_path,
)
from .separation import (
    SepReport,
    check_sep_equals_d0,
    sep_at_most,
    sep_bottleneck,
    sep_brute_force,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_ASSERT = 5
EXIT_WORKER = 6

JOBS_ENV_VAR = "DOMREC_JOBS"
# Stream lines handed to the worker pool at a time; bounds hunt's memory.
HUNT_WINDOW = 512
# Lines per worker task. A window holds at most HUNT_MAX_JOBS tasks, so a
# worker beyond that would never get one.
HUNT_CHUNK = 8
HUNT_MAX_JOBS = -(-HUNT_WINDOW // HUNT_CHUNK)

_GRAPH6_HEADER = ">>graph6<<"
# The graph6 bit order for MAX_VERTICES vertices: pairs (i, j), i < j, column
# by column. The pairs of an n-vertex graph are its first n(n-1)/2.
_GRAPH6_PAIRS = tuple((i, j) for j in range(1, MAX_VERTICES) for i in range(j))
# Vertex ids, in edge lists and in --from/--to, are ASCII decimal; int() alone
# would also take other scripts' digits, '+', spaces and underscores. A
# leading '-' matches so the error can name it.
_EDGE_ID = re.compile(r"-?[0-9]+")


class ParseError(InputError):
    """Malformed input bytes (graph6 or edge list)."""


# ---------------------------------------------------------------------------
# graph6


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph."""
    if line.startswith(_GRAPH6_HEADER):
        line = line[len(_GRAPH6_HEADER):]
    line = line.rstrip("\r\n")
    if not line:
        raise ParseError("empty graph6 line")
    data = [ord(c) - 63 for c in line]
    if any(not 0 <= b <= 63 for b in data):
        raise ParseError(f"graph6 line contains bytes outside '?'..'~': {line!r}")
    if data[0] < 63:
        n = data[0]
        pos = 1
    else:
        if len(data) >= 2 and data[1] == 63:
            raise ParseError("graph6 8-byte length header exceeds supported sizes")
        if len(data) < 4:
            raise ParseError("truncated graph6 length header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    if n == 0:
        raise UnsupportedGraphError("graph6 encodes an empty graph")
    if n > MAX_VERTICES:
        raise UnsupportedGraphError(
            f"graph6 encodes {n} vertices; supported maximum is {MAX_VERTICES}"
        )
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise ParseError(
            f"graph6 line for n={n} must carry {nbytes} data bytes,"
            f" found {len(data) - pos}"
        )
    bits = "".join([format(b, "06b") for b in data[pos:]]).encode().translate(_BINARY_DIGITS)
    if any(bits[nbits:]):
        raise ParseError("graph6 padding bits are not zero")
    return Graph.from_edges(n, compress(_GRAPH6_PAIRS, bits))


def export_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    # Column j holds the pairs (0, j) .. (j - 1, j): the low j bits of adj[j], lowest first.
    bits = "".join(format(g.adj[j] & ~(-1 << j), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    body = [int(bits[p:p + 6], 2) + 63 for p in range(0, len(bits), 6)]
    return "".join(map(chr, head + body))


# ---------------------------------------------------------------------------
# edge list


def parse_edge_list(text: str) -> Graph:
    """Parse `u v` lines (0-based, `#` comments). n is max id + 1."""
    edges = []
    max_id = -1
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"edge list line {ln}: expected 'u v', got {raw!r}")
        if not all(_EDGE_ID.fullmatch(part) for part in parts):
            raise ParseError(f"edge list line {ln}: non-integer id in {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ParseError(f"edge list line {ln}: negative vertex id")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise ParseError("edge list contains no edges; cannot infer vertex count")
    return Graph.from_edges(max_id + 1, edges)


# ---------------------------------------------------------------------------
# input plumbing


def _stdin_lines() -> Iterable[str]:
    """Lines of stdin, decoded from its bytes as _read_text decodes a file, whatever the locale."""
    if sys.stdin is None:  # the process started with file descriptor 0 closed
        raise InputError("standard input is closed")
    buf = getattr(sys.stdin, "buffer", None)
    if buf is None:  # in-memory text, such as an io.StringIO, holds no bytes
        return sys.stdin
    return (raw.decode("ascii", "surrogateescape") for raw in buf)


def _read_text(source: str) -> str:
    if source == "-":
        return "".join(_stdin_lines())
    # As on stdin, a non-ASCII byte becomes a lone surrogate that the parsers reject.
    with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
        return fh.read()


def _looks_like_edge_list(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        return _EDGE_ID.fullmatch(line.split()[0]) is not None
    return False


def read_graphs(source: str, fmt: str = "auto") -> list[Graph]:
    """Read one or more graphs; graph6 sources may hold many, one per line."""
    text = _read_text(source)
    if fmt == "auto":
        fmt = "edgelist" if _looks_like_edge_list(text) else "graph6"
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    out = [parse_graph6(line) for line in map(str.strip, text.splitlines()) if line]
    if not out:
        raise ParseError(f"no graphs found in {source!r}")
    return out


def _parse_id_list(text: str) -> VertexSet:
    if text == "":
        raise ParseError("vertex list is empty")
    parts = text.split(",")
    if not all(_EDGE_ID.fullmatch(part) for part in parts):
        raise ParseError(f"vertex list must be comma-separated ids, got {text!r}")
    ids = [int(part) for part in parts]
    for v in ids:
        if not 0 <= v < MAX_VERTICES:
            raise ParseError(f"vertex id {v} outside 0..{MAX_VERTICES - 1}")
    if len(set(ids)) < len(ids):
        raise ParseError(f"vertex list repeats an id, got {text!r}")
    return mask_of(ids)


# ---------------------------------------------------------------------------
# serialization


def sep_report_json(rep: SepReport) -> dict:
    return {
        "sep": rep.sep,
        "method": rep.method,
        "witness_partition": rep.witness_partition,
        "witness_pair": [vertex_list(rep.witness_pair[0]), vertex_list(rep.witness_pair[1])],
    }


def reconfig_graph_json(rg: ReconfigGraph, diameter: Optional[int] = None,
                        with_diameter: bool = False) -> dict:
    out = {
        "k": rg.k,
        "base_n": rg.n,
        "order": rg.order(),
        "size": rg.size(),
        "component_count": rg.component_count,
        "verts": [vertex_list(m) for m in rg.verts],
        "edges": rg.edges,
    }
    if with_diameter:
        out["diameter"] = diameter
    return out


def export_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def export_dot(rg: ReconfigGraph) -> str:
    """DOT text for a reconfiguration graph; nodes labelled by their sets."""
    lines = ["graph dk {"]
    for idx, mask in enumerate(rg.verts):
        label = "{" + ",".join(str(v) for v in vertex_list(mask)) + "}"
        lines.append(f'  s{idx} [label="{label}"];')
    for a, b in rg.edges:
        lines.append(f"  s{a} -- s{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _emit(out: TextIO, text: str) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def cmd_invariants(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    for g in read_graphs(args.input, args.format):
        rep = invariant_report(g, budget, include_ir=True if args.ir else None)
        _emit(out, export_json(asdict(rep)))
    return EXIT_OK


def cmd_d0(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    status = EXIT_OK
    for g in read_graphs(args.input, args.format):
        if args.method == "direct":
            _emit(out, export_json({"d0": d0_direct(g, budget)}))
        elif args.method == "both":
            ev = check_sep_equals_d0(g, budget)
            _emit(out, export_json(asdict(ev)))
            if not ev.agree:
                status = EXIT_ASSERT
        else:
            # d0 = sep on every graph with an edge (proof in separation.py).
            sep = sep_bottleneck(enumerate_minimal_dominating(g, budget)).sep
            _emit(out, export_json({"sep" if args.method else "d0": sep}))
    return status


def cmd_profile(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    for g in read_graphs(args.input, args.format):
        _emit(out, export_json(asdict(connectivity_profile(g, budget))))
    return EXIT_OK


def cmd_sep(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    status = EXIT_OK
    for g in read_graphs(args.input, args.format):
        fam = enumerate_minimal_dominating(g, budget)
        rep = sep_bottleneck(fam)
        payload = sep_report_json(rep)
        payload["family_size"] = len(fam.sets)
        if args.oracle:
            oracle = sep_brute_force(fam)
            payload["oracle_sep"] = oracle.sep
            payload["oracle_agrees"] = oracle.sep == rep.sep
            if oracle.sep != rep.sep:
                status = EXIT_ASSERT
        _emit(out, export_json(payload))
    return status


def cmd_dk(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    for g in read_graphs(args.input, args.format):
        rg = build_dk(g, args.k, budget)
        if args.export == "dot":
            out.write(export_dot(rg))
        else:
            diameter = None
            if args.diameter and rg.verts:
                diameter = dk_diameter(rg)
            _emit(out, export_json(
                reconfig_graph_json(rg, diameter, with_diameter=args.diameter)
            ))
    return EXIT_OK


def cmd_path(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    a = _parse_id_list(args.from_ids)
    b = _parse_id_list(args.to_ids)
    for g in read_graphs(args.input, args.format):
        seq = reconfig_path(g, a, b, args.k, budget)
        if seq is None:
            _emit(out, export_json({"found": False}))
        else:
            _emit(out, export_json({
                "found": True,
                "length": len(seq) - 1,
                "path": [vertex_list(m) for m in seq],
            }))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace, out: TextIO) -> int:
    family = args.family
    if family in ("gkr", "qkr"):
        if args.k is None or args.r is None:
            raise InputError(f"gen {family} requires --k and --r")
        g = generate_gkr(args.k, args.r)[0] if family == "gkr" else generate_qkr(args.k, args.r)[0]
    elif family == "cartesian":
        # Factors are piped in: exactly two graph6 lines on stdin.
        lines = [ln.strip() for ln in _read_text("-").splitlines() if ln.strip()]
        if len(lines) != 2:
            raise InputError("gen cartesian reads exactly two graph6 lines from stdin")
        g = cartesian_product(parse_graph6(lines[0]), parse_graph6(lines[1]))
    else:
        if args.n is None:
            raise InputError(f"gen {family} requires --n")
        maker = {
            "star": star,
            "path": path_graph,
            "cycle": cycle_graph,
            "complete": complete_graph,
        }[family]
        g = maker(args.n)
    _emit(out, export_graph6(g))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    if args.construction == "gkr":
        rep = verify_gkr_structure(args.k, args.r, budget)
    else:
        rep = verify_qkr_structure(args.k, args.r, budget)
    _emit(out, export_json(asdict(rep)))
    return EXIT_OK if rep.ok else EXIT_ASSERT


# hunt -----------------------------------------------------------------------


def _hunt_worker(line: str, max_n: int, min_excess: int, budget: Budget) -> tuple[str, object]:
    """Judge one graph6 line; returns (kind, payload).

    The payload is a hit's fields, an error's text, or None. A graph is a
    miss when sep <= Gamma + min_excess - 1, asked of sep_at_most as a
    yes/no question (d0 = sep, see separation.py). Only a hit gets its sep
    from sep_bottleneck, for the payload; the direct D_k scan then
    re-verifies it as an independent oracle, and a mismatch is reported as
    "disagree".
    """
    try:
        g = parse_graph6(line)
    except InputError as exc:
        return "parse-error", str(exc)
    if g.n > max_n:
        return "skip-size", None
    if all(row == 0 for row in g.adj):
        return "skip-edgeless", None
    try:
        fam = enumerate_minimal_dominating(g, budget)
        if sep_at_most(fam, fam.Gamma + min_excess - 1):
            return "miss", None
        sep = sep_bottleneck(fam).sep
        d0 = d0_direct(g, budget, family=fam)
    except BudgetError as exc:
        return "budget-error", str(exc)
    fields = {"graph6": line, "n": g.n, "gamma": fam.gamma, "Gamma": fam.Gamma,
              "d0": d0, "sep": sep, "excess": d0 - fam.Gamma, "agree": sep == d0}
    return ("hit" if sep == d0 else "disagree"), fields


def cmd_hunt(args: argparse.Namespace, out: TextIO) -> int:
    budget = Budget.resolve(args.budget)
    max_n = args.max_n if args.max_n is not None else budget.max_n
    judge = partial(_hunt_worker, max_n=max_n, min_excess=args.min_excess, budget=budget)
    lines = (line for line in map(str.strip, _stdin_lines()) if line)
    started = time.perf_counter()
    if args.jobs > 1:
        with closing(_pooled(min(args.jobs, HUNT_MAX_JOBS), judge, lines)) as results:
            status, judged = _drain_hunt(results, out)
    else:
        status, judged = _drain_hunt(map(judge, lines), out)
    elapsed = time.perf_counter() - started
    print(f"hunt: {judged} graphs in {elapsed:.2f}s", file=sys.stderr)
    return status


def _pooled(jobs: int, judge: Callable[[str], tuple[str, object]],
            lines: Iterable[str]) -> Iterator[tuple[str, object]]:
    """judge's results over lines, in stream order, from a pool of jobs workers.

    map submits its whole iterable at once, so it is handed one window of
    lines at a time. When a worker dies, the pool is broken and the
    window's results stop with ("worker-died", the window's line range).
    Closing the generator cancels the tasks not started. The pool is
    imported here, so that only a parallel run pays for it at start-up.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        first = 1
        for window in iter(lambda: list(islice(lines, HUNT_WINDOW)), []):
            try:
                yield from pool.map(judge, window, chunksize=HUNT_CHUNK)
            except BrokenProcessPool:
                yield "worker-died", f"lines {first}-{first + len(window) - 1}"
                return
            first += len(window)
    finally:
        pool.shutdown(cancel_futures=True)


def _drain_hunt(results: Iterable[tuple[str, object]], out: TextIO) -> tuple[int, int]:
    """Write the hits; returns (exit status, graphs judged).

    Results come in stream order, so their position is the line ordinal.
    An error, a disagreement or a dead worker stops the drain, and nothing
    more is read; a dead worker's window counts only the results that came.
    """
    counts = {"hit": 0, "miss": 0, "skip-size": 0, "skip-edgeless": 0}
    ordinal = 0
    for ordinal, (kind, payload) in enumerate(results, 1):
        if kind == "parse-error":
            print(f"hunt: graph {ordinal}: {payload}", file=sys.stderr)
            return EXIT_PARSE, ordinal
        if kind == "budget-error":
            print(f"hunt: graph {ordinal}: {payload}", file=sys.stderr)
            return EXIT_BUDGET, ordinal
        if kind in ("hit", "disagree"):
            _emit(out, export_json({"id": ordinal, **payload}))
        if kind == "disagree":
            print(f"hunt: graph {ordinal}: d0/sep disagreement", file=sys.stderr)
            return EXIT_ASSERT, ordinal
        if kind == "worker-died":
            print(f"hunt: a worker died judging {payload}", file=sys.stderr)
            return EXIT_WORKER, ordinal - 1
        counts[kind] += 1
    print(
        "hunt: {hit} hits, {miss} below threshold, {s} skipped oversize,"
        " {e} skipped edgeless".format(
            hit=counts["hit"], miss=counts["miss"],
            s=counts["skip-size"], e=counts["skip-edgeless"],
        ),
        file=sys.stderr,
    )
    return EXIT_OK, ordinal


# ---------------------------------------------------------------------------
# argument parsing


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="graph file, or '-' for standard input")
    p.add_argument(
        "--format", choices=["auto", "graph6", "edgelist"], default="auto",
        help="input format (default: auto-detect)",
    )


def _positive_int(what: str):
    """argparse type for integers >= 1; env defaults go through it too, so they exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= 1, got {text!r}")
        return value

    return parse


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget",
                   type=_positive_int(f"max vertex count (--budget or {BUDGET_ENV_VAR})"),
                   default=os.environ.get(BUDGET_ENV_VAR),
                   help=f"max vertex count for enumeration (default 24, env {BUDGET_ENV_VAR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domrec",
        description="Exact domination-reconfiguration toolkit for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="gamma/Gamma/alpha/IR and related flags")
    _add_input(p)
    p.add_argument("--ir", action="store_true", help="force the IR scan even on larger graphs")
    _add_budget(p)

    p = sub.add_parser("d0", help="connectivity threshold of the k-dominating graphs")
    _add_input(p)
    p.add_argument("--method", choices=["direct", "sep", "both"],
                   help="direct: scan D_k; sep: print the separation; both: cross-check the"
                        " two (default: d0 read off the separation)")
    _add_budget(p)

    p = sub.add_parser("profile", help="per-k order/size/connectivity of D_k")
    _add_input(p)
    _add_budget(p)

    p = sub.add_parser("sep", help="separation of the minimal dominating family")
    _add_input(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force partition scan and compare")
    _add_budget(p)

    p = sub.add_parser("dk", help="build D_k explicitly")
    _add_input(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--export", choices=["dot", "json"], default="json")
    p.add_argument("--diameter", action="store_true")
    _add_budget(p)

    p = sub.add_parser("path", help="shortest reconfiguration sequence inside D_k")
    _add_input(p)
    p.add_argument("--from", dest="from_ids", required=True, metavar="ID-LIST")
    p.add_argument("--to", dest="to_ids", required=True, metavar="ID-LIST")
    p.add_argument("--k", type=int, required=True)
    _add_budget(p)

    p = sub.add_parser("gen", help="emit a generated graph as graph6")
    p.add_argument("family",
                   choices=["gkr", "qkr", "star", "path", "cycle", "complete", "cartesian"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("verify", help="check the structural facts of a construction")
    p.add_argument("construction", choices=["gkr", "qkr"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_budget(p)

    p = sub.add_parser(
        "hunt",
        help="scan a graph6 stream for d0 - Gamma >= threshold; asks whether"
             " sep <= Gamma + threshold - 1, computes sep only for hits and"
             " re-verifies each with the direct D_k scan",
    )
    p.add_argument("--max-n", type=_positive_int("largest vertex count judged"), default=None,
                   help="skip graphs larger than this, at least 1 (default: enumeration budget)")
    p.add_argument("--min-excess", type=int, default=2)
    p.add_argument("--jobs", type=_positive_int(f"worker count (--jobs or {JOBS_ENV_VAR})"),
                   default=os.environ.get(JOBS_ENV_VAR, "1"),
                   help=f"worker processes, at least 1; at most {HUNT_MAX_JOBS} run"
                        f" (env {JOBS_ENV_VAR})")
    _add_budget(p)

    return parser


@lru_cache(maxsize=1)
def _parser(env_defaults: tuple[Optional[str], Optional[str]]) -> argparse.ArgumentParser:
    """build_parser() once per process, again only if the env defaults it reads change."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser((os.environ.get(BUDGET_ENV_VAR), os.environ.get(JOBS_ENV_VAR)))
    args = parser.parse_args(argv)
    try:
        status = globals()["cmd_" + args.command](args, sys.stdout)
        sys.stdout.flush()  # a closed pipe must surface inside this try
        return status
    except BrokenPipeError:
        # The reader has gone. Point stdout at devnull so the flush at
        # interpreter exit cannot raise again (see the `signal` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except BudgetError as exc:
        print(f"domrec: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"domrec: input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"domrec: io: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
