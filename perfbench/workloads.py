"""Seeded inputs, CLI calls and output checks for the benchmark workloads.

Everything here is independent of the code under test: graphs are built
from their definitions and encoded to graph6 by this module, and the
expected values come from the paper's closed forms (d0 = sep = k + r on the
gkr/qkr constructions, their family sizes) or from brute force over all
vertex subsets. Nothing in this module imports domrec.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

Edges = list[tuple[int, int]]
Check = Callable[[int, str], list[str]]

# Digests of the reference outputs are recorded for this seed of hunt-stream.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Item:
    """One `domrec` CLI call: argv, stdin text, and how to judge its output."""

    name: str
    argv: tuple[str, ...]
    stdin: str
    graphs: int  # graphs the call reads or builds
    check: Check  # (exit code, stdout) -> problems found
    digest_key: Optional[str]  # key of the recorded stdout digest, if any


# ---------------------------------------------------------------------------
# graphs, built from their definitions


def graph6(n: int, edges: Edges) -> str:
    """graph6 encoding (n <= 62): upper triangle, column-major, 6-bit groups."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + int("".join(map(str, bits[p:p + 6])), 2) for p in range(0, len(bits), 6)
    ]
    return chr(63 + n) + "".join(map(chr, body))


def closed_masks(n: int, edges: Edges) -> list[int]:
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def gkr(k: int, r: int) -> tuple[int, Edges]:
    """Apex u0 = 0 on hub clique u_1..u_k = 1..k; leaf cliques V_1..V_r;
    u_j ~ v_{i,j}, with v_{i,j} = k + (i-1)k + j."""
    edges = [(0, j) for j in range(1, k + 1)]
    edges += [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    for i in range(1, r + 1):
        base = k + (i - 1) * k
        edges += [(base + a, base + b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
        edges += [(j, base + j) for j in range(1, k + 1)]
    return k * (r + 1) + 1, edges


def qkr(k: int, r: int) -> tuple[int, Edges]:
    """gkr plus w_i = k(r+1) + i adjacent to u0, the hub and leaf clique V_i."""
    n, edges = gkr(k, r)
    for i in range(1, r + 1):
        w = n + i - 1
        edges += [(v, w) for v in range(k + 1)]
        edges += [(k + (i - 1) * k + j, w) for j in range(1, k + 1)]
    return n + r, edges


def construction(kind: str, k: int, r: int) -> tuple[int, Edges]:
    return gkr(k, r) if kind == "gkr" else qkr(k, r)


def family_size(kind: str, k: int, r: int) -> int:
    """Minimal dominating sets: (k+1)k^r transversals plus the hub; qkr adds
    the (k+1)^r - k^r transversals of the saturated leaves that use some w_i."""
    size = (k + 1) * k**r + 1
    return size + (k + 1) ** r - k**r if kind == "qkr" else size


def path(n: int) -> tuple[int, Edges]:
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> tuple[int, Edges]:
    return n, [(i, (i + 1) % n) for i in range(n)]


def star(leaves: int) -> tuple[int, Edges]:
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def product(g: tuple[int, Edges], h: tuple[int, Edges]) -> tuple[int, Edges]:
    """Cartesian product; vertex (u, v) is u * |h| + v."""
    (gn, ge), (hn, he) = g, h
    edges = [(u * hn + a, u * hn + b) for u in range(gn) for a, b in he]
    edges += [(a * hn + v, b * hn + v) for v in range(hn) for a, b in ge]
    return gn * hn, edges


def permuted(n: int, edges: Edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def is_connected(n: int, edges: Edges) -> bool:
    closed = closed_masks(n, edges)
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= closed[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def random_connected(rng: random.Random, n: int, p: float) -> Edges:
    while True:
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
        if is_connected(n, edges):
            return edges


def dominates(closed: list[int], s: int) -> bool:
    cover = 0
    for v in range(len(closed)):
        if s >> v & 1:
            cover |= closed[v]
    return cover == (1 << len(closed)) - 1


def domination_table(closed: list[int]) -> array:
    """cover[S] = closed neighbourhood of S, for every subset S (brute force)."""
    n = len(closed)
    cover = array("q", bytes(8 << n))
    for s in range(1, 1 << n):
        low = s & -s
        cover[s] = cover[s ^ low] | closed[low.bit_length() - 1]
    return cover


def dominating_counts(closed: list[int]) -> list[int]:
    """counts[c] = number of dominating sets with exactly c vertices."""
    full = (1 << len(closed)) - 1
    counts = [0] * (len(closed) + 1)
    for s, cover in enumerate(domination_table(closed)):
        if cover == full:
            counts[s.bit_count()] += 1
    return counts


def mask(ids: list[int]) -> int:
    out = 0
    for v in ids:
        out |= 1 << v
    return out


# ---------------------------------------------------------------------------
# output checks


def _json_lines(stdout: str, expected: Optional[int], problems: list[str]) -> list[dict]:
    lines = stdout.splitlines()
    if expected is not None and len(lines) != expected:
        problems.append(f"expected {expected} output lines, got {len(lines)}")
    try:
        return [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON lines: {exc}")
        return []


def _exit_ok(rc: int, problems: list[str]) -> None:
    if rc != 0:
        problems.append(f"exit code {rc}")


def check_d0(kind: str, k: int, r: int) -> Check:
    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        rows = _json_lines(stdout, 1, problems)
        want = {"d0": k + r, "sep": k + r, "agree": True}
        if rows and rows[0] != want:
            problems.append(f"{kind}({k},{r}): got {rows[0]}, want {want}")
        return problems

    return check


def check_sep(kind: str, k: int, r: int) -> Check:
    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        rows = _json_lines(stdout, 1, problems)
        if not rows:
            return problems
        row, m = rows[0], family_size(kind, k, r)
        if row.get("sep") != k + r or row.get("family_size") != m:
            problems.append(
                f"{kind}({k},{r}): sep {row.get('sep')} family {row.get('family_size')},"
                f" want {k + r} and {m}"
            )
        pair = row.get("witness_pair", [[], []])
        if len(set(pair[0]) | set(pair[1])) != k + r:
            problems.append(f"{kind}({k},{r}): witness pair union is not {k + r}")
        sides = row.get("witness_partition", [[], []])
        if not sides[0] or not sides[1] or sorted(sides[0] + sides[1]) != list(range(m)):
            problems.append(f"{kind}({k},{r}): witness partition is not a 2-partition")
        return problems

    return check


def check_verify(kind: str, k: int, r: int) -> Check:
    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        rows = _json_lines(stdout, 1, problems)
        want = {"construction": kind, "k": k, "r": r, "family_size": family_size(kind, k, r)}
        if rows:
            row = rows[0]
            if {key: row.get(key) for key in want} != want or row.get("ok") is not True:
                problems.append(f"verify {kind}({k},{r}): got {row}")
            elif not all(c.get("passed") for c in row.get("checks", [])):
                problems.append(f"verify {kind}({k},{r}): a structure check failed")
        return problems

    return check


def check_profile(n: int, closed: list[int], top_order: Optional[int] = None) -> Check:
    counts = dominating_counts(closed)
    gamma = next(c for c, count in enumerate(counts) if count)
    orders = [sum(counts[: k + 1]) for k in range(gamma, n + 1)]

    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        rows = _json_lines(stdout, 1, problems)
        if not rows:
            return problems
        row = rows[0]
        entries = row.get("profile", [])
        if row.get("gamma") != gamma or row.get("n") != n:
            problems.append(f"profile: gamma {row.get('gamma')} n {row.get('n')}")
        if [e.get("k") for e in entries] != list(range(gamma, n + 1)):
            problems.append("profile: k does not run from gamma to n")
        elif [e.get("order") for e in entries] != orders:
            problems.append("profile: orders differ from the brute-force count")
        elif not entries[-1].get("connected"):
            problems.append("profile: D_n reported disconnected")
        if top_order is not None and entries and entries[-1].get("order") != top_order:
            problems.append(f"profile: D_n order {entries[-1].get('order')}, want {top_order}")
        return problems

    return check


def check_dk(n: int, closed: list[int], k: int) -> Check:
    full = (1 << n) - 1
    cover = domination_table(closed)
    sets = [s for s in range(1 << n) if cover[s] == full and s.bit_count() <= k]
    size = sum(
        1 for s in sets for v in range(n) if s >> v & 1 and cover[s ^ (1 << v)] == full
    )

    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        rows = _json_lines(stdout, 1, problems)
        if not rows:
            return problems
        row = rows[0]
        if (row.get("k"), row.get("order"), row.get("size")) != (k, len(sets), size):
            problems.append(f"dk: (k, order, size) {row.get('k')} {row.get('order')}"
                            f" {row.get('size')}, want {k} {len(sets)} {size}")
        verts = [mask(v) for v in row.get("verts", [])]
        if sorted(verts) != sets:
            problems.append("dk: vertex sets differ from the brute-force dominating sets")
        if any((verts[a] ^ verts[b]).bit_count() != 1 for a, b in row.get("edges", [])):
            problems.append("dk: an edge is not a single-vertex addition")
        if row.get("component_count") != 1 or not isinstance(row.get("diameter"), int):
            problems.append("dk: expected a connected D_k with an integer diameter")
        return problems

    return check


def check_path(closed: list[int], start: list[int], goal: list[int], k: int,
               reachable: bool) -> Check:
    """A shortest path is at least |A ^ B| long; when |A | B| <= k, adding
    B \\ A then removing A \\ B reaches it, so the length is exactly that."""
    a, b = mask(start), mask(goal)
    if reachable and (a | b).bit_count() > k:
        raise ValueError("the expected length is only known when |A | B| <= k")

    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        rows = _json_lines(stdout, 1, problems)
        if not rows:
            return problems
        row = rows[0]
        if not reachable:
            if row != {"found": False}:
                problems.append(f"path at k={k}: got {row}, want no path")
            return problems
        seq = [mask(s) for s in row.get("path", [])]
        if row.get("found") is not True or row.get("length") != (a ^ b).bit_count():
            problems.append(f"path at k={k}: got length {row.get('length')},"
                            f" want {(a ^ b).bit_count()}")
        elif len(seq) != row["length"] + 1 or seq[0] != a or seq[-1] != b:
            problems.append(f"path at k={k}: wrong endpoints or length")
        elif any((x ^ y).bit_count() != 1 for x, y in zip(seq, seq[1:])):
            problems.append(f"path at k={k}: a step changes more than one vertex")
        elif any(s.bit_count() > k or not dominates(closed, s) for s in seq):
            problems.append(f"path at k={k}: a step is not a dominating set of size <= k")
        return problems

    return check


def check_hunt(lines: list[str], planted: dict[int, int]) -> Check:
    """planted maps a 1-based stream position to its d0 = sep = k + r."""

    def check(rc: int, stdout: str) -> list[str]:
        problems: list[str] = []
        _exit_ok(rc, problems)
        found = {}
        for row in _json_lines(stdout, None, problems):
            ident = row.get("id")
            if not isinstance(ident, int) or not 1 <= ident <= len(lines):
                problems.append(f"hunt: bad id {ident}")
                continue
            found[ident] = row
            if row.get("graph6") != lines[ident - 1]:
                problems.append(f"hunt: id {ident} does not echo its input line")
            if row.get("agree") is not True or row.get("d0") != row.get("sep"):
                problems.append(f"hunt: id {ident} d0/sep disagree")
            if row.get("excess") != row.get("d0", 0) - row.get("Gamma", 0) or row["excess"] < 2:
                problems.append(f"hunt: id {ident} reports a wrong excess")
        for ident, d0 in planted.items():
            row = found.get(ident)
            if row is None or row.get("d0") != d0 or row.get("sep") != d0:
                problems.append(f"hunt: planted graph {ident} not reported with d0 = sep = {d0}")
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads

HUNT_ARGV = ("hunt", "--min-excess", "2", "--jobs", "1", "--budget", "24")
HUNT_RANDOM = {"full": 1000, "short": 60}
# Planted graphs (construction, k) with r = 2: excess d0 - Gamma is exactly 2.
HUNT_PLANTED = [("gkr", 3), ("qkr", 3), ("gkr", 4), ("qkr", 4)] * 2


def hunt_stream(seed: int, randoms: int) -> tuple[list[str], dict[int, int]]:
    """Random connected G(n, 0.35) graphs, n cycling through 7..11 so every
    seed gets the same size mix, plus vertex-permuted gkr/qkr at fixed
    positions. No line repeats."""
    rng = random.Random(seed)
    total = randoms + len(HUNT_PLANTED)
    slots = {(j + 1) * total // (len(HUNT_PLANTED) + 1): spec
             for j, spec in enumerate(HUNT_PLANTED)}
    lines: list[str] = []
    planted: dict[int, int] = {}
    seen: set[str] = set()
    drawn = 0
    for pos in range(total):
        while True:
            if pos in slots:
                kind, k = slots[pos]
                n, edges = construction(kind, k, 2)
                line = graph6(n, permuted(n, edges, rng))
            else:
                n = 7 + drawn % 5
                line = graph6(n, random_connected(rng, n, 0.35))
            if line not in seen:
                break
        seen.add(line)
        lines.append(line)
        if pos in slots:
            planted[pos + 1] = slots[pos][1] + 2
        else:
            drawn += 1
    return lines, planted


def hunt_item(seed: int, size: str, digest_key: Optional[str] = None) -> Item:
    lines, planted = hunt_stream(seed, HUNT_RANDOM[size])
    return Item(
        name=f"hunt seed={seed} graphs={len(lines)}",
        argv=HUNT_ARGV,
        stdin="".join(line + "\n" for line in lines),
        graphs=len(lines),
        check=check_hunt(lines, planted),
        digest_key=digest_key,
    )


def _graph_item(workload: str, name: str, argv: tuple[str, ...], g: tuple[int, Edges],
                check: Check) -> Item:
    n, edges = g
    return Item(name, argv, graph6(n, edges) + "\n", 1, check, f"{workload}/{name}")


def construction_items(size: str) -> list[Item]:
    items = []
    grid = [(k, r) for k in (3, 4) for r in range(1, k)]
    heavy = [(5, 3), (5, 4), (6, 3)]
    if size == "short":
        grid, heavy = [(3, 1), (3, 2)], [(5, 3)]
    for kind in ("gkr", "qkr"):
        for k, r in grid:
            items.append(_graph_item(
                "constructions", f"d0 {kind}({k},{r})",
                ("d0", "-", "--method", "both", "--budget", "24"),
                construction(kind, k, r), check_d0(kind, k, r)))
        for k, r in heavy:
            items.append(_graph_item(
                "constructions", f"sep {kind}({k},{r})", ("sep", "-", "--budget", "30"),
                construction(kind, k, r), check_sep(kind, k, r)))
            items.append(Item(
                f"verify {kind}({k},{r})",
                ("verify", kind, "--k", str(k), "--r", str(r), "--budget", "30"),
                "", 1, check_verify(kind, k, r), f"constructions/verify {kind}({k},{r})"))
    return items


def reconfig_items(size: str) -> list[Item]:
    w = "reconfig-queries"
    profiles = [("P3xP6", product(path(3), path(6))), ("P4xC4", product(path(4), cycle(4))),
                ("C4xC4", product(cycle(4), cycle(4))), ("star(16)", star(16))]
    dk_graph, dk_k = ("P3xC4", product(path(3), cycle(4))), 7
    # gkr(k, r) path from the hub U to a transversal X with |U u X| = k + r.
    # U is the one minimal dominating set outside the transversal family, and
    # its unions with them have at least k + r vertices (sep = k + r), so D_k
    # has no path below k + r.
    pk, pr = 4, 3
    if size == "short":
        profiles = [("P2xC4", product(path(2), cycle(4))), ("star(8)", star(8))]
        dk_graph, dk_k = ("P2xC4", product(path(2), cycle(4))), 5
        pk, pr = 3, 2
    items = []
    for name, g in profiles:
        top = 2 ** (g[0] - 1) + 1 if name.startswith("star") else None
        items.append(_graph_item(w, f"profile {name}", ("profile", "-", "--budget", "24"),
                                 g, check_profile(g[0], closed_masks(*g), top)))
    name, g = dk_graph
    items.append(_graph_item(
        w, f"dk {name} k={dk_k}",
        ("dk", "-", "--k", str(dk_k), "--diameter", "--budget", "24"),
        g, check_dk(g[0], closed_masks(*g), dk_k)))
    g = gkr(pk, pr)
    hub = list(range(1, pk + 1))
    transversal = [1] + [pk + (i - 1) * pk + 1 for i in range(1, pr + 1)]
    for k in (pk + pr - 1, pk + pr):
        items.append(_graph_item(
            w, f"path gkr({pk},{pr}) k={k}",
            ("path", "-", "--from", ",".join(map(str, hub)),
             "--to", ",".join(map(str, transversal)), "--k", str(k), "--budget", "24"),
            g, check_path(closed_masks(*g), hub, transversal, k, k >= pk + pr)))
    return items


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    build: Callable[[int, str], list[Item]]  # (seed, "full" | "short") -> one pass
    reference: Callable[[], list[Item]]  # seed-independent items checked by digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hunt-stream",
            lambda seed, size: [hunt_item(seed, size)],
            lambda: [hunt_item(REFERENCE_SEED, "short", "hunt-stream/reference")],
        ),
        Workload(
            "constructions",
            lambda seed, size: construction_items(size),
            lambda: [],
        ),
        Workload(
            "reconfig-queries",
            lambda seed, size: reconfig_items(size),
            lambda: [],
        ),
    )
}
