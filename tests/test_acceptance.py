"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced. All comparisons are exact integers; there are no tolerances
to tune. Shared heavy artefacts (the construction grid, the 200-graph
random corpus) are computed once per session.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from domrec import (
    build_dk,
    cartesian_product,
    complete_graph,
    compute_ir,
    connectivity_profile,
    d0_direct,
    enumerate_minimal_dominating,
    generate_gkr,
    generate_qkr,
    invariant_report,
    is_dominating,
    is_irredundant,
    path_graph,
    popcount,
    sep_bottleneck,
    sep_brute_force,
    star,
)
from naive import (
    degree_sequence,
    find_isomorphism,
    has_edge,
    irredundance_witness,
    is_parity_bipartite,
)

GRID = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def grid_data():
    out = {}
    for k, r in GRID:
        g, glay = generate_gkr(k, r)
        q, qlay = generate_qkr(k, r)
        out[(k, r)] = {
            "g": g, "glay": glay, "gfam": enumerate_minimal_dominating(g),
            "g_d0": d0_direct(g),
            "q": q, "qlay": qlay, "qfam": enumerate_minimal_dominating(q),
            "q_d0": d0_direct(q),
        }
    return out


@pytest.fixture(scope="session")
def corpus_evidence(corpus200):
    out = []
    for g in corpus200:
        fam = enumerate_minimal_dominating(g)
        out.append({
            "g": g,
            "fam": fam,
            "d0": d0_direct(g),
            "sep": sep_bottleneck(fam).sep if len(fam.sets) >= 2 else None,
        })
    return out


def test_criterion_01_gkr_grid_values(grid_data):
    ok = True
    details = []
    for k, r in GRID:
        d = grid_data[(k, r)]
        got = (d["gfam"].Gamma, d["gfam"].gamma, d["g_d0"])
        want = (k, r + 1, k + r)
        if got != want:
            ok = False
            details.append(f"gkr({k},{r}): got {got}, want {want}")
    ok = ok and grid_data[(4, 3)]["g_d0"] == 7
    report(1, "gkr-grid-Gamma-gamma-d0", ok, "; ".join(details))


def test_criterion_02_qkr_grid_values(grid_data):
    ok = True
    details = []
    for k, r in GRID:
        d = grid_data[(k, r)]
        got = (d["qfam"].Gamma, d["qfam"].gamma, d["q_d0"])
        want = (k, r, k + r)
        if got != want:
            ok = False
            details.append(f"qkr({k},{r}): got {got}, want {want}")
    ok = ok and grid_data[(4, 3)]["q_d0"] == 7
    # The largest instance must build its D_7 comfortably within budget.
    q = grid_data[(4, 3)]["q"]
    started = time.perf_counter()
    rg = build_dk(q, 7)
    elapsed = time.perf_counter() - started
    ok = ok and rg.connected and elapsed < 120.0
    report(2, "qkr-grid-Gamma-gamma-d0", ok,
           "; ".join(details) + f"; D_7 build {elapsed:.1f}s")


def test_criterion_03_sep_equals_d0_everywhere(grid_data, corpus_evidence):
    mismatches = []
    for k, r in GRID:
        d = grid_data[(k, r)]
        if sep_bottleneck(d["gfam"]).sep != d["g_d0"]:
            mismatches.append(f"gkr({k},{r})")
        if sep_bottleneck(d["qfam"]).sep != d["q_d0"]:
            mismatches.append(f"qkr({k},{r})")
    for n in range(3, 7):
        g = star(n)
        if sep_bottleneck(enumerate_minimal_dominating(g)).sep != d0_direct(g):
            mismatches.append(f"star({n})")
    prod = cartesian_product(path_graph(3), complete_graph(3))
    if sep_bottleneck(enumerate_minimal_dominating(prod)).sep != d0_direct(prod):
        mismatches.append("p3xk3")
    for i, ev in enumerate(corpus_evidence):
        if ev["sep"] != ev["d0"]:
            mismatches.append(f"random#{i}")
    report(3, "sep-equals-d0-on-all-instances", not mismatches,
           ", ".join(mismatches[:5]))


def test_criterion_04_bottleneck_matches_brute_force(corpus_evidence):
    mismatches = []
    checked = 0
    for i, ev in enumerate(corpus_evidence):
        fam = ev["fam"]
        if 2 <= len(fam.sets) <= 15:
            checked += 1
            if sep_brute_force(fam).sep != ev["sep"]:
                mismatches.append(f"random#{i}")
    report(4, "bottleneck-matches-brute-force-oracle",
           not mismatches and checked > 0,
           f"checked={checked}; " + ", ".join(mismatches[:5]))


def test_criterion_05_star_profiles():
    ok = True
    details = []
    for n in range(3, 7):
        g = star(n)
        prof = connectivity_profile(g)
        by_k = {e.k: e.connected for e in prof.profile}
        want = {k: (k != n) for k in range(1, n + 2)}
        if by_k != want:
            ok = False
            details.append(f"star({n}) profile {by_k}")
        if d0_direct(g) != n + 1:
            ok = False
            details.append(f"star({n}) d0 {d0_direct(g)}")
    report(5, "star-profile-dip-at-Gamma", ok, "; ".join(details))


def test_criterion_06_prism_product_values():
    prod = cartesian_product(path_graph(3), complete_graph(3))
    fam = enumerate_minimal_dominating(prod)
    d0 = d0_direct(prod)
    ok = fam.gamma == 3 and fam.Gamma == 3 and d0 == 5 and d0 == fam.Gamma + 2
    report(6, "p3xk3-gamma-Gamma-3-d0-5", ok,
           f"gamma={fam.gamma} Gamma={fam.Gamma} d0={d0}")


def test_criterion_07_structure_check_suite(grid_data):
    from domrec import verify_gkr_structure, verify_qkr_structure

    failures = []
    for k, r in GRID:
        rep = verify_gkr_structure(k, r)
        if not rep.ok or rep.family_size != (k + 1) * k**r + 1:
            failures.append(f"gkr({k},{r}): {[c.name for c in rep.failures()]}")
        qrep = verify_qkr_structure(k, r)
        expected = (k + 1) * k**r + (k + 1) ** r - k**r + 1
        if not qrep.ok or qrep.family_size != expected:
            failures.append(f"qkr({k},{r}): {[c.name for c in qrep.failures()]}")
    report(7, "family-structure-checks-full-grid", not failures,
           "; ".join(failures))


def test_criterion_08_well_covered_grid(grid_data):
    ok = True
    details = []
    for k, r in GRID:
        g = grid_data[(k, r)]["g"]
        rep = invariant_report(g, include_ir=False)
        if rep.alpha != r + 1 or not rep.well_covered:
            ok = False
            details.append(f"gkr({k},{r}): alpha={rep.alpha} wc={rep.well_covered}")
        if r == k - 1:
            d0 = grid_data[(k, r)]["g_d0"]
            if not rep.well_dominated or d0 != 2 * rep.Gamma - 1:
                ok = False
                details.append(f"gkr({k},{r}): wd={rep.well_dominated} d0={d0}")
    report(8, "well-covered-alpha-and-upper-bound-case", ok, "; ".join(details))


def test_criterion_09_irredundance_witness(grid_data):
    ok = True
    details = []
    for k, r in GRID:
        g = grid_data[(k, r)]["g"]
        lay = grid_data[(k, r)]["glay"]
        w = irredundance_witness(lay)
        bound = k + r - 2 if r >= 2 else k - 1
        if popcount(w) != bound or not is_irredundant(g, w) or is_dominating(g, w):
            ok = False
            details.append(f"gkr({k},{r}) witness invalid")
        if g.n <= 13 and compute_ir(g) < bound:
            ok = False
            details.append(f"gkr({k},{r}) IR below bound")
    report(9, "irredundance-witness-bound", ok, "; ".join(details))


def test_criterion_10_dk_structure(grid_data, corpus_evidence):
    ok = True
    details = []
    # Bipartite by cardinality parity on a spread of built D_k's.
    built = []
    for n in range(2, 5):
        built.append(build_dk(complete_graph(n), n))
    for n in (3, 4):
        built.append(build_dk(star(n), 2))
    for ev in corpus_evidence[:15]:
        built.append(build_dk(ev["g"], ev["g"].n))
    if not all(is_parity_bipartite(rg) for rg in built):
        ok = False
        details.append("parity bipartiteness violated")
    # Punctured-hypercube counts for the complete graph.
    for n in range(2, 5):
        rg = build_dk(complete_graph(n), n)
        if rg.order() != 2**n - 1 or rg.size() != n * 2 ** (n - 1) - n:
            ok = False
            details.append(f"D_n(K_{n}) counts {rg.order()}/{rg.size()}")
    # D_2 of a star is the star itself: degree sequence plus explicit map.
    for n in (3, 4):
        rg = build_dk(star(n), 2)
        from domrec import Graph

        dk_graph = Graph.from_edges(rg.order(), list(rg.edges))
        if degree_sequence(dk_graph) != degree_sequence(star(n)):
            ok = False
            details.append(f"D_2(star {n}) degree sequence")
        iso = find_isomorphism(dk_graph, star(n))
        if iso is None:
            ok = False
            details.append(f"D_2(star {n}) not isomorphic to the star")
        else:
            for a, b in dk_graph.edges():
                if not has_edge(star(n), iso[a], iso[b]):
                    ok = False
                    details.append(f"D_2(star {n}) isomorphism broken")
    report(10, "dk-bipartite-hypercube-star-structure", ok, "; ".join(details))


def test_criterion_11_bound_sandwich(grid_data, corpus_evidence):
    ok = True
    details = []
    anomalies = []
    witnesses = []
    for k, r in GRID:
        d = grid_data[(k, r)]
        witnesses.append((f"gkr({k},{r})", d["gfam"], d["g_d0"]))
        witnesses.append((f"qkr({k},{r})", d["qfam"], d["q_d0"]))
    for n in range(3, 7):
        g = star(n)
        witnesses.append((f"star({n})", enumerate_minimal_dominating(g), d0_direct(g)))
    prod = cartesian_product(path_graph(3), complete_graph(3))
    witnesses.append(("p3xk3", enumerate_minimal_dominating(prod), d0_direct(prod)))
    for i, ev in enumerate(corpus_evidence):
        witnesses.append((f"random#{i}", ev["fam"], ev["d0"]))
    for name, fam, d0 in witnesses:
        if not (fam.Gamma + 1 <= d0 <= fam.Gamma + fam.gamma):
            ok = False
            details.append(f"{name}: Gamma={fam.Gamma} gamma={fam.gamma} d0={d0}")
        if fam.Gamma >= 2 and d0 > 2 * fam.Gamma - 1:
            # Logged, not failed: the cited upper bound carries hypotheses
            # that are not restated here.
            anomalies.append(name)
    if anomalies:
        print(f"  note: 2*Gamma-1 exceeded on {anomalies} (logged, not failed)",
              file=sys.stderr)
    report(11, "bound-sandwich-on-corpus", ok, "; ".join(details[:5]))


CLI_BATTERY = [
    (["gen", "gkr", "--k", "3", "--r", "2"], ""),
    (["gen", "qkr", "--k", "3", "--r", "2"], ""),
    (["d0", "-", "--method", "both"], "GKR32"),
    (["d0", "-", "--method", "both"], "QKR32"),
    (["invariants", "-", "--ir"], "STAR4"),
    (["profile", "-"], "STAR4"),
    (["sep", "-", "--oracle"], "STAR3"),
    (["dk", "-", "--k", "2", "--export", "dot"], "STAR3"),
    (["dk", "-", "--k", "3", "--export", "json", "--diameter"], "K3"),
    (["path", "-", "--from", "1,2,3", "--to", "0", "--k", "4"], "STAR3"),
    (["verify", "gkr", "--k", "3", "--r", "1"], ""),
    (["verify", "qkr", "--k", "3", "--r", "1"], ""),
    (["hunt", "--min-excess", "1"], "STREAM"),
]


def _battery_outputs() -> list[bytes]:
    from domrec.io_cli import export_graph6

    inputs = {
        "": "",
        "GKR32": export_graph6(generate_gkr(3, 2)[0]) + "\n",
        "QKR32": export_graph6(generate_qkr(3, 2)[0]) + "\n",
        "STAR3": export_graph6(star(3)) + "\n",
        "STAR4": export_graph6(star(4)) + "\n",
        "K3": export_graph6(complete_graph(3)) + "\n",
        "STREAM": "".join(
            export_graph6(g) + "\n"
            for g in (star(3), complete_graph(4), path_graph(5))
        ),
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    outs = []
    for args, key in CLI_BATTERY:
        proc = subprocess.run(
            [sys.executable, "-m", "domrec", *args],
            input=inputs[key].encode(), capture_output=True, env=env,
        )
        outs.append(proc.stdout)
    return outs


def test_criterion_12_cli_determinism():
    first = _battery_outputs()
    second = _battery_outputs()
    ok = first == second and all(out for out in first)
    report(12, "cli-outputs-byte-identical-across-runs", ok)
