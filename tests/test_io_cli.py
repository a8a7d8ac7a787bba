import argparse
import concurrent.futures
import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domrec import (
    DomFamily,
    Graph,
    build_dk,
    cartesian_product,
    complete_graph,
    cycle_graph,
    generate_gkr,
    generate_qkr,
    path_graph,
    star,
)
from domrec import domination, families, io_cli, reconfig, separation
from domrec.io_cli import (
    EXIT_ASSERT,
    EXIT_BUDGET,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_WORKER,
    JOBS_ENV_VAR,
    ParseError,
    export_dot,
    export_graph6,
    main,
    parse_edge_list,
    parse_graph6,
    read_graphs,
)
from domrec.domination import BUDGET_ENV_VAR
from domrec.graph_core import UnsupportedGraphError
from conftest import edged_graphs, random_graph
from naive import (
    degree_sequence,
    edge_count,
    export_edge_list,
    naive_d0,
    naive_minimal_dominating_sets,
)

CLI = [sys.executable, "-m", "domrec"]
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def test_parse_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_graph6_five_vertices():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert export_graph6(g) == "D?{"


def test_parse_graph6_header_prefix():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2 and edge_count(g) == 1


def test_parse_graph6_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("A")  # missing data byte
    with pytest.raises(ParseError):
        parse_graph6("A_\x01")  # byte below '?'
    with pytest.raises(ParseError):
        parse_graph6("A" + chr(63 + 16))  # padding bit set
    with pytest.raises(ParseError):
        parse_graph6("A__")  # too many data bytes for n=2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 63])
def test_parse_graph6_refuses_each_padding_bit(n):
    line = export_graph6(complete_graph(n))
    assert parse_graph6(line).adj == complete_graph(n).adj
    padding = -(n * (n - 1) // 2) % 6  # n = 4 fills its one data byte: nothing to set
    last = ord(line[-1]) - 63
    for b in range(padding):
        bad = line[:-1] + chr((last | 1 << b) + 63)
        with pytest.raises(ParseError, match="padding"):
            parse_graph6(bad)


def test_parse_graph6_width_cap():
    # 3-byte headers decode, but anything above the width cap is refused.
    n65 = "~" + chr(63) + chr(63 + 1) + chr(63 + 1)
    with pytest.raises(UnsupportedGraphError):
        parse_graph6(n65)


def test_graph6_long_form_roundtrip():
    rng = random.Random(9)
    for n in (63, 64):
        g = random_graph(rng, n, 0.3)
        line = export_graph6(g)
        assert line.startswith("~")
        back = parse_graph6(line)
        assert back.n == n and back.adj == g.adj


def test_graph6_roundtrip_bulk():
    rng = random.Random(271828)
    for _ in range(10_000):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.random())
        line = export_graph6(g)
        back = parse_graph6(line)
        assert back.n == g.n and back.adj == g.adj
        assert export_graph6(back) == line


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.randoms())
def test_graph6_roundtrip_property(n, rnd):
    g = random_graph(rnd, n, 0.5)
    assert parse_graph6(export_graph6(g)).adj == g.adj


def test_gkr_roundtrips_through_graph6():
    g, _ = generate_gkr(4, 3)
    back = parse_graph6(export_graph6(g))
    assert back.adj == g.adj


def test_edge_list_roundtrip():
    text = "# a comment\n0 1\n1 2\n\n2 3  # trailing comment\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert parse_edge_list(export_edge_list(g)).adj == g.adj


def test_edge_list_errors():
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("a b\n")
    with pytest.raises(ParseError):
        parse_edge_list("# nothing\n")
    with pytest.raises(UnsupportedGraphError):
        parse_edge_list("0 0\n")
    with pytest.raises(UnsupportedGraphError):
        parse_edge_list("0 1\n1 0\n")


def test_read_graphs_autodetect(tmp_path):
    g6 = tmp_path / "graphs.g6"
    g6.write_text(export_graph6(star(3)) + "\n" + export_graph6(complete_graph(3)) + "\n")
    graphs = read_graphs(str(g6))
    assert [g.n for g in graphs] == [4, 3]

    el = tmp_path / "graph.txt"
    el.write_text("0 1\n1 2\n")
    graphs = read_graphs(str(el))
    assert len(graphs) == 1 and graphs[0].n == 3


def test_read_graphs_format_override(tmp_path):
    el = tmp_path / "graph.txt"
    el.write_text("0 1\n1 2\n")
    assert read_graphs(str(el), "edgelist")[0].n == 3
    with pytest.raises(ParseError):
        read_graphs(str(el), "graph6")  # forced wrong format must fail loudly
    g6 = tmp_path / "graph.g6"
    g6.write_text(export_graph6(star(3)) + "\n")
    with pytest.raises(ParseError):
        read_graphs(str(g6), "edgelist")


def test_export_dot_small():
    rg = build_dk(complete_graph(2), 2)
    dot = export_dot(rg)
    assert dot.count(" -- ") == 2
    assert dot.count("label=") == 3
    assert '[label="{0,1}"]' in dot


def run_cli(args, stdin_text=""):
    return subprocess.run(
        CLI + args, input=stdin_text, capture_output=True, text=True, env=CLI_ENV
    )


def test_cli_invariants_star(tmp_path):
    f = tmp_path / "s.g6"
    f.write_text(export_graph6(star(3)) + "\n")
    proc = run_cli(["invariants", str(f), "--ir"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["gamma"] == 1 and data["Gamma"] == 3 and data["ir"] == 3


def test_cli_multigraph_stream_order():
    stream = "\n".join(export_graph6(star(n)) for n in (3, 4, 5)) + "\n"
    proc = run_cli(["d0", "-"], stdin_text=stream)
    assert proc.returncode == 0
    values = [json.loads(line)["d0"] for line in proc.stdout.splitlines()]
    assert values == [4, 5, 6]


def test_cli_d0_methods():
    line = export_graph6(star(4)) + "\n"
    both = run_cli(["d0", "-", "--method", "both"], stdin_text=line)
    assert json.loads(both.stdout) == {"d0": 5, "sep": 5, "agree": True}
    sep_only = run_cli(["d0", "-", "--method", "sep"], stdin_text=line)
    assert json.loads(sep_only.stdout) == {"sep": 5}


def test_cli_sep_oracle():
    proc = run_cli(["sep", "-", "--oracle"], stdin_text=export_graph6(star(3)) + "\n")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["sep"] == 4 and data["oracle_sep"] == 4 and data["oracle_agrees"]


def test_cli_dk_diameter():
    proc = run_cli(["dk", "-", "--k", "2", "--diameter"],
                   stdin_text=export_graph6(star(3)) + "\n")
    data = json.loads(proc.stdout)
    assert data["order"] == 4 and data["size"] == 3 and data["diameter"] == 2


def test_cli_path_absent_and_present():
    line = export_graph6(star(3)) + "\n"
    blocked = run_cli(["path", "-", "--from", "1,2,3", "--to", "0", "--k", "3"],
                      stdin_text=line)
    assert json.loads(blocked.stdout) == {"found": False}
    open_ = run_cli(["path", "-", "--from", "1,2,3", "--to", "0", "--k", "4"],
                    stdin_text=line)
    data = json.loads(open_.stdout)
    assert data["found"] and data["length"] == 4


def run_cli_capped(args, stdin_text=""):
    """Run the CLI with a 1 GiB address-space limit, so a runaway allocation
    fails fast in the child instead of taking the machine's memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(CLI + args, input=stdin_text, capture_output=True, text=True,
                          env=CLI_ENV, preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("ids", ["-1", "100000000000"])
def test_cli_path_rejects_out_of_range_ids(ids):
    proc = run_cli_capped(["path", "-", "--from", ids, "--to", "1", "--k", "3"],
                          stdin_text=export_graph6(star(3)) + "\n")
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert f"vertex id {ids} outside 0..63" in proc.stderr


# As in edge lists, ids are ASCII decimal: int() alone reads each of these as 1 or 10,
# and with 1 the query below would have a path.
@pytest.mark.parametrize("first", ["\u0661", "+1", "1_0", " 1"],
                         ids=["arabic-indic", "plus", "underscore", "space"])
def test_cli_path_ids_are_ascii_decimal(first):
    proc = run_cli(["path", "-", "--from", f"{first},2,3", "--to", "0", "--k", "4"],
                   stdin_text=export_graph6(star(3)) + "\n")
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert "vertex list must be comma-separated ids" in proc.stderr


# An empty item or a repeated id is refused, not skipped or folded into {1,2,3}, which
# would have a path here.
@pytest.mark.parametrize("ids, message", [
    (",1,2,3", "must be comma-separated ids"),
    ("1,2,3,", "must be comma-separated ids"),
    ("1,,2,3", "must be comma-separated ids"),
    ("1,2,3,3", "repeats an id"),
], ids=["leading-comma", "trailing-comma", "empty-item", "repeated-id"])
def test_cli_path_refuses_empty_items_and_repeated_ids(ids, message):
    proc = run_cli(["path", "-", "--from", ids, "--to", "0", "--k", "4"],
                   stdin_text=export_graph6(star(3)) + "\n")
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert f"vertex list {message}, got {ids!r}" in proc.stderr


@pytest.mark.parametrize("args", [
    ["gen", "complete", "--n", "200000"],
    ["gen", "path", "--n", "100000000000"],
    ["gen", "gkr", "--k", "100000", "--r", "1"],
    ["gen", "qkr", "--k", "100000", "--r", "1"],
    ["verify", "gkr", "--k", "20000", "--r", "1"],
], ids=" ".join)
def test_cli_oversize_generators_refused_before_building_edges(args):
    proc = run_cli_capped(args)
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert "supported maximum is 64" in proc.stderr


def test_cli_gen_families():
    star4 = run_cli(["gen", "star", "--n", "4"])
    assert degree_sequence(parse_graph6(star4.stdout.strip())) == (1, 1, 1, 1, 4)
    gkr = run_cli(["gen", "gkr", "--k", "3", "--r", "1"])
    assert parse_graph6(gkr.stdout.strip()).n == 7
    qkr = run_cli(["gen", "qkr", "--k", "3", "--r", "1"])
    assert parse_graph6(qkr.stdout.strip()).n == 8


def test_cli_gen_cartesian_from_stdin():
    p3 = run_cli(["gen", "path", "--n", "3"]).stdout
    k3 = run_cli(["gen", "complete", "--n", "3"]).stdout
    prod = run_cli(["gen", "cartesian"], stdin_text=p3 + k3)
    g = parse_graph6(prod.stdout.strip())
    assert g.n == 9 and edge_count(g) == 15


def test_cli_gen_missing_params_is_input_error():
    proc = run_cli(["gen", "gkr", "--k", "3"])
    assert proc.returncode == EXIT_PARSE


def test_cli_verify():
    proc = run_cli(["verify", "qkr", "--k", "3", "--r", "2"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ok"] and data["family_size"] == 44


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_cases():
    """(golden file stem, argv, stdin text) for every pinned stdout."""
    cases = []

    def case(stem, argv, stdin):
        cases.append(pytest.param(stem, argv, stdin, id=stem))

    # r < k-1 and r = k-1: both top-set checks of verify.
    for construction, make in (("gkr", generate_gkr), ("qkr", generate_qkr)):
        for r in (2, 3):
            stem = f"{construction}-4-{r}"
            case(f"verify-{stem}", ["verify", construction, "--k", "4", "--r", str(r)], "")
            # sep pins the witness partition read off the spanning tree.
            case(f"sep-{stem}", ["sep", "-"], export_graph6(make(4, r)[0]) + "\n")
    case("sep-oracle-star5", ["sep", "-", "--oracle"], export_graph6(star(5)) + "\n")
    for stem, g in (("star4", star(4)), ("c7", cycle_graph(7)),
                    ("c4xc4", cartesian_product(cycle_graph(4), cycle_graph(4))),
                    ("p3xp6", cartesian_product(path_graph(3), path_graph(6))),
                    # Isolated vertex 0 beside the components {1,2} and {3,4,5}.
                    ("isolated-two-components", Graph.from_edges(6, [(1, 2), (3, 4), (4, 5)])),
                    ("edgeless4", Graph.from_edges(4, []))):
        case(f"profile-{stem}", ["profile", "-"], export_graph6(g) + "\n")
    # alpha and well-covered on edgeless graphs, isolated vertices and several components too.
    for stem, g in (("gkr-4-2", generate_gkr(4, 2)[0]), ("qkr-4-3", generate_qkr(4, 3)[0]),
                    ("c7", cycle_graph(7)),
                    ("p3xc4", cartesian_product(path_graph(3), cycle_graph(4))),
                    ("edgeless4", Graph.from_edges(4, [])),
                    ("isolated-two-components", Graph.from_edges(6, [(1, 2), (3, 4), (4, 5)]))):
        case(f"invariants-{stem}", ["invariants", "-"], export_graph6(g) + "\n")
    # A connected level, and a disconnected one whose diameter is null.
    for stem, g, k in (("p2xc4-k5", cartesian_product(path_graph(2), cycle_graph(4)), 5),
                       ("star3-k3", star(3), 3)):
        case(f"dk-diameter-{stem}", ["dk", "-", "--k", str(k), "--diameter"],
             export_graph6(g) + "\n")
    # Isolated vertex 0 with two components, and the single edge.
    for stem, text in (("two-edges-isolated", "1 2\n3 4\n"), ("k2", "0 1\n")):
        case(f"d0-both-{stem}", ["d0", "-", "--method", "both"], text)
    # d0 with no --method, read off the separation.
    case("d0-gkr-4-3", ["d0", "-"], export_graph6(generate_gkr(4, 3)[0]) + "\n")
    # path: each pair has one level with no path and one with a shortest path.
    # gkr(4,3): the hub set to a transversal, whose unions have k + r = 7 vertices.
    gkr43, isolated = generate_gkr(4, 3)[0], Graph.from_edges(6, [(1, 2), (3, 4), (4, 5)])
    for stem, g, src, dst, k in (("gkr-4-3-k6", gkr43, "1,2,3,4", "1,5,9,13", 6),
                                 ("gkr-4-3-k7", gkr43, "1,2,3,4", "1,5,9,13", 7),
                                 ("star3-k3", star(3), "1,2,3", "0", 3),
                                 ("star3-k4", star(3), "1,2,3", "0", 4),
                                 ("isolated-two-components-k3", isolated, "0,1,4", "0,2,4", 3),
                                 ("isolated-two-components-k5", isolated, "0,1,3,5", "0,2,4", 5)):
        case(f"path-{stem}", ["path", "-", "--from", src, "--to", dst, "--k", str(k)],
             export_graph6(g) + "\n")
    return cases


@pytest.mark.parametrize("stem, argv, stdin", _golden_cases())
def test_cli_stdout_matches_golden(monkeypatch, capsys, stem, argv, stdin):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0
    expected = (GOLDEN / f"{stem}.jsonl").read_text()
    assert capsys.readouterr().out == expected


def _verify_with_family(monkeypatch, capsys, construction, k, r, tamper):
    real = families.enumerate_minimal_dominating

    def tampered(g, budget=None):
        fam = real(g, budget)
        sets = tamper(list(fam.sets))
        sizes = [s.bit_count() for s in sets]
        return DomFamily(sets=tuple(sets), gamma=min(sizes), Gamma=max(sizes))

    monkeypatch.setattr(families, "enumerate_minimal_dominating", tampered)
    code = main(["verify", construction, "--k", str(k), "--r", str(r)])
    data = json.loads(capsys.readouterr().out)
    failed = {c["name"]: c["detail"] for c in data["checks"] if not c["passed"]}
    return code, data, failed


def test_cli_verify_reports_tampered_gkr_family(monkeypatch, capsys):
    _, lay = generate_gkr(4, 2)
    bogus = 1 | 1 << lay.u(1) | 1 << lay.v(1, 1) | 1 << lay.v(1, 2) | 1 << lay.v(1, 3)

    def tamper(sets):
        return [s for s in sets if s != lay.hub_mask] + [bogus]

    code, data, failed = _verify_with_family(monkeypatch, capsys, "gkr", 4, 2, tamper)
    assert code == EXIT_ASSERT and data["ok"] is False
    assert data["family_size"] == 81 and data["Gamma"] == 5
    rendered = "{u0,u1,v1,1,v1,2,v1,3}"
    assert failed == {
        "minimal-hits-each-leaf-clique-at-most-once": rendered,
        "apex-member-is-alone-in-hub-clique": rendered,
        "leaf-clique-missed-only-by-hub-set": rendered,
        "minimal-family-is-construction-family-plus-hub": "enumerated 81 sets, expected 81",
        "Gamma-is-clique-size": "Gamma=5",
        "hub-is-unique-maximum-set": "1 maximum sets",
    }


def test_cli_verify_reports_tampered_qkr_family(monkeypatch, capsys):
    _, lay = generate_qkr(4, 3)
    bogus = 1 << lay.u(1) | 1 << lay.w(1) | 1 << lay.w(2) | 1 << lay.w(3)

    def tamper(sets):
        return [s for s in sets if s != lay.hub_mask] + [bogus]

    code, data, failed = _verify_with_family(monkeypatch, capsys, "qkr", 4, 3, tamper)
    assert code == EXIT_ASSERT and data["ok"] is False
    assert failed == {
        "saturator-member-excludes-hub-clique": "{u1,w1,w2,w3}",
        "minimal-family-is-both-families-plus-hub": "enumerated 382 sets, expected 382",
        "maximum-sets-are-construction-family-plus-hub": "321 maximum sets, expected 321",
    }


def test_cli_verify_reports_forcing_violations(monkeypatch, capsys):
    # With every set declared dominating, each forcing check lists all pairs.
    monkeypatch.setattr(families, "is_dominating", lambda g, s: True)
    pairs = "[(1, 1), (1, 2), (1, 3)]"
    code = main(["verify", "gkr", "--k", "3", "--r", "1"])
    failed = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["passed"]}
    assert code == EXIT_ASSERT
    assert failed == {
        "dominating-sets-meet-hub-clique": "",
        "missing-hub-vertex-forces-leaf-hits": f"violations at (leaf,hub) pairs {pairs}",
    }
    code = main(["verify", "qkr", "--k", "3", "--r", "1"])
    failed = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["passed"]}
    assert code == EXIT_ASSERT
    assert failed == {
        "dominating-sets-meet-hub-or-saturators": "",
        "missing-hub-vertex-forces-augmented-leaf-hits": f"violations at {pairs}",
        "missing-hub-and-saturator-forces-leaf-hits": f"violations at {pairs}",
    }


def test_cli_exit_codes():
    bad = run_cli(["d0", "-"], stdin_text="not graph6 at all\n")
    assert bad.returncode == EXIT_PARSE
    over = run_cli(["invariants", "-", "--budget", "3"],
                   stdin_text=export_graph6(star(4)) + "\n")
    assert over.returncode == EXIT_BUDGET
    # star(3) has 4 vertices; each command enumerates dominating sets.
    for args in (["path", "-", "--from", "0", "--to", "1,2,3", "--k", "3"],
                 ["dk", "-", "--k", "2"], ["profile", "-"]):
        over = run_cli(args + ["--budget", "3"], stdin_text=export_graph6(star(3)) + "\n")
        assert over.returncode == EXIT_BUDGET, args
    usage = run_cli(["no-such-command"])
    assert usage.returncode == 2
    edgeless = run_cli(["d0", "-"], stdin_text="B?\n")
    assert edgeless.returncode == EXIT_PARSE


EDGELESS_CALLS = pytest.mark.parametrize(
    "args", [["d0", "-"], ["d0", "-", "--method", "sep"], ["d0", "-", "--method", "both"],
             ["sep", "-"], ["d0", "-", "--method", "direct"]],
    ids=["d0", "d0-sep", "d0-both", "sep", "d0-direct"])


@EDGELESS_CALLS
def test_cli_edgeless_graph_is_refused_by_one_rule(monkeypatch, capsys, args):
    monkeypatch.setattr(sys, "stdin", io.StringIO("B?\n"))
    assert main(args) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "domrec: input: d0 and sep need a graph with at least one edge"
        " (an edgeless graph has one minimal dominating set)\n")


@EDGELESS_CALLS
def test_cli_edgeless_graph_over_the_budget_is_refused_by_the_budget(monkeypatch, capsys, args):
    # The budget is checked first on every d0 route, --method direct included.
    monkeypatch.setattr(sys, "stdin", io.StringIO("B?\n"))
    assert main(args + ["--budget", "1"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds enumeration budget max_n=1" in captured.err


def test_cli_dispatch_looks_commands_up_at_call_time(monkeypatch, capsys):
    # main caches its parser; a command replaced after that must still run.
    monkeypatch.setattr(sys, "stdin", io.StringIO(export_graph6(star(3)) + "\n"))
    assert main(["profile", "-"]) == 0
    calls = []
    monkeypatch.setattr(io_cli, "cmd_profile", lambda args, out: calls.append(args.input) or 7)
    assert main(["profile", "-"]) == 7
    assert calls == ["-"]


def test_cli_every_subcommand_has_its_cmd_function():
    parser = io_cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {name[len("cmd_"):] for name in vars(io_cli) if name.startswith("cmd_")}
    assert set(sub.choices) == commands


def test_cli_hunt_finds_excess_two():
    rows = [
        export_graph6(star(3)),
        export_graph6(cartesian_product(path_graph(3), complete_graph(3))),
        export_graph6(complete_graph(4)),
    ]
    proc = run_cli(["hunt", "--min-excess", "2"], stdin_text="\n".join(rows) + "\n")
    assert proc.returncode == 0
    hits = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(hits) == 1
    assert hits[0]["id"] == 2 and hits[0]["excess"] == 2 and hits[0]["agree"]


def test_cli_hunt_parallel_matches_serial():
    rng = random.Random(55)
    lines = []
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        if any(row for row in g.adj):
            lines.append(export_graph6(g))
    stream = "\n".join(lines) + "\n"
    serial = run_cli(["hunt", "--min-excess", "1"], stdin_text=stream)
    parallel = run_cli(["hunt", "--min-excess", "1", "--jobs", "2"], stdin_text=stream)
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_cli_hunt_skips_oversize_and_edgeless():
    stream = export_graph6(complete_graph(6)) + "\n" + "B?" + "\n"
    proc = run_cli(["hunt", "--max-n", "5", "--min-excess", "0"], stdin_text=stream)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "2 graphs" in proc.stderr


def test_main_returns_exit_code_in_process(capsys, monkeypatch, tmp_path):
    f = tmp_path / "g.g6"
    f.write_text(export_graph6(complete_graph(3)) + "\n")
    assert main(["invariants", str(f)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["gamma"] == 1


# hunt: threshold test, d0_direct re-verification ----------------------------


def _permuted(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.fixture(scope="module")
def planted_excess():
    """Random small graphs with permuted gkr(3,2)/qkr(3,2) planted in them,
    and each id's excess d0 - Gamma by the naive oracles."""
    rng = random.Random(2017)
    graphs = []
    while len(graphs) < 30:
        g = random_graph(rng, rng.randint(3, 7), 0.45)
        if any(g.adj):
            graphs.append(g)
    for pos, make in ((3, generate_gkr), (11, generate_qkr), (20, generate_gkr), (27, generate_qkr)):
        graphs.insert(pos, _permuted(make(3, 2)[0], rng))
    excess = {}
    for ordinal, g in enumerate(graphs, 1):
        Gamma = max(len(d) for d in naive_minimal_dominating_sets(g))
        excess[ordinal] = naive_d0(g) - Gamma
    text = "".join(export_graph6(g) + "\n" for g in graphs)
    return text, excess


@pytest.fixture(scope="module")
def planted_stream(planted_excess):
    """The planted stream, the ids whose excess is >= 2, and its length."""
    text, excess = planted_excess
    return text, {ordinal for ordinal, e in excess.items() if e >= 2}, len(excess)


def _hunt_in_process(monkeypatch, capsys, stream, *flags):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    code = main(["hunt", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_hunt_hit_set_matches_naive_oracle(planted_stream):
    stream, expected, _ = planted_stream
    assert {4, 12, 21, 28} <= expected  # the planted constructions
    proc = run_cli(["hunt", "--min-excess", "2"], stdin_text=stream)
    assert proc.returncode == 0
    hits = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {h["id"] for h in hits} == expected
    for h in hits:
        assert h["agree"] and h["d0"] == h["sep"] == h["Gamma"] + h["excess"]


@pytest.mark.parametrize("min_excess", [-3, 0, 1, 2, 3, 100])
def test_cli_hunt_hit_set_at_every_threshold(monkeypatch, capsys, planted_excess, min_excess):
    # The threshold Gamma + E - 1 is clamped into the packed field range;
    # every graph has excess >= 1, and none has 100.
    stream, excess = planted_excess
    expected = {ordinal for ordinal, e in excess.items() if e >= min_excess}
    if min_excess <= 1:
        assert expected == set(excess)
    if min_excess == 100:
        assert not expected
    code, out, _ = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", str(min_excess))
    assert code == 0
    hits = [json.loads(line) for line in out.splitlines()]
    assert [h["id"] for h in hits] == sorted(expected)
    assert all(h["excess"] == excess[h["id"]] for h in hits)


def test_cli_hunt_parallel_matches_serial_on_hits(monkeypatch, capsys, planted_stream):
    stream, expected, count = planted_stream
    serial = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", "2")
    # Small windows make the parallel run cross several window boundaries.
    monkeypatch.setattr(io_cli, "HUNT_WINDOW", 4)
    parallel = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", "2", "--jobs", "2")
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]
    assert [json.loads(line)["id"] for line in serial[1].splitlines()] == sorted(expected)
    assert f"hunt: {count} graphs" in parallel[2]


def test_cli_hunt_runs_d0_direct_only_on_hits(monkeypatch, capsys, planted_stream):
    stream, expected, count = planted_stream
    calls = []
    real = io_cli.d0_direct

    def counting(g, budget=None, **kwargs):
        calls.append(export_graph6(g))
        return real(g, budget, **kwargs)

    monkeypatch.setattr(io_cli, "d0_direct", counting)
    code, out, _ = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", "2")
    assert code == 0
    assert len(calls) == len(expected) < count
    assert calls == [json.loads(line)["graph6"] for line in out.splitlines()]


def test_cli_hunt_calls_sep_bottleneck_only_on_hits(monkeypatch, capsys, planted_stream):
    # A miss is settled by sep_at_most; the full tree runs only for a hit's sep.
    stream, expected, count = planted_stream
    calls = []
    real = io_cli.sep_bottleneck

    def counting(fam):
        calls.append(fam)
        return real(fam)

    monkeypatch.setattr(io_cli, "sep_bottleneck", counting)
    code, out, _ = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", "2")
    assert code == 0
    hits = [json.loads(line) for line in out.splitlines()]
    assert len(calls) == len(hits) == len(expected) < count
    assert [real(fam).sep for fam in calls] == [h["sep"] for h in hits]


def test_cli_enumerates_each_minimal_family_once(monkeypatch, capsys, planted_stream):
    stream, expected, count = planted_stream
    graphs = []  # every minimal-family enumeration, by any caller
    real = domination.enumerate_minimal_dominating

    def counting(g, budget=None):
        graphs.append(export_graph6(g))
        return real(g, budget)

    for module in (domination, families, io_cli, reconfig, separation):  # each importer
        monkeypatch.setattr(module, "enumerate_minimal_dominating", counting)
    code, out, _ = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", "2")
    assert code == 0 and len(out.splitlines()) == len(expected) > 0
    assert len(graphs) == len(set(graphs)) == count
    graphs.clear()
    pair = export_graph6(star(4)) + "\n" + export_graph6(generate_gkr(3, 2)[0]) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(pair))
    assert main(["d0", "-", "--method", "both"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["agree"] for row in rows] == [True, True]
    assert graphs == pair.split()


def _stdout_of(argv, stdin):
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(edged_graphs())
def test_cli_d0_default_matches_method_direct(g):
    line = export_graph6(g) + "\n"
    default = _stdout_of(["d0", "-"], line)
    assert default == _stdout_of(["d0", "-", "--method", "direct"], line)
    assert default[0] == 0 and json.loads(default[1]) == {"d0": naive_d0(g)}


def test_cli_hunt_disagreement_exits_5_with_payload(monkeypatch, capsys):
    real = io_cli.d0_direct
    monkeypatch.setattr(io_cli, "d0_direct",
                        lambda g, budget=None, **kwargs: real(g, budget, **kwargs) + 1)
    prism = cartesian_product(path_graph(3), complete_graph(3))
    stream = export_graph6(complete_graph(3)) + "\n" + export_graph6(prism) + "\n"
    code, out, err = _hunt_in_process(monkeypatch, capsys, stream, "--min-excess", "2")
    assert code == EXIT_ASSERT
    payload = json.loads(out)
    assert payload["id"] == 2 and payload["agree"] is False
    assert payload["d0"] == payload["sep"] + 1 == 6 and payload["excess"] == 3
    assert "disagreement" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_hunt_streams_its_input(monkeypatch, jobs):
    # The first hit must be written after at most one pool window of
    # input has been read, not after the whole stream.
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    monkeypatch.setattr(io_cli, "HUNT_WINDOW", 4)
    line = export_graph6(star(3)) + "\n"
    read = []

    def stdin():
        for _ in range(20):
            read.append(1)
            yield line

    class FirstWrite(io.StringIO):
        lines_read_then = None

        def write(self, text):
            if self.lines_read_then is None:
                self.lines_read_then = len(read)
            return super().write(text)

    out = FirstWrite()
    monkeypatch.setattr(sys, "stdin", stdin())
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["hunt", "--min-excess", "1", "--jobs", jobs]) == 0
    assert out.getvalue().count("\n") == 20
    assert out.lines_read_then == (1 if jobs == "1" else 4)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("bad, flags, code", [
    ("B!", (), EXIT_PARSE),
    (export_graph6(star(5)), ("--max-n", "64", "--budget", "5"), EXIT_BUDGET),
], ids=["parse-error", "budget-error"])
def test_cli_hunt_stops_reading_at_an_early_stop(monkeypatch, capsys, jobs, bad, flags, code):
    # The stop is reported at once: the rest of the stream is not read,
    # beyond the pool window already in flight.
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    monkeypatch.setattr(io_cli, "HUNT_WINDOW", 4)
    good = export_graph6(star(3)) + "\n"
    read = []

    def stdin():
        for line in [good, bad + "\n"] + [good] * 10_000:
            read.append(1)
            yield line

    monkeypatch.setattr(sys, "stdin", stdin())
    assert main(["hunt", *flags, "--jobs", jobs]) == code
    assert len(read) <= (2 if jobs == "1" else 4)
    err = capsys.readouterr().err
    assert "hunt: graph 2: " in err and "hunt: 2 graphs" in err


@pytest.mark.parametrize("flags, env", [
    (["--jobs", "2"], None), (["--jobs", "64"], None), (["--jobs", "65"], None),
    (["--jobs", "1000"], None), ([], "100000"),
], ids=["flag-2", "flag-64", "flag-65", "flag-1000", "env-100000"])
def test_cli_hunt_starts_at_most_64_workers(monkeypatch, capsys, planted_stream, flags, env):
    # A fake Pool records the worker count and judges in process, so no
    # process is started, however many are asked for.
    stream = planted_stream[0]
    serial = _hunt_in_process(monkeypatch, capsys, stream, "--jobs", "1")
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def shutdown(self, cancel_futures):
            pass

        def map(self, func, iterable, chunksize):
            assert chunksize == io_cli.HUNT_CHUNK
            return map(func, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    if env is not None:
        monkeypatch.setenv(JOBS_ENV_VAR, env)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    assert main(["hunt", *flags]) == serial[0] == 0
    assert started == [min(int(flags[1]) if flags else int(env), 64)]
    assert io_cli.HUNT_MAX_JOBS == 64
    assert capsys.readouterr().out == serial[1] != ""


# A driver whose worker dies on one line, standing in for an OOM kill: the
# forked workers inherit the patched _hunt_worker.
DYING_WORKER = """
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
from domrec import io_cli
real = io_cli._hunt_worker
def dying(line, *args, **kwargs):
    if line == sys.argv[1]:
        os._exit(137)
    return real(line, *args, **kwargs)
io_cli._hunt_worker = dying
io_cli.HUNT_WINDOW = 4
sys.exit(io_cli.main(["hunt", "--jobs", "2", "--min-excess", "1"]))
"""


def test_cli_hunt_names_the_window_of_a_dead_worker():
    # The pool is broken, not waited on forever: the hits before the window
    # are written, the window is named and hunt exits 6.
    lines = [export_graph6(g) for g in (star(2), star(3), path_graph(4), cycle_graph(4),
                                        star(4), path_graph(5), cycle_graph(5))]
    proc = subprocess.run([sys.executable, "-c", DYING_WORKER, lines[5]],
                          input="\n".join(lines) + "\n", capture_output=True, text=True,
                          env=CLI_ENV, timeout=60)
    assert proc.returncode == EXIT_WORKER == 6
    assert [json.loads(row)["id"] for row in proc.stdout.splitlines()] == [1, 2, 3, 4]
    assert "hunt: a worker died judging lines 5-7" in proc.stderr
    assert "hunt: 4 graphs" in proc.stderr


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_cli_jobs_rejects_bad_values(monkeypatch, capsys, value):
    stream = export_graph6(star(3)) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    with pytest.raises(SystemExit) as flag:
        main(["hunt", "--jobs", value])
    assert flag.value.code == EXIT_USAGE
    monkeypatch.setenv(JOBS_ENV_VAR, value)
    with pytest.raises(SystemExit) as env:
        main(["hunt"])
    assert env.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(f"must be an integer >= 1, got {value!r}") == 2
    # Commands other than hunt do not read the variable.
    assert main(["gen", "star", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == export_graph6(star(3))


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_cli_hunt_max_n_rejects_bad_values(monkeypatch, capsys, value):
    # A cap below 1 would skip every graph as oversize and still exit 0.
    monkeypatch.setattr(sys, "stdin", io.StringIO(export_graph6(star(3)) + "\n"))
    with pytest.raises(SystemExit) as flag:
        main(["hunt", "--max-n", value])
    assert flag.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"largest vertex count judged must be an integer >= 1, got {value!r}" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO(export_graph6(star(3)) + "\n"))
    assert main(["hunt", "--max-n", "1", "--min-excess", "0"]) == 0
    assert "1 skipped oversize" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["junk", "0", "-1"])
def test_cli_budget_rejects_bad_values(monkeypatch, capsys, value):
    monkeypatch.setattr(sys, "stdin", io.StringIO(export_graph6(star(3)) + "\n"))
    with pytest.raises(SystemExit) as flag:
        main(["d0", "-", "--budget", value])
    assert flag.value.code == EXIT_USAGE
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    with pytest.raises(SystemExit) as env:
        main(["d0", "-"])
    assert env.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(f"must be an integer >= 1, got {value!r}") == 2
    # A valid env value is still the budget.
    monkeypatch.setenv(BUDGET_ENV_VAR, "3")
    assert main(["d0", "-"]) == EXIT_BUDGET


def test_cli_env_budget_is_read_at_every_call(monkeypatch):
    # main keeps its parser across calls; the env default must not stick to it.
    for value, code in (("3", EXIT_BUDGET), ("4", 0), ("3", EXIT_BUDGET)):
        monkeypatch.setenv(BUDGET_ENV_VAR, value)
        monkeypatch.setattr(sys, "stdin", io.StringIO(export_graph6(star(3)) + "\n"))
        assert main(["d0", "-"]) == code


def test_cli_main_leaves_no_cyclic_garbage(capsys):
    # Each argparse parser holds hundreds of objects in reference cycles,
    # so building one per call grows an in-process caller's heap.
    main(["gen", "star", "--n", "3"])
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(["gen", "star", "--n", "3"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("args", [["sep", "-"], ["hunt"], ["gen", "cartesian"]],
                         ids=["sep", "hunt", "gen-cartesian"])
def test_cli_closed_stdin_is_an_input_error(args):
    # With file descriptor 0 closed at startup, sys.stdin is None.
    proc = subprocess.run(CLI + args, capture_output=True, text=True, env=CLI_ENV,
                          preexec_fn=lambda: os.close(0), timeout=120)
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr == "domrec: input: standard input is closed\n"


@pytest.mark.parametrize("data", [b"D\xff\xfe\n", b"0 1\n1 \xff\n"], ids=["graph6", "edgelist"])
def test_cli_non_ascii_file_is_a_parse_error(tmp_path, data):
    f = tmp_path / "graph"
    f.write_bytes(data)
    proc = run_cli(["d0", str(f)])
    assert proc.returncode == EXIT_PARSE
    assert "domrec: input:" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_hunt_quiet_on_broken_pipe(tmp_path):
    # Far more output than a pipe buffers, so hunt is still writing when
    # the reader goes away after one line.
    stream = tmp_path / "k2.g6"
    stream.write_text("A_\n" * 5000)
    with open(stream) as fin:
        proc = subprocess.Popen(
            CLI + ["hunt", "--min-excess", "1"], stdin=fin,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert json.loads(first)["id"] == 1
    assert proc.returncode == 0
    assert b"Broken pipe" not in err and b"Traceback" not in err


def test_edge_list_ids_are_ascii_decimal():
    for text in ("0 1\n1 ٢\n", "1_0 2\n", "+1 2\n", "0 ²\n"):
        with pytest.raises(ParseError, match="non-integer id"):
            parse_edge_list(text)
    with pytest.raises(ParseError, match="negative vertex id"):
        parse_edge_list("0 -1\n")


# Arabic-Indic digits, on a later line and on the first; an underscore separator.
@pytest.mark.parametrize("data", [b"0 1\n1 \xd9\xa2\n", b"\xd9\xa1 \xd9\xa2\n", b"1_0 2\n"],
                         ids=["arabic-indic-later", "arabic-indic-first", "underscore"])
@pytest.mark.parametrize("fmt", ["auto", "edgelist"])
@pytest.mark.parametrize("via", ["stdin", "file"])
def test_cli_non_ascii_decimal_ids_are_a_parse_error(tmp_path, data, fmt, via):
    f = tmp_path / "graph"
    f.write_bytes(data)
    source, stdin = ("-", data) if via == "stdin" else (str(f), b"")
    proc = subprocess.run(CLI + ["invariants", source, "--format", fmt], input=stdin,
                          capture_output=True, env=CLI_ENV)
    assert proc.returncode == EXIT_PARSE
    assert b"domrec: input:" in proc.stderr and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [["sep", "-"], ["hunt"], ["gen", "cartesian"]],
                         ids=["sep", "hunt", "gen-cartesian"])
def test_cli_non_ascii_stdin_is_a_parse_error_under_strict_decoding(args):
    # Strict decoding, as under a UTF-8 locale other than C/POSIX: the bad
    # byte must reach the graph6 parser, not raise UnicodeDecodeError.
    env = {**CLI_ENV, "PYTHONIOENCODING": "utf-8:strict"}
    proc = subprocess.run(CLI + args, input=b"D\xff\nA_\n", capture_output=True, env=env)
    assert proc.returncode == EXIT_PARSE
    assert b"outside '?'..'~'" in proc.stderr and b"Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph"


@pytest.mark.parametrize("fmt", ["auto", "graph6", "edgelist"])
@pytest.mark.parametrize("via", ["stdin", "file"])
@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=40))
def test_cli_arbitrary_bytes_exit_cleanly(fuzz_file, fmt, via, data):
    fuzz_file.write_bytes(data)
    source = "-" if via == "stdin" else str(fuzz_file)
    # A strict text layer, as under a UTF-8 locale: the bytes beneath it must be read instead.
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sep", "--budget", "10", "--format", fmt, source])
    finally:
        sys.stdin = saved
    assert code in (0, EXIT_PARSE, EXIT_BUDGET), err.getvalue()
    assert "Traceback" not in err.getvalue()
