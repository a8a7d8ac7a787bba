"""Source checks: line width, a runtime that imports only the standard library,
one owner for the unchecked graph constructor, constructions that import no
reconfiguration or separation code, an oracle module that imports no private
package name, separation and reconfiguration modules that read no
environment variable, a domination module that reads one only to resolve
the budget, one builder of subset truth tables, one route to the value of
sep, a command line that reads its input a line at a time, and the layout
of the committed benchmark records."""

import ast
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "domrec").glob("*.py"))
MAX_LINE = 99


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_is_over_the_width_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines over {MAX_LINE} characters: {long}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == [], f"{path.name}: non-stdlib imports {foreign}"


def test_only_graph_core_builds_a_graph_unchecked():
    # Graph._trusted skips every __post_init__ check; only from_edges, whose
    # own checks imply them, may call it. Every other route validates.
    users = []
    for path in sorted(ROOT.glob("[!.]*/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "_trusted":
                users.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert users and all(u.startswith("src/domrec/graph_core.py:") for u in users), users


def test_the_constructions_import_neither_reconfig_nor_separation():
    # families.py builds gkr/qkr and checks their minimal families from
    # graph_core and domination alone; d0 and sep sit on top of it.
    tree = ast.parse((ROOT / "src" / "domrec" / "families.py").read_text(encoding="utf-8"))
    above = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        above += [f"{name}:{node.lineno}" for name in names
                  if name.rpartition(".")[2] in {"reconfig", "separation"}]
    assert above == [], above


def test_the_oracle_module_imports_no_private_name_from_the_package():
    # tests/naive.py is the independent side of every differential test; a
    # private helper of the package would make both sides share a step.
    tree = ast.parse((ROOT / "tests" / "naive.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "domrec"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == [], private


def test_separation_reads_no_environment_variable():
    # sep_at_most's route is chosen by the module constant _SCAN_MAX_SETS,
    # and d0_direct's by domination's _DOM_TABLE_MAX_N, each set from a measured
    # crossover; neither may become a knob.
    reads = []
    for name in ("separation.py", "reconfig.py"):
        tree = ast.parse((ROOT / "src" / "domrec" / name).read_text(encoding="utf-8"))
        reads += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  for read in [node.attr if isinstance(node, ast.Attribute)
                               else node.id if isinstance(node, ast.Name)
                               else node.name if isinstance(node, ast.alias) else None]
                  if read in {"environ", "environb", "getenv", "getenvb"}]
    assert reads == [], reads


def test_domination_reads_the_environment_only_to_resolve_the_budget():
    # The route cutoffs _TABLE_MAX_N and _DOM_TABLE_MAX_N are module constants set
    # from measured crossovers; DOMREC_BUDGET, read by Budget.resolve, is the one
    # variable. Each read is recorded with the class and function it sits in.
    reads = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (*where, child.name) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef)) else where
            read = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name)
                    else child.name if isinstance(child, ast.alias) else None)
            if read in {"environ", "environb", "getenv", "getenvb"}:
                reads.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(ast.parse((ROOT / "src" / "domrec" / "domination.py").read_text(encoding="utf-8")), ())
    assert reads and {where for where, _ in reads} == {"Budget.resolve"}, reads


def test_only_domination_builds_subset_tables():
    # A subset truth table has 2^n bits, and 1 << (1 << e) is the width of one; only
    # domination.py makes such an int. Only _dominating_tables and _subset_tables read x_v
    # off _vertex_tables, so every table route reads the tables of one builder.
    def is_one(node):
        return isinstance(node, ast.Constant) and node.value == 1

    builds, readers = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builds += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                   and is_one(node.left) and isinstance(node.right, ast.BinOp)
                   and isinstance(node.right.op, ast.LShift) and is_one(node.right.left)]
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            readers |= {(path.name, owner) for node in ast.walk(stmt)
                        if "_vertex_tables" in (getattr(node, "id", None),
                                                getattr(node, "attr", None))}
    assert builds and all(b.startswith("domination.py:") for b in builds), builds
    assert readers == {("domination.py", "_dominating_tables"),
                       ("domination.py", "_subset_tables")}, readers


def test_the_value_of_sep_has_one_route():
    # sep_value is the number; sep_bottleneck(...).sep would pay for a
    # witness that is thrown away, and give the value a second route.
    reads = []
    for path in sorted([*(ROOT / "src").glob("**/*.py"), *(ROOT / "scripts").glob("**/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "sep"
                    and isinstance(node.value, ast.Call)):
                func = node.value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "sep_bottleneck":
                    reads.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert reads == [], reads


def test_the_command_line_reads_its_input_a_line_at_a_time():
    # Every command reads through io_cli._lines, so a graph6 stream runs in
    # bounded memory; a whole-input read would hold every line at once.
    tree = ast.parse((ROOT / "src" / "domrec" / "io_cli.py").read_text(encoding="utf-8"))
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in {"read", "readlines"}:
                reads.append(f".{node.func.attr}():{node.lineno}")
        elif "_read_text" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None)):
            reads.append(f"_read_text:{node.lineno}")
    assert reads == [], reads


BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCH_KEYS = {"change", "claim", "command", "machine", "parent_commit", "workloads"}


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_records_name_what_the_benchmark_runs(path):
    # Each perf change commits its before/after medians in one layout, read
    # against the workloads and end-to-end metrics that BENCHMARK.json declares.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    record = json.loads(path.read_text(encoding="utf-8"))
    assert BENCH_KEYS <= record.keys(), sorted(BENCH_KEYS - record.keys())
    assert record["workloads"] and record["workloads"].keys() <= workloads
    for name, workload in record["workloads"].items():
        assert workload["metrics"].keys() >= metrics, name
        for metric in metrics:
            for side in ("parent", "change"):
                assert isinstance(workload["metrics"][metric][side]["median"], (int, float)), (
                    name, metric, side)
    claim = record["claim"]
    if claim is not None:
        assert claim["workload"] in record["workloads"] and claim["metric"] in metrics


def test_bench_records_are_found():
    # An empty glob would leave the layout test above with no case to run.
    assert BENCH_RECORDS
