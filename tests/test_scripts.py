"""Smoke runs of the scripts under scripts/, each at a size that takes about a second.

All three read d0 through the public API, the surveys from sep_value and
the reproduction script from d0_direct, so a signature or behaviour change
there that breaks them shows here; each refuses a malformed DOMREC_BUDGET
before its first row, and stops with exit 4 at the first graph the budget
refuses. The reproduction script also runs sep_value and the structure
checks on every row.
"""

import importlib.util
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from domrec import CheckResult, StructureReport, families, generate_gkr, verify_gkr_structure

ROOT = Path(__file__).resolve().parent.parent


SCRIPT_RUNS = [
    ("reproduce_constructions.py", ["--k-max", "4"]),  # the whole k <= 4 grid
    ("survey_small_graphs.py", ["--max-n", "4"]),
    ("diameter_survey.py", ["--count", "3", "--n-max", "6"]),
]


@pytest.mark.parametrize("script, args", SCRIPT_RUNS)
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert proc.stdout


def test_reproduction_rows_carry_the_verify_result(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reproduce_constructions", ROOT / "scripts" / "reproduce_constructions.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    g, _ = generate_gkr(3, 1)
    enumerate_family, enumerated = script.enumerate_minimal_dominating, []

    def counted(*args):
        enumerated.append(enumerate_family(*args))
        return enumerated[-1]

    # The row enumerates the family once, and verify reads that family.
    monkeypatch.setattr(script, "enumerate_minimal_dominating", counted)
    monkeypatch.setattr(families, "enumerate_minimal_dominating", counted)
    assert script.row("gkr(3,1)", g, 4, partial(verify_gkr_structure, 3, 1))
    assert len(enumerated) == 1
    assert "verify=ok [ok," in capsys.readouterr().out
    # d0 = sep = 4 still, but one failed check makes the row a mismatch.
    failed = StructureReport("gkr", 3, 1, 13, 2, 3, False, (
        CheckResult("Gamma-is-clique-size", False, "Gamma=4"),
        CheckResult("gamma-is-leaf-count-plus-one", True, "gamma=2")))
    assert not script.row("gkr(3,1)", g, 4, lambda family: failed)
    assert "verify=Gamma-is-clique-size [MISMATCH," in capsys.readouterr().out


def test_reproduction_stops_at_the_budget_with_exit_4():
    # gkr(4,3) has n = 17: the rows before it print, then one stderr line.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "DOMREC_BUDGET": "16"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_constructions.py"), "--k-max", "4"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("gkr(4,3): ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("qkr(4,2) ")


def _refuses_malformed_budget(script, args, value):
    # As domrec does: exit 2 and one stderr line naming the variable, no row blamed.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "DOMREC_BUDGET": value}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"DOMREC_BUDGET must be an integer >= 1, got '{value}'\n"


@pytest.mark.parametrize("value", ["junk", "0"])
def test_reproduction_refuses_a_malformed_budget_before_the_first_row(value):
    _refuses_malformed_budget(*SCRIPT_RUNS[0], value)


@pytest.mark.parametrize("value", ["junk", "0"])
@pytest.mark.parametrize("script, args", SCRIPT_RUNS[1:], ids=[run[0] for run in SCRIPT_RUNS[1:]])
def test_scripts_refuse_a_malformed_budget_before_the_first_row(script, args, value):
    _refuses_malformed_budget(script, args, value)


# Budget 5 refuses diameter_survey's second graph (n = 8) and budget 3
# survey_small_graphs' first graph of order 4: the rows before it stay.
@pytest.mark.parametrize("script, args, budget, stdout_lines, refused", [
    ("diameter_survey.py", ["--count", "3", "--n-max", "8"], "5", 2, "graph 2 (n=8): "),
    ("survey_small_graphs.py", ["--max-n", "4"], "3", 0, "n=4 "),
], ids=["diameter_survey.py", "survey_small_graphs.py"])
def test_survey_scripts_stop_at_the_budget_with_exit_4(script, args, budget, stdout_lines,
                                                       refused):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "DOMREC_BUDGET": budget}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == stdout_lines
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(refused) and "exceeds enumeration budget" in last, last
    assert proc.stderr.count("exceeds") == 1
