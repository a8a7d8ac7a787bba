"""Smoke runs of the scripts under scripts/, each at a size that takes about a second.

All three call d0_direct and sep_bottleneck through the public API, so a
signature or behaviour change there that breaks them shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("reproduce_constructions.py", ["--k-max", "4"]),  # the whole k <= 4 grid
    ("survey_small_graphs.py", ["--max-n", "4"]),
    ("diameter_survey.py", ["--count", "3", "--n-max", "6"]),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert proc.stdout
