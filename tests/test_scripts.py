"""The experiment scripts write the tables CLI ``sweep`` writes, and the
oracle comparison script finds the closed form at rounding level."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from schmidt_forge.cli import main

from helpers import read_csv

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, sweep", [
    ("reference_sweep_data.py", ["--dim", "64", "--grid-points", "12", "--kmin", "40"],
     ["--dim", "64", "--seed", "1", "--mode", "efficiency", "--pref-grid", "log:1/D:1:12"]),
    ("interp_baseline_data.py", ["--dim", "16", "--grid-points", "9"],
     ["--dim", "16", "--seed", "7", "--mode", "interp", "--xi-grid", "lin:0:1:9"]),
])
def test_script_matches_cli_sweep(tmp_path, script, args, sweep):
    out, want = tmp_path / "script.csv", tmp_path / "cli.csv"
    _run_script(tmp_path, script, [*args, "--out", str(out)])
    assert main(["sweep", *sweep, "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


def test_oracle_comparison_script_agrees_with_the_closed_form(tmp_path):
    out = tmp_path / "oracle.csv"
    _run_script(tmp_path, "oracle_comparison_data.py",
                ["--dim", "32", "--grid-points", "6", "--restarts", "4", "--out", str(out)])
    header, rows = read_csv(out)
    assert header == ["p_ref", "delta_q_relative", "delta_y_relative", "converged"]
    assert len(rows) == 6
    for _, dq, dy, converged in rows:
        assert converged == 1
        assert dq <= 1e-8 and dy <= 1e-8  # NaN, an undefined difference, fails too


def _run_script(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
