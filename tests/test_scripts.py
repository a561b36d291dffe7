"""The experiment scripts write the tables CLI ``sweep`` writes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from schmidt_forge.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, sweep", [
    ("reference_sweep_data.py", ["--dim", "64", "--grid-points", "12", "--kmin", "40"],
     ["--dim", "64", "--seed", "1", "--mode", "efficiency", "--pref-grid", "log:1/D:1:12"]),
    ("interp_baseline_data.py", ["--dim", "16", "--grid-points", "9"],
     ["--dim", "16", "--seed", "7", "--mode", "interp", "--xi-grid", "lin:0:1:9"]),
])
def test_script_matches_cli_sweep(tmp_path, script, args, sweep):
    out, want = tmp_path / "script.csv", tmp_path / "cli.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert main(["sweep", *sweep, "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()
