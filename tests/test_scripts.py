"""The oracle comparison script finds the closed form at rounding level."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import read_csv

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_comparison_script_agrees_with_the_closed_form(tmp_path):
    out = tmp_path / "oracle.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oracle_comparison_data.py"),
         "--dim", "32", "--grid-points", "6", "--restarts", "4", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["p_ref", "delta_q_relative", "delta_y_relative", "converged"]
    assert len(rows) == 6
    for _, dq, dy, converged in rows:
        assert converged == 1
        assert dq <= 1e-8 and dy <= 1e-8  # NaN, an undefined difference, fails too
