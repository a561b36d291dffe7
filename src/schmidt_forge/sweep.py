"""Sweep tables: one spectrum, one row per grid value.

A sweep evaluates the efficiency planner over reference purities P_ref, the
fixed-probability planner over success probabilities p_fix, or the
interpolation baseline over xi. The CLI and the experiment scripts write
these rows as they are.
"""

from __future__ import annotations

from .efficiency import ReferenceLevel, optimal_plan_efficiency
from .fixedprob import FixedProbRequest, optimal_plan_fixed
from .interp import interpolate
from .spectrum import SchmidtSpectrum

INTERP_COLUMNS = ["xi", "p_success", "purity", "schmidt_number", "concurrence_sq"]
EFFICIENCY_COLUMNS = [
    "p_ref", "n_opt", "p_success", "purity", "schmidt_number", "concurrence_sq", "q_value",
]
FIXEDPROB_COLUMNS = [
    "p_fix", "n_opt", "p_success", "purity", "schmidt_number", "concurrence_sq",
]


def sweep_table(s: SchmidtSpectrum, mode: str, grid) -> tuple[list[str], list[list]]:
    """The sweep table of ``mode`` ("efficiency", "fixedprob" or "interp"):
    its header and one row per grid value, in grid order. Points are made one
    at a time, so only one plan or interpolated spectrum is alive at once."""
    if mode not in ("efficiency", "fixedprob", "interp"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if mode == "interp":
        rows = []
        for xi in grid:
            p = interpolate(s, xi)
            m = p.measures
            rows.append([p.xi, p.success_prob, m.purity, m.schmidt_number, m.concurrence_sq])
        return INTERP_COLUMNS, rows
    header = EFFICIENCY_COLUMNS if mode == "efficiency" else FIXEDPROB_COLUMNS
    rows = []
    for v in grid:
        if mode == "efficiency":
            o = optimal_plan_efficiency(s, ReferenceLevel(s.dim, v))
        else:
            o = optimal_plan_fixed(s, FixedProbRequest(v))
        m = o.post_measures
        row = [v, o.plan.n_opt, o.p_success, m.purity, m.schmidt_number,
               m.concurrence_sq, o.q_value]
        rows.append(row[: len(header)])
    return header, rows
