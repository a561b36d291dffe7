"""Sweep tables: one spectrum, one row per grid value.

A sweep evaluates the efficiency planner over reference purities P_ref, the
fixed-probability planner over success probabilities p_fix, or the
interpolation baseline over xi. CLI ``sweep`` writes these rows as they are.

Every point goes through its planner's checks and plan assembly, so each
row, and each error, is the single-point call's. An efficiency sweep shares
one frontier of the spectrum between its points: a sort, then O(D) extra
memory for the sorted coefficients and their breakpoints, which start each
point's level search on its own crop. Points that keep the state take the
spectrum's identity outcome, made once per spectrum as for single plans.
"""

from __future__ import annotations

from .efficiency import _Sweep, optimal_plan_efficiency
from .fixedprob import optimal_plan_fixed
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
    at a time, so only one plan or interpolated spectrum is alive at once,
    besides an efficiency sweep's frontier and the spectrum's identity."""
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
    shared = _Sweep(s) if mode == "efficiency" else None
    for v in grid:
        if mode == "efficiency":
            o = optimal_plan_efficiency(s, v, shared)
        else:
            o = optimal_plan_fixed(s, v)
        m = o.post_measures
        row = [v, o.plan.n_opt, o.p_success, m.purity, m.schmidt_number,
               m.concurrence_sq, o.q_value]
        rows.append(row[: len(header)])
    return header, rows
