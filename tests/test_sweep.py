"""Sweep tables against the single-point planners, row by row and error by
error, on spectra where an efficiency sweep's frontier is most likely to
disagree with the planner's own level search."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from schmidt_forge import (
    FixedProbRequest,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sweep_table,
)
from schmidt_forge import efficiency
from schmidt_forge.efficiency import P_REF_TOL
from schmidt_forge.errors import SchmidtForgeError
from schmidt_forge.spectrum import frontier

from helpers import case_spectrum, stored_spectrum

#: the smallest subnormal float
TINY = 5e-324


@st.composite
def sweep_spectra(draw):
    """Dyadic spectra, whose ties often fall on a crop boundary, or
    normalized floats; either may hold zeros and subnormal entries."""
    d = draw(st.integers(2, 12))
    extras = st.sampled_from([0.0, TINY, 3 * TINY, 1e-310])
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 8), min_size=d - 1, max_size=d - 1))
        total = 1 << (sum(counts) + 1).bit_length()
        values = [c / total for c in counts] + [(total - sum(counts)) / total]
        # a subnormal leaves the sum within STORED_SUM_TOL of 1, so the
        # values are stored as drawn, not divided by their sum
        values = [draw(extras) if v == 0.0 else v for v in values]
        return stored_spectrum(draw(st.permutations(values)))
    entry = extras | st.floats(1e-3, 1.0)
    values = draw(st.lists(entry, min_size=d, max_size=d).filter(lambda v: max(v) >= 1e-3))
    return make_spectrum(values, normalize=True)


def _breakpoints(s, mode):
    """The frontier's breakpoints, r_n = a_n^2 / p_n of the efficiency mode
    (0 where p_n = 0) or p_n of the fixed one, and their neighbouring floats."""
    a, _, p = frontier(s)
    b = np.divide(a, p, out=np.zeros_like(p), where=p > 0.0) if mode == "efficiency" else p
    return np.concatenate((b, np.nextafter(b, 0.0), np.nextafter(b, 2.0))).tolist()


def _edges(s, mode):
    """The range ends, the standard-concentration window, max a^2 and values
    outside the range."""
    if mode == "efficiency":
        lo = 1.0 / s.dim
        return [lo, lo + P_REF_TOL / 2, 1.0 / s.rank, s.max_sq, (1.0 + s.max_sq) / 2, 1.0,
                0.5 * lo, 1.5]
    return [s.total, 1.0, TINY, 1e-300, 0.0, 1.5]


def _per_point(s, mode, grid):
    """The rows of single-point planner calls, or the (type, message) of the
    first call that raises."""
    rows = []
    for v in grid:
        try:
            if mode == "efficiency":
                o = optimal_plan_efficiency(s, v)
            else:
                o = optimal_plan_fixed(s, FixedProbRequest(v))
        except SchmidtForgeError as exc:
            return type(exc), str(exc)
        m = o.post_measures
        row = [v, o.plan.n_opt, o.p_success, m.purity, m.schmidt_number,
               m.concurrence_sq, o.q_value]
        rows.append(row[:6] if mode == "fixedprob" else row)
    return rows


def _swept(s, mode, grid):
    try:
        return sweep_table(s, mode, grid)[1]
    except SchmidtForgeError as exc:
        return type(exc), str(exc)


@st.composite
def sweeps(draw):
    """A spectrum, a mode and an unsorted grid with repeats, drawn mostly
    from the edges and breakpoints; bad values may come first, in the middle
    or not at all."""
    s = draw(sweep_spectra())
    mode = draw(st.sampled_from(["efficiency", "fixedprob"]))
    value = st.sampled_from(_edges(s, mode) + _breakpoints(s, mode)) | st.floats(0.0, 1.0)
    grid = draw(st.lists(value, min_size=1, max_size=30))
    return s, mode, grid


@settings(max_examples=300)
@given(sweeps())
def test_rows_and_errors_match_the_per_point_planner(case):
    s, mode, grid = case
    assert _swept(s, mode, grid) == _per_point(s, mode, grid)


@pytest.mark.parametrize("case", [[0.4, 0.4, 0.2], 5, 17, 64, 300], ids=str)
def test_rows_at_every_breakpoint_match_the_per_point_planner(case):
    # at a breakpoint, the root sits within rounding of a coefficient, and
    # the crops on both sides of it can each be consistent in floats: the
    # sweep must pick the one the planner's loop from max a^2 ends on
    s = case_spectrum(case)
    grid = [v for v in _breakpoints(s, "efficiency") if 1.0 / s.rank + P_REF_TOL < v <= 1.0]
    assert _swept(s, "efficiency", grid) == _per_point(s, "efficiency", grid)


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_frontier_crop_cannot_change_a_row(monkeypatch, shift):
    s = case_spectrum(300)
    grid = np.geomspace(1.0 / s.dim, 1.0, 80)[::-1].tolist()
    inner = sum(1.0 / s.dim + P_REF_TOL < v < s.max_sq for v in grid)
    want = _per_point(s, "efficiency", grid)

    steps = []
    newton = efficiency._newton_level
    monkeypatch.setattr(efficiency, "_newton_level", lambda *a: steps.append(1) or newton(*a))
    assert _swept(s, "efficiency", grid) == want
    # on the frontier's own piece, each reference is solved in one step
    assert len(steps) == inner > 20

    count = efficiency._Sweep.crop_count
    monkeypatch.setattr(efficiency._Sweep, "crop_count", lambda self, p: count(self, p) + shift)
    steps.clear()
    assert _swept(s, "efficiency", grid) == want
    # off it, the step is rejected and the loop from max a^2 runs
    assert len(steps) > 2 * inner
