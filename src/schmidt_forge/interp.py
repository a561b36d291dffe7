"""Single-parameter interpolation baseline for entanglement concentration.

One knob ``xi`` slides the squared coefficients linearly from the input
spectrum (xi = 0) to the uniform, maximally entangled one (xi = 1), with the
success probability of the corresponding filter dropping accordingly. The
module exists as a regression anchor showing why the optimized planners are
worth having; nothing here is optimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRangeError, RankDeficientError
from .spectrum import Measures, SchmidtSpectrum, measures


@dataclass(frozen=True, eq=False)
class InterpPoint:
    """One point of the interpolation family."""

    xi: float
    spectrum: SchmidtSpectrum
    success_prob: float
    measures: Measures


def interpolate(s: SchmidtSpectrum, xi: float) -> InterpPoint:
    """Evaluate the interpolation family at one ``xi`` in [0, 1].

    The interpolated squared coefficients are
    ``b_m^2 = a_m^2 + (1/D - a_m^2) * xi`` and the filter succeeds with
    probability ``1 / (1 - xi + xi / (D * a_min^2))``. A spectrum with a zero
    coefficient has no valid filter for xi > 0 (the probability formula
    divides by the smallest coefficient), which is surfaced as an error rather
    than a silent zero-probability point.
    """
    xi = float(xi)
    if not 0.0 <= xi <= 1.0:
        raise OutOfRangeError(f"xi={xi!r} outside [0, 1]")
    if xi == 0.0:
        return InterpPoint(0.0, s, 1.0, measures(s))
    amin = s.min_sq
    if amin == 0.0:
        raise RankDeficientError("zero coefficient: interpolation undefined for xi > 0")
    d = s.dim
    b_sq = s.sq_coeffs + (1.0 / d - s.sq_coeffs) * xi
    # a convex combination of two valid spectra: (1/D - a^2) * xi lies between
    # 0 and 1/D - a^2, so every b^2 lies between a^2 and 1/D, and they sum to 1
    spectrum = SchmidtSpectrum._adopt(b_sq)
    w = d * amin
    ratio = xi / w
    # a subnormal D * a_min^2 overflows the ratio: multiply through by w
    p = 1.0 / (1.0 - xi + ratio) if ratio < math.inf else w / ((1.0 - xi) * w + xi)
    return InterpPoint(xi, spectrum, p, measures(spectrum))


def interp_sweep(s: SchmidtSpectrum, grid) -> list[InterpPoint]:
    """Evaluate :func:`interpolate` over a grid, preserving grid order.

    Every point's spectrum is kept, so memory grows as O(G·D); sweeps go
    point by point through :func:`schmidt_forge.sweep.sweep_table` instead.
    The function stays because the benchmark's interp child calls it, and
    its deletion waits until the benchmark stops doing so (ROADMAP item 1).
    """
    return [interpolate(s, xi) for xi in grid]
