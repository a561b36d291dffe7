"""Seeded inputs for the benchmark workloads.

Spectra are Dirichlet(1) draws (uniform on the probability simplex), made
from ``numpy.random.default_rng`` so a seed gives the same bytes everywhere.
References are placed by water level, not picked blindly:

* ``midgap_level`` puts a level in the middle of the widest gap between
  neighbouring coefficients near a target rank. Seeded plans use it, so no
  seeded input lands within the program's absolute feasibility tolerance
  (1e-12) of a coefficient, and whether an operation fails never depends on
  the seed.
* ``fault_level`` puts a level 5e-13 above one coefficient, inside that
  tolerance. Only the fixed, seed-independent fault inputs use it; the
  program then cuts one coefficient too many, every time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: seed of the spectrum behind the fixed fault inputs; never the run's seed
FAULT_SEED = 20230410
#: distance of a fault level above the coefficient below it
FAULT_OFFSET = 5e-13
#: neighbouring gaps searched on each side of a target rank
GAP_WINDOW = 256


def dirichlet(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.dirichlet(np.ones(dim))


def write_spectrum(a2: np.ndarray, path: Path) -> None:
    """Write the spectrum JSON the program reads."""
    body = ", ".join(map(repr, a2.tolist()))
    path.write_text(f'{{"dim": {a2.size}, "squared_coefficients": [{body}]}}\n',
                    encoding="utf-8")


class Levels:
    """Water levels and the references that produce them on one spectrum."""

    def __init__(self, a2: np.ndarray):
        self.asc = np.sort(a2)
        self.csum = np.concatenate(([0.0], np.cumsum(self.asc)))

    def sum_min(self, level):
        """sum_m min(a_m^2, level), vectorized over levels."""
        level = np.asarray(level, dtype=float)
        below = np.searchsorted(self.asc, level, side="right")
        return self.csum[below] + level * (self.asc.size - below)

    def rank_of_pref(self, p_ref: float) -> int:
        """Number of coefficients above the efficiency level at p_ref."""
        lo, hi = float(self.asc[0]), float(self.asc[-1])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if p_ref * float(self.sum_min(mid)) >= mid:
                lo = mid
            else:
                hi = mid
        return int(self.asc.size - np.searchsorted(self.asc, lo, side="right"))

    def rank_of_pfix(self, p_fix: float) -> int:
        """Number of coefficients above the fixed-probability level at p_fix."""
        lo, hi = 0.0, float(self.asc[-1])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.sum_min(mid)) < p_fix:
                lo = mid
            else:
                hi = mid
        return int(self.asc.size - np.searchsorted(self.asc, hi, side="right"))

    def _gap_index(self, rank: int, min_width: float = 0.0) -> int:
        """Index i of the widest gap asc[i]..asc[i+1] near ``rank``
        coefficients from the top; gaps no wider than ``min_width`` lose."""
        d = self.asc.size
        centre = min(max(d - 1 - rank, 0), d - 2)
        # stay closer to the target than to either end of the spectrum
        window = min(GAP_WINDOW, max(1, min(centre, d - 2 - centre) // 4))
        lo, hi = max(centre - window, 0), min(centre + window, d - 2)
        gaps = self.asc[lo + 1:hi + 2] - self.asc[lo:hi + 1]
        i = lo + int(np.argmax(gaps))
        if gaps[i - lo] <= min_width:
            raise ValueError(f"no gap wider than {min_width} near rank {rank}")
        return i

    def midgap_level(self, rank: int) -> float:
        i = self._gap_index(rank)
        return 0.5 * (float(self.asc[i]) + float(self.asc[i + 1]))

    def fault_level(self, rank: int) -> float:
        i = self._gap_index(rank, min_width=4 * FAULT_OFFSET)
        return float(self.asc[i]) + FAULT_OFFSET

    def pref_for(self, level: float) -> float:
        """The reference purity whose efficiency water level is ``level``."""
        return level / float(self.sum_min(level))

    def pfix_for(self, level: float) -> float:
        """The success probability whose fixed-probability level is ``level``."""
        return float(self.sum_min(level))


def efficiency_grid(lv: Levels, points: int) -> list[float]:
    """Reference purities from 1/D to 1, log-spaced, interior points moved
    to mid-gap levels. The ends are exact: standard concentration and the
    identity plan."""
    d = lv.asc.size
    grid = [1.0 / d]
    for p in np.geomspace(1.0 / d, 1.0, points)[1:-1]:
        if p >= lv.asc[-1]:
            grid.append(float(p))  # identity plan: no level to place
        else:
            grid.append(lv.pref_for(lv.midgap_level(lv.rank_of_pref(p))))
    return sorted(grid) + [1.0]


def fixed_grid(lv: Levels, points: int) -> list[float]:
    """Success probabilities from about 1/D to 1, log-spaced, moved to
    mid-gap levels; the top end p_fix = 1 keeps the state."""
    d = lv.asc.size
    grid = [
        lv.pfix_for(lv.midgap_level(lv.rank_of_pfix(p)))
        for p in np.geomspace(1.0 / d, 1.0, points)[:-1]
    ]
    return sorted(grid) + [1.0]
