"""Schmidt spectra and the entanglement measures derived from them.

A bipartite pure qudit state is represented here only by the squares of its
Schmidt coefficients; the Schmidt basis kets are implicit in index position.
``make_spectrum`` is the one way in for outside values: the records take no
constructor arguments. All types are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSpectrumError

#: user-supplied coefficients may be off by this much before ingestion balks
INGEST_TOL = 1e-9


def _checked(values, normalize: bool) -> tuple[np.ndarray, float, float, float]:
    """A caller's squared coefficients as a float64 array, their sum, and
    their smallest and largest entries, which the check reduces anyway.

    This is the one check of values from outside the package, made in this
    order: nonempty, finite, nonnegative, a positive sum, within
    ``INGEST_TOL`` of 1 unless ``normalize`` is set, and one dimension of
    size D >= 2. The array may be the caller's: only its quotient is stored.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidSpectrumError("no coefficients given")
    # a NaN propagates through both the min and the max, so it fails the first test
    lo, hi = np.minimum.reduce(arr, axis=None), np.maximum.reduce(arr, axis=None)
    if not -np.inf < lo <= hi < np.inf:
        raise InvalidSpectrumError("coefficients must be finite")
    if lo < 0.0:
        raise InvalidSpectrumError("coefficients must be nonnegative")
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(arr, axis=None))
    if normalize and hi > 0.0 and not sys.float_info.min <= total < math.inf:
        # the sum overflows, or is subnormal and has lost digits: divide by
        # the largest entry first
        arr, lo, hi = arr / hi, lo / hi, 1.0
        total = float(np.add.reduce(arr, axis=None))
    if total <= 0.0:
        raise InvalidSpectrumError("all-zero coefficient list cannot be normalized")
    if not normalize and abs(total - 1.0) > INGEST_TOL:
        raise InvalidSpectrumError(
            f"squared coefficients sum to {total!r}; pass normalize=True to rescale")
    if arr.ndim != 1:
        raise InvalidSpectrumError(f"coefficients must be a 1-D array, not shape {arr.shape}")
    if arr.size < 2:
        raise InvalidSpectrumError("a bipartite spectrum needs dim >= 2")
    return arr, total, float(lo), float(hi)


@dataclass(frozen=True, eq=False, init=False)
class SchmidtSpectrum:
    """Squared Schmidt coefficients of a D-dimensional pure bipartite state;
    D is their count. Built by ``make_spectrum`` or by the package, never
    from a caller's array."""

    sq_coeffs: np.ndarray

    @classmethod
    def _adopt(cls, sq_coeffs: np.ndarray) -> SchmidtSpectrum:
        """A spectrum of values this package has just made, stored as given:
        nothing is copied or checked, and ``sq_coeffs`` is made read-only in
        place. Each caller says why its values are valid; a spectrum is
        checked once, in ``make_spectrum``."""
        s = object.__new__(cls)
        sq_coeffs.setflags(write=False)
        object.__setattr__(s, "sq_coeffs", sq_coeffs)
        return s

    def _seed(self, lo: float, hi: float) -> SchmidtSpectrum:
        """Cache the stored extremes where ``min_sq`` and ``max_sq`` would. A zero
        minimum is left to ``min_sq``: the array's layout picks its sign."""
        if lo > 0.0:
            self.__dict__["min_sq"] = lo
        self.__dict__["max_sq"] = hi
        return self

    @property
    def dim(self) -> int:
        return self.sq_coeffs.size

    @cached_property
    def min_sq(self) -> float:
        return float(np.minimum.reduce(self.sq_coeffs))

    @cached_property
    def max_sq(self) -> float:
        return float(np.maximum.reduce(self.sq_coeffs))

    @cached_property
    def total(self) -> float:
        """Sum of the squared coefficients: 1 up to rounding."""
        return float(np.add.reduce(self.sq_coeffs))

    @cached_property
    def rank(self) -> int:
        """Number of strictly positive coefficients."""
        return int(np.count_nonzero(self.sq_coeffs))


@dataclass(frozen=True)
class Measures:
    """Entanglement measures of one spectrum.

    ``schmidt_number`` is exactly ``1/purity`` and ``concurrence`` is the
    square root of ``concurrence_sq``; all four are views of one quantity.
    """

    concurrence: float
    concurrence_sq: float
    schmidt_number: float
    purity: float


def make_spectrum(values, normalize: bool = False) -> SchmidtSpectrum:
    """Validate and build a spectrum from raw squared coefficients a_m^2.

    With ``normalize`` unset the values must already sum to 1 within
    ``INGEST_TOL``; either way the stored spectrum is rescaled to unit sum so
    downstream code sees exact normalization.

    The spectrum carries the extremes its check computed: a correctly rounded
    division by the sum is monotone, so min(a / total) is min(a) / total
    exactly, and likewise the max.
    """
    arr, total, lo, hi = _checked(values, normalize)
    # the values are finite and nonnegative with a positive finite sum, so
    # each ratio lies in [0, 1] and the ratios sum to 1 up to rounding
    return SchmidtSpectrum._adopt(arr / total)._seed(lo / total, hi / total)


def measures(s: SchmidtSpectrum) -> Measures:
    """Purity, Schmidt number and I-Concurrence of a spectrum."""
    sq = s.sq_coeffs
    purity = float(sq.dot(sq))
    d = s.dim
    c_sq = (d / (d - 1.0)) * (1.0 - purity)
    c_sq = min(max(c_sq, 0.0), 1.0)  # clip float residue at the range ends
    return Measures(
        concurrence=math.sqrt(c_sq),
        concurrence_sq=c_sq,
        schmidt_number=1.0 / purity,
        purity=purity,
    )


def frontier(s: SchmidtSpectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending a_n^2, the weight beta_n below the top n, and the breakpoints
    p_n = beta_n + n * a_n^2 (the success probability of the level a_n^2), for
    n = 1..D: every optimal plan crops the top n at a level in [a_{n+1}^2, a_n^2].

    It costs a sort, more than one plan's solve, so only sweeps and oracles
    build it. An efficiency sweep keeps a_n^2 and r_n = a_n^2 / p_n, which
    decreases with n: the optimum at P_ref crops the n with r_n >= P_ref, so
    each point's level search starts on the crop of that n.
    """
    a = np.sort(s.sq_coeffs)[::-1]
    beta = np.append(np.cumsum(a[::-1])[::-1][1:], 0.0)
    return a, beta, beta + np.arange(1, a.size + 1) * a


def sort_descending(s: SchmidtSpectrum) -> tuple[SchmidtSpectrum, tuple[int, ...]]:
    """Sort coefficients in nonincreasing order.

    Returns the sorted spectrum and a permutation mapping sorted index to
    original index. The sort is stable: ties keep their original order, so
    repeated coefficients always produce the same permutation. No planner
    sorts; the function stays because the benchmark traces it by name, and
    its deletion waits until the benchmark stops doing so (ROADMAP item 1).
    """
    perm = np.argsort(-s.sq_coeffs, kind="stable")
    # a permutation of a valid spectrum is valid
    sorted_spectrum = SchmidtSpectrum._adopt(s.sq_coeffs[perm])
    return sorted_spectrum, tuple(int(i) for i in perm)
