"""Schmidt spectra and the entanglement measures derived from them.

A bipartite pure qudit state is represented here only by the squares of its
Schmidt coefficients; the Schmidt basis kets are implicit in index position.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidSpectrumError,
    NegativeEntryError,
    NonFiniteEntryError,
    NotNormalizedError,
)

#: stored spectra must sum to one within this
NORM_TOL = 1e-12
#: user-supplied coefficients may be off by this much before ingestion balks
INGEST_TOL = 1e-9


class _Owned:
    """A float64 array this package has just made, handed to a constructor
    that stores it read-only without a copy.

    A spectrum is checked once, where it enters the package. Its derived
    spectra (a planner's post spectrum, standard concentration's 1/D, an
    interpolation, ``make_spectrum``'s checked input over its sum) are valid
    by construction, so a spectrum built from an ``_Owned`` array skips the
    value checks; each site says why its values are valid.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_array(values) -> np.ndarray:
    """A read-only float64 array of ``values``.

    Only an :class:`_Owned` array is kept as it is; anything else is copied,
    so no array of a caller, whatever its flags, can change what is stored.
    """
    a = values.array if type(values) is _Owned else np.array(values, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Squared Schmidt coefficients of a D-dimensional pure bipartite state."""

    dim: int
    sq_coeffs: np.ndarray

    def __post_init__(self):
        derived = type(self.sq_coeffs) is _Owned
        coeffs = _frozen_array(self.sq_coeffs)
        object.__setattr__(self, "sq_coeffs", coeffs)
        if coeffs.ndim != 1 or self.dim != coeffs.size:
            raise InvalidSpectrumError(
                f"dim={self.dim} does not match {coeffs.size} coefficients"
            )
        if self.dim < 2:
            raise InvalidSpectrumError("a bipartite spectrum needs dim >= 2")
        if derived:
            return
        # a NaN propagates through both the min and the max, so it fails the first test
        lo, hi = np.minimum.reduce(coeffs), np.maximum.reduce(coeffs)
        if not -np.inf < lo <= hi < np.inf:
            raise NonFiniteEntryError("squared coefficients must be finite")
        if lo < 0.0:
            raise NegativeEntryError("squared coefficients must be nonnegative")
        if hi > 1.0 + NORM_TOL:
            raise InvalidSpectrumError("a squared coefficient exceeds 1")
        total = float(np.add.reduce(coeffs))
        if abs(total - 1.0) > NORM_TOL:
            raise NotNormalizedError(
                f"squared coefficients sum to {total!r}, not 1 within {NORM_TOL}"
            )

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


def make_spectrum(values, input_kind: str = "squared", normalize: bool = False) -> SchmidtSpectrum:
    """Validate and build a spectrum from raw coefficients.

    ``input_kind`` is ``"squared"`` (values are a_m^2) or ``"amplitudes"``
    (values are a_m and get squared first). With ``normalize`` unset the
    squared values must already sum to 1 within ``INGEST_TOL``; either way the
    stored spectrum is rescaled to unit sum so downstream code sees exact
    normalization.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInputError("no coefficients given")
    # a NaN propagates through both the min and the max, so it fails the first test
    lo, hi = np.minimum.reduce(arr, axis=None), np.maximum.reduce(arr, axis=None)
    if not -np.inf < lo <= hi < np.inf:
        raise NonFiniteEntryError("coefficients must be finite")
    if lo < 0.0:
        raise NegativeEntryError("coefficients must be nonnegative")
    if input_kind not in ("squared", "amplitudes"):
        raise ValueError(f"unknown input_kind {input_kind!r}")
    with np.errstate(over="ignore"):
        squares = arr * arr if input_kind == "amplitudes" else arr
        total = float(np.add.reduce(squares, axis=None))
    if normalize and hi > 0.0 and not sys.float_info.min <= total < math.inf:
        # the squares or their sum overflow, or underflow to a subnormal sum
        # that has lost digits or to 0: divide by the largest entry first
        arr = arr / hi
        squares = arr * arr if input_kind == "amplitudes" else arr
        total = float(np.add.reduce(squares, axis=None))
    if total <= 0.0:
        raise NotNormalizedError("all-zero coefficient list cannot be normalized")
    if not normalize and abs(total - 1.0) > INGEST_TOL:
        raise NotNormalizedError(
            f"squared coefficients sum to {total!r}; pass normalize=True to rescale"
        )
    # the squares are finite and nonnegative with a positive finite sum, so
    # each ratio lies in [0, 1] and the ratios sum to 1 up to rounding
    return SchmidtSpectrum(int(squares.size), _Owned(squares / total))


def measures(s: SchmidtSpectrum) -> Measures:
    """Purity, Schmidt number and I-Concurrence of a spectrum."""
    sq = s.sq_coeffs
    purity = float(np.dot(sq, sq))
    d = s.dim
    c_sq = (d / (d - 1.0)) * (1.0 - purity)
    c_sq = min(max(c_sq, 0.0), 1.0)  # clip float residue at the range ends
    return Measures(
        concurrence=math.sqrt(c_sq),
        concurrence_sq=c_sq,
        schmidt_number=1.0 / purity,
        purity=purity,
    )


def sort_descending(s: SchmidtSpectrum) -> tuple[SchmidtSpectrum, tuple[int, ...]]:
    """Sort coefficients in nonincreasing order.

    Returns the sorted spectrum and a permutation mapping sorted index to
    original index. The sort is stable: ties keep their original order, so
    repeated coefficients always produce the same permutation. No planner
    sorts; the function stays because the benchmark traces it by name, and
    its deletion waits until the benchmark stops doing so (ROADMAP item 1).
    """
    perm = np.argsort(-s.sq_coeffs, kind="stable")
    sorted_spectrum = SchmidtSpectrum(s.dim, s.sq_coeffs[perm])
    return sorted_spectrum, tuple(int(i) for i in perm)
