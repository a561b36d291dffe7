"""Reproducible random Schmidt spectra.

Spectra are drawn from the measure induced by partial-tracing a Haar-random
pure state of two D-dimensional parties: normalized squared singular values
of a D x D matrix with independent standard complex Gaussian entries. Such a
state carries a Schmidt number around D/2. Sampling is seeded per spectrum
(``seed + index``) so results do not depend on how work is split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError
from .spectrum import SchmidtSpectrum

#: largest sampled dimension: a draw holds D x D complex matrices (16 * D^2
#: bytes each) and costs O(D^3), about 4 s at D = 2048 on two cores
MAX_SAMPLE_DIM = 2048


@dataclass(frozen=True)
class SampleSpec:
    """What to sample: dimension, base seed, number of spectra."""

    dim: int
    seed: int
    count: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.dim > MAX_SAMPLE_DIM:
            raise DimensionTooLargeError(f"dim={self.dim} above the cap {MAX_SAMPLE_DIM}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


def _one_spectrum(dim: int, seed: int) -> SchmidtSpectrum:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # squared singular values via the Gram matrix; clip rounding negatives
    w = np.linalg.eigvalsh(g.conj().T @ g)
    w = np.clip(w, 0.0, None)[::-1]
    w /= w.sum()
    return SchmidtSpectrum(dim, w)


def sample_haar_spectrum(spec: SampleSpec) -> list[SchmidtSpectrum]:
    """Draw ``spec.count`` spectra, deterministically in ``spec.seed``."""
    return [_one_spectrum(spec.dim, spec.seed + i) for i in range(spec.count)]
