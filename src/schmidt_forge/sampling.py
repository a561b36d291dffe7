"""Reproducible random Schmidt spectra.

Spectra are drawn from the measure induced by partial-tracing a Haar-random
pure state of two D-dimensional parties: normalized squared singular values
of a D x D matrix with independent standard complex Gaussian entries. Such a
state carries a Schmidt number around D/2. Sampling is seeded per spectrum
(``seed + index``) so results do not depend on how work is split.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError
from .spectrum import SchmidtSpectrum, make_spectrum

#: largest sampled dimension: a draw holds D x D complex matrices (16 * D^2
#: bytes each) and costs O(D^3), about 4 s at D = 2048 on two cores
MAX_SAMPLE_DIM = 2048


def _one_spectrum(dim: int, seed: int) -> SchmidtSpectrum:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # squared singular values via the Gram matrix; clip rounding negatives
    w = np.linalg.eigvalsh(g.conj().T @ g)
    return make_spectrum(np.clip(w, 0.0, None)[::-1], normalize=True)


def _draws(dim: int, seed: int, count: int):
    """Check :func:`sample_haar_spectrum`'s arguments; return its draws, made as they are read."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if dim > MAX_SAMPLE_DIM:
        raise OutOfRangeError(f"dim={dim} above the cap {MAX_SAMPLE_DIM}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    return (_one_spectrum(dim, seed + i) for i in range(count))


def sample_haar_spectrum(dim: int, seed: int, count: int) -> list[SchmidtSpectrum]:
    """Draw ``count`` spectra of dimension ``dim``, the i-th from seed
    ``seed + i``. The arguments are checked before anything is drawn."""
    return list(_draws(dim, seed, count))
