import re

import numpy as np
import pytest

from schmidt_forge import measures, sample_haar_spectrum, sampling
from schmidt_forge.errors import OutOfRangeError
from schmidt_forge.sampling import MAX_SAMPLE_DIM

#: (dim, seed, count) the sampler refuses, with the error and its message
BAD_ARGUMENTS = [
    ((1, 0, 1), ValueError, "dim must be >= 2"),
    ((MAX_SAMPLE_DIM + 1, 0, 1), OutOfRangeError,
     f"dim={MAX_SAMPLE_DIM + 1} above the cap {MAX_SAMPLE_DIM}"),
    ((4, 0, 0), ValueError, "count must be >= 1"),
    ((4, -1, 1), ValueError, "seed must fit an unsigned 64-bit integer"),
    ((4, 2**64, 1), ValueError, "seed must fit an unsigned 64-bit integer"),
]


@pytest.fixture
def draws(monkeypatch):
    """The (dim, seed) of each spectrum the sampler would draw; none is drawn."""
    calls = []
    monkeypatch.setattr(sampling, "_one_spectrum", lambda dim, seed: calls.append((dim, seed)))
    return calls


class TestSampleSpec:
    """What to sample, dim, seed and count, is checked before anything is drawn."""

    def test_validation(self, draws):
        for args, error, message in BAD_ARGUMENTS:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                sample_haar_spectrum(*args)
        assert draws == []

    def test_dimension_cap(self, draws):
        # the cap itself is accepted; the spy stands in for a 4 s draw
        assert len(sample_haar_spectrum(MAX_SAMPLE_DIM, 0, 1)) == 1
        assert draws == [(MAX_SAMPLE_DIM, 0)]


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_haar_spectrum(2, 123, 1)[0]
        b = sample_haar_spectrum(2, 123, 1)[0]
        assert np.array_equal(a.sq_coeffs, b.sq_coeffs)

    def test_seeds_differ(self):
        a = sample_haar_spectrum(4, 1, 1)[0]
        b = sample_haar_spectrum(4, 2, 1)[0]
        assert not np.array_equal(a.sq_coeffs, b.sq_coeffs)

    def test_per_index_seeding(self):
        # batch layout cannot change what each index produces
        long = sample_haar_spectrum(4, 9, 5)
        short = sample_haar_spectrum(4, 9, 3)
        solo = sample_haar_spectrum(4, 9 + 4, 1)[0]
        for i in range(3):
            assert np.array_equal(long[i].sq_coeffs, short[i].sq_coeffs)
        assert np.array_equal(long[4].sq_coeffs, solo.sq_coeffs)

    def test_all_valid_spectra(self):
        for s in sample_haar_spectrum(4, 5, 500):
            assert abs(float(np.sum(s.sq_coeffs)) - 1.0) <= 1e-12
            assert np.all(s.sq_coeffs >= 0.0)
            assert np.all(s.sq_coeffs <= 1.0)

    def test_descending_order(self):
        s = sample_haar_spectrum(8, 5, 1)[0]
        assert np.all(np.diff(s.sq_coeffs) <= 0)


class TestHaarSignature:
    def test_mean_purity_matches_large_dimension_limit(self):
        # induced measure puts the mean purity at ~2/D
        d = 1024
        specs = sample_haar_spectrum(d, 7, 6)
        mean_purity = np.mean([measures(s).purity for s in specs])
        assert abs(mean_purity - 2.0 / d) <= 0.1 * (2.0 / d)

    def test_schmidt_number_half_dimension(self):
        d = 256
        specs = sample_haar_spectrum(d, 21, 20)
        ks = [measures(s).schmidt_number for s in specs]
        assert d / 2 * 0.9 <= np.mean(ks) <= d / 2 * 1.1
