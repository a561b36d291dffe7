import numpy as np
import pytest

from schmidt_forge import SampleSpec, measures, sample_haar_spectrum
from schmidt_forge.errors import DimensionTooLargeError
from schmidt_forge.sampling import MAX_SAMPLE_DIM


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(dim=1, seed=0, count=1)
        with pytest.raises(ValueError):
            SampleSpec(dim=4, seed=0, count=0)
        with pytest.raises(ValueError):
            SampleSpec(dim=4, seed=-1, count=1)
        with pytest.raises(ValueError):
            SampleSpec(dim=4, seed=2**64, count=1)

    def test_dimension_cap(self):
        # the spec is refused before anything is drawn or allocated
        assert SampleSpec(dim=MAX_SAMPLE_DIM, seed=0, count=1).dim == MAX_SAMPLE_DIM
        with pytest.raises(DimensionTooLargeError):
            SampleSpec(dim=MAX_SAMPLE_DIM + 1, seed=0, count=1)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_haar_spectrum(SampleSpec(dim=2, seed=123, count=1))[0]
        b = sample_haar_spectrum(SampleSpec(dim=2, seed=123, count=1))[0]
        assert np.array_equal(a.sq_coeffs, b.sq_coeffs)

    def test_seeds_differ(self):
        a = sample_haar_spectrum(SampleSpec(dim=4, seed=1, count=1))[0]
        b = sample_haar_spectrum(SampleSpec(dim=4, seed=2, count=1))[0]
        assert not np.array_equal(a.sq_coeffs, b.sq_coeffs)

    def test_per_index_seeding(self):
        # batch layout cannot change what each index produces
        long = sample_haar_spectrum(SampleSpec(dim=4, seed=9, count=5))
        short = sample_haar_spectrum(SampleSpec(dim=4, seed=9, count=3))
        solo = sample_haar_spectrum(SampleSpec(dim=4, seed=9 + 4, count=1))[0]
        for i in range(3):
            assert np.array_equal(long[i].sq_coeffs, short[i].sq_coeffs)
        assert np.array_equal(long[4].sq_coeffs, solo.sq_coeffs)

    def test_all_valid_spectra(self):
        for s in sample_haar_spectrum(SampleSpec(dim=4, seed=5, count=500)):
            assert abs(float(np.sum(s.sq_coeffs)) - 1.0) <= 1e-12
            assert np.all(s.sq_coeffs >= 0.0)
            assert np.all(s.sq_coeffs <= 1.0)

    def test_descending_order(self):
        s = sample_haar_spectrum(SampleSpec(dim=8, seed=5, count=1))[0]
        assert np.all(np.diff(s.sq_coeffs) <= 0)


class TestHaarSignature:
    def test_mean_purity_matches_large_dimension_limit(self):
        # induced measure puts the mean purity at ~2/D
        d = 1024
        specs = sample_haar_spectrum(SampleSpec(dim=d, seed=7, count=6))
        mean_purity = np.mean([measures(s).purity for s in specs])
        assert abs(mean_purity - 2.0 / d) <= 0.1 * (2.0 / d)

    def test_schmidt_number_half_dimension(self):
        d = 256
        specs = sample_haar_spectrum(SampleSpec(dim=d, seed=21, count=20))
        ks = [measures(s).schmidt_number for s in specs]
        assert d / 2 * 0.9 <= np.mean(ks) <= d / 2 * 1.1
