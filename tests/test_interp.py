import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from schmidt_forge import interpolate, make_spectrum
from schmidt_forge.errors import OutOfRangeError, RankDeficientError
from schmidt_forge.interp import interp_sweep

from helpers import spectra

WORKED = [0.4, 0.3, 0.2, 0.1]


class TestInterpolate:
    def test_xi_zero_is_identity(self):
        s = make_spectrum(WORKED)
        p = interpolate(s, 0.0)
        assert p.success_prob == 1.0
        assert np.array_equal(p.spectrum.sq_coeffs, s.sq_coeffs)

    def test_xi_one_is_uniform(self):
        s = make_spectrum(WORKED)
        p = interpolate(s, 1.0)
        assert np.allclose(p.spectrum.sq_coeffs, 0.25, atol=1e-12)
        assert p.success_prob == pytest.approx(4 * s.min_sq, abs=1e-12)

    def test_worked_midpoint(self):
        s = make_spectrum(WORKED)
        p = interpolate(s, 0.5)
        assert np.allclose(
            p.spectrum.sq_coeffs, [0.325, 0.275, 0.225, 0.175], atol=1e-12
        )
        assert p.success_prob == pytest.approx(1.0 / 1.75, abs=1e-12)

    def test_xi_out_of_range(self):
        s = make_spectrum(WORKED)
        for xi in (-0.1, 1.1):
            with pytest.raises(OutOfRangeError, match=f"^xi={xi!r} outside \\[0, 1\\]$"):
                interpolate(s, xi)

    def test_rank_deficient_rejected(self):
        s = make_spectrum([0.6, 0.4, 0.0])
        with pytest.raises(RankDeficientError,
                           match="^zero coefficient: interpolation undefined for xi > 0$"):
            interpolate(s, 0.5)
        # xi = 0 needs no filter and stays legal
        assert interpolate(s, 0.0).success_prob == 1.0

    @pytest.mark.parametrize("xi, ulps", [(1.0, 3), (0.5, 6)])
    def test_subnormal_success_probability(self, xi, ulps):
        # w = D * a_min^2 = 3 * 5e-324 is subnormal, so xi / w overflows to
        # inf; the probability 1 / (1 - xi + xi / w) is w at xi = 1 and 2w / (w + 1)
        # at xi = 1/2, both a whole number of subnormal ulps
        s = make_spectrum([1.0, 5e-324, 1e-310])
        assert interpolate(s, xi).success_prob == ulps * 5e-324


class TestSweep:
    def test_uniform_state_is_fixed_point(self):
        s = make_spectrum([0.25] * 4)
        points = interp_sweep(s, [0.0, 1.0])
        assert [p.success_prob for p in points] == [1.0, 1.0]
        for p in points:
            assert np.allclose(p.spectrum.sq_coeffs, 0.25, atol=1e-15)

    def test_worked_probability_sequence(self):
        s = make_spectrum(WORKED)
        probs = [p.success_prob for p in interp_sweep(s, [0.0, 0.5, 1.0])]
        assert probs == pytest.approx([1.0, 1.0 / 1.75, 0.4], abs=1e-12)

    def test_empty_grid(self):
        assert interp_sweep(make_spectrum(WORKED), []) == []


class TestProperties:
    @given(spectra(max_dim=12), st.floats(0.0, 1.0))
    def test_normalized_everywhere(self, s, xi):
        p = interpolate(s, xi)
        assert abs(float(np.sum(p.spectrum.sq_coeffs)) - 1.0) <= 1e-12
        # closed-form agreement, coefficient by coefficient
        expected = s.sq_coeffs + (1.0 / s.dim - s.sq_coeffs) * xi
        assert np.allclose(p.spectrum.sq_coeffs, expected, atol=1e-12)

    @given(spectra(max_dim=12))
    def test_probability_decreasing_unless_uniform(self, s):
        grid = np.linspace(0.0, 1.0, 21)
        probs = np.array([p.success_prob for p in interp_sweep(s, grid)])
        if s.min_sq < 1.0 / s.dim - 1e-12:
            assert np.all(np.diff(probs) < 0.0)
        else:
            assert np.allclose(probs, 1.0, atol=1e-9)

    @given(spectra(max_dim=12))
    def test_schmidt_number_nondecreasing(self, s):
        grid = np.linspace(0.0, 1.0, 21)
        ks = np.array([p.measures.schmidt_number for p in interp_sweep(s, grid)])
        assert np.all(np.diff(ks) >= -1e-9)
