import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from schmidt_forge import (
    FixedProbRequest,
    ReferenceLevel,
    interpolate,
    make_spectrum,
    measures,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sort_descending,
)
from schmidt_forge.efficiency import ConcentrationPlan
from schmidt_forge.errors import (
    EmptyInputError,
    InvalidSpectrumError,
    NegativeEntryError,
    NonFiniteEntryError,
    NotNormalizedError,
)
from schmidt_forge.spectrum import SchmidtSpectrum

from helpers import spectra


class TestMakeSpectrum:
    def test_identity_case(self):
        s = make_spectrum([0.5, 0.5])
        assert s.dim == 2
        assert np.array_equal(s.sq_coeffs, [0.5, 0.5])

    def test_normalization_forces_uniform(self):
        s = make_spectrum([1, 1, 1, 1], normalize=True)
        assert np.array_equal(s.sq_coeffs, [0.25, 0.25, 0.25, 0.25])

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_spectrum([0.4, 0.3, 0.2, 0.2])

    def test_amplitudes_are_squared(self):
        s = make_spectrum([0.6, 0.8], input_kind="amplitudes")
        assert np.allclose(s.sq_coeffs, [0.36, 0.64], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            make_spectrum([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            make_spectrum([1.1, -0.1])

    def test_all_zero_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_spectrum([0.0, 0.0], normalize=True)

    def test_single_coefficient_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            make_spectrum([1.0])

    def test_near_normalized_accepted_and_snapped(self):
        s = make_spectrum([0.5, 0.5 + 3e-10])
        assert abs(float(np.sum(s.sq_coeffs)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteEntryError):
            make_spectrum([bad, 0.5, 0.5])
        with pytest.raises(NonFiniteEntryError):
            make_spectrum([bad, 0.5, 0.5], normalize=True)
        with pytest.raises(NonFiniteEntryError):
            SchmidtSpectrum(3, np.array([bad, 0.5, 0.5]))

    @pytest.mark.parametrize("values, input_kind", [
        ([1e308, 1e308], "squared"),
        ([1e200, 1e200], "amplitudes"),
    ])
    def test_overflowing_input_is_normalized(self, values, input_kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = make_spectrum(values, input_kind, normalize=True)
            with pytest.raises(NotNormalizedError, match="sum to inf"):
                make_spectrum(values, input_kind)
        assert s.sq_coeffs.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("values, input_kind, want", [
        ([1e-200, 1e-200], "amplitudes", [0.5, 0.5]),  # the squares underflow to 0
        ([1e-161, 2e-161], "amplitudes", [0.2, 0.8]),  # their sum is subnormal
        ([5e-324, 5e-324], "squared", [0.5, 0.5]),
    ])
    def test_underflowing_input_is_normalized(self, values, input_kind, want):
        assert make_spectrum(values, input_kind, normalize=True).sq_coeffs.tolist() == want

    def test_zero_coefficients_admitted(self):
        s = make_spectrum([0.7, 0.3, 0.0])
        assert s.rank == 2
        assert s.min_sq == 0.0


class TestMeasures:
    def test_maximally_entangled(self):
        m = measures(make_spectrum([0.25] * 4))
        assert m.purity == pytest.approx(0.25, abs=1e-15)
        assert m.schmidt_number == pytest.approx(4.0, abs=1e-12)
        assert m.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        m = measures(make_spectrum([1.0, 0.0, 0.0, 0.0]))
        assert m.purity == 1.0
        assert m.schmidt_number == 1.0
        assert m.concurrence == 0.0

    def test_worked_example(self):
        m = measures(make_spectrum([0.4, 0.3, 0.2, 0.1]))
        assert m.purity == pytest.approx(0.30, abs=1e-12)
        assert m.schmidt_number == pytest.approx(10.0 / 3.0, abs=1e-12)
        assert m.concurrence_sq == pytest.approx(14.0 / 15.0, abs=1e-12)

    @given(spectra(max_dim=16))
    def test_ranges(self, s):
        m = measures(s)
        d = s.dim
        assert 1.0 / d - 1e-12 <= m.purity <= 1.0 + 1e-12
        assert 1.0 - 1e-9 <= m.schmidt_number <= d + 1e-9
        assert 0.0 <= m.concurrence <= 1.0

    @given(spectra(max_dim=16))
    def test_views_consistent(self, s):
        m = measures(s)
        assert m.schmidt_number == 1.0 / m.purity
        assert m.concurrence_sq == pytest.approx(
            (s.dim / (s.dim - 1.0)) * (1.0 - m.purity), abs=1e-12
        )
        assert m.concurrence == pytest.approx(np.sqrt(m.concurrence_sq), abs=1e-15)


class TestSortDescending:
    def test_worked_permutation(self):
        s = make_spectrum([0.1, 0.4, 0.2, 0.3])
        sorted_s, perm = sort_descending(s)
        assert np.array_equal(sorted_s.sq_coeffs, [0.4, 0.3, 0.2, 0.1])
        assert perm == (1, 3, 2, 0)

    def test_already_sorted_identity(self):
        s = make_spectrum([0.4, 0.3, 0.2, 0.1])
        _, perm = sort_descending(s)
        assert perm == (0, 1, 2, 3)

    def test_ties_stable(self):
        s = make_spectrum([0.25] * 4)
        sorted_s, perm = sort_descending(s)
        assert perm == (0, 1, 2, 3)
        assert np.array_equal(sorted_s.sq_coeffs, s.sq_coeffs)

    @given(spectra(max_dim=12))
    def test_round_trip(self, s):
        sorted_s, perm = sort_descending(s)
        assert np.all(np.diff(sorted_s.sq_coeffs) <= 0)

    @given(spectra(max_dim=12))
    def test_measures_permutation_invariant(self, s):
        sorted_s, _ = sort_descending(s)
        a, b = measures(sorted_s), measures(s)
        assert a.purity == pytest.approx(b.purity, abs=1e-12)
        assert a.schmidt_number == pytest.approx(b.schmidt_number, abs=1e-9)
        assert a.concurrence_sq == pytest.approx(b.concurrence_sq, abs=1e-12)


NAN, INF = float("nan"), float("inf")


class TestErrorPrecedence:
    """The first failed check wins, in the order non-finite, negative,
    above 1, not normalized, whatever else is wrong with the input."""

    @pytest.mark.parametrize("values, error, message", [
        ([NAN, -0.5, 1.5], NonFiniteEntryError, "squared coefficients must be finite"),
        ([-0.5, 1.5, NAN], NonFiniteEntryError, "squared coefficients must be finite"),
        ([0.5, NAN, 0.5], NonFiniteEntryError, "squared coefficients must be finite"),
        ([INF, -1.0], NonFiniteEntryError, "squared coefficients must be finite"),
        ([2.0, -INF], NonFiniteEntryError, "squared coefficients must be finite"),
        ([1.5, -0.5], NegativeEntryError, "squared coefficients must be nonnegative"),
        ([-0.1, 0.5], NegativeEntryError, "squared coefficients must be nonnegative"),
        ([1.5, 0.5], InvalidSpectrumError, "a squared coefficient exceeds 1"),
        ([0.3, 0.3], NotNormalizedError,
         "squared coefficients sum to 0.6, not 1 within 1e-12"),
    ])
    def test_stored_spectrum(self, values, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SchmidtSpectrum(len(values), np.array(values))

    @pytest.mark.parametrize("values, error, message", [
        ([NAN, -0.5, 1.5], NonFiniteEntryError, "coefficients must be finite"),
        ([-0.5, 1.5, NAN], NonFiniteEntryError, "coefficients must be finite"),
        ([INF, -1.0], NonFiniteEntryError, "coefficients must be finite"),
        ([2.0, -INF], NonFiniteEntryError, "coefficients must be finite"),
        ([1.5, -0.5], NegativeEntryError, "coefficients must be nonnegative"),
        ([-0.1, 0.5], NegativeEntryError, "coefficients must be nonnegative"),
    ])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("input_kind", ["squared", "amplitudes"])
    def test_ingest(self, values, error, message, normalize, input_kind):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make_spectrum(values, input_kind=input_kind, normalize=normalize)

    @pytest.mark.parametrize("values, total", [([1.5, 0.0], "1.5"), ([0.3, 0.3], "0.6")])
    def test_ingest_bad_sum(self, values, total):
        message = f"squared coefficients sum to {total}; pass normalize=True to rescale"
        with pytest.raises(NotNormalizedError, match=f"^{re.escape(message)}$"):
            make_spectrum(values)


class TestImmutability:
    def test_coefficients_read_only(self):
        s = make_spectrum([0.5, 0.5])
        with pytest.raises(ValueError):
            s.sq_coeffs[0] = 0.9

    def test_caller_arrays_are_copied(self):
        values = np.array([0.25, 0.75])
        view = values[:]
        view.setflags(write=False)
        # the owner of a read-only array can make it writeable again
        owner = values.copy()
        owner.setflags(write=False)
        built = [SchmidtSpectrum(2, values), SchmidtSpectrum(2, view), make_spectrum(values),
                 SchmidtSpectrum(2, owner)]
        plan = ConcentrationPlan(y=owner, x=owner, n_opt=0, crop_level=0.75)
        owner.setflags(write=True)
        values[:] = owner[:] = [0.5, 0.5]
        assert values.flags.writeable
        for stored in [s.sq_coeffs for s in built] + [plan.y, plan.x]:
            assert stored.tolist() == [0.25, 0.75]
            assert not stored.flags.writeable

    def test_stored_normalization_enforced(self):
        with pytest.raises(NotNormalizedError):
            SchmidtSpectrum(2, np.array([0.5, 0.5 + 1e-9]))


QUARTERS = [0.5, 0.25, 0.25]


class TestDerivedSpectra:
    """A derived spectrum is stored without the value checks; rebuilt from a
    copy of its values, which takes them all, it must still be accepted."""

    @given(spectra(max_dim=10, zeros=True), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(make_spectrum([1.0, 5e-324, 1e-310, 0.0]), 0.5, 0.5)  # subnormal coefficients
    @example(make_spectrum([1.0, 5e-324, 1e-310]), 0.5, 0.5)
    @example(make_spectrum(QUARTERS), 0.4, float(np.nextafter(1.0, 0.0)))  # sum a^2 - 1 ulp
    @example(make_spectrum(QUARTERS), 0.4, 1e-320)
    @example(make_spectrum(QUARTERS), 0.4, 3 * 5e-324)  # p_fix = D * 5e-324
    @example(make_spectrum(QUARTERS), 1 / 3 + 2**-52, 0.5)  # P_ref = 1/D + 2^-52
    @example(make_spectrum(QUARTERS), 0.5, 0.5)  # P_ref = max a^2
    @example(make_spectrum([0.6, 0.0, 0.4]), 0.5, 0.5)  # P_ref = 1/rank
    def test_planner_and_interpolation_spectra(self, s, p_ref, p_fix):
        d = s.dim
        identity = optimal_plan_efficiency(s, ReferenceLevel(d, 1.0))
        assert identity.plan.n_opt == 0
        derived = [identity.post_spectrum]
        p_ref = max(p_ref, 1.0 / d)
        if p_ref >= 1.0 / s.rank:
            derived.append(optimal_plan_efficiency(s, ReferenceLevel(d, p_ref)).post_spectrum)
        if p_fix / d > 0.0:
            derived.append(optimal_plan_fixed(s, FixedProbRequest(p_fix)).post_spectrum)
        if s.rank == d:
            standard = optimal_plan_efficiency(s, ReferenceLevel(d, 1.0 / d))
            assert standard.plan.n_opt == d
            derived.append(standard.post_spectrum)
            derived += [interpolate(s, xi).spectrum for xi in (1.0, 1e-300)]
        for t in derived:
            SchmidtSpectrum(d, np.array(t.sq_coeffs))

    @given(spectra(max_dim=10, zeros=True), st.floats(1e-300, 1e300))
    def test_ingested_spectra(self, s, scale):
        sq = s.sq_coeffs
        for t in (
            make_spectrum(sq),
            make_spectrum(sq * (1.0 + 5e-10)),  # off by less than INGEST_TOL
            make_spectrum(sq * scale, normalize=True),
            make_spectrum(np.sqrt(sq), "amplitudes"),
            make_spectrum(np.sqrt(sq) * scale, "amplitudes", normalize=True),
            make_spectrum([1e308, 1e308], normalize=True),
        ):
            SchmidtSpectrum(t.dim, np.array(t.sq_coeffs))

    @pytest.mark.parametrize("values, error", [
        ([0.7, 0.7], NotNormalizedError),
        ([NAN, 0.5, 0.5], NonFiniteEntryError),
        ([1.5, -0.5], NegativeEntryError),
        ([1.5, 0.0], InvalidSpectrumError),
    ])
    def test_caller_read_only_array_is_checked(self, values, error):
        # a read-only array that owns its memory is still the caller's
        arr = np.array(values)
        arr.setflags(write=False)
        assert arr.flags.owndata
        with pytest.raises(error):
            SchmidtSpectrum(arr.size, arr)
