import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from schmidt_forge import (
    interpolate,
    make_spectrum,
    measures,
    optimal_plan_efficiency,
    optimal_plan_fixed,
)
from schmidt_forge.efficiency import ConcentrationPlan, _Sweep
from schmidt_forge.errors import InvalidSpectrumError
from schmidt_forge.spectrum import SchmidtSpectrum, sort_descending

from helpers import spectra, stored_spectrum


class TestMakeSpectrum:
    def test_identity_case(self):
        s = make_spectrum([0.5, 0.5])
        assert s.dim == 2
        assert np.array_equal(s.sq_coeffs, [0.5, 0.5])

    def test_normalization_forces_uniform(self):
        s = make_spectrum([1, 1, 1, 1], normalize=True)
        assert np.array_equal(s.sq_coeffs, [0.25, 0.25, 0.25, 0.25])

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidSpectrumError,
                           match="^squared coefficients sum to 1.0999999999999999; pass"):
            make_spectrum([0.4, 0.3, 0.2, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpectrumError, match="no coefficients given"):
            make_spectrum([])

    def test_negative_rejected(self):
        with pytest.raises(InvalidSpectrumError, match="must be nonnegative"):
            make_spectrum([1.1, -0.1])

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidSpectrumError, match="all-zero coefficient list"):
            make_spectrum([0.0, 0.0], normalize=True)

    def test_single_coefficient_rejected(self):
        with pytest.raises(InvalidSpectrumError, match="needs dim >= 2"):
            make_spectrum([1.0])

    def test_near_normalized_accepted_and_snapped(self):
        s = make_spectrum([0.5, 0.5 + 3e-10])
        assert abs(float(np.sum(s.sq_coeffs)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidSpectrumError, match="must be finite"):
            make_spectrum([bad, 0.5, 0.5])
        with pytest.raises(InvalidSpectrumError, match="must be finite"):
            make_spectrum([bad, 0.5, 0.5], normalize=True)

    def test_overflowing_input_is_normalized(self):
        values = [1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = make_spectrum(values, normalize=True)
            with pytest.raises(InvalidSpectrumError, match="sum to inf"):
                make_spectrum(values)
        assert s.sq_coeffs.tolist() == [0.5, 0.5]

    def test_underflowing_input_is_normalized(self):
        # the sum is subnormal
        assert make_spectrum([5e-324, 5e-324], normalize=True).sq_coeffs.tolist() == [0.5, 0.5]

    def test_zero_coefficients_admitted(self):
        s = make_spectrum([0.7, 0.3, 0.0])
        assert s.rank == 2
        assert s.min_sq == 0.0

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0**-1022])
                    | st.floats(0.0, 1e308), min_size=2, max_size=12),
           st.booleans())
    @example([1e308, 1e308], False)
    @example([5e-324, 5e-324], False)
    @example([-0.0, 5e-324, 3.0], True)
    @example([0.0, -0.0, 0.5, 0.5], True)
    def test_seeded_extremes_are_exact(self, values, strided):
        """Ingest keeps the extremes its check reduced: bit-equal to a fresh
        reduction of the stored values, zeros, -0.0, subnormals and the
        rescale of an overflowing or subnormal sum included. A zero minimum
        is not seeded, and its sign is the reduction's."""
        arr = np.asarray(values)
        if strided:  # a view of a caller's array, not contiguous
            arr = np.repeat(arr, 2)[::2]

        def assert_exact(s):
            sq = s.sq_coeffs
            lo, hi = float(np.minimum.reduce(sq)), float(np.maximum.reduce(sq))
            assert ("min_sq" in s.__dict__) == (lo > 0.0) and "max_sq" in s.__dict__
            assert np.float64(s.min_sq).tobytes() == np.float64(lo).tobytes()
            assert np.float64(s.max_sq).tobytes() == np.float64(hi).tobytes()

        if not arr.max() > 0.0:
            return
        s = make_spectrum(arr, normalize=True)
        assert_exact(s)
        assert_exact(make_spectrum(s.sq_coeffs))


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
#: messages of the spectrum checks
FINITE = "coefficients must be finite"
NONNEGATIVE = "coefficients must be nonnegative"
STORED_SUM = "squared coefficients sum to {}; pass normalize=True to rescale"


def by_check(*rows, show_message=True):
    """(values, message) parameters from (values, check, message) rows.

    Every failed check raises InvalidSpectrumError, so the message tells the
    checks apart. The id still names the check, as values<i>-<check>, then
    the message unless ``show_message`` is false, so the tests keep their
    names."""
    return [pytest.param(values, message, id=f"values{i}-{check}" + f"-{message}" * show_message)
            for i, (values, check, message) in enumerate(rows)]


class TestErrorPrecedence:
    """The first failed check wins, in the order non-finite, negative,
    not normalized, not 1-D with D >= 2, whatever else is wrong with the
    input. make_spectrum is the one check of a caller's values, and every
    failure is an InvalidSpectrumError with that check's message."""

    @pytest.mark.parametrize("values, message", by_check(
        ([NAN, -0.5, 1.5], "NonFiniteEntryError", FINITE),
        ([-0.5, 1.5, NAN], "NonFiniteEntryError", FINITE),
        ([0.5, NAN, 0.5], "NonFiniteEntryError", FINITE),
        ([INF, -1.0], "NonFiniteEntryError", FINITE),
        ([2.0, -INF], "NonFiniteEntryError", FINITE),
        ([1.5, -0.5], "NegativeEntryError", NONNEGATIVE),
        ([-0.1, 0.5], "NegativeEntryError", NONNEGATIVE),
        # a coefficient above 1 fails the sum check
        ([1.5, 0.5], "NotNormalizedError", STORED_SUM.format(2.0)),
        ([0.3, 0.3], "NotNormalizedError", STORED_SUM.format(0.6)),
        ([], "EmptyInputError", "no coefficients given"),
    ))
    def test_stored_spectrum(self, values, message):
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(message)}$"):
            make_spectrum(np.array(values))

    @pytest.mark.parametrize("values, message", by_check(
        ([NAN, -0.5, 1.5], "NonFiniteEntryError", FINITE),
        ([-0.5, 1.5, NAN], "NonFiniteEntryError", FINITE),
        ([INF, -1.0], "NonFiniteEntryError", FINITE),
        ([2.0, -INF], "NonFiniteEntryError", FINITE),
        ([1.5, -0.5], "NegativeEntryError", NONNEGATIVE),
        ([-0.1, 0.5], "NegativeEntryError", NONNEGATIVE),
    ))
    @pytest.mark.parametrize("normalize", [False, True])
    def test_ingest(self, values, message, normalize):
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(message)}$"):
            make_spectrum(values, normalize=normalize)

    @pytest.mark.parametrize("values, message", [
        (np.full((2, 2), 0.25), "coefficients must be a 1-D array, not shape (2, 2)"),
        (np.array(1.0), "coefficients must be a 1-D array, not shape ()"),
        (np.array([1.0]), "a bipartite spectrum needs dim >= 2"),
    ])
    def test_structure(self, values, message):
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(message)}$"):
            make_spectrum(values)

    @pytest.mark.parametrize("values, total", [([1.5, 0.0], "1.5"), ([0.3, 0.3], "0.6")])
    def test_ingest_bad_sum(self, values, total):
        message = f"squared coefficients sum to {total}; pass normalize=True to rescale"
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(message)}$"):
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
        built = [make_spectrum(values), make_spectrum(view), make_spectrum(owner)]
        owner.setflags(write=True)
        values[:] = owner[:] = [0.5, 0.5]
        assert values.flags.writeable
        for s in built:
            assert s.sq_coeffs.tolist() == [0.25, 0.75]
            assert not s.sq_coeffs.flags.writeable

    @pytest.mark.parametrize("build", [
        lambda a: SchmidtSpectrum(a),
        lambda a: ConcentrationPlan(a, 0, 0.75, a),
    ], ids=["SchmidtSpectrum", "ConcentrationPlan"])
    def test_records_take_no_caller_arrays(self, build):
        # make_spectrum is the one way in; the message is the interpreter's
        with pytest.raises(TypeError):
            build(np.array([0.25, 0.75]))


S5 = [0.4, 0.25, 0.15, 0.12, 0.08]


class TestPlannerOutputs:
    """Every array a planner or interpolation makes is stored without a
    copy: it must be read-only and share no memory with the input."""

    @pytest.mark.parametrize("run, n_opt", [
        (lambda s: optimal_plan_efficiency(s, 0.2), 5),
        (lambda s: optimal_plan_efficiency(s, 0.9), 0),
        (lambda s: optimal_plan_efficiency(s, 0.9, _Sweep(s)), 0),
        (lambda s: optimal_plan_efficiency(s, 0.3), 1),
        (lambda s: optimal_plan_fixed(s, 0.5), 4),
        (lambda s: optimal_plan_fixed(s, 1.0), 0),
        (lambda s: interpolate(s, 0.5), None),
    ], ids=["standard", "identity", "sweep-identity", "level", "fixed", "fixed-p1",
            "interp"])
    def test_read_only_and_unshared(self, run, n_opt):
        s = make_spectrum(S5)
        out = run(s)
        if n_opt is None:
            arrays = [out.spectrum.sq_coeffs]
        else:
            assert out.plan.n_opt == n_opt
            arrays = [out.plan.y, out.plan.x, out.post_spectrum.sq_coeffs]
        for a in arrays:
            assert not np.shares_memory(a, s.sq_coeffs)
            with pytest.raises(ValueError):
                a[0] = 0.5


QUARTERS = [0.5, 0.25, 0.25]


class TestDerivedSpectra:
    """A derived spectrum is stored without the value checks; its values must
    still pass them all and sum to 1 within STORED_SUM_TOL as stored."""

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
        identity = optimal_plan_efficiency(s, 1.0)
        assert identity.plan.n_opt == 0
        derived = [identity.post_spectrum]
        p_ref = max(p_ref, 1.0 / d)
        if p_ref >= 1.0 / s.rank:
            derived.append(optimal_plan_efficiency(s, p_ref).post_spectrum)
        if p_fix / d > 0.0:
            derived.append(optimal_plan_fixed(s, p_fix).post_spectrum)
        if s.rank == d:
            standard = optimal_plan_efficiency(s, 1.0 / d)
            assert standard.plan.n_opt == d
            derived.append(standard.post_spectrum)
            derived += [interpolate(s, xi).spectrum for xi in (1.0, 1e-300)]
        for t in derived:
            stored_spectrum(t.sq_coeffs)

    @given(spectra(max_dim=10, zeros=True), st.floats(1e-300, 1e300))
    def test_ingested_spectra(self, s, scale):
        sq = s.sq_coeffs
        for t in (
            make_spectrum(sq),
            make_spectrum(sq * (1.0 + 5e-10)),  # off by less than INGEST_TOL
            make_spectrum(sq * scale, normalize=True),
            make_spectrum([1e308, 1e308], normalize=True),
        ):
            stored_spectrum(t.sq_coeffs)

    @pytest.mark.parametrize("values, message", by_check(
        ([0.7, 0.7], "NotNormalizedError", STORED_SUM.format(1.4)),
        ([NAN, 0.5, 0.5], "NonFiniteEntryError", FINITE),
        ([1.5, -0.5], "NegativeEntryError", NONNEGATIVE),
        ([1.0], "InvalidSpectrumError", "a bipartite spectrum needs dim >= 2"),
        show_message=False,
    ))
    def test_caller_read_only_array_is_checked(self, values, message):
        # a read-only array that owns its memory is still the caller's
        arr = np.array(values)
        arr.setflags(write=False)
        assert arr.flags.owndata
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(message)}$"):
            make_spectrum(arr)
