import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from schmidt_forge import FixedProbRequest, make_spectrum, measures, optimal_plan_fixed
from schmidt_forge.errors import OutOfRangeError
from schmidt_forge.oracle import duality_check, enumerate_fixed_configurations
from schmidt_forge.spectrum import sort_descending

from helpers import BOUNDARY_CASES, case_spectrum, dirichlet_spectrum, random_reference, spectra

WORKED = [0.4, 0.3, 0.2, 0.1]


class TestRequestValidation:
    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.2, 1.1):
            with pytest.raises(OutOfRangeError, match=f"^p_fix={bad!r} outside \\(0, 1\\]$"):
                FixedProbRequest(bad)

    def test_accepts_interior_and_one(self):
        assert FixedProbRequest(1.0).p_fix == 1.0
        assert FixedProbRequest(1e-6).p_fix == 1e-6


class TestOptimalPlanFixed:
    def test_worked_example(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_fixed(s, FixedProbRequest(0.7))
        # the kappa = a_3^2 tie makes n = 3 and n = 2 produce the same x
        assert np.allclose(out.plan.x, [0.2, 0.2, 0.2, 0.1], atol=1e-12)
        assert np.allclose(out.plan.y, [0.5, 2 / 3, 1.0, 1.0], atol=1e-12)
        assert out.p_success == pytest.approx(0.7, abs=1e-12)
        assert out.post_measures.purity == pytest.approx(13 / 49, abs=1e-12)
        assert out.post_measures.schmidt_number == pytest.approx(49 / 13, abs=1e-9)
        assert out.q_value is None

    def test_probability_one_is_identity(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_fixed(s, FixedProbRequest(1.0))
        assert np.allclose(out.plan.y, 1.0, atol=1e-12)
        assert out.p_success == pytest.approx(1.0, abs=1e-12)
        assert out.post_measures.purity == pytest.approx(measures(s).purity, abs=1e-12)

    def test_below_full_concentration_probability(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_fixed(s, FixedProbRequest(0.2))
        assert out.plan.n_opt == 4
        assert np.allclose(out.plan.x, 0.05, atol=1e-12)
        assert np.allclose(out.post_spectrum.sq_coeffs, 0.25, atol=1e-12)
        assert out.post_measures.schmidt_number == pytest.approx(4.0, abs=1e-12)

    def test_rank_deficient_spectrum_handled(self):
        s = make_spectrum([0.6, 0.4, 0.0])
        out = optimal_plan_fixed(s, FixedProbRequest(0.5))
        assert out.p_success == pytest.approx(0.5, abs=1e-12)
        assert np.all(out.plan.y > 0.0)
        assert out.plan.y[2] == 1.0  # untouched zero coefficient

    @given(spectra(min_dim=3, max_dim=10), st.floats(0.01, 1.0))
    def test_invariants(self, s, p_fix):
        out = optimal_plan_fixed(s, FixedProbRequest(p_fix))
        plan = out.plan
        sq = s.sq_coeffs
        assert abs(out.p_success - p_fix) <= 1e-12
        assert np.all(plan.y > 0.0)
        assert np.all(plan.y <= 1.0 + 1e-12)
        assert np.allclose(plan.x, np.minimum(sq, plan.crop_level), atol=1e-11)
        _, perm = sort_descending(s)
        if plan.n_opt > 0:
            assert np.array_equal(
                np.flatnonzero(sq >= plan.crop_level), np.sort(perm[: plan.n_opt])
            )
        else:
            assert np.all(plan.y == 1.0)

    def test_level_never_raises_a_coefficient(self):
        # an absolute feasibility tolerance once counted a coefficient lying
        # just below the level here, lifting its x above a^2
        s = make_spectrum(np.random.default_rng(2).dirichlet(np.ones(2**16)))
        out = optimal_plan_fixed(s, FixedProbRequest(2.0068e-4))
        plan = out.plan
        assert np.all(plan.x <= s.sq_coeffs)
        assert plan.n_opt == np.count_nonzero(s.sq_coeffs >= plan.crop_level)
        assert out.p_success == pytest.approx(2.0068e-4, rel=1e-12)

    @given(spectra(min_dim=3, max_dim=8), st.floats(0.05, 1.0))
    def test_purity_minimal_vs_enumeration(self, s, p_fix):
        out = optimal_plan_fixed(s, FixedProbRequest(p_fix))
        report = enumerate_fixed_configurations(s, p_fix)
        assert out.post_measures.purity <= report.best_purity + 1e-10

    @pytest.mark.parametrize("values", BOUNDARY_CASES, ids=str)
    def test_identity_starts_exactly_at_the_total_weight(self, values):
        s = case_spectrum(values)
        total = s.total
        assert optimal_plan_fixed(s, FixedProbRequest(total)).plan.n_opt == 0
        # one ulp below, a coefficient is cut and p_success stays on p_fix
        p_fix = np.nextafter(total, 0.0)
        out = optimal_plan_fixed(s, FixedProbRequest(p_fix))
        assert out.plan.n_opt >= 1
        assert abs(out.p_success - p_fix) <= 4 * np.spacing(p_fix)

    def test_monotone_tradeoff(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            d = int(rng.integers(3, 10))
            s = dirichlet_spectrum(rng, d)
            grid = np.linspace(1.0, 0.02, 40)  # descending p_fix
            purities = [
                optimal_plan_fixed(s, FixedProbRequest(p)).post_measures.purity
                for p in grid
            ]
            assert np.all(np.diff(purities) <= 1e-12)


class TestDuality:
    def test_worked_example(self):
        s = make_spectrum(WORKED)
        assert duality_check(s, 0.3)
        # arithmetic behind it: p_fix = 0.75 gives kappa_2 = 0.225 = alpha
        eff_p = 0.75
        kappa_2 = (eff_p - 0.3) / 2
        assert kappa_2 == pytest.approx(0.225, abs=1e-15)

    def test_uniform_state(self):
        s = make_spectrum([0.25] * 4)
        for p_ref in (0.25, 0.6, 1.0):
            assert duality_check(s, p_ref)

    def test_standard_concentration_endpoint(self):
        s = make_spectrum(WORKED)
        assert duality_check(s, 0.25)

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(3, 11))
            s = dirichlet_spectrum(rng, d)
            assert duality_check(s, random_reference(rng, d))
