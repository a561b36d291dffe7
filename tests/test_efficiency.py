from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from schmidt_forge import (
    ConcentrationPlan,
    make_spectrum,
    measures,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    reference_from,
)
from schmidt_forge.efficiency import _efficiency_level, _level_plan
from schmidt_forge.errors import InfeasibleError, OutOfRangeError, RankDeficientError

from helpers import (
    BOUNDARY_CASES,
    apply_plan,
    assert_level_plan,
    case_spectrum,
    dirichlet_spectrum,
    efficiency_q,
    haar,
    prefix_scan_efficiency,
    random_reference,
    spectra,
    verifier_rejects,
)

WORKED = [0.4, 0.3, 0.2, 0.1]


class TestReferenceFrom:
    def test_full_concurrence_reference(self):
        p_ref = reference_from("c_ref_sq", 1.0, 16)
        assert p_ref == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_schmidt_number_reference(self):
        p_ref = reference_from("k_ref", 868.0, 1024)
        assert p_ref == pytest.approx(1.152e-3, rel=1e-3)

    def test_zero_reference_entanglement(self):
        assert reference_from("c_ref_sq", 0.0, 4) == 1.0

    def test_views_mutually_consistent(self):
        p_ref = reference_from("c_ref_sq", 0.64, 5)
        k_ref = 1.0 / p_ref
        assert reference_from("k_ref", k_ref, 5) == pytest.approx(
            p_ref, abs=1e-15
        )
        assert 5 / 4 * (1.0 - p_ref) == pytest.approx(0.64, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            reference_from("k_ref", 5.0, 4)  # k_ref > D
        with pytest.raises(OutOfRangeError):
            reference_from("c_ref_sq", 1.2, 4)
        # a P_ref passes through; the planner checks its range
        assert reference_from("p_ref", 0.1, 4) == 0.1
        s = make_spectrum(WORKED)
        with pytest.raises(OutOfRangeError):
            optimal_plan_efficiency(s, 0.1)  # below 1/D
        with pytest.raises(OutOfRangeError):
            optimal_plan_efficiency(s, 0.25 - 5e-13)  # below 1/D by more than rounding
        with pytest.raises(OutOfRangeError):
            optimal_plan_efficiency(s, 1.3)

    @pytest.mark.parametrize("dim", [-1, 0, 1])
    @pytest.mark.parametrize("kind, value", [
        ("p_ref", 0.5), ("c_ref_sq", 0.5), ("k_ref", 1.0),
    ])
    def test_dimension_below_two(self, kind, value, dim):
        message = f"^dim={dim} below 2: a reference level needs dim >= 2$"
        with pytest.raises(OutOfRangeError, match=message):
            reference_from(kind, value, dim)


class TestEfficiencyQ:
    def test_reference_equals_achieved_purity(self):
        s = make_spectrum([0.5, 0.5])
        assert efficiency_q(s, [1.0, 1.0], 0.5) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_reference_equals_initial_purity(self):
        s = make_spectrum(WORKED)
        assert efficiency_q(s, np.ones(4), 0.3) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_worked_value(self):
        s = make_spectrum(WORKED)
        q = efficiency_q(s, [0.5625, 0.75, 1.0, 1.0], 0.3)
        assert q == pytest.approx(0.0233333333333333, abs=1e-12)

    def test_out_of_box(self):
        s = make_spectrum(WORKED)
        with verifier_rejects():
            efficiency_q(s, [1.5, 1.0, 1.0, 1.0], 0.3)
        with verifier_rejects():
            efficiency_q(s, [-0.1, 1.0, 1.0, 1.0], 0.3)

    @given(spectra(max_dim=12), st.floats(0.0, 1.0))
    @example(make_spectrum(WORKED), 0.1)
    @example(make_spectrum([0.25] * 4), 0.5)
    @example(make_spectrum([0.5, 0.5]), 1e-12)
    def test_planner_q_value_is_the_payoff_of_its_plan(self, s, u):
        d = s.dim
        ref = 1.0 / d + u * (1.0 - 1.0 / d)
        out = optimal_plan_efficiency(s, ref)
        # Q is a difference of terms at most 1, hence the absolute floor
        assert out.q_value == pytest.approx(efficiency_q(s, out.plan.y, ref), rel=1e-9, abs=1e-14)


class TestOptimalPlan:
    def test_standard_concentration(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, 0.25)
        sq = s.sq_coeffs
        assert np.allclose(out.plan.y, [0.25, 1 / 3, 0.5, 1.0], atol=1e-12)
        assert out.p_success == 4 * s.min_sq
        assert np.allclose(out.post_spectrum.sq_coeffs, 0.25, atol=1e-15)
        assert out.post_measures.schmidt_number == pytest.approx(4.0, abs=1e-12)
        assert out.q_value == 0.0
        assert out.plan.n_opt == 4
        assert out.plan.crop_level == pytest.approx(sq.min(), abs=1e-15)

    def test_worked_crop(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, 0.3)
        assert out.plan.n_opt == 2
        assert out.plan.crop_level == pytest.approx(0.225, abs=1e-12)
        assert np.allclose(out.plan.x, [0.225, 0.225, 0.2, 0.1], atol=1e-12)
        assert np.allclose(out.plan.y, [0.5625, 0.75, 1.0, 1.0], atol=1e-12)
        assert out.p_success == pytest.approx(0.75, abs=1e-12)
        assert np.allclose(
            out.post_spectrum.sq_coeffs, [0.3, 0.3, 4 / 15, 2 / 15], atol=1e-12
        )
        assert out.q_value == pytest.approx(0.0233333333333333, abs=1e-12)
        assert np.array_equal(np.flatnonzero(s.sq_coeffs >= out.plan.crop_level), [0, 1])

    def test_identity_wins_at_high_reference_purity(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, 0.9)
        assert out.plan.n_opt == 0
        assert np.array_equal(out.plan.y, np.ones(4))
        assert np.array_equal(out.plan.x, s.sq_coeffs)
        assert out.p_success == pytest.approx(1.0, abs=1e-12)
        assert out.q_value == pytest.approx(0.8, abs=1e-12)

    def test_standard_detection_tolerance(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, np.nextafter(0.25, 1.0))
        assert out.plan.n_opt == 4  # still the closed-form standard branch
        # further above 1/D the reference gets its own level, which leaves the
        # smallest coefficient uncut
        out = optimal_plan_efficiency(s, 0.25 + 1e-13)
        assert out.plan.n_opt == 3

    @pytest.mark.parametrize("dim", [3, 4, 7, 1000, 1048568])
    def test_minimum_reference_views_take_the_closed_form(self, dim):
        # 1 - (D-1)/D rounds above 1/D for about half of all D, by up to
        # 6e-11 relative at D = 1048568; a view inside its slack past the
        # bound is the bound
        above_one = (1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-13)
        views = [("c_ref_sq", v) for v in above_one]
        views += [("k_ref", dim), ("k_ref", dim + 1e-13)]
        s = make_spectrum(np.arange(1.0, dim + 1.0), normalize=True)
        for kind, value in views:
            out = optimal_plan_efficiency(s, reference_from(kind, value, dim))
            assert out.plan.n_opt == dim
            assert np.all(out.post_spectrum.sq_coeffs == 1.0 / dim)

    def test_reference_just_above_minimum_gets_its_own_level(self):
        d = 2**16
        s = dirichlet_spectrum(np.random.default_rng(3), d)
        ref = 1.0 / d + 5e-13
        out = optimal_plan_efficiency(s, ref)
        n_scan, level_scan = prefix_scan_efficiency(s, ref)
        assert out.plan.n_opt == n_scan
        assert out.plan.crop_level == pytest.approx(level_scan, rel=1e-12)
        # Q is about 5e-24, a difference of terms near 1e-17, hence no absolute floor
        q_plan = efficiency_q(s, out.plan.y, ref)
        assert out.q_value == pytest.approx(q_plan, rel=1e-5, abs=0.0)
        y_scan = np.minimum(1.0, level_scan / s.sq_coeffs)
        assert q_plan >= efficiency_q(s, y_scan, ref) * (1.0 - 1e-12)

    @pytest.mark.parametrize("values", BOUNDARY_CASES, ids=str)
    def test_identity_starts_exactly_at_the_largest_coefficient(self, values):
        s = case_spectrum(values)
        top = s.max_sq
        assert optimal_plan_efficiency(s, top).plan.n_opt == 0
        # one ulp below, the largest coefficient is cut, though the level may
        # round to max a^2 itself
        plan = optimal_plan_efficiency(s, np.nextafter(top, 0.0)).plan
        assert plan.n_opt >= 1
        assert plan.crop_level <= top

    def test_uniform_state_identity_for_any_reference(self):
        s = make_spectrum([0.25] * 4)
        for p_ref in (0.25, 0.5, 0.9, 1.0):
            out = optimal_plan_efficiency(s, p_ref)
            assert np.allclose(out.plan.y, 1.0, atol=1e-12)
            assert out.p_success == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_full_concentration_rejected(self):
        s = make_spectrum([0.6, 0.4, 0.0, 0.0])
        with pytest.raises(RankDeficientError,
                           match="^full concentration needs every coefficient positive$"):
            optimal_plan_efficiency(s, 0.25)

    def test_rank_deficient_below_support_rejected(self):
        s = make_spectrum([0.6, 0.4, 0.0, 0.0])
        # demanding K_ref = 2.5 > rank = 2, or a reference below 1/rank by
        # more than rounding
        for p_ref in (0.4, 0.5 - 5e-13):
            with pytest.raises(RankDeficientError, match=f"^p_ref={p_ref!r} below 1/rank "):
                optimal_plan_efficiency(s, p_ref)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_rank_guard_on_either_zero(self, zero):
        s = make_spectrum([0.5, 0.5, zero])
        assert s.min_sq == 0.0 and s.rank == 2
        message = ("p_ref=0.4 below 1/rank with rank=2: no plan with positive "
                   "success probability reaches the reference entanglement")
        with pytest.raises(RankDeficientError, match=f"^{message}$"):
            optimal_plan_efficiency(s, 0.4)
        assert optimal_plan_efficiency(s, 0.5).plan.n_opt == 0

    @pytest.mark.parametrize("level", [0.0, -0.0, float("nan")])
    def test_level_that_is_not_positive_is_infeasible(self, level):
        # the planners' guard of the post spectrum's division, which no valid
        # input is known to reach: a level that is not above 0 makes no plan
        message = ("the water level underflows to 0: no plan with positive "
                   "success probability can be computed")
        with pytest.raises(InfeasibleError, match=f"^{message}$"):
            _level_plan(make_spectrum(WORKED), level, 1)

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.1, 0.25, 0.5])
                    | st.floats(1e-6, 1.0), min_size=2, max_size=12),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example([0.25, 0.25, 0.25, 0.25, 5e-324], 0.5)
    @example([0.5, 0.1, 0.1, 0.1, 0.1, 0.1, -0.0], 0.3)
    def test_level_search_returns_its_crop(self, values, u):
        """The uncut coefficients and their sum that the level search returns,
        its last crop's reused, are those of a fresh crop at its level."""
        if not max(values) > 0.0:
            return
        sq = make_spectrum(values, normalize=True).sq_coeffs
        top = float(sq.max())
        p_ref = 1.0 / sq.size + u * (top - 1.0 / sq.size)
        if not 1.0 / sq.size < p_ref < top:
            return
        level, n, rest, beta = _efficiency_level(sq, p_ref, top)
        fresh = sq.compress(sq < level)
        assert rest.tobytes() == fresh.tobytes()
        assert n == sq.size - fresh.size
        assert np.float64(beta).tobytes() == np.add.reduce(fresh).tobytes()

    def test_rank_deficient_feasible_reference_works(self):
        s = make_spectrum([0.6, 0.4, 0.0, 0.0])
        # at 1/rank, and one ulp below it within the range-check slack
        for p_ref in (0.5, np.nextafter(0.5, 0.0)):
            out = optimal_plan_efficiency(s, p_ref)
            # support concentration: both live coefficients crop to 0.4-level
            assert out.p_success > 0.0
            assert np.min(out.plan.y) > 0.0
            zero_idx = np.where(s.sq_coeffs == 0.0)[0]
            assert np.all(out.plan.y[zero_idx] == 1.0)

    @pytest.mark.parametrize(
        "values, p_ref",
        [
            ([0.5, 0.5, 5e-324], 0.49),
            ([0.5, 0.5, 5e-324, 0.0], 0.49),
            ([1.0, 5e-324, 1e-310], 0.4),
            ([1.0, 5e-324, 1e-310], 0.49999999999998795),
        ],
    )
    def test_subnormal_level_is_solved(self, values, p_ref):
        # the Newton step P_ref * beta / (1 - n * P_ref) would round its
        # numerator (0.49 * 5e-324, 0.4 * 5e-324) to 0, though the root is
        # representable; in the last case 1 - 2 * P_ref ~ 2.4e-14 magnifies
        # the rounding of the n = 2 step 2.5% above the root 1e-310, past
        # a_2^2, and the scan's count rounds P_ref * p_2 down to a_2^2
        s = make_spectrum(values)
        ref = p_ref
        out = optimal_plan_efficiency(s, ref)
        level = out.plan.crop_level
        assert level > 0.0
        assert out.plan.n_opt == 2 == np.count_nonzero(s.sq_coeffs >= level)
        # the sorted-prefix scan divides first too, and finds the same crop
        assert prefix_scan_efficiency(s, ref) == (2, level)
        # the exact residual of L = P_ref * sum min(a^2, L) is within one
        # subnormal ulp
        cut = sum(min(Fraction(a), Fraction(level)) for a in s.sq_coeffs.tolist())
        assert abs(Fraction(level) - Fraction(p_ref) * cut) <= Fraction(5e-324)
        # the fixed-probability dual at the plan's p_success cuts at the same level
        dual = optimal_plan_fixed(s, out.p_success)
        assert (dual.plan.crop_level, dual.plan.n_opt) == (level, 2)


class TestApplyPlan:
    def test_identity_plan(self):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, 0.9)
        redo = apply_plan(s, out.plan)
        assert redo.p_success == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(redo.post_spectrum.sq_coeffs, s.sq_coeffs, atol=1e-12)

    def test_standard_concentration_arithmetic(self):
        s = make_spectrum(WORKED)
        plan = optimal_plan_efficiency(s, 0.25).plan
        redo = apply_plan(s, plan)
        assert redo.p_success == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(redo.post_spectrum.sq_coeffs, 0.25, atol=1e-12)
        assert redo.q_value is None

    def test_arbitrary_plan_evaluation(self):
        s = make_spectrum(WORKED)
        plan = ConcentrationPlan._adopt(s.sq_coeffs * [0.5, 2 / 3, 1.0, 1.0], 3, 0.2, s.sq_coeffs)
        out = apply_plan(s, plan)
        assert out.p_success == pytest.approx(0.7, abs=1e-12)
        assert np.allclose(
            out.post_spectrum.sq_coeffs, [2 / 7, 2 / 7, 2 / 7, 1 / 7], atol=1e-12
        )
        assert out.post_measures.purity == pytest.approx(13 / 49, abs=1e-12)

    def test_rejects_bad_plans(self):
        s = make_spectrum(WORKED)
        plan = optimal_plan_efficiency(s, 0.3).plan
        zero = ConcentrationPlan._adopt(np.zeros(4), 0, 0.0, s.sq_coeffs)
        for spectrum, bad, message in [
            (make_spectrum([0.5, 0.5]), plan, "y has shape"),
            (s, zero, "plan has zero success probability"),
        ]:
            with verifier_rejects(match=message):
                apply_plan(spectrum, bad)


class TestPlanInvariants:
    @given(spectra(min_dim=3, max_dim=10), st.floats(0.0, 1.0))
    # standard concentration (u = 0) on a spectrum where a^2 * (a_min^2 / a^2)
    # rounds away from a_min^2, and the identity plan (P_ref = 1)
    @example(make_spectrum([0.7, 0.29, 0.01]), 0.0)
    @example(make_spectrum(WORKED), 1.0)
    def test_structure(self, s, u):
        d = s.dim
        ref = 1.0 / d + u * (1.0 - 1.0 / d)
        out = optimal_plan_efficiency(s, ref)
        plan = out.plan
        sq = s.sq_coeffs
        # box and no zeros
        assert np.all(plan.y > 0.0)
        assert np.all(plan.y <= 1.0 + 1e-12)
        # x = min(a^2, crop_level) exactly, never above a^2, and a^2 * y = x
        # to 1 ulp
        assert_level_plan(plan, sq)
        assert np.all(plan.x <= sq)
        # cropped set = the n_opt largest under the stable descending sort
        perm = np.argsort(-s.sq_coeffs, kind="stable")
        if plan.n_opt > 0:
            assert np.array_equal(
                np.flatnonzero(sq >= plan.crop_level), np.sort(perm[: plan.n_opt])
            )
        else:
            assert np.all(plan.y == 1.0)
        # outcome wiring
        assert out.p_success == pytest.approx(float(sq @ plan.y), abs=1e-12)
        assert np.allclose(
            out.post_spectrum.sq_coeffs, plan.x / out.p_success, atol=1e-12
        )
        # payoff value: quadratic form and definition agree with the report
        assert out.q_value == pytest.approx(
            efficiency_q(s, plan.y, ref), abs=1e-10
        )
        c_ref_sq = d / (d - 1.0) * (1.0 - ref)
        definition = out.p_success**2 * (out.post_measures.concurrence_sq - c_ref_sq)
        assert out.q_value == pytest.approx(definition, abs=1e-10)
        assert out.q_value >= -1e-15

    @given(
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.25, 0.5]) | st.floats(1e-3, 1.0),
                 min_size=2, max_size=10).filter(lambda v: max(v) > 0.0),
        st.floats(0.0, 1.0),
    )
    @example([0.5, -0.0, 0.0, 0.5, 5e-324], 0.3)
    @example([0.7, 0.29, 0.01], 0.0)  # a^2 * (a_min^2 / a^2) rounds away from a_min^2
    @example([1.0, 5e-324, 1e-310, 1e-310], 1e-310)  # subnormal levels and weights
    @example([0.25, 0.25, 0.25, 0.125, 0.125], 0.5)  # ties at the level
    def test_x_is_the_level_on_the_crop_and_y_keeps_its_bytes(self, values, u):
        s = make_spectrum(values, normalize=True)
        d = s.dim
        outs = []
        p_ref = 1.0 / d + u * (1.0 - 1.0 / d)
        if s.rank == d or p_ref >= 1.0 / s.rank:
            outs.append(optimal_plan_efficiency(s, p_ref))
        if u / d > 0.0:
            outs.append(optimal_plan_fixed(s, u))
        for out in outs:
            assert_level_plan(out.plan, s.sq_coeffs)

    @given(spectra(max_dim=10, zeros=True), st.floats(0.0, 1.0))
    @example(make_spectrum([0.5, -0.0, 0.0, 0.5]), 0.3)
    @example(make_spectrum(WORKED), 0.0)
    # the fixed planner's first level p_fix / D = 0.25 equals two coefficients
    @example(make_spectrum([0.5, 0.25, 0.25]), 0.75)
    @example(make_spectrum([0.0, 1.0]), 5e-324)
    def test_y_is_the_level_over_a_sq_on_the_crop_and_one_elsewhere(self, s, u):
        d = s.dim
        sq = s.sq_coeffs
        outs = []
        p_ref = 1.0 / d + u * (1.0 - 1.0 / d)
        if s.rank == d or p_ref >= 1.0 / s.rank:
            outs.append(optimal_plan_efficiency(s, p_ref))
        if u / d > 0.0:
            outs.append(optimal_plan_fixed(s, u))
        elif u > 0.0:
            with pytest.raises(OutOfRangeError, match=f"dim={d}: .* underflows to 0$"):
                optimal_plan_fixed(s, u)
        for out in outs:
            level = out.plan.crop_level
            crop = sq >= level
            assert np.array_equal(out.plan.y[crop], level / sq[crop])
            assert np.all(out.plan.y[~crop] == 1.0)
            assert out.plan.n_opt in (0, np.count_nonzero(crop))

    def test_monotone_reference_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(3, 12))
            s = dirichlet_spectrum(rng, d)
            grid = np.geomspace(1.0 / d, 1.0, 40)[::-1]  # descending P_ref
            outs = [optimal_plan_efficiency(s, p) for p in grid]
            n_opts = np.array([o.plan.n_opt for o in outs])
            probs = np.array([o.p_success for o in outs])
            # n_opt nonincreasing in P_ref, p_success nondecreasing in P_ref
            assert np.all(np.diff(n_opts) >= 0)
            assert np.all(np.diff(probs) <= 1e-12)

    def test_concentration_below_initial_concurrence(self):
        # reference slightly below the initial entanglement still crops
        hits = 0
        for seed in range(10):
            s = haar(16, 3000 + seed)
            c_init_sq = measures(s).concurrence_sq
            ref = reference_from("c_ref_sq", 0.98 * c_init_sq, 16)
            assert ref > measures(s).purity
            out = optimal_plan_efficiency(s, ref)
            hits += out.plan.n_opt >= 1
        assert hits == 10

    @given(spectra(min_dim=3, max_dim=9), st.floats(0.02, 1.0))
    def test_beats_random_points(self, s, u):
        d = s.dim
        ref = 1.0 / d + u * (1.0 - 1.0 / d)
        out = optimal_plan_efficiency(s, ref)
        rng = np.random.default_rng(7)
        ys = rng.uniform(size=(200, d))
        for y in ys:
            assert out.q_value >= efficiency_q(s, y, ref) - 1e-10

    def test_random_instances_match_seeded_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(3, 11))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.01)
            out = optimal_plan_efficiency(s, ref)
            redo = apply_plan(s, out.plan)
            assert efficiency_q(s, out.plan.y, ref) == pytest.approx(out.q_value, abs=1e-10)
            assert redo.p_success == pytest.approx(out.p_success, abs=1e-12)
