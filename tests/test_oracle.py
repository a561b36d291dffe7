import inspect
import itertools

import numpy as np
import pytest

from schmidt_forge import (
    make_spectrum,
    measures,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    FixedProbRequest,
)
from schmidt_forge import oracle
from schmidt_forge.efficiency import P_REF_TOL
from schmidt_forge.oracle import (
    MIN_VALIDATION_DIM,
    ValidationResult,
    appendix_a_check,
    appendix_b_check,
    enumerate_configurations,
    enumerate_fixed_configurations,
    numeric_qp_ascent,
    relative_diffs,
    run_validation,
    sample_psd_contraction,
)
from schmidt_forge.spectrum import frontier, sort_descending

from helpers import (
    BOUNDARY_CASES,
    assert_level_plan,
    best_zero_face_gain,
    case_spectrum,
    dirichlet_spectrum,
    inject_fault,
    prefix_scan_efficiency,
    prefix_scan_fixed,
    random_reference,
    verifier_rejects,
)


def _top_prefix_rows(report, s):
    """Each row's interior-set size n, and whether the set is the n largest
    coefficients in the stable descending order."""
    rank = np.empty(s.dim, dtype=int)
    rank[list(sort_descending(s)[1])] = np.arange(s.dim)
    n = report.inner.sum(axis=1)
    return n, np.where(report.inner, rank, -1).max(axis=1) == n - 1


class TestEnumerate:
    def test_worked_three_level_case(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        report = enumerate_configurations(s, 0.4)
        assert report.best_q == pytest.approx(0.055, abs=1e-12)
        assert np.allclose(report.best_y, [2 / 3, 1.0, 1.0], atol=1e-12)
        # row 0 is the identity corner, then the 7 nonempty interior sets
        assert report.values.size == 8
        assert report.inner[report.best].tolist() == [True, False, False]

    def test_uniform_state_zero_payoff(self):
        s = make_spectrum([1 / 3] * 3)
        report = enumerate_configurations(s, 1 / 3)
        assert report.best_q == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report.best_y, 1.0, atol=1e-12)

    def test_reference_purity_one_picks_identity(self):
        s = make_spectrum([0.5, 0.3, 0.2])
        report = enumerate_configurations(s, 1.0)
        purity = measures(s).purity
        assert report.best_q == pytest.approx(1.5 * (1.0 - purity), abs=1e-12)
        assert np.allclose(report.best_y, 1.0, atol=1e-15)

    def test_dimension_guards(self):
        rng = np.random.default_rng(0)
        s = dirichlet_spectrum(rng, 15)
        with verifier_rejects():
            enumerate_configurations(s, 0.5)
        s9 = dirichlet_spectrum(rng, 9)
        with verifier_rejects():
            best_zero_face_gain(s9, 0.5)

    def test_agreement_with_planner(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            d = int(rng.integers(3, 11))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.01)
            report = enumerate_configurations(s, ref)
            alg = optimal_plan_efficiency(s, ref)
            assert abs(alg.q_value - report.best_q) <= 1e-10 * abs(report.best_q)
            assert np.max(np.abs(alg.plan.y - report.best_y)) <= 1e-9

    def test_zero_elimination(self):
        # the argmax never needs a zeroed coordinate, even when those compete
        rng = np.random.default_rng(55)
        crops = 0
        for _ in range(25):
            d = int(rng.integers(3, 8))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.02, top=0.3)
            assert best_zero_face_gain(s, ref) <= 0.0
            crops += optimal_plan_efficiency(s, ref).plan.n_opt >= 1
        assert crops >= 12  # references near 1/D, so most optima cut something

    def test_sorting_preference(self):
        # among feasible same-size crops, cropping the largest coefficients wins
        rng = np.random.default_rng(56)
        crops = 0
        for _ in range(25):
            d = int(rng.integers(3, 8))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.02, top=0.3)
            report = enumerate_configurations(s, ref)
            n, top_prefix = _top_prefix_rows(report, s)
            feasible = np.isfinite(report.values)
            crops += np.any(feasible & (n >= 1))
            for k in np.unique(n[feasible & (n >= 1)]):
                same_size = feasible & (n == k)
                is_prefix = same_size & top_prefix
                assert np.any(is_prefix), "prefix crop missing from feasible set"
                best_other = report.values[same_size].max()
                assert report.values[is_prefix][0] >= best_other - 1e-12
        assert crops >= 12  # references near 1/D, so most instances have a crop

    def test_payoff_nondecreasing_along_prefix_chain(self):
        rng = np.random.default_rng(57)
        crops = 0
        for _ in range(25):
            d = int(rng.integers(3, 9))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.02, top=0.3)
            report = enumerate_configurations(s, ref)
            alg = optimal_plan_efficiency(s, ref)
            n, top_prefix = _top_prefix_rows(report, s)
            on_chain = np.isfinite(report.values) & top_prefix
            chain = sorted(zip(n[on_chain].tolist(), report.values[on_chain].tolist()))
            ns = [k for k, _ in chain]
            values = [v for _, v in chain]
            assert ns == list(range(alg.plan.n_opt + 1))
            assert np.all(np.diff(values) >= -1e-12)
            crops += alg.plan.n_opt >= 1
        assert crops >= 12  # references near 1/D, so most chains are longer than 1


class TestEnumerateFixed:
    def test_agreement_with_planner(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            d = int(rng.integers(3, 11))
            s = dirichlet_spectrum(rng, d)
            p_fix = float(rng.uniform(0.05, 1.0))
            report = enumerate_fixed_configurations(s, p_fix)
            alg = optimal_plan_fixed(s, FixedProbRequest(p_fix))
            assert alg.post_measures.purity <= report.best_purity + 1e-10
            assert report.best_purity <= alg.post_measures.purity + 1e-10

    def test_guard(self):
        rng = np.random.default_rng(0)
        with verifier_rejects():
            enumerate_fixed_configurations(dirichlet_spectrum(rng, 15), 0.5)


class TestNumericAscent:
    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(31)
        for k in range(25):
            d = int(rng.integers(3, 11))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.01)
            enum = enumerate_configurations(s, ref)
            asc = numeric_qp_ascent(s, ref, restarts=8, seed=k)
            assert asc.converged
            rel = abs(asc.best_q - enum.best_q) / abs(enum.best_q)
            assert rel <= 1e-8

    def test_analytic_start_is_stationary(self):
        s = make_spectrum([0.4, 0.3, 0.2, 0.1])
        ref = 0.3
        report = numeric_qp_ascent(s, ref, restarts=1, seed=0)
        assert report.converged
        assert report.delta_y_relative == pytest.approx(0.0, abs=1e-12)
        assert report.delta_q_relative == pytest.approx(0.0, abs=1e-12)

    def test_parameter_validation(self):
        s = make_spectrum([0.5, 0.5])
        with pytest.raises(ValueError):
            numeric_qp_ascent(s, 0.7, restarts=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        s = dirichlet_spectrum(rng, 6)
        ref = 0.4
        a = numeric_qp_ascent(s, ref, restarts=4, seed=9)
        b = numeric_qp_ascent(s, ref, restarts=4, seed=9)
        assert np.array_equal(a.best_y, b.best_y)
        assert a.best_q == b.best_q

    def test_random_starts_alone_find_the_optimum(self, monkeypatch):
        # the ascent must not lean on the closed-form start to look correct
        import schmidt_forge.oracle as oracle_mod
        from schmidt_forge.errors import SchmidtForgeError

        def unavailable(s, ref):
            raise SchmidtForgeError("closed form disabled for this check")

        rng = np.random.default_rng(19)
        for k in range(15):
            d = int(rng.integers(3, 11))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d, margin=0.02)
            enum = enumerate_configurations(s, ref)
            with monkeypatch.context() as m:
                m.setattr(oracle_mod, "optimal_plan_efficiency", unavailable)
                asc = oracle_mod.numeric_qp_ascent(s, ref, restarts=16, seed=k)
            assert asc.delta_q_relative is None  # no closed form to compare to
            rel = abs(asc.best_q - enum.best_q) / abs(enum.best_q)
            assert rel <= 1e-10


class TestRelativeDiffs:
    def test_identical(self):
        assert relative_diffs([0.5, 0.5], [0.5, 0.5], 1.0, 1.0) == (0.0, 0.0)

    def test_worked_values(self):
        dy, dq = relative_diffs([0.5, 0.5], [0.25, 0.75], 1.0, 1.0)
        assert dy == pytest.approx(0.5, abs=1e-15)
        assert dq == 0.0
        _, dq = relative_diffs([1.0], [1.0], 0.05, 0.04)
        assert dq == pytest.approx(0.2, abs=1e-12)

    def test_guards(self):
        with verifier_rejects():
            relative_diffs([0.0, 1.0], [1.0, 1.0], 1.0, 1.0)
        with verifier_rejects():
            relative_diffs([1.0], [1.0], 0.0, 1.0)
        with verifier_rejects():
            relative_diffs([1.0, 1.0], [1.0], 1.0, 1.0)


class TestAppendixA:
    def test_direct_two_level_value(self):
        # explicit evaluation of the payoff-without-reference at one box point
        s = make_spectrum([0.5, 0.5])
        y = np.array([1.0, 0.25])
        sq = s.sq_coeffs
        p = float(sq @ y)
        val = 2.0 * (p * p - float((sq * sq) @ (y * y)))
        assert val == pytest.approx(0.25, abs=1e-12)
        at_identity = 2.0 * (1.0 - float(sq @ sq))
        assert at_identity == pytest.approx(1.0, abs=1e-15)
        assert val <= at_identity

    def test_monte_carlo(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(2, 17))
            s = dirichlet_spectrum(rng, d)
            assert appendix_a_check(s, seed=int(rng.integers(2**63)))


class TestAppendixB:
    def test_diagonal_pi_no_penalty(self):
        s = make_spectrum([0.6, 0.4])
        pi = np.diag([0.9, 0.3])
        q_full, q_diag = appendix_b_check(s, pi, 0.7)
        assert q_full == q_diag

    def test_worked_pair(self):
        s = make_spectrum([0.5, 0.5])
        pi = np.array([[0.5, 0.1], [0.1, 0.5]])
        q_full, q_diag = appendix_b_check(s, pi, 0.6)
        assert q_full == pytest.approx(0.04, abs=1e-15)
        assert q_diag == pytest.approx(0.05, abs=1e-15)

    def test_validation_errors(self):
        s = make_spectrum([0.5, 0.5])
        ref = 0.6
        with verifier_rejects():
            appendix_b_check(s, np.array([[1.0, 0.9], [0.2, 1.0]]), ref)  # not Hermitian
        with verifier_rejects():
            appendix_b_check(s, np.array([[0.5, 0.8], [0.8, 0.5]]), ref)  # negative eig
        with verifier_rejects():
            appendix_b_check(s, np.diag([1.5, 0.5]), ref)
        with verifier_rejects():
            appendix_b_check(s, np.eye(3), ref)

    def test_monte_carlo(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = int(rng.integers(2, 13))
            s = dirichlet_spectrum(rng, d)
            ref = random_reference(rng, d)
            for _ in range(50):
                pi = sample_psd_contraction(d, rng)
                q_full, q_diag = appendix_b_check(s, pi, ref)
                assert q_full <= q_diag + 1e-12

    def test_sampled_pi_is_a_contraction(self):
        rng = np.random.default_rng(3)
        pi = sample_psd_contraction(6, rng)
        evals = np.linalg.eigvalsh(pi)
        assert evals.min() >= -1e-12
        assert evals.max() <= 1.0 + 1e-12


class TestValidationDriver:
    def test_quick_run_passes(self):
        results = run_validation(dim_max=6, instances=12, seed=4)
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]
        names = {r.name for r in results}
        assert "efficiency-vs-enumeration" in names
        assert "duality" in names

    @pytest.fixture(scope="class")
    def clean(self):
        return run_validation(dim_max=5, instances=8, seed=1)

    @pytest.mark.parametrize("value", [1.0, np.nan])
    @pytest.mark.parametrize("suite", range(len(oracle._SUITES)))
    def test_each_suite_can_fail(self, monkeypatch, clean, suite, value):
        # 1.0 is above every bound; a NaN, which max drops from the worst
        # value, must fail its suite all the same
        name = inject_fault(monkeypatch, suite, value)
        results = run_validation(dim_max=5, instances=8, seed=1)
        assert [r.name for r in results] == [r.name for r in clean]
        for r, c in zip(results, clean):
            assert r == (ValidationResult(name, False, r.detail) if r.name == name else c)

    def test_duality_counts_every_failing_instance(self, monkeypatch):
        inject_fault(monkeypatch, 2, 1.0, every=3)  # instances 0, 3, 6 and 9
        duality = run_validation(dim_max=5, instances=12, seed=1)[2]
        assert (duality.name, duality.passed, duality.detail) == ("duality", False, "failures=4")

    def test_one_nan_pair_fails_offdiagonal(self, monkeypatch):
        calls = itertools.count()
        check = oracle.appendix_b_check

        def nan_once(s, pi, ref):
            q_full, q_diag = check(s, pi, ref)
            return (np.nan if next(calls) == 100 else q_full), q_diag

        monkeypatch.setattr(oracle, "appendix_b_check", nan_once)
        offdiag = run_validation(dim_max=5, instances=2, seed=1)[4]
        assert (offdiag.name, offdiag.passed) == ("offdiagonal-never-helps", False)

    def test_validate_reaches_every_public_verifier(self, monkeypatch):
        # the oracle ships only what `validate` runs; a verifier that only the
        # tests call belongs in helpers
        public = [name for name, obj in vars(oracle).items()
                  if inspect.isfunction(obj) and obj.__module__ == oracle.__name__
                  and not name.startswith("_")]
        called = set()

        def recorder(name, fn):
            def record(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return record

        for name in public:
            monkeypatch.setattr(oracle, name, recorder(name, getattr(oracle, name)))
        oracle.run_validation(dim_max=3, instances=1, seed=0)
        assert sorted(set(public) - called) == []

    @pytest.mark.parametrize("dim_max", [MIN_VALIDATION_DIM - 1, 0, -5])
    def test_dim_max_below_minimum_is_typed_error(self, dim_max):
        with pytest.raises(ValueError, match="MIN_VALIDATION_DIM = 3"):
            run_validation(dim_max=dim_max, instances=1)

    @pytest.mark.parametrize("instances", [0, -1])
    def test_no_instances_is_typed_error(self, instances):
        with pytest.raises(ValueError, match="instances must be at least 1"):
            run_validation(dim_max=5, instances=instances)


class TestPrefixScanAtScale:
    """The planners' water level against the sorted-prefix scan at D = 2^20."""

    D = 2**20

    @pytest.fixture(scope="class")
    def spectrum(self):
        return dirichlet_spectrum(np.random.default_rng(20), self.D)

    def _check(self, s, outcome, n_scan, level_scan):
        plan = outcome.plan
        sq = s.sq_coeffs
        assert plan.n_opt == n_scan
        assert abs(plan.crop_level - level_scan) <= 1e-12 * level_scan
        assert plan.n_opt == np.count_nonzero(sq >= plan.crop_level)
        assert np.all(plan.x <= sq)
        assert_level_plan(plan, sq)

    @pytest.mark.parametrize("k_ref", [1.05, 1.5, 4.0])
    def test_efficiency(self, spectrum, k_ref):
        ref = k_ref / self.D
        n_scan, level_scan = prefix_scan_efficiency(spectrum, ref)
        assert 0 < n_scan < self.D
        self._check(spectrum, optimal_plan_efficiency(spectrum, ref), n_scan, level_scan)

    @pytest.mark.parametrize("p_fix", [1e-3, 0.1, 0.5, 0.9])
    def test_fixed(self, spectrum, p_fix):
        n_scan, level_scan = prefix_scan_fixed(spectrum, p_fix)
        assert 0 < n_scan < self.D
        out = optimal_plan_fixed(spectrum, FixedProbRequest(p_fix))
        self._check(spectrum, out, n_scan, level_scan)
        assert out.p_success == pytest.approx(p_fix, rel=1e-12)


def _breakpoint_probes(s):
    """The frontier's breakpoints p_n, the efficiency breakpoints
    r_n = a_n^2 / p_n (0 where p_n = 0), the relative window w = D * 2^-52
    that the rounding of the frontier's cumsum needs, and a subsample of at
    most 128 of the n = 1..D."""
    a, _, p = frontier(s)
    r = np.divide(a, p, out=np.zeros_like(p), where=p > 0.0)
    return p, r, s.dim * 2.0**-52, np.arange(1, s.dim + 1)[:: max(1, s.dim // 128)]


def _isolated(v, w, ns):
    """The n in [2, D - 1] among ``ns`` whose neighbours in the descending
    breakpoints ``v`` lie outside the relative window w around v_n."""
    ns = ns[(ns >= 2) & (ns <= v.size - 1)]
    return ns[(v[ns] < v[ns - 1] * (1 - w)) & (v[ns - 2] > v[ns - 1] * (1 + w))]


class TestFrontierBreakpoints:
    """The planners' crop count changes exactly at the frontier's breakpoints."""

    def test_worked_frontier(self):
        a, beta, p = frontier(make_spectrum([0.2, 0.5, 0.0, 0.3]))
        assert a.tolist() == [0.5, 0.3, 0.2, 0.0]
        assert beta.tolist() == [0.5, 0.2, 0.0, 0.0]
        assert p == pytest.approx([1.0, 0.8, 0.6, 0.0], abs=1e-15)

    @pytest.mark.parametrize("dim", [3, 10, 300, 2**14])
    def test_fixed_crop_changes_at_each_breakpoint(self, dim):
        s = case_spectrum(dim)
        p, _, w, ns = _breakpoint_probes(s)
        isolated = _isolated(p, w, ns)
        assert isolated.size >= min(dim - 2, 100)
        for n in isolated.tolist():
            for p_fix, expected in ((p[n - 1] * (1 - w), n), (p[n - 1] * (1 + w), n - 1)):
                assert optimal_plan_fixed(s, FixedProbRequest(p_fix)).plan.n_opt == expected

    @pytest.mark.parametrize("dim", [3, 10, 300, 2**14])
    def test_efficiency_crop_changes_at_each_breakpoint(self, dim):
        s = case_spectrum(dim)
        _, r, w, ns = _breakpoint_probes(s)
        isolated = _isolated(r, w, ns)
        isolated = isolated[r[isolated - 1] * (1 - w) > 1.0 / dim + P_REF_TOL]
        assert isolated.size >= min(dim - 2, 100)
        for n in isolated.tolist():
            for p_ref, expected in ((r[n - 1] * (1 - w), n), (r[n - 1] * (1 + w), n - 1)):
                plan = optimal_plan_efficiency(s, p_ref).plan
                assert plan.n_opt == expected

    @pytest.mark.parametrize("case", BOUNDARY_CASES, ids=str)
    def test_lookups_give_the_planners_crop(self, case):
        # on either side of every sampled breakpoint, ties and zeros included;
        # references below 1/rank have no plan, and those at 1/D the closed form
        s = case_spectrum(case)
        p, r, w, ns = _breakpoint_probes(s)
        for p_fix in np.concatenate((p[ns - 1] * (1 - w), p[ns - 1] * (1 + w))).tolist():
            if 0.0 < p_fix <= 1.0:
                plan = optimal_plan_fixed(s, FixedProbRequest(p_fix)).plan
                assert prefix_scan_fixed(s, p_fix)[0] == plan.n_opt
        for p_ref in np.concatenate((r[ns - 1] * (1 - w), r[ns - 1] * (1 + w))).tolist():
            if 1.0 / s.rank + P_REF_TOL < p_ref <= 1.0:
                ref = p_ref
                plan = optimal_plan_efficiency(s, ref).plan
                assert prefix_scan_efficiency(s, ref)[0] == plan.n_opt
