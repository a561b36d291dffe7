"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or in captured output).
Expected values come from independent computations: exhaustive enumeration,
random feasible sampling, direct formula evaluation inside the tests.
"""

import time

import numpy as np
import pytest

from schmidt_forge import (
    FixedProbRequest,
    make_spectrum,
    measures,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sample_haar_spectrum,
)
from schmidt_forge.interp import interp_sweep
from schmidt_forge.oracle import (
    appendix_a_check,
    appendix_b_check,
    duality_check,
    enumerate_configurations,
    numeric_qp_ascent,
    sample_psd_contraction,
)

from helpers import apply_plan


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num}: {name} ({detail})"


def _haar(dim: int, seed: int):
    return sample_haar_spectrum(dim, seed, 1)[0]


def test_criterion_1_closed_form_vs_exhaustive_oracle():
    # P_ref is kept 1% of the span above 1/D: at the endpoint the payoff
    # vanishes and the relative metric is undefined (criterion 4 covers it)
    rng = np.random.default_rng(20260801)
    t0 = time.monotonic()
    worst_dq = worst_dy = 0.0
    worst_sample_excess = -np.inf
    for k in range(500):
        d = int(rng.integers(3, 11))
        s = _haar(d, 1_000_000 + k)
        u = rng.uniform(0.01, 1.0)
        ref = 1.0 / d + u * (1.0 - 1.0 / d)
        alg = optimal_plan_efficiency(s, ref)
        enum = enumerate_configurations(s, ref)
        worst_dq = max(worst_dq, abs(alg.q_value - enum.best_q) / abs(enum.best_q))
        worst_dy = max(worst_dy, float(np.max(np.abs(alg.plan.y - enum.best_y))))
        # blanket check: no random box point beats the plan either
        sq = s.sq_coeffs
        ys = rng.uniform(size=(1000, d))
        p = ys @ sq
        q_samples = (d / (d - 1.0)) * (ref * p * p - (ys * ys) @ (sq * sq))
        worst_sample_excess = max(worst_sample_excess, float(q_samples.max()) - alg.q_value)
    elapsed = time.monotonic() - t0
    ok = (
        worst_dq <= 1e-10
        and worst_dy <= 1e-9
        and worst_sample_excess <= 1e-10
        and elapsed < 60.0
    )
    _report(
        1,
        "closed form vs exhaustive oracle",
        ok,
        f"500 instances, max_dq={worst_dq:.2e}, max_dy={worst_dy:.2e}, "
        f"max_sample_excess={worst_sample_excess:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_numeric_ascent_reproduction():
    # grid spans from twice the minimum reference purity up to 1; at 1/D the
    # payoff is identically zero and the relative metrics lose meaning
    d = 1024
    s = _haar(d, 1)
    grid = np.geomspace(2.0 / d, 1.0, 100)
    t0 = time.monotonic()
    worst_dq = worst_dy = 0.0
    undefined = 0
    for p_ref in grid:
        report = numeric_qp_ascent(s, float(p_ref), restarts=32, seed=2)
        if report.delta_q_relative is None or report.delta_y_relative is None:
            undefined += 1
            continue
        worst_dq = max(worst_dq, report.delta_q_relative)
        worst_dy = max(worst_dy, report.delta_y_relative)
    elapsed = time.monotonic() - t0
    ok = undefined == 0 and worst_dq <= 1e-6 and worst_dy <= 1e-5 and elapsed < 600.0
    _report(
        2,
        "numeric QP ascent matches the closed form at D=1024",
        ok,
        f"100 grid points, max_dQrel={worst_dq:.2e}, max_dyrel={worst_dy:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_large_dimension_statistics():
    d = 1024
    details = []
    ok = True
    for seed in range(1, 6):
        s = _haar(d, seed)
        k_init = measures(s).schmidt_number
        full_prob = d * s.min_sq
        out = optimal_plan_efficiency(s, 1.152e-3)
        k_plan = out.post_measures.schmidt_number
        p_plan = out.p_success
        ok = ok and 460.0 <= k_init <= 560.0
        ok = ok and full_prob <= 1e-5
        ok = ok and k_plan >= 850.0 and p_plan >= 0.08
        details.append(f"K0={k_init:.0f},Dk={full_prob:.0e},K={k_plan:.0f},p={p_plan:.3f}")
    _report(3, "D=1024 statistics near the worked reference point", ok, "; ".join(details))


def test_criterion_4_standard_concentration_endpoint():
    rng = np.random.default_rng(44)
    ok = True
    worst_dev = 0.0
    for k in range(100):
        d = int(rng.integers(3, 13))
        s = _haar(d, 2_000_000 + k)
        out = optimal_plan_efficiency(s, 1.0 / d)
        ok = ok and out.p_success == d * s.min_sq  # closed form, exactly
        redo = apply_plan(s, out.plan)  # independent reconstruction from y
        dev = float(np.max(np.abs(redo.post_spectrum.sq_coeffs - 1.0 / d)))
        dev = max(dev, float(np.max(np.abs(out.post_spectrum.sq_coeffs - 1.0 / d))))
        worst_dev = max(worst_dev, dev)
        ok = ok and dev <= 1e-12
    _report(
        4,
        "reference purity 1/D gives exact full concentration",
        ok,
        f"100 spectra, max_post_dev={worst_dev:.2e}",
    )


def _prefix_crop_purities(sq: np.ndarray, p_fix: float):
    """Independent oracle: purity of every feasible prefix crop."""
    a = np.sort(sq)[::-1]
    d = a.size
    purities = []
    for n in range(1, d + 1):
        beta = float(a[n:].sum())
        kappa = (p_fix - beta) / n
        if kappa < -1e-15 or kappa > a[n - 1] + 1e-15:
            continue
        x = np.concatenate([np.full(n, max(kappa, 0.0)), a[n:]])
        purities.append(float((x @ x) / (p_fix * p_fix)))
    return purities


def _random_feasible_purities(sq: np.ndarray, p_fix: float, rng, count: int):
    """Independent oracle: random box points projected onto the probability slice."""
    d = sq.size
    y = rng.uniform(size=(count, d))
    p = y @ sq
    high = p > p_fix
    y[high] *= (p_fix / p[high])[:, None]
    low = ~high & (p < p_fix)
    t = ((p_fix - p[low]) / (1.0 - p[low]))[:, None]
    y[low] = y[low] + t * (1.0 - y[low])
    return ((y * y) @ (sq * sq)) / (p_fix * p_fix)


def test_criterion_5_fixed_probability_optimality():
    rng = np.random.default_rng(20260805)
    ok = True
    worst_gap = worst_perr = 0.0
    for k in range(500):
        d = int(rng.integers(3, 11))
        s = _haar(d, 3_000_000 + k)
        p_fix = float(rng.uniform(0.02, 1.0))
        out = optimal_plan_fixed(s, FixedProbRequest(p_fix))
        perr = abs(out.p_success - p_fix)
        worst_perr = max(worst_perr, perr)
        purity = out.post_measures.purity
        candidates = _prefix_crop_purities(s.sq_coeffs, p_fix)
        candidates.extend(_random_feasible_purities(s.sq_coeffs, p_fix, rng, 1000))
        gap = purity - min(candidates)
        worst_gap = max(worst_gap, gap)
        ok = ok and perr <= 1e-12 and gap <= 1e-10
    _report(
        5,
        "fixed-probability plans minimize purity",
        ok,
        f"500 instances, max_purity_gap={worst_gap:.2e}, max_p_err={worst_perr:.2e}",
    )


def test_criterion_6_duality():
    rng = np.random.default_rng(66)
    failures = 0
    for k in range(500):
        d = int(rng.integers(3, 11))
        s = _haar(d, 4_000_000 + k)
        u = rng.uniform(0.0, 1.0)
        ref = 1.0 / d + u * (1.0 - 1.0 / d)
        failures += not duality_check(s, ref)
    _report(6, "efficiency and fixed-probability planners agree", failures == 0,
            f"500 instances, failures={failures}")


def test_criterion_7_identity_dominates_unreferenced_payoff():
    rng = np.random.default_rng(77)
    ok = True
    for k in range(50):
        d = int(rng.integers(2, 17))
        s = _haar(d, 5_000_000 + k)
        ok = ok and appendix_a_check(s, seed=int(rng.integers(2**63)))
    _report(7, "identity maximizes the unreferenced payoff", ok, "50 spectra x 1e4 samples")


def test_criterion_8_offdiagonal_components_never_help():
    rng = np.random.default_rng(88)
    ok = True
    worst = -np.inf
    for k in range(50):
        d = int(rng.integers(2, 17))
        s = _haar(d, 6_000_000 + k)
        ref = float(rng.uniform(1.0 / d, 1.0))
        for _ in range(1000):
            pi = sample_psd_contraction(d, rng)
            q_full, q_diag = appendix_b_check(s, pi, ref)
            worst = max(worst, q_full - q_diag)
            ok = ok and q_full <= q_diag + 1e-12
    # worked two-level pair
    pair = appendix_b_check(
        make_spectrum([0.5, 0.5]),
        np.array([[0.5, 0.1], [0.1, 0.5]]),
        0.6,
    )
    ok = ok and pair[0] == pytest.approx(0.04, abs=1e-15)
    ok = ok and pair[1] == pytest.approx(0.05, abs=1e-15)
    _report(
        8,
        "off-diagonal filter components never help",
        ok,
        f"50 spectra x 1e3 operators, max_excess={worst:.2e}, pair=({pair[0]:.4f},{pair[1]:.4f})",
    )


def test_criterion_9_worked_regression():
    s = make_spectrum([0.4, 0.3, 0.2, 0.1])
    eff = optimal_plan_efficiency(s, 0.3)
    fixed = optimal_plan_fixed(s, FixedProbRequest(0.7))
    ok = (
        eff.plan.n_opt == 2
        and abs(eff.plan.crop_level - 0.225) <= 1e-12
        and abs(eff.p_success - 0.75) <= 1e-12
        and abs(eff.q_value - 0.0233333) <= 1e-6
        and np.allclose(fixed.plan.x, [0.2, 0.2, 0.2, 0.1], atol=1e-12)
        and abs(fixed.post_measures.purity - 13.0 / 49.0) <= 1e-12
    )
    _report(
        9,
        "worked D=4 regression",
        ok,
        f"n_opt={eff.plan.n_opt}, alpha={eff.plan.crop_level:.6f}, "
        f"Q={eff.q_value:.7f}, purity={fixed.post_measures.purity:.12f}",
    )


def test_criterion_10_interpolation_baseline():
    rng = np.random.default_rng(1010)
    grid = np.linspace(0.0, 1.0, 101)
    ok = True
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(2, 17))
        s = _haar(d, 7_000_000 + k)
        sq = s.sq_coeffs
        amin = float(sq.min())
        points = interp_sweep(s, grid)
        for xi, pt in zip(grid, points):
            b_expected = sq + (1.0 / d - sq) * xi
            p_expected = 1.0 / (1.0 - xi + xi / (d * amin)) if xi > 0 else 1.0
            dev = max(
                float(np.max(np.abs(pt.spectrum.sq_coeffs - b_expected))),
                abs(pt.success_prob - p_expected),
            )
            worst = max(worst, dev)
            ok = ok and dev <= 1e-12
        ok = ok and abs(points[-1].success_prob - d * amin) <= 1e-12
    _report(
        10,
        "interpolation baseline matches its closed forms",
        ok,
        f"100 spectra x 101 points, max_dev={worst:.2e}",
    )
