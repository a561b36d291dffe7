"""Independent verifiers for the closed-form planners, and the ``validate``
suites that run them.

``duality_check`` cross-checks the two planners: the efficiency optimum is
also the purity minimizer at its own success probability.

Two routes certify the planners without reusing their logic:

* exhaustive active-set enumeration: the identity corner and every nonempty
  interior set cut to its critical level are the candidate maximizers;
* multi-start box-projected gradient ascent on the quadratic payoff, a
  library-free stand-in for a numerical QP solver.

Both enumerators score one table of active sets, and their reports carry it
as arrays: the interior masks (in efficiency mode the all-False row 0 is the
identity corner), each row's value (-inf or inf where infeasible) and the
winning row.

The module also carries the relative-difference metrics used to compare the
two routes, and direct checks of two structural facts: the unreferenced
payoff p^2 C^2 is maximized by doing nothing, and off-diagonal filter
components can only lower the payoff.

Every verifier rejects a bad argument (a wrong shape, a non-Hermitian or
out-of-range filter, a dimension above an enumeration guard) with
``ValueError``; a ``SchmidtForgeError`` that escapes one comes from the
planner or spectrum under check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .efficiency import FEAS_TOL, _scale, _y_of, optimal_plan_efficiency
from .errors import MAX_ENUM_DIM, MIN_VALIDATION_DIM, SchmidtForgeError
from .fixedprob import FixedProbRequest, optimal_plan_fixed
from .sampling import _one_spectrum
from .spectrum import SchmidtSpectrum

#: the stopping rule of each start of numeric_qp_ascent
ASCENT_TOL = 1e-12
ASCENT_MAX_ITER = 100_000
#: uniform box points that appendix_a_check scores
APPENDIX_A_TRIALS = 10_000
#: largest x difference between the two planners that duality_check accepts
DUALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Best point found by an oracle.

    The enumerators fill ``inner``, ``values`` and ``best``: one interior mask
    per scored row, its scaled payoff or post-state purity, and the winning
    row. The ascent fills the relative differences to the closed-form plan
    instead; None when undefined (zero denominator) or the planner fails.
    """

    best_y: np.ndarray
    best_q: float | None = None
    best_purity: float | None = None
    inner: np.ndarray | None = None
    values: np.ndarray | None = None
    best: int | None = None
    delta_y_relative: float | None = None
    delta_q_relative: float | None = None
    converged: bool = True


@lru_cache(maxsize=None)
def _subset_masks(dim: int) -> np.ndarray:
    """Read-only membership table of every subset of range(dim); row 0 is empty."""
    masks = np.arange(1 << dim, dtype=np.uint32)
    table = ((masks[:, None] >> np.arange(dim)) & 1).astype(bool)
    table.flags.writeable = False
    return table


def _active_sets(sq: np.ndarray):
    """Every nonempty interior set of ``sq``: its mask, size n, beta = sum a^2
    and gamma = sum a^4 outside it, and the smallest a^2 inside it.
    Guarded to D <= MAX_ENUM_DIM."""
    if sq.size > MAX_ENUM_DIM:
        raise ValueError(f"enumeration guarded to D <= {MAX_ENUM_DIM}")
    inner = _subset_masks(sq.size)[1:]
    outer = ~inner
    n = inner.sum(axis=1)
    beta = outer @ sq
    gamma = outer @ (sq * sq)
    inner_min = np.where(inner, sq, np.inf).min(axis=1, initial=np.inf)
    return inner, n, beta, gamma, inner_min


def _payoff(p_ref: float, x: np.ndarray) -> float:
    """Unscaled efficiency payoff P_ref * (sum x)^2 - sum x^2 at x = a^2 * y."""
    total = float(np.add.reduce(x))
    return p_ref * total * total - float(x @ x)


def duality_check(s: SchmidtSpectrum, p_ref: float) -> bool:
    """Cross-validate the two planners against each other.

    Feeding the efficiency optimum's success probability to the
    fixed-probability planner must reproduce the same x vector: the payoff
    maximizer is also the purity minimizer at its own success probability
    (otherwise a lower-purity plan at equal probability would beat it).
    """
    eff = optimal_plan_efficiency(s, p_ref)
    fixed = optimal_plan_fixed(s, FixedProbRequest(eff.p_success))
    return bool(np.max(np.abs(eff.plan.x - fixed.plan.x)) <= DUALITY_TOL)


def relative_diffs(y_num, y_alg, q_num: float, q_alg: float) -> tuple[float, float]:
    """Mean per-coordinate relative y difference and relative payoff difference."""
    y_num = np.asarray(y_num, dtype=float)
    y_alg = np.asarray(y_alg, dtype=float)
    if y_num.shape != y_alg.shape:
        raise ValueError(f"y vectors have shapes {y_num.shape} and {y_alg.shape}")
    if np.any(y_num == 0.0):
        raise ValueError("y_num has a zero entry")
    if q_num == 0.0:
        raise ValueError("q_num is zero")
    delta_y = float(np.mean(np.abs((y_num - y_alg) / y_num)))
    delta_q = float(abs((q_num - q_alg) / q_num))
    return delta_y, delta_q


def _efficiency_table(sq: np.ndarray, p_ref: float):
    """Crop levels and unscaled payoffs of the identity corner (row 0, level
    NaN) and of every active set: level alpha = P_ref * beta / (1 - n * P_ref)
    and payoff alpha * beta - gamma where the curvature bound 1 - n * P_ref > 0
    holds and alpha fits the orthotope, -inf elsewhere."""
    _, n, beta, gamma, inner_min = _active_sets(sq)
    denom = 1.0 - n * p_ref
    curv_ok = denom > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(curv_ok, p_ref * beta / denom, np.inf)
    feasible = curv_ok & (alpha >= -FEAS_TOL) & (alpha <= inner_min + FEAS_TOL)
    alpha_safe = np.where(feasible, alpha, 0.0)  # keep inf out of the arithmetic
    q_crit = np.where(feasible, alpha_safe * beta - gamma, -np.inf)
    return np.concatenate(([np.nan], alpha)), np.concatenate(([_payoff(p_ref, sq)], q_crit))


def enumerate_configurations(s: SchmidtSpectrum, p_ref: float) -> OracleReport:
    """Exhaustively score every candidate maximizer of the efficiency payoff.

    The identity corner (row 0) and all 2^D - 1 nonempty interior sets are
    scored; the winner is taken on the unscaled payoffs, and the identity
    wins ties.
    """
    d = s.dim
    sq = s.sq_coeffs
    level, q = _efficiency_table(sq, p_ref)
    inner = _subset_masks(d)
    best = int(np.argmax(q))  # the first maximum: row 0 on a tie
    x = np.where(inner[best], float(level[best]), sq)
    scale = _scale(d)
    return OracleReport(
        best_y=_y_of(x, sq),
        best_q=scale * float(q[best]),
        inner=inner,
        values=scale * q,
        best=best,
    )


def enumerate_fixed_configurations(s: SchmidtSpectrum, p_fix: float) -> OracleReport:
    """Exhaustively minimize post-state purity at a fixed success probability.

    Every nonempty interior set contributes one candidate with common crop
    level kappa = (p_fix - beta) / n when kappa fits the orthotope (purity
    inf elsewhere); purity is convex, so these cover every local (hence the
    global) minimum.
    """
    sq = s.sq_coeffs
    inner, n, beta, gamma, inner_min = _active_sets(sq)
    kappa = (p_fix - beta) / n
    feasible = (kappa >= -FEAS_TOL) & (kappa <= inner_min + FEAS_TOL)
    purity = np.where(feasible, (gamma + n * kappa**2) / (p_fix * p_fix), np.inf)
    best = int(np.argmin(purity))
    x = np.where(inner[best], float(max(kappa[best], 0.0)), sq)
    return OracleReport(
        best_y=_y_of(x, sq),
        best_purity=float(purity[best]),
        inner=inner,
        values=purity,
        best=best,
    )


def numeric_qp_ascent(
    s: SchmidtSpectrum,
    p_ref: float,
    restarts: int = 32,
    seed: int = 0,
) -> OracleReport:
    """Box-projected gradient ascent on the payoff, from many starts.

    Starts are ``restarts`` uniform points in the box, the all-ones corner,
    and the closed-form plan. Steps are taken in the cropped-coefficient
    coordinates x_m = a_m^2 y_m, a diagonal preconditioner that keeps the
    quadratic well conditioned whatever the coefficient spread; clipping to
    [0, a_m^2] is the exact box projection there. Each step backtracks until
    the Armijo condition holds; a start stops when the y-space
    projected-gradient norm drops below ``ASCENT_TOL``, progress stalls at
    rounding level, or ``ASCENT_MAX_ITER`` steps pass. The best end point is
    kept; a later start only displaces it on a relative improvement above
    1e-12 so coinciding maxima do not churn on float noise.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    d = s.dim
    sq = s.sq_coeffs
    scale = _scale(d)
    rng = np.random.default_rng(seed)

    def ascend(x0: np.ndarray) -> tuple[np.ndarray, float, bool]:
        x = np.clip(np.asarray(x0, dtype=float), 0.0, sq)
        q = scale * _payoff(p_ref, x)
        step = 1.0
        stall = 0
        for _ in range(ASCENT_MAX_ITER):
            g = 2.0 * scale * (p_ref * x.sum() - x)
            # termination is measured on the gradient of the y-form payoff
            gy = sq * g
            pg = np.where((x <= 0.0) & (gy < 0.0), 0.0, gy)
            pg = np.where((x >= sq) & (pg > 0.0), 0.0, pg)
            if float(np.linalg.norm(pg)) < ASCENT_TOL:
                return x, q, True
            while True:
                x_new = np.clip(x + step * g, 0.0, sq)
                q_new = scale * _payoff(p_ref, x_new)
                gain = float(g @ (x_new - x))
                if q_new >= q + 1e-4 * gain:
                    break
                step *= 0.5
                if step < 1e-18:
                    return x, q, False
            if q_new - q <= 1e-15 * max(abs(q_new), 1e-300):
                stall += 1
                if stall >= 50:
                    return x_new, q_new, False
            else:
                stall = 0
            x, q = x_new, q_new
            step = min(step * 1.25, 1e9)
        return x, q, False

    try:
        alg = optimal_plan_efficiency(s, p_ref)
    except SchmidtForgeError:
        alg = None

    starts: list[np.ndarray] = []
    if alg is not None:
        starts.append(np.asarray(alg.plan.x, dtype=float))
    starts.append(sq.copy())
    starts.extend(rng.uniform(size=(restarts, d)) * sq)

    best_x = None
    best_q = -np.inf
    converged = False
    for x0 in starts:
        x_end, q_end, met = ascend(x0)
        converged = converged or met
        if best_x is None or q_end > best_q + 1e-12 * max(abs(best_q), abs(q_end), 1e-300):
            best_x, best_q = x_end, q_end
    best_y = _y_of(best_x, sq)

    delta_y = delta_q = None
    if alg is not None:
        try:
            delta_y, delta_q = relative_diffs(best_y, alg.plan.y, best_q, alg.q_value)
        except ValueError:
            pass

    return OracleReport(
        best_y=best_y,
        best_q=float(best_q),
        delta_y_relative=delta_y,
        delta_q_relative=delta_q,
        converged=converged,
    )


def appendix_a_check(s: SchmidtSpectrum, seed: int = 0) -> bool:
    """The payoff without a reference term is maximized by the identity.

    Samples ``APPENDIX_A_TRIALS`` uniform box points and checks that
    D/(D-1) * [p_s(y)^2 - sum a^4 y^2] never exceeds its value at y = 1.
    """
    sq = s.sq_coeffs
    scale = _scale(s.dim)
    rng = np.random.default_rng(seed)
    ys = rng.uniform(size=(APPENDIX_A_TRIALS, s.dim))
    p = ys @ sq
    vals = scale * (p * p - (ys * ys) @ (sq * sq))
    at_identity = scale * _payoff(1.0, sq)
    return bool(np.all(vals <= at_identity + 1e-12))


def appendix_b_check(
    s: SchmidtSpectrum, pi: np.ndarray, p_ref: float
) -> tuple[float, float]:
    """Off-diagonal filter components can only lower the payoff.

    ``pi`` is the positive operator A_dag A of a general (not necessarily
    diagonal) filter, with eigenvalues in [0, 1]. Returns the payoff with the
    off-diagonal penalty included and with off-diagonals zeroed; the first
    never exceeds the second.
    """
    pi = np.asarray(pi, dtype=complex)
    d = s.dim
    if pi.shape != (d, d):
        raise ValueError(f"pi has shape {pi.shape}, expected ({d}, {d})")
    if not np.allclose(pi, pi.conj().T, atol=1e-10):
        raise ValueError("pi is not Hermitian")
    evals = np.linalg.eigvalsh((pi + pi.conj().T) / 2.0)
    if float(evals.min()) < -1e-10:
        raise ValueError(f"pi has negative eigenvalue {float(evals.min())!r}")
    if float(evals.max()) > 1.0 + 1e-10:
        raise ValueError(f"pi has eigenvalue {float(evals.max())!r} above 1")
    sq = s.sq_coeffs
    scale = _scale(d)
    diag = np.real(np.diag(pi))
    p = float(sq @ diag)
    diag_term = float((sq * sq) @ (diag * diag))
    off_sq = np.abs(pi) ** 2
    np.fill_diagonal(off_sq, 0.0)  # sum over m != n only
    off_term = float(sq @ off_sq @ sq)
    q_diag = scale * (p_ref * p * p - diag_term)
    q_full = q_diag - scale * off_term
    return q_full, q_diag


def sample_psd_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian PSD matrix with largest eigenvalue exactly one."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    pi = g.conj().T @ g
    pi /= float(np.linalg.eigvalsh(pi).max())
    return pi


# --------------------------------------------------------------------------
# validation driver behind the CLI `validate` subcommand


@dataclass(frozen=True)
class ValidationResult:
    name: str
    passed: bool
    detail: str


def _efficiency_vs_enumeration(s: SchmidtSpectrum, rng: np.random.Generator):
    p_ref = 1.0 / s.dim + rng.uniform(0.01, 1.0) * (1.0 - 1.0 / s.dim)
    alg = optimal_plan_efficiency(s, p_ref)
    report = enumerate_configurations(s, p_ref)
    dq = abs(alg.q_value - report.best_q) / abs(report.best_q)
    return dq, float(np.max(np.abs(alg.plan.y - report.best_y)))


def _fixedprob_vs_enumeration(s: SchmidtSpectrum, rng: np.random.Generator):
    p_fix = float(rng.uniform(0.05, 1.0))
    alg = optimal_plan_fixed(s, FixedProbRequest(p_fix))
    report = enumerate_fixed_configurations(s, p_fix)
    return alg.post_measures.purity - report.best_purity, abs(alg.p_success - p_fix)


def _duality(s: SchmidtSpectrum, rng: np.random.Generator):
    p_ref = 1.0 / s.dim + rng.uniform(0.0, 1.0) * (1.0 - 1.0 / s.dim)
    return (float(not duality_check(s, p_ref)),)


def _identity_dominates(s: SchmidtSpectrum, rng: np.random.Generator):
    return (float(not appendix_a_check(s, seed=int(rng.integers(2**63)))),)


def _offdiagonal_never_helps(s: SchmidtSpectrum, rng: np.random.Generator):
    p_ref = float(rng.uniform(1.0 / s.dim, 1.0))
    pairs = [appendix_b_check(s, sample_psd_contraction(s.dim, rng), p_ref) for _ in range(200)]
    # np.max keeps a NaN, which then fails the spectrum
    return (float(np.max([q_full - q_diag for q_full, q_diag in pairs])),)


def _ascent_vs_enumeration(s: SchmidtSpectrum, rng: np.random.Generator):
    p_ref = float(rng.uniform(1.0 / s.dim + 0.01, 1.0))
    enum = enumerate_configurations(s, p_ref)
    asc = numeric_qp_ascent(s, p_ref, restarts=8, seed=int(rng.integers(2**63)))
    return (abs(asc.best_q - enum.best_q) / max(abs(enum.best_q), 1e-300),)


# the oracle suites: name, instance cap (None runs every instance), smallest D,
# check(spectrum, rng) -> the instance's metric values, one bound per metric (a
# NaN value is out of bound), the detail format and the worst values' floor
_SUITES = (
    ("efficiency-vs-enumeration", None, MIN_VALIDATION_DIM, _efficiency_vs_enumeration,
     (1e-10, 1e-9), "max_dq={0:.3e} max_dy={1:.3e}", 0.0),
    ("fixedprob-vs-enumeration", None, MIN_VALIDATION_DIM, _fixedprob_vs_enumeration,
     (1e-10, 1e-12), "max_purity_gap={0:.3e} max_p_err={1:.3e}", 0.0),
    ("duality", None, MIN_VALIDATION_DIM, _duality, (0.0,), "failures={failures}", 0.0),
    ("identity-dominates-unreferenced-payoff", 50, 2, _identity_dominates,
     (0.0,), "spectra={count}", 0.0),
    ("offdiagonal-never-helps", 50, 2, _offdiagonal_never_helps,
     (1e-12,), "max_excess={0:.3e}", -np.inf),
    ("ascent-vs-enumeration", 25, MIN_VALIDATION_DIM, _ascent_vs_enumeration,
     (1e-8,), "max_rel={0:.3e}", 0.0),
)


def run_validation(dim_max: int = 10, instances: int = 500, seed: int = 0) -> list[ValidationResult]:
    """Run the oracle suites against the planners on random instances: one
    generator, seeded with ``seed``, draws each instance's D, the seed of its
    Haar spectrum and then what the suite's check draws. A ``dim_max`` below
    ``MIN_VALIDATION_DIM`` or ``instances`` below 1 is a ValueError."""
    if dim_max < MIN_VALIDATION_DIM:
        raise ValueError(
            f"dim_max must be at least MIN_VALIDATION_DIM = {MIN_VALIDATION_DIM}, got {dim_max}"
        )
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    dim_max = min(dim_max, MAX_ENUM_DIM)
    rng = np.random.default_rng(seed)
    results: list[ValidationResult] = []
    for name, cap, dim_min, check, bounds, detail, floor in _SUITES:
        count = instances if cap is None else min(instances, cap)
        worst = [floor] * len(bounds)
        failures = 0
        for _ in range(count):
            d = int(rng.integers(dim_min, dim_max + 1))
            values = check(_one_spectrum(d, int(rng.integers(2**63))), rng)
            worst = [max(w, v) for w, v in zip(worst, values)]  # max skips a NaN value
            failures += not all(v <= b for v, b in zip(values, bounds))
        text = detail.format(*worst, failures=failures, count=count)
        results.append(ValidationResult(name, failures == 0, text))
    return results
