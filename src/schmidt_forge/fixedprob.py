"""Maximum-entanglement concentration at a fixed success probability.

Pinning p_success = p_fix turns the payoff problem into minimizing the
post-state purity sum_m a_m^4 y_m^2 / p_fix^2 subject to
sum_m a_m^2 y_m = p_fix and the box 0 <= y_m <= 1. The minimizer has the same
structure as the efficiency optimum: every squared coefficient above one
water level kappa is cut down to it, x_m = min(a_m^2, kappa), where kappa
solves sum_m min(a_m^2, kappa) = p_fix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import FEAS_TOL, ConcentrationOutcome, _identity, _level_plan, _outcome_from_plan
from .errors import OutOfRangeError
from .spectrum import SchmidtSpectrum


@dataclass(frozen=True)
class FixedProbRequest:
    """A target success probability in (0, 1]."""

    p_fix: float

    def __post_init__(self):
        if not 0.0 < self.p_fix <= 1.0 + FEAS_TOL:
            raise OutOfRangeError(f"p_fix={self.p_fix!r} outside (0, 1]")


def _fixed_level(sq: np.ndarray, p_fix: float) -> tuple[float, int]:
    """Root kappa of sum_m min(a_m^2, kappa) = p_fix, for 0 < p_fix < sum a^2,
    with the crop size n = #{a^2 >= kappa}.

    Where the n coefficients at or above kappa are cut and beta is the weight
    below kappa, the equation is linear with root (p_fix - beta) / n. That
    Newton step, started at p_fix / D (below the root, since the sum is at
    most D * kappa), approaches the root from below and cuts fewer
    coefficients each time, until a step cuts no fewer.
    """
    level = p_fix / sq.size
    n_prev = sq.size + 1
    while True:
        # the coefficients and every level are finite, so a^2 < kappa is
        # exactly the complement of the crop a^2 >= kappa
        below = sq < level
        n = sq.size - int(np.count_nonzero(below))
        if not 0 < n < n_prev:
            return level, n
        level = (p_fix - float(np.add.reduce(sq.compress(below)))) / n
        n_prev = n


def optimal_plan_fixed(s: SchmidtSpectrum, req: FixedProbRequest) -> ConcentrationOutcome:
    """Minimize post-concentration purity among plans succeeding with p_fix.

    Every squared coefficient at or above the water level kappa is cut down
    to it, where sum_m min(a_m^2, kappa) = p_fix; n_opt counts the cut
    coefficients. A p_fix at or above sum a^2 keeps the state (the identity
    plan, n_opt = 0). The outcome's ``p_success`` equals ``p_fix`` to
    rounding and its purity is the global minimum over the feasible set;
    ``q_value`` is None because no reference level takes part in this
    problem.
    """
    p_fix = float(req.p_fix)
    if p_fix / s.dim == 0.0:
        raise OutOfRangeError(
            f"p_fix={p_fix!r} is too small for dim={s.dim}: "
            "the first water level p_fix / dim underflows to 0"
        )
    if p_fix >= s.total:
        return _identity(s)[0]
    return _outcome_from_plan(_level_plan(s, *_fixed_level(s.sq_coeffs, p_fix)), None)
