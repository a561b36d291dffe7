"""Efficiency-optimal entanglement concentration.

The planner maximizes the payoff

    Q(y) = p_s(y)^2 * (C(y)^2 - C_ref^2)
         = D/(D-1) * [ P_ref * (sum_m a_m^2 y_m)^2 - sum_m a_m^4 y_m^2 ]

over the box 0 <= y_m <= 1, where y_m are the squared diagonal Kraus weights
and P_ref = 1 - (D-1)/D * C_ref^2 is the reference purity. The maximizer is
closed form: one water level L cuts every squared coefficient above it down
to L and leaves the rest untouched, x_m = a_m^2 y_m = min(a_m^2, L). Working
in x, the payoff (up to the D/(D-1) factor) is P_ref * (sum x)^2 - sum x^2 on
the orthotope 0 <= x_m <= a_m^2, and L solves L = P_ref * sum_m min(a_m^2, L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    OutOfRangeError,
    RankDeficientFullConcentrationError,
    YOutOfBoxError,
)
from .spectrum import Measures, SchmidtSpectrum, _Owned, _frozen_array, measures

#: additive slack of the range checks on user-supplied parameters
FEAS_TOL = 1e-12
#: slack of a reference purity at its minimum 1/D: half an ulp of 1, the
#: rounding of 1 - (D-1)/D * c_ref^2 at c_ref = 1, which lands within a
#: quarter ulp of 1 of 1/D but up to 6e-11 from it relative to 1/D
P_REF_TOL = 2.0**-53


@dataclass(frozen=True, eq=False)
class ReferenceLevel:
    """Reference purity P_ref with its equivalent views.

    The three parameterizations (reference purity, squared reference
    I-Concurrence, reference Schmidt number) store one number; ``p_ref`` is
    canonical.
    """

    dim: int
    p_ref: float

    def __post_init__(self):
        lo = 1.0 / self.dim
        if not lo - P_REF_TOL <= self.p_ref <= 1.0 + FEAS_TOL:
            raise OutOfRangeError(
                f"p_ref={self.p_ref!r} outside [1/{self.dim}, 1]"
            )

    @property
    def c_ref_sq(self) -> float:
        d = self.dim
        return (d / (d - 1.0)) * (1.0 - self.p_ref)

    @property
    def k_ref(self) -> float:
        return 1.0 / self.p_ref

    @property
    def is_standard_concentration(self) -> bool:
        """True when P_ref sits at its minimum 1/D (C_ref = 1), up to the
        rounding of its computation; every larger P_ref gets its own level."""
        return self.p_ref - 1.0 / self.dim <= P_REF_TOL


def reference_from(kind: str, value: float, dim: int) -> ReferenceLevel:
    """Build a reference level from any of its equivalent parameterizations.

    ``kind`` is one of ``p_ref``, ``c_ref``, ``c_ref_sq``, ``k_ref``. A value
    within ``FEAS_TOL`` past the bound that means the minimum P_ref (c_ref = 1,
    c_ref_sq = 1, k_ref = D) is taken as that bound.
    """
    value = float(value)
    if kind == "p_ref":
        p_ref = value
    elif kind == "c_ref":
        if not -FEAS_TOL <= value <= 1.0 + FEAS_TOL:
            raise OutOfRangeError(f"c_ref={value!r} outside [0, 1]")
        value = min(value, 1.0)
        p_ref = 1.0 - (dim - 1.0) / dim * value * value
    elif kind == "c_ref_sq":
        if not -FEAS_TOL <= value <= 1.0 + FEAS_TOL:
            raise OutOfRangeError(f"c_ref_sq={value!r} outside [0, 1]")
        value = min(value, 1.0)
        p_ref = 1.0 - (dim - 1.0) / dim * value
    elif kind == "k_ref":
        if not 1.0 - FEAS_TOL <= value <= dim + FEAS_TOL:
            raise OutOfRangeError(f"k_ref={value!r} outside [1, {dim}]")
        value = min(value, float(dim))
        p_ref = 1.0 / value
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    return ReferenceLevel(dim, p_ref)


@dataclass(frozen=True, eq=False)
class ConcentrationPlan:
    """A diagonal filtering plan, fixed by one water level.

    ``y`` holds the squared Kraus weights (original index order) and
    ``x = a^2 * y`` the unnormalized post-concentration coefficients, so
    x_m = min(a_m^2, ``crop_level``) <= a_m^2. ``n_opt`` counts the cut
    coefficients: whenever n_opt > 0 the crop is {m : a_m^2 >= ``crop_level``},
    where y_m = crop_level / a_m^2, and y_m = 1 elsewhere. The identity plan
    has n_opt = 0, y = 1 and the level max a^2.
    """

    y: np.ndarray
    x: np.ndarray
    n_opt: int
    crop_level: float

    def __post_init__(self):
        for name in ("y", "x"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class ConcentrationOutcome:
    """A plan together with everything it achieves on a given spectrum.

    ``q_value`` is the efficiency payoff when a reference level was part of
    the computation, else None (the fixed-probability planner has no
    reference).
    """

    plan: ConcentrationPlan
    p_success: float
    post_spectrum: SchmidtSpectrum
    post_measures: Measures
    q_value: float | None


def _scale(dim: int) -> float:
    return dim / (dim - 1.0)


def _check_box(y: np.ndarray):
    if np.any(y < -FEAS_TOL) or np.any(y > 1.0 + FEAS_TOL):
        raise YOutOfBoxError("y leaves the box [0, 1]^D")


def efficiency_q(s: SchmidtSpectrum, y, ref: ReferenceLevel) -> float:
    """Evaluate the efficiency payoff Q at an arbitrary box point."""
    y = np.asarray(y, dtype=float)
    if y.shape != (s.dim,):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({s.dim},)")
    _check_box(y)
    x = s.sq_coeffs * y
    total = float(np.add.reduce(x))
    return _scale(s.dim) * (ref.p_ref * total * total - float(np.dot(x, x)))


def _level_plan(s: SchmidtSpectrum, level: float, n: int) -> ConcentrationPlan:
    """The plan that cuts the ``n`` coefficients a^2 >= ``level`` down to it."""
    if not level > 0.0:
        # with L > 0 every cut coefficient keeps x = a^2 * (L / a^2) > 0, so
        # p_success > 0 and the post spectrum x / p_success is valid
        raise InfeasibleError(
            "the water level underflows to 0: no plan with positive "
            "success probability can be computed"
        )
    sq = s.sq_coeffs
    # on the crop a^2 >= L, max(a^2, L) = a^2 and y is the division L / a^2 <= 1,
    # so x = a^2 * y never exceeds a^2; elsewhere, zeros and -0.0 included, y is
    # L / L, exactly 1.0 because every level is finite and positive
    y = np.maximum(sq, level)
    np.divide(level, y, out=y)
    return ConcentrationPlan(y=_Owned(y), x=_Owned(sq * y), n_opt=n, crop_level=float(level))


def _outcome_from_plan(
    s: SchmidtSpectrum, plan: ConcentrationPlan, q_value: float | None
) -> ConcentrationOutcome:
    p_success = float(np.add.reduce(plan.x))
    # 0 <= x_m <= a^2 is finite and p_success > 0 (the level is positive), so
    # each ratio lies in [0, 1] and the ratios sum to 1 up to rounding
    post = SchmidtSpectrum(s.dim, _Owned(plan.x / p_success))
    return ConcentrationOutcome(plan, p_success, post, measures(post), q_value)


def _efficiency_level(
    sq: np.ndarray, p_ref: float, top: float
) -> tuple[float, int, np.ndarray, float]:
    """Positive root of L = P_ref * sum_m min(a_m^2, L), for 1/D < P_ref < top = max a^2,
    with the crop size n = #{a^2 >= L}, the uncut coefficients a^2 < L and
    their sum beta.

    Where the n coefficients at or above L are cut and beta is the weight
    below L, the equation is linear with root P_ref * beta / (1 - n * P_ref).
    That Newton step, started at max a^2, approaches the root from above and
    cuts more coefficients each time, until a step cuts no new ones. A crop
    of the whole support (beta = 0), or one at the curvature bound
    n * P_ref >= 1, has no positive root on its piece and keeps its level.
    """
    level = top
    n_prev = 0
    while True:
        # the coefficients and every level are finite, so a^2 < L is
        # exactly the complement of the crop a^2 >= L
        rest = sq.compress(sq < level)
        n = sq.size - rest.size
        beta = float(np.add.reduce(rest))
        if n <= n_prev or beta == 0.0 or n * p_ref >= 1.0:
            return level, n, rest, beta
        level = p_ref * beta / (1.0 - n * p_ref)
        n_prev = n


def optimal_plan_efficiency(s: SchmidtSpectrum, ref: ReferenceLevel) -> ConcentrationOutcome:
    """Globally maximize the efficiency payoff over all diagonal plans.

    Every plan is one water level L, x_m = min(a_m^2, L). At the minimum
    reference purity P_ref = 1/D this is standard concentration: L = a_min^2,
    so every coefficient is pulled down to the smallest one
    (y_m = a_min^2/a_m^2), the post state is maximally entangled and
    p_success = D * a_min^2.

    For P_ref >= max a^2 the identity plan (keep the state) is optimal and
    is returned with n_opt = 0. In between, the optimum cuts every squared
    coefficient at or above the water level L down to L, where L is the
    positive root of L = P_ref * sum_m min(a_m^2, L); n_opt counts the cut
    coefficients.
    """
    if s.dim != ref.dim:
        raise DimensionMismatchError(
            f"spectrum dim {s.dim} != reference dim {ref.dim}"
        )
    d = s.dim
    p_ref = ref.p_ref

    if ref.is_standard_concentration:
        amin = s.min_sq
        if amin == 0.0:
            raise RankDeficientFullConcentrationError(
                "full concentration needs every coefficient positive"
            )
        plan = _level_plan(s, amin, d)
        # the uniform spectrum, valid for every D >= 2
        post = SchmidtSpectrum(d, _Owned(np.full(d, 1.0 / d)))
        return ConcentrationOutcome(plan, d * amin, post, measures(post), 0.0)

    rank = s.rank
    if rank < d and p_ref < 1.0 / rank - P_REF_TOL:
        # demanding more entanglement than the support dimension can carry:
        # the payoff supremum is 0, approached only as p_success -> 0
        raise RankDeficientFullConcentrationError(
            f"p_ref={p_ref!r} below 1/rank with rank={rank}: no plan with "
            "positive success probability reaches the reference entanglement"
        )

    sq = s.sq_coeffs
    top = s.max_sq
    if p_ref >= top:
        identity = _level_plan(s, top, 0)
        return _outcome_from_plan(s, identity, _scale(d) * (p_ref - float(sq @ sq)))

    level, n, rest, beta = _efficiency_level(sq, p_ref, top)
    q = _scale(d) * (level * beta - float(rest @ rest))
    return _outcome_from_plan(s, _level_plan(s, level, n), q)


def apply_plan(
    s: SchmidtSpectrum, plan: ConcentrationPlan, ref: ReferenceLevel | None = None
) -> ConcentrationOutcome:
    """Evaluate an arbitrary (not necessarily optimal) plan on a spectrum.

    Everything is recomputed from ``plan.y``, so this doubles as an
    independent check of planner-built outcomes. ``q_value`` is filled only
    when a reference level is supplied.
    """
    y = np.asarray(plan.y, dtype=float)
    if y.shape != (s.dim,):
        raise DimensionMismatchError(
            f"plan dimension {y.shape[0]} != spectrum dim {s.dim}"
        )
    _check_box(y)
    x = s.sq_coeffs * y
    p_success = float(np.add.reduce(x))
    if p_success <= 0.0:
        raise InfeasibleError("plan has zero success probability")
    post = SchmidtSpectrum(s.dim, x / p_success)
    q = efficiency_q(s, y, ref) if ref is not None else None
    return ConcentrationOutcome(plan, p_success, post, measures(post), q)
