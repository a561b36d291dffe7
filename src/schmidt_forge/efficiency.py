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

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InfeasibleError,
    OutOfRangeError,
    RankDeficientFullConcentrationError,
)
from .spectrum import Measures, SchmidtSpectrum, _frozen_array, frontier, measures

#: additive slack of the range checks on user-supplied parameters
FEAS_TOL = 1e-12
#: slack of a reference purity at its minimum 1/D: half an ulp of 1, the
#: rounding of 1 - (D-1)/D * c_ref^2 at c_ref = 1, which lands within a
#: quarter ulp of 1 of 1/D but up to 6e-11 from it relative to 1/D
P_REF_TOL = 2.0**-53
#: smallest positive normal float
_MIN_NORMAL = sys.float_info.min


def reference_from(kind: str, value: float, dim: int) -> float:
    """The reference purity P_ref, from any of its equivalent parameterizations.

    ``kind`` is one of ``p_ref``, ``c_ref_sq`` (the squared reference
    I-Concurrence, P_ref = 1 - (D-1)/D * c_ref_sq) and ``k_ref`` (the
    reference Schmidt number, P_ref = 1/k_ref). A value within ``FEAS_TOL``
    past the bound that means the minimum P_ref (c_ref_sq = 1, k_ref = D) is
    taken as that bound. A P_ref is returned as given: the planner checks its
    range against the spectrum's dimension.
    """
    if not dim >= 2:
        raise OutOfRangeError(f"dim={dim!r} below 2: a reference level needs dim >= 2")
    value = float(value)
    if kind == "p_ref":
        return value
    if kind == "c_ref_sq":
        if not -FEAS_TOL <= value <= 1.0 + FEAS_TOL:
            raise OutOfRangeError(f"c_ref_sq={value!r} outside [0, 1]")
        return 1.0 - (dim - 1.0) / dim * min(value, 1.0)
    if kind == "k_ref":
        if not 1.0 - FEAS_TOL <= value <= dim + FEAS_TOL:
            raise OutOfRangeError(f"k_ref={value!r} outside [1, {dim}]")
        return 1.0 / min(value, float(dim))
    raise ValueError(f"unknown reference kind {kind!r}")


@dataclass(frozen=True, eq=False)
class ConcentrationPlan:
    """A diagonal filtering plan, fixed by one water level.

    ``x`` holds the unnormalized post-concentration coefficients of the
    spectrum ``sq_coeffs`` = a^2, in its index order: x_m = min(a_m^2, L) for
    L = ``crop_level``, exactly L on the crop {m : a_m^2 >= L} and a^2 off it.
    ``n_opt`` counts the cut coefficients. The identity plan has n_opt = 0,
    x = a^2 and L = max a^2; each spectrum makes it once, for both planners.
    """

    x: np.ndarray
    n_opt: int
    crop_level: float
    sq_coeffs: np.ndarray

    @classmethod
    def _adopt(cls, x: np.ndarray, n_opt: int, crop_level: float, sq_coeffs: np.ndarray):
        """A plan of a new ``x`` on a spectrum's a^2, stored as given, x read-only."""
        plan = object.__new__(cls)
        x.setflags(write=False)
        object.__setattr__(plan, "x", x)
        object.__setattr__(plan, "n_opt", n_opt)
        object.__setattr__(plan, "crop_level", crop_level)
        object.__setattr__(plan, "sq_coeffs", sq_coeffs)
        return plan

    def __post_init__(self):
        for name in ("x", "sq_coeffs"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @cached_property
    def y(self) -> np.ndarray:
        """The squared Kraus weights x / a^2 (1 where a^2 = 0), made on first
        read: on a level plan, the bytes of L / max(a^2, L), zeros included."""
        y = _y_of(self.x, self.sq_coeffs)
        y.setflags(write=False)
        return y


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


def _y_of(x: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """The box point y = x / a^2 of coefficients x, with y = 1 where a^2 = 0."""
    return np.divide(x, sq, out=np.ones(sq.size), where=sq > 0.0)


def _level_plan(s: SchmidtSpectrum, level: float, n: int) -> ConcentrationPlan:
    """The plan that cuts the ``n`` coefficients a^2 >= ``level`` down to it."""
    if not level > 0.0:
        # with L > 0 every cut coefficient keeps x = L > 0, so p_success > 0
        # and the post spectrum x / p_success is valid
        raise InfeasibleError(
            "the water level underflows to 0: no plan with positive "
            "success probability can be computed"
        )
    sq = s.sq_coeffs
    return ConcentrationPlan._adopt(np.minimum(sq, level), n, float(level), sq)


def _outcome_from_plan(plan: ConcentrationPlan, q_value: float | None) -> ConcentrationOutcome:
    p_success = float(np.add.reduce(plan.x))
    # 0 <= x_m <= a^2 is finite and p_success > 0 (the level is positive), so
    # each ratio lies in [0, 1] and the ratios sum to 1 up to rounding
    post = SchmidtSpectrum._adopt(plan.x / p_success)
    return ConcentrationOutcome(plan, p_success, post, measures(post), q_value)


def _identity(s: SchmidtSpectrum) -> tuple[ConcentrationOutcome, float]:
    """The identity outcome (q_value None) and sum a^4, shared by every plan that keeps
    the state: made once per spectrum, kept in its instance dict as cached properties are."""
    cache, sq = s.__dict__, s.sq_coeffs
    if "_identity" not in cache:
        plan = _level_plan(s, s.max_sq, 0)
        cache["_identity"] = _outcome_from_plan(plan, None), float(sq @ sq)
    return cache["_identity"]


def _newton_level(p_ref: float, beta: float, n: int) -> float:
    """Root P_ref * beta / (1 - n * P_ref) of the level equation on the piece
    that cuts n coefficients and leaves the weight beta below the level."""
    num = p_ref * beta
    denom = 1.0 - n * p_ref
    # a subnormal beta can round the product to 0 (0.4 * 5e-324) while the
    # root is representable: then divide first
    return num / denom if num >= _MIN_NORMAL else beta / denom * p_ref


def _efficiency_level(
    sq: np.ndarray, p_ref: float, top: float, piece: tuple[float, float] | None = None
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
    A step that cuts fewer has been rounded above the root, past a
    coefficient (a subnormal near-tie); the level before it is kept.

    The loop's answer depends only on the crop it ends on: the step from
    that crop, with rest and beta taken below it in array order. A sweep
    passes ``piece``, two adjacent sorted coefficients hi > lo from its
    frontier, and the crop at hi is solved in one pass. Its step, computed
    with a relative error below eta = (D + 8) * 2^-53 / (1 - n * P_ref)
    whatever the order of the sum, is kept if it lies more than 4 * eta
    inside (lo, hi). Then the exact root lies on this piece, every step from
    a smaller crop lands above lo and below the next uncut coefficient, and
    the loop from max a^2 ends on this crop with the same bytes. Anywhere
    else, near a breakpoint, at a tie or off the frontier's piece, the loop
    runs from max a^2.
    """
    if piece is not None:
        hi, lo = piece
        rest = sq.compress(sq < hi)
        n = sq.size - rest.size
        beta = float(np.add.reduce(rest))
        denom = 1.0 - n * p_ref
        if p_ref * beta >= _MIN_NORMAL and denom > 0.0:
            level = _newton_level(p_ref, beta, n)
            tol = (sq.size + 8) * 2.0**-51 / denom
            if lo < level * (1.0 - tol) and level <= hi * (1.0 - tol):
                return level, n, rest, beta
    level = top
    n_prev = 0
    while True:
        # the coefficients and every level are finite, so a^2 < L is
        # exactly the complement of the crop a^2 >= L
        rest = sq.compress(sq < level)
        n = sq.size - rest.size
        if n < n_prev:
            return prev
        beta = float(np.add.reduce(rest))
        if n == n_prev or beta == 0.0 or n * p_ref >= 1.0:
            return level, n, rest, beta
        prev = level, n, rest, beta
        level = _newton_level(p_ref, beta, n)
        n_prev = n


class _Sweep:
    """The frontier an efficiency sweep's points share.

    Of the spectrum's frontier it keeps the descending a_n^2 and -r_n, where
    r_n = a_n^2 / p_n (0 where p_n = 0) decreases with n: a reference
    between 1/D and max a^2 crops the n with r_n >= P_ref, so its level
    search starts on the piece [a_{n+1}^2, a_n^2]. References at or above
    max a^2 take the spectrum's own identity outcome, as single plans do.
    """

    def __init__(self, s: SchmidtSpectrum):
        a, _, p = frontier(s)
        r = np.divide(a, p, out=np.zeros_like(a), where=p > 0.0)
        self.a, self.neg_r = a, np.negative(r, out=r)

    def crop_count(self, p_ref: float) -> int:
        """The frontier's crop count at ``p_ref``: #{r_n >= P_ref}."""
        return int(np.searchsorted(self.neg_r, -p_ref, side="right"))

    def piece(self, p_ref: float) -> tuple[float, float] | None:
        """The frontier's piece at ``p_ref``: a_n^2 and a_{n+1}^2."""
        n = self.crop_count(p_ref)
        return (float(self.a[n - 1]), float(self.a[n])) if 0 < n < self.a.size else None


def optimal_plan_efficiency(
    s: SchmidtSpectrum, p_ref: float, _sweep: _Sweep | None = None
) -> ConcentrationOutcome:
    """Globally maximize the efficiency payoff over all diagonal plans.

    The reference purity ``p_ref`` must lie in [1/D, 1], up to the rounding
    of its computation (``P_REF_TOL`` below, ``FEAS_TOL`` above).

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

    ``_sweep`` is private to :func:`schmidt_forge.sweep.sweep_table`: the
    frontier its points share, which changes no byte of the outcome.
    """
    d = s.dim
    # written so that a NaN fails it
    if not 1.0 / d - P_REF_TOL <= p_ref <= 1.0 + FEAS_TOL:
        raise OutOfRangeError(f"p_ref={p_ref!r} outside [1/{d}, 1]")

    # P_ref at its minimum 1/D (C_ref = 1), up to rounding: every larger
    # P_ref gets its own level
    if p_ref - 1.0 / d <= P_REF_TOL:
        amin = s.min_sq
        if amin == 0.0:
            raise RankDeficientFullConcentrationError(
                "full concentration needs every coefficient positive"
            )
        plan = _level_plan(s, amin, d)
        # the uniform spectrum, valid for every D >= 2
        post = SchmidtSpectrum._adopt(np.full(d, 1.0 / d))
        return ConcentrationOutcome(plan, d * amin, post, measures(post), 0.0)

    rank = s.rank
    if rank < d and p_ref < 1.0 / rank - P_REF_TOL:
        # demanding more entanglement than the support dimension can carry:
        # the payoff supremum is 0, approached only as p_success -> 0
        raise RankDeficientFullConcentrationError(
            f"p_ref={p_ref!r} below 1/rank with rank={rank}: no plan with "
            "positive success probability reaches the reference entanglement"
        )

    top = s.max_sq
    if p_ref >= top:
        o, sum_sq = _identity(s)
        return ConcentrationOutcome(o.plan, o.p_success, o.post_spectrum, o.post_measures,
                                    _scale(d) * (p_ref - sum_sq))

    piece = None if _sweep is None else _sweep.piece(p_ref)
    level, n, rest, beta = _efficiency_level(s.sq_coeffs, p_ref, top, piece)
    q = _scale(d) * (level * beta - float(rest @ rest))
    return _outcome_from_plan(_level_plan(s, level, n), q)
