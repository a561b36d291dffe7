"""Shared strategies and generators for the test suite, and the reference
verifiers that only the tests run."""

import contextlib
import itertools
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest

from schmidt_forge import (
    ConcentrationOutcome,
    ConcentrationPlan,
    SchmidtForgeError,
    SchmidtSpectrum,
    make_spectrum,
    measures,
    sample_haar_spectrum,
)
from schmidt_forge import oracle
from schmidt_forge.efficiency import _MIN_NORMAL, FEAS_TOL, _scale
from schmidt_forge.oracle import _efficiency_table, _payoff, _subset_masks
from schmidt_forge.spectrum import _checked, frontier


@st.composite
def spectra(draw, min_dim=2, max_dim=10, min_value=1e-3, zeros=False):
    """Normalized spectra; with ``zeros`` some entries may be 0.0 or -0.0."""
    d = draw(st.integers(min_dim, max_dim))
    entry = st.floats(min_value, 1.0, allow_nan=False, allow_infinity=False)
    if zeros:
        entry = st.sampled_from([0.0, -0.0]) | entry
    vals = draw(st.lists(entry, min_size=d, max_size=d).filter(lambda v: max(v) > 0.0))
    return make_spectrum(np.asarray(vals), normalize=True)


def haar(dim: int, seed: int):
    return sample_haar_spectrum(dim, seed, 1)[0]


def dirichlet_spectrum(rng: np.random.Generator, dim: int):
    return make_spectrum(rng.dirichlet(np.ones(dim)), normalize=True)


#: spectra with a tie and with a zero, and Dirichlet draws of growing dimension
BOUNDARY_CASES = [[0.4, 0.4, 0.2], [0.5, 0.3, 0.2, 0.0], 3, 10, 300, 2**14]


def case_spectrum(case):
    """``make_spectrum(case)``, or a seeded Dirichlet spectrum of dimension
    ``case`` when it is an int."""
    if isinstance(case, int):
        return dirichlet_spectrum(np.random.default_rng(case), case)
    return make_spectrum(case)


def assert_level_plan(plan, sq: np.ndarray) -> None:
    """The plan is its level: x is exactly ``crop_level`` on the crop
    a^2 >= L and a^2 (bit for bit) off it, y has the bytes of
    L / max(a^2, L), and a^2 * y lies within 1 ulp of x."""
    level = plan.crop_level
    crop = sq >= level
    assert np.all(plan.x[crop] == level)
    assert plan.x[~crop].tobytes() == sq[~crop].tobytes()
    assert plan.y.tobytes() == (level / np.maximum(sq, level)).tobytes()
    assert np.all(np.abs(sq * plan.y - plan.x) <= np.spacing(np.abs(plan.x)))


def random_reference(rng: np.random.Generator, dim: int, margin: float = 0.0, top: float = 1.0):
    """Uniform reference purity in [1/D + margin * span, 1/D + top * span],
    where span = 1 - 1/D."""
    lo = 1.0 / dim
    u = rng.uniform(margin, top)
    return lo + u * (1.0 - lo)


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """A CSV table the package wrote: its header and rows of floats."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    return header.split(","), [[float(v) for v in line.split(",")] for line in lines]


def reference_render(value) -> str:
    """Element-by-element JSON writer: the reference the streamed serializer
    must match byte for byte."""
    import json

    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {reference_render(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(reference_render(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if np.isnan(value) or np.isinf(value):
            return "null"
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


@contextlib.contextmanager
def verifier_rejects(match=None):
    """The block raises a verifier's argument error: a plain ValueError, never
    a domain error."""
    with pytest.raises(ValueError, match=match) as info:
        yield
    assert not isinstance(info.value, SchmidtForgeError)


def inject_fault(monkeypatch, suite: int, value: float, every: int = 1) -> str:
    """Make the ``suite``-th validation suite's check report ``value`` as its
    first metric on every ``every``-th instance, starting with the first; the
    original check still runs, so the random stream is unchanged. Returns the
    suite's name."""
    suites = list(oracle._SUITES)
    name, cap, dim_min, check, *rest = suites[suite]
    calls = itertools.count()

    def faulty(s, rng):
        first, *others = check(s, rng)
        return (value if next(calls) % every == 0 else first, *others)

    suites[suite] = (name, cap, dim_min, faulty, *rest)
    monkeypatch.setattr(oracle, "_SUITES", tuple(suites))
    return name


# --------------------------------------------------------------------------
# reference verifiers: the payoff and outcome of any box point, the
# zero-face enumeration and the frontier lookups, which the tests check the
# planners against and ``validate`` does not run

#: cost guard of the zero-face enumeration
MAX_ZERO_FACE_DIM = 8
#: a spectrum the package derives sums to one within this, as stored
STORED_SUM_TOL = 1e-12


def stored_spectrum(values) -> SchmidtSpectrum:
    """A spectrum of exactly ``values``, certified as one the package could
    store: ``make_spectrum``'s value and shape checks pass, and the values'
    own float sum is within ``STORED_SUM_TOL`` of 1. The spectrum holds a
    copy of the values, not their quotient by the sum."""
    arr, total, _, _ = _checked(values, False)
    assert abs(total - 1.0) <= STORED_SUM_TOL, f"squared coefficients sum to {total!r}"
    return SchmidtSpectrum._adopt(arr.copy())


def _check_box(s: SchmidtSpectrum, y) -> np.ndarray:
    """The coefficients x = a^2 * y of a box point y of the spectrum's dimension."""
    y = np.asarray(y, dtype=float)
    if y.shape != (s.dim,):
        raise ValueError(f"y has shape {y.shape}, expected ({s.dim},)")
    if np.any(y < -FEAS_TOL) or np.any(y > 1.0 + FEAS_TOL):
        raise ValueError("y leaves the box [0, 1]^D")
    return s.sq_coeffs * y


def efficiency_q(s: SchmidtSpectrum, y, p_ref: float) -> float:
    """Evaluate the efficiency payoff Q at an arbitrary box point."""
    return _scale(s.dim) * _payoff(p_ref, _check_box(s, y))


def apply_plan(s: SchmidtSpectrum, plan: ConcentrationPlan) -> ConcentrationOutcome:
    """Evaluate an arbitrary (not necessarily optimal) plan on a spectrum.

    Everything is recomputed from ``plan.y``, so this doubles as an
    independent check of planner-built outcomes. ``q_value`` is None: the
    payoff at a reference purity is ``efficiency_q(s, plan.y, p_ref)``.
    """
    x = _check_box(s, plan.y)
    p_success = float(np.add.reduce(x))
    if p_success <= 0.0:
        raise ValueError("plan has zero success probability")
    post = stored_spectrum(x / p_success)
    return ConcentrationOutcome(plan, p_success, post, measures(post), None)


def best_zero_face_gain(s: SchmidtSpectrum, p_ref: float) -> float:
    """Scaled payoff by which the best point with a zeroed coordinate beats
    the enumeration's winner; never positive, since zeroing never helps.

    Each of the 2^D - 1 nonempty zero sets Z scores the efficiency table of
    the coefficients outside Z (an empty remainder scores 0): the 3^D - 2^D
    assignments with a zeroed coordinate. Guarded to D <= MAX_ZERO_FACE_DIM.
    """
    d = s.dim
    if d > MAX_ZERO_FACE_DIM:
        raise ValueError(f"zero-face enumeration guarded to D <= {MAX_ZERO_FACE_DIM}")
    sq = s.sq_coeffs
    best = float(np.max(_efficiency_table(sq, p_ref)[1]))
    faces = max(
        float(np.max(_efficiency_table(sq[~zero], p_ref)[1]))
        for zero in _subset_masks(d)[1:]
    )
    return _scale(d) * (faces - best)


def prefix_scan_efficiency(s: SchmidtSpectrum, p_ref: float) -> tuple[int, float]:
    """Crop count and level of the efficiency optimum, from the frontier.

    Under the curvature bound n * P_ref < 1 and with something left
    uncropped (beta_n > 0), the level alpha_n = P_ref * beta_n / (1 - n * P_ref)
    fits the box, alpha_n <= a_n^2, exactly where a_n^2 >= P_ref * p_n. These n
    form a prefix, all of it cropped. Valid for P_ref > 1/D; (0, max a^2) is
    the identity.
    """
    a, beta, p = frontier(s)
    # the bound follows from the other two, but not in floats: p_n can absorb
    # a subnormal beta_n, as in [0.5, 0.5, 5e-324] at P_ref = 0.5
    curved = np.arange(1, a.size + 1) * p_ref < 1.0
    n = int(np.count_nonzero((a >= p_ref * p) & (beta > 0.0) & curved))
    if n == 0:
        return 0, float(a[0])
    rest, denom = float(beta[n - 1]), 1.0 - n * p_ref
    # a subnormal beta can round the product to 0 (0.4 * 5e-324) while the
    # level is representable: then divide first
    level = p_ref * rest / denom if p_ref * rest >= _MIN_NORMAL else rest / denom * p_ref
    # at subnormal resolution a near-tie can round the level past a_n^2
    return n, min(level, float(a[n - 1]))


def prefix_scan_fixed(s: SchmidtSpectrum, p_fix: float) -> tuple[int, float]:
    """Crop count and level of the fixed-probability optimum, from the
    frontier: the n breakpoints p_n >= p_fix are cropped at
    kappa = (p_fix - beta_n) / n; (0, max a^2) when p_fix is above them all."""
    a, beta, p = frontier(s)
    n = int(np.count_nonzero(p >= p_fix))
    return (n, (p_fix - float(beta[n - 1])) / n) if n else (0, float(a[0]))
