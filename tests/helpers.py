"""Shared strategies and generators for the test suite."""

import contextlib
import itertools
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest

from schmidt_forge import SchmidtForgeError, make_spectrum, sample_haar_spectrum


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
    from schmidt_forge import oracle

    suites = list(oracle._SUITES)
    name, cap, dim_min, check, *rest = suites[suite]
    calls = itertools.count()

    def faulty(s, rng):
        first, *others = check(s, rng)
        return (value if next(calls) % every == 0 else first, *others)

    suites[suite] = (name, cap, dim_min, faulty, *rest)
    monkeypatch.setattr(oracle, "_SUITES", tuple(suites))
    return name
