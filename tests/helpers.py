"""Shared strategies and generators for the test suite."""

from pathlib import Path

import hypothesis.strategies as st
import numpy as np

from schmidt_forge import SampleSpec, make_spectrum, sample_haar_spectrum


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
    return sample_haar_spectrum(SampleSpec(dim=dim, seed=seed, count=1))[0]


def dirichlet_spectrum(rng: np.random.Generator, dim: int):
    return make_spectrum(rng.dirichlet(np.ones(dim)), normalize=True)


def random_reference(rng: np.random.Generator, dim: int, margin: float = 0.0):
    """Uniform reference purity in [1/D + margin * span, 1]."""
    from schmidt_forge import ReferenceLevel

    lo = 1.0 / dim
    u = rng.uniform(margin, 1.0)
    return ReferenceLevel(dim, lo + u * (1.0 - lo))


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
