"""Golden bytes of the JSON and CSV the CLI and the io module write.

The JSON digests were taken from files written by an element-by-element
serializer (kept as ``helpers.reference_render``); the CSV digests pin the
sweep tables of ``sweep`` and ``interp``. The spectra are dyadic
and the references chosen so that every dot product in a plan's measures came
out the same when summed sequentially, in reverse, pairwise and by
``math.fsum``, so the digests should not depend on the BLAS build.
"""

import hashlib
import json

import numpy as np
import pytest

from schmidt_forge import (
    FixedProbRequest,
    ReferenceLevel,
    io,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
)
from schmidt_forge.cli import main

from helpers import reference_render

SMALL = [0.5, 0.25, 0.125, 0.125]
SIGNED_ZERO = [0.5, -0.0, 0.0, 0.5]
LARGE_DIM = 2**16
PLAN_DIM = 2**12

GOLDEN = {
    "spectrum-small": "36e1af7d36a3c843eea605df099ac04d6234e162b94d0b7fec102b12364ebbea",
    "spectrum-large": "30f9d1cda663f175eab46c7c5e3dfdff19ac78a04c2e592f32503e88e74974e4",
    "concentrate": "3cc8e2abfd437329f9836196ed7160cde1c569bfc3508725e7036c2ccec7413e",
    "concentrate-large": "a648b6b92703fdf6353aa0d83a503ca0c07b2b80704126f89996cd38a373c738",
    "concentrate-signed-zero": "12a44a48c5be0bbff7dcf0408a3e6c9df6b1d6681019da27c064f402077400e1",
    "fixedp": "09661b102b67b96ee480b5da5c9be1cf6a7313b3d640ab200372b4cfc922e074",
    "kthreshold": "b1aad6bdb78b56348ace3844a226650891be2f70e3cefce2ec082dac82b93748",
    "measures": "e32dc253296c03dfc5144db6e81d368325b9baddd728b849b90ad8aa91385fdb",
    "sweep-json": "a8013563bc6ca754731c75d1693c847ccf627eaf5fe6943852c6365a39a227d1",
    "sweep-csv-efficiency": "b4baee9bf08afaf1b40eec69bc74388560c03f57008b53a3b1430adf7bb21896",
    "sweep-csv-fixedprob": "f79fe1bae49fea24628aa279c3805fd5efc79e94e780101feadfe6318e970791",
    "sweep-csv-interp": "92c5f4d2ed405c8f198a2721f5d98eb7607849e6e2219ff756720435518b80ae",
    "interp": "92c5f4d2ed405c8f198a2721f5d98eb7607849e6e2219ff756720435518b80ae",
}

#: plan vectors of seeded non-dyadic D = 2^12 spectra; a plan's y, x, post
#: spectrum and p_success use no BLAS call, so these hold for any thread count
PLAN_DIGESTS = {
    "efficiency-positive": "c9091b4c15d6a848735a5eab4e73b054a38ebe0cbb6ab46a7e290f52b9f95340",
    "efficiency-sparse": "5c4ffd3114e78e464cd76f903061bde9428d5ec8bfac2849a5da47f3981e7893",
    "fixed-positive": "f05e8b1952cd3278651855797790d3c62b4f89b426f7206ed7a24b9bab29fd92",
    "fixed-sparse": "2430cac1c93f26a9078e3d1d4df76ba0c153a1b70e255942e1becbea767b25f8",
}

NON_FINITE = (
    b'{"scalar": null, "array": [0.5, null, null, null, 2], '
    b'"list": [null, 1], "mixed": [1, null, "x", true, null]}\n'
)


def _large_outcome_spectrum():
    # three dyadic values in a scrambled order, so every chunk differs
    base = np.concatenate([
        np.full(2**14, 2.0**-15), np.full(2**14, 2.0**-16), np.full(2**15, 2.0**-17),
    ])
    return make_spectrum(base[(np.arange(LARGE_DIM) * 40503) % LARGE_DIM], normalize=False)


def _large_spectrum():
    # distinct coefficients in a scrambled order
    c = 1.0 + (np.arange(LARGE_DIM) * 40503) % LARGE_DIM
    return make_spectrum(c / c.sum(), normalize=False)


def assert_same_text(got: str, want: str) -> None:
    # pytest's own diff of two long one-line strings takes minutes
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {i}: "
                    f"{got[max(i - 40, 0):i + 40]!r} != {want[max(i - 40, 0):i + 40]!r}")


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """Every golden case as the bytes the current code writes."""
    tmp = tmp_path_factory.mktemp("golden")
    small, large = tmp / "small.json", tmp / "large.json"
    io.write_spectrum(make_spectrum(SMALL), small)
    # written by json, so the input keeps -0.0 apart from 0.0 whatever io does
    signed_zero = tmp / "signed-zero.json"
    signed_zero.write_text(json.dumps({"dim": 4, "squared_coefficients": SIGNED_ZERO}))
    io.write_spectrum(_large_outcome_spectrum(), large)
    io.write_spectrum(_large_spectrum(), tmp / "spectrum-large.json")
    runs = {
        "concentrate": ["concentrate", "--spectrum", str(small), "--pref", "0.28"],
        "concentrate-large": ["concentrate", "--spectrum", str(large),
                              "--pref", repr(1.5 / LARGE_DIM)],
        "concentrate-signed-zero": ["concentrate", "--spectrum", str(signed_zero),
                                    "--pref", "0.5"],
        "fixedp": ["fixedp", "--spectrum", str(small), "--p", "0.7"],
        "kthreshold": ["kthreshold", "--spectrum", str(small), "--kmin", "3.5", "--gap", "0.1"],
        "sweep-json": ["sweep", "--spectrum", str(small), "--mode", "efficiency",
                       "--pref-grid", "0.26,0.28,0.32,0.4", "--format", "json"],
        "sweep-csv-efficiency": ["sweep", "--spectrum", str(small), "--mode", "efficiency",
                                 "--pref-grid", "1/D,0.28,0.34375,0.5,1"],
        "sweep-csv-fixedprob": ["sweep", "--spectrum", str(small), "--mode", "fixedprob",
                                "--pfix-grid", "0.5,0.625,0.8125,1"],
        "sweep-csv-interp": ["sweep", "--spectrum", str(small), "--mode", "interp",
                             "--xi-grid", "lin:0:1:5"],
        "interp": ["interp", "--spectrum", str(small), "--grid-points", "5"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp / name)]) == 0
    out = {name: (tmp / name).read_bytes() for name in runs}
    out["spectrum-small"] = small.read_bytes()
    out["spectrum-large"] = (tmp / "spectrum-large.json").read_bytes()
    return out, small


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_file_bytes_match_golden(artefacts, capsys, name):
    files, small = artefacts
    if name == "measures":
        assert main(["measures", str(small)]) == 0
        data = capsys.readouterr().out.encode("utf-8")
    else:
        data = files[name]
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_stdout_matches_file(artefacts, capsys):
    files, small = artefacts
    assert main(["concentrate", "--spectrum", str(small), "--pref", "0.28"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == files["concentrate"]


def _plan_spectra():
    """Dirichlet draws at D = 2^12 with tied coefficients: "sparse" also
    holds zeros and -0.0, "positive" has none."""
    rng = np.random.default_rng(12)
    sparse = rng.dirichlet(np.ones(PLAN_DIM))
    sparse[::13] = sparse.max()
    sparse[1::17] = sparse[2]
    sparse[5::11] = 0.0
    sparse[6::11] = -0.0
    positive = rng.dirichlet(np.full(PLAN_DIM, 0.5))
    positive[::19] = positive.max()
    positive[3::7] = positive[4]
    return {"sparse": make_spectrum(sparse, normalize=True),
            "positive": make_spectrum(positive, normalize=True)}


def _plan_digest(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        for a in (out.plan.y, out.plan.x, out.post_spectrum.sq_coeffs):
            h.update(a.tobytes())
        h.update(repr((out.plan.n_opt, out.plan.crop_level, out.p_success)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_plan_vectors_match_digest(name):
    planner, kind = name.split("-")
    s = _plan_spectra()[kind]
    d, top = s.dim, float(s.sq_coeffs.max())
    if planner == "efficiency":
        low = 1.0 / s.rank  # the standard concentration 1/D on the positive draw
        refs = [low, 1.3 * low, 2.0 * low, 3.0 * low, 0.5 * (top + 3.0 * low), top, 1.0]
        outs = [optimal_plan_efficiency(s, ReferenceLevel(d, p)) for p in refs]
    else:
        fixes = [1e-9, 1.0 / d, 0.01, 0.3, 0.9, float(np.add.reduce(s.sq_coeffs)), 1.0]
        outs = [optimal_plan_fixed(s, FixedProbRequest(p)) for p in fixes]
    assert _plan_digest(outs) == PLAN_DIGESTS[name]


def test_non_finite_floats_render_null(tmp_path):
    obj = {
        "scalar": float("nan"),
        "array": np.array([0.5, np.nan, np.inf, -np.inf, 2.0]),
        "list": [np.inf, 1.0],
        "mixed": [1, np.nan, "x", True, -np.inf],
    }
    path = tmp_path / "n.json"
    io.write_json(obj, path)
    assert path.read_bytes() == NON_FINITE
    assert (reference_render(obj) + "\n").encode("utf-8") == NON_FINITE


def test_pieces_match_reference_writer():
    rng = np.random.default_rng(5)
    n = 3 * io.FLOAT_CHUNK + 17
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[[0, io.FLOAT_CHUNK - 1, io.FLOAT_CHUNK, n - 1]] = [np.nan, np.inf, -np.inf, np.nan]
    obj = {
        "chunks": floats,
        "exact_chunk": floats[: io.FLOAT_CHUNK],
        "list": floats[:50].tolist(),
        "tuple": tuple(floats[50:60].tolist()),
        "float32": rng.standard_normal(20).astype(np.float32),
        "float32_list": [np.float32(0.1), 0.2],
        "ints": np.arange(5),
        "matrix": rng.standard_normal((3, 4)),
        "empty_array": np.array([]),
        "empty_list": [],
        "mixed": [1, 2.5, np.int64(3), np.float64(0.1), None, True, "a\"é", [0.5, 2]],
        "nested": {"rows": [{"p": 0.25, "n": 2, "q": None}], "ok": False},
        "scalar": np.float64(1 / 3),
    }
    assert_same_text("".join(io.json_pieces(obj)), reference_render(obj))
    # brackets plus one piece per chunk: the text is streamed, not built whole
    assert len(list(io.json_pieces(floats))) == 2 + 4


def _repeat_cases():
    """Arrays whose chunks repeat values, as an optimal plan's y and
    post-selected spectrum do; the last chunk of a D = FLOAT_CHUNK + 1 array
    holds one value."""
    rng = np.random.default_rng(7)
    values = [0.0, -0.0, 1.0, 0.1, 2.0**-30, np.nan, np.inf, -np.inf]
    floats = rng.choice(values, size=3 * io.FLOAT_CHUNK + 5)
    return {
        "signed_zeros": np.array([0.0, -0.0, 0.5, -0.0, 0.0, 1.0, -0.0]),
        "all_ones": np.ones(io.FLOAT_CHUNK + 1),
        "all_repeat_tail": np.full(io.FLOAT_CHUNK + 1, 0.1),
        "non_finite_repeats": np.tile([np.nan, 0.25, np.inf, 0.25, -np.inf, 3.0, np.nan, -0.0], 9),
        "chunks_of_repeats": floats,
        "strided": floats[::3],
        "float32_repeats": np.tile(np.array([0.1, -0.0, 0.1, 2.5, 0.0], dtype=np.float32), 7),
        "repeat_list": [0.5, -0.0, 0.5, 0.0, float("nan"), 0.5],
    }


@pytest.mark.parametrize("name", sorted(_repeat_cases()))
def test_repeated_values_match_reference_writer(name):
    value = _repeat_cases()[name]
    assert_same_text("".join(io.json_pieces(value)), reference_render(value))
