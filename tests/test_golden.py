"""Golden bytes of the JSON and CSV the CLI and the io module write.

The JSON digests were taken from files written by an element-by-element
serializer (kept as ``helpers.reference_render``); the CSV digests pin the
sweep tables of ``sweep``, one per mode. The spectra are dyadic and the
references chosen so that every dot product in a plan's measures came out the
same when summed sequentially, in reverse, pairwise and by
``math.fsum``, so the digests should not depend on the BLAS build, with one
exception, ``sweep-csv-summation-order``.
"""

import hashlib
import json

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from schmidt_forge import (
    FixedProbRequest,
    io,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sweep_table,
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
    "concentrate-kref": "b1aad6bdb78b56348ace3844a226650891be2f70e3cefce2ec082dac82b93748",
    "concentrate-large": "a648b6b92703fdf6353aa0d83a503ca0c07b2b80704126f89996cd38a373c738",
    "concentrate-signed-zero": "12a44a48c5be0bbff7dcf0408a3e6c9df6b1d6681019da27c064f402077400e1",
    "fixedp": "09661b102b67b96ee480b5da5c9be1cf6a7313b3d640ab200372b4cfc922e074",
    "measures": "e32dc253296c03dfc5144db6e81d368325b9baddd728b849b90ad8aa91385fdb",
    "sweep-csv-efficiency": "b4baee9bf08afaf1b40eec69bc74388560c03f57008b53a3b1430adf7bb21896",
    # at P_ref = 0.4 the post spectrum is [0.4, 0.3, 0.15, 0.15], whose purity
    # is 0.29500000000000004 summed sequentially but 0.295 summed as
    # (s0 + s1) + (s2 + s3), an order a vectorised ddot may use, so another
    # BLAS build could write other bytes
    "sweep-csv-summation-order":
        "4dddfdd797aa2e1e9278a0f75b9df38cb53e0711c59f95fb5d529e1564b64114",
    "sweep-csv-fixedprob": "f79fe1bae49fea24628aa279c3805fd5efc79e94e780101feadfe6318e970791",
    "sweep-csv-interp": "92c5f4d2ed405c8f198a2721f5d98eb7607849e6e2219ff756720435518b80ae",
}

#: plan vectors of seeded non-dyadic D = 2^12 spectra; a plan's y, x, post
#: spectrum and p_success use no BLAS call, so these hold for any thread count
PLAN_DIGESTS = {
    "efficiency-positive": "d22b50b4bdf186442994278f25eb8f76f7281d598062612e813058f794623b63",
    "efficiency-sparse": "f569ace8ecb9ae3396163cf4fe6adc8a3b6c2404c503ead14332f6e86025afcc",
    "fixed-positive": "d2deaa69288b47c4fae91bf5d84bfdd119fb4636becd602c80dae338eb8f63a2",
    "fixed-sparse": "f3ea911ef64630896d1d785ef45c5eeedf7bbd5a137315c4183ed2d4bd79779d",
}

NON_FINITE = (
    b'{"scalar": null, "array": [0.5, null, null, null, 2], '
    b'"floats": {"inf": null, "one": 1}, "mixed": {"int": 1, "nan": null, "none": null, '
    b'"minus_inf": null}}\n'
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
        "concentrate-kref": ["concentrate", "--spectrum", str(small), "--kref", "3.15"],
        "concentrate-large": ["concentrate", "--spectrum", str(large),
                              "--pref", repr(1.5 / LARGE_DIM)],
        "concentrate-signed-zero": ["concentrate", "--spectrum", str(signed_zero),
                                    "--pref", "0.5"],
        "fixedp": ["fixedp", "--spectrum", str(small), "--p", "0.7"],
        "sweep-csv-efficiency": ["sweep", "--spectrum", str(small), "--mode", "efficiency",
                                 "--pref-grid", "1/D,0.28,0.34375,0.5,1"],
        "sweep-csv-summation-order": ["sweep", "--spectrum", str(small), "--mode", "efficiency",
                                      "--pref-grid", "0.26,0.28,0.32,0.4"],
        "sweep-csv-fixedprob": ["sweep", "--spectrum", str(small), "--mode", "fixedprob",
                                "--pfix-grid", "0.5,0.625,0.8125,1"],
        "sweep-csv-interp": ["sweep", "--spectrum", str(small), "--mode", "interp",
                             "--xi-grid", "lin:0:1:5"],
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
        outs = [optimal_plan_efficiency(s, p) for p in refs]
    else:
        fixes = [1e-9, 1.0 / d, 0.01, 0.3, 0.9, float(np.add.reduce(s.sq_coeffs)), 1.0]
        outs = [optimal_plan_fixed(s, FixedProbRequest(p)) for p in fixes]
    assert _plan_digest(outs) == PLAN_DIGESTS[name]


#: outcome JSON of the identity plans on SMALL and SIGNED_ZERO, at P_ref =
#: max a^2, 0.75 and 1 and at p_fix = sum a^2 and 1, taken while every call
#: still made its own identity outcome
IDENTITY_DIGEST = "c6378ccf9e5cb1b230fdbcab7d921c3958434c26c89dc006fa018eff4c1576e6"


def test_one_identity_outcome_per_spectrum():
    h = hashlib.sha256()
    for values in (SMALL, SIGNED_ZERO):
        s = make_spectrum(values)
        refs, fixes = [s.max_sq, 0.75, 1.0], [s.total, 1.0]
        effs = [optimal_plan_efficiency(s, p) for p in refs]
        fixed = [optimal_plan_fixed(s, FixedProbRequest(p)) for p in fixes]
        assert len({id(o.post_spectrum) for o in effs + fixed}) == 1
        assert len({o.q_value for o in effs}) == 3
        assert {o.q_value for o in fixed} == {None}
        for mode, grid, outs in (("efficiency", refs, effs), ("fixedprob", fixes, fixed)):
            for p, o in zip(grid, outs):
                h.update("".join(io.json_pieces(io.outcome_dict(o, mode, p))).encode())
            m = [o.post_measures for o in outs]
            rows = [[p, o.plan.n_opt, o.p_success, k.purity, k.schmidt_number,
                     k.concurrence_sq, o.q_value] for p, o, k in zip(grid, outs, m)]
            _, swept = sweep_table(s, mode, grid)
            assert swept == [row[: len(swept[0])] for row in rows]
    assert h.hexdigest() == IDENTITY_DIGEST


def test_non_finite_floats_render_null(tmp_path):
    obj = {
        "scalar": float("nan"),
        "array": np.array([0.5, np.nan, np.inf, -np.inf, 2.0]),
        "floats": {"inf": np.inf, "one": 1.0},
        "mixed": {"int": 1, "nan": np.nan, "none": None, "minus_inf": -np.inf},
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
        # floats outside an array, each printed by "%.17g" itself
        "floats": {str(i): v for i, v in enumerate(floats.tolist())},
        "float32": rng.standard_normal(20).astype(np.float32),
        "empty_array": np.array([]),
        "empty_dict": {},
        "mixed": {"int": 1, "float": 2.5, "np_int": np.int64(3), "np_float": np.float64(0.1),
                  "none": None, "key \"é": 0.5},
        "nested": {"row": {"p": 0.25, "n": 2, "q": None}, "empty": {}},
        "scalar": np.float64(1 / 3),
        "scalars": {"tie": 26215 / 2**18, "negative_tie": -26215 / 2**18, "zero": -0.0,
                    "subnormal": 5e-324, "fixed_max": 1e16, "exponent_min": 1e17,
                    "nan": float("nan"), "inf": float("inf"), "minus_inf": -float("inf")},
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
        # floats outside an array, each printed by "%.17g" itself
        "repeat_list": {str(i): v for i, v in
                        enumerate([0.5, -0.0, 0.5, 0.0, float("nan"), 0.5])},
    }


@pytest.mark.parametrize("name", sorted(_repeat_cases()))
def test_repeated_values_match_reference_writer(name):
    value = _repeat_cases()[name]
    assert_same_text("".join(io.json_pieces(value)), reference_render(value))


def _around(x: float, steps: int) -> list[float]:
    """``x`` and the ``steps`` doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def _kernel_cases():
    """Float arrays the printing kernel must write exactly as ``"%.17g"``."""
    rng = np.random.default_rng(19)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 2**16,
                        dtype=np.int64, endpoint=True)
    powers = [y for k in range(-323, 309) for y in _around(float(f"1e{k}"), 1)]
    # m / 2^18 for odd m has 18 significant digits in [0.1, 1), the last a 5
    ties = np.arange(26215, 26215 + 2 * 4096, 2) / 2**18
    return {
        "random-bits": bits.view(np.float64),
        "powers-of-ten": np.array(powers + [-p for p in powers]),
        "format-switch": np.array([y for x in (1e-5, 1e-4, 1e16, 1e17) for y in _around(x, 40)]),
        "ties": np.concatenate([ties, -ties]),
        "extremes": np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                              2.0**53, 2.0**53 + 2, 9007199254740993.0, 123456789012345680.0]),
    }


@pytest.mark.parametrize("name", sorted(_kernel_cases()))
def test_kernel_matches_reference_writer(name):
    value = _kernel_cases()[name]
    assert_same_text("".join(io.json_pieces(value)), reference_render(value))


def test_exact_tie_rounds_as_percent_g():
    # 0.100002288818359375 lies halfway between two 17-digit decimals; "%.17g"
    # rounds it up to the even digit, which only the tie guard reproduces
    x = 26215 / 2**18
    assert "%.17g" % x == "0.10000228881835938"
    text = "".join(io.json_pieces(np.array([x, -x])))
    assert text == "[0.10000228881835938, -0.10000228881835938]"


@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)),
       st.floats(width=64), st.lists(st.floats(width=64), max_size=5))
def test_kernel_matches_reference_on_any_floats(array, scalar, floats):
    value = {"scalar": scalar, "array": array,
             "floats": {str(i): v for i, v in enumerate(floats)}}
    assert "".join(io.json_pieces(value)) == reference_render(value)
