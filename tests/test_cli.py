import contextlib
import errno
import gc
import json
import re
import shlex
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from schmidt_forge import (
    FixedProbRequest,
    io,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sampling,
    sweep_table,
)
from schmidt_forge.cli import MAX_GRID_POINTS, SWEEP_GRID_OPTIONS, build_parser, main, parse_grid
from schmidt_forge.efficiency import FEAS_TOL, P_REF_TOL
from schmidt_forge.errors import OutOfRangeError, SchmidtForgeError
from schmidt_forge.sampling import MAX_SAMPLE_DIM

from helpers import haar, inject_fault, read_csv

ROOT = Path(__file__).resolve().parents[1]
WORKED = [0.4, 0.3, 0.2, 0.1]


@pytest.fixture
def worked_spectrum(tmp_path):
    path = tmp_path / "spectrum.json"
    io.write_spectrum(make_spectrum(WORKED), path)
    return path


#: faults of a command that reads a spectrum file: the file's coefficients (or
#: its bytes, or None for no file), the command and its options but
#: --spectrum and --out, and the one line it prints on stderr, where {path}
#: is the spectrum file. A file fault names the file, then the spectrum's error.
DOMAIN_ERRORS = [
    pytest.param(WORKED, ["concentrate", "--pref", "0.05"],
                 "OutOfRangeError: p_ref=0.05 outside [1/4, 1]", id="OutOfRange"),
    pytest.param([0.5, 0.5, 0.0], ["concentrate", "--pref", "0.4"],
                 "RankDeficientError: p_ref=0.4 below 1/rank with rank=2: no plan with positive "
                 "success probability reaches the reference entanglement",
                 id="RankDeficientFullConcentration"),
    pytest.param(WORKED, ["sweep", "--mode", "interp", "--xi-grid", "1.5"],
                 "OutOfRangeError: xi=1.5 outside [0, 1]", id="XiOutOfRange"),
    pytest.param([0.5, 0.5, 0.0], ["sweep", "--mode", "interp", "--xi-grid", "0.5"],
                 "RankDeficientError: zero coefficient: interpolation undefined for xi > 0",
                 id="RankDeficient"),
    pytest.param([0.6, 0.5, -0.1], ["concentrate", "--pref", "0.5"],
                 "SchemaError: {path}: InvalidSpectrumError: coefficients must be nonnegative",
                 id="NegativeEntry"),
    pytest.param([0.5, 0.4], ["concentrate", "--pref", "0.6"],
                 "SchemaError: {path}: InvalidSpectrumError: squared coefficients sum to 0.9; "
                 "pass normalize=True to rescale", id="NotNormalized"),
    pytest.param([1.0], ["concentrate", "--pref", "1"],
                 "SchemaError: {path}: InvalidSpectrumError: a bipartite spectrum needs dim >= 2",
                 id="InvalidSpectrum"),
    pytest.param([], ["concentrate", "--pref", "0.5"],
                 "SchemaError: {path}: InvalidSpectrumError: no coefficients given",
                 id="EmptyInput"),
    pytest.param(WORKED, ["fixedp", "--p", "1.5"], "OutOfRangeError: p_fix=1.5 outside (0, 1]",
                 id="PFixOutOfRange"),
    pytest.param([0.5, 0.5, 0.0], ["concentrate", "--cref-sq", "1"],
                 "RankDeficientError: full concentration needs every coefficient positive",
                 id="FullConcentration"),
    pytest.param(b'{"dim": 3, "squared_coefficients": [0.5, 0.5]}',
                 ["sweep", "--mode", "efficiency", "--pref-grid", "0.6"],
                 "SchemaError: {path}: dim=3 but 2 coefficients", id="DimMismatch"),
    pytest.param(b'{"dim": 2, "squared_coefficients": [0.5,', ["fixedp", "--p", "0.5"],
                 "ParseError: {path}: invalid JSON at line 1, column 41: Expecting value",
                 id="InvalidJson"),
    pytest.param(b'{"dim": 2, "squared_coefficients": [0.5, 0.5]}\xff',
                 ["concentrate", "--pref", "0.6"],
                 "ParseError: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                 "position 46: invalid start byte", id="NotUtf8"),
    pytest.param(None, ["concentrate", "--pref", "0.6"],
                 "IoError: cannot read {path}: [Errno 2] No such file or directory: '{path}'",
                 id="MissingFile"),
    pytest.param(WORKED, ["concentrate", "--pref", "0.3", "--out", ""],
                 "IoError: cannot write : [Errno 2] No such file or directory: ''",
                 id="EmptyOutConcentrate"),
    pytest.param(WORKED, ["fixedp", "--p", "0.7", "--out", ""],
                 "IoError: cannot write : [Errno 2] No such file or directory: ''",
                 id="EmptyOutFixedp"),
]


#: the package's error classes, one per kind of fault
ERROR_KINDS = {"InvalidSpectrumError", "OutOfRangeError", "RankDeficientError",
               "InfeasibleError", "ParseError", "SchemaError", "IoError"}


def test_one_error_class_per_kind_of_fault():
    # no class per parameter: a new fault takes one of these kinds, and its
    # message names the value; every kind a command can print has a row of
    # DOMAIN_ERRORS, while InfeasibleError guards the planners
    kinds, new = set(), [SchmidtForgeError]
    while new:
        new = [sub for cls in new for sub in cls.__subclasses__()]
        kinds.update(cls.__name__ for cls in new)
    assert kinds == ERROR_KINDS
    printed = {name for row in DOMAIN_ERRORS
               for name in re.findall(r"(\w+Error): ", row.values[2])}
    assert printed == ERROR_KINDS - {"InfeasibleError"}


class TestGridParsing:
    def test_lin_and_log(self):
        lin = parse_grid("lin:0.1:1:10", 4)
        assert lin.size == 10 and lin[0] == 0.1 and lin[-1] == 1.0
        log = parse_grid("log:0.001:1:4", 4)
        assert np.allclose(log, [0.001, 0.01, 0.1, 1.0], rtol=1e-12)

    def test_dimension_token(self):
        grid = parse_grid("log:1/D:1:3", 8)
        assert grid[0] == pytest.approx(1 / 8, abs=1e-15)

    def test_explicit_list(self):
        assert np.array_equal(parse_grid("0.3,0.5,0.9", 4), [0.3, 0.5, 0.9])

    @pytest.mark.parametrize("kind", ["lin", "log"])
    def test_point_count_is_capped(self, kind):
        assert parse_grid(f"{kind}:0.2:1:{MAX_GRID_POINTS}", 8).size == MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"grid needs 1 to {MAX_GRID_POINTS} points"):
            parse_grid(f"{kind}:0.2:1:{MAX_GRID_POINTS + 1}", 8)

    def test_count_above_the_cap_is_a_usage_error(self, worked_spectrum, tmp_path, capsys):
        # rejected before any array is made, and before the output is written
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--spectrum", str(worked_spectrum), "--mode", "efficiency",
                  "--pref-grid", f"lin:0.2:1:{MAX_GRID_POINTS + 1}", "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr().err
        assert "grid needs 1 to" in captured and "Traceback" not in captured
        assert not out.exists()


class TestMeasuresCommand:
    def test_prints_json(self, worked_spectrum, capsys):
        assert main(["measures", str(worked_spectrum)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["purity"] == pytest.approx(0.3, abs=1e-12)
        assert data["schmidt_number"] == pytest.approx(10 / 3, abs=1e-12)


class TestSampleCommand:
    def test_writes_deterministic_files(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = ["sample", "--dim", "6", "--seed", "11", "--count", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        files1 = sorted(out1.iterdir())
        files2 = sorted(out2.iterdir())
        assert [f.name for f in files1] == [
            "spectrum_0000.json", "spectrum_0001.json", "spectrum_0002.json",
        ]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()
        # every written file parses back
        for f in files1:
            io.read_spectrum(f)

    def test_dimension_above_cap_exits_one(self, tmp_path, capsys):
        # refused before any D x D matrix is allocated or any file written
        too_big = str(MAX_SAMPLE_DIM + 1)
        out = tmp_path / "s"
        assert main(["sample", "--dim", too_big, "--seed", "0", "--count", "1",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"OutOfRangeError: dim={too_big} above the cap {MAX_SAMPLE_DIM}\n")

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["sample", "--dim", "4", "--seed", "0", "--count", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("IoError: ") and str(out) in err
        assert out.read_text() == "kept"

    def test_empty_out_exits_one(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory: an empty --out must not write there
        draws = []
        monkeypatch.setattr(sampling, "_one_spectrum", lambda *a: draws.append(a))
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--dim", "4", "--seed", "0", "--count", "1", "--out", ""]) == 1
        assert capsys.readouterr().err == "IoError: cannot create directory: --out is empty\n"
        assert list(tmp_path.iterdir()) == []
        assert draws == []

    def test_out_error_comes_before_the_first_draw(self, tmp_path, capsys, monkeypatch):
        # --out is made before the first spectrum is drawn
        (tmp_path / "taken").write_text("kept")
        draws = []
        draw = sampling._one_spectrum
        monkeypatch.setattr(sampling, "_one_spectrum", lambda *a: draws.append(a) or draw(*a))
        argv = ["sample", "--dim", "4", "--seed", "0", "--count", "3", "--out"]
        assert main(argv + [str(tmp_path / "taken")]) == 1
        assert "IoError" in capsys.readouterr().err
        assert draws == []
        assert main(argv + [str(tmp_path / "s")]) == 0
        assert draws == [(4, 0), (4, 1), (4, 2)]


class TestConcentrateCommand:
    def test_standard_endpoint(self, worked_spectrum, tmp_path):
        out = tmp_path / "out.json"
        assert main([
            "concentrate", "--spectrum", str(worked_spectrum),
            "--pref", "0.25", "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["p_success"] == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(record["post_spectrum"], 0.25, atol=1e-12)
        assert record["n_opt"] == 4

    def test_cref_sq_flag(self, worked_spectrum, capsys):
        assert main([
            "concentrate", "--spectrum", str(worked_spectrum), "--cref-sq", "0.0",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p_ref"] == 1.0
        assert data["n_opt"] == 0

    @pytest.mark.parametrize("content, argv, line", DOMAIN_ERRORS)
    def test_domain_error_exit_code(self, tmp_path, capsys, content, argv, line):
        # status 1, one line on stderr, the class name first, and no output file;
        # a row's own --out comes last, so it wins
        path = tmp_path / "spectrum.json"
        if isinstance(content, list):
            content = json.dumps({"dim": len(content), "squared_coefficients": content}).encode()
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        command, *options = argv
        assert main([command, "--spectrum", str(path), "--out", str(out), *options]) == 1
        assert capsys.readouterr().err == line.format(path=path) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("p_ref", [
        float("nan"), float("inf"), float("-inf"), 0.25 - 2 * P_REF_TOL, 1.0 + 2 * FEAS_TOL,
    ], ids=["nan", "inf", "-inf", "below-1/D", "above-1"])
    def test_planner_is_the_one_p_ref_gate(self, worked_spectrum, capsys, p_ref):
        # the library, a sweep at its first bad point and the CLI report one error
        message = f"p_ref={p_ref!r} outside [1/4, 1]"
        s = make_spectrum(WORKED)
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
            optimal_plan_efficiency(s, p_ref)
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
            sweep_table(s, "efficiency", [0.3, p_ref, 2.0])
        argv = ["concentrate", "--spectrum", str(worked_spectrum), f"--pref={p_ref!r}"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"OutOfRangeError: {message}\n")

    def test_kref_threshold_heuristic(self, tmp_path, capsys):
        # D = 16 state; ask for at least K = 8 with a 10% threshold gap, that
        # is a reference Schmidt number K_thr = kmin * (1 - gap)
        spath = tmp_path / "s.json"
        io.write_spectrum(haar(16, 77), spath)
        k_thr = 8 * (1 - 0.1)
        assert main(["concentrate", "--spectrum", str(spath), "--kref", repr(k_thr)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p_ref"] == pytest.approx(1 / k_thr, abs=1e-15)
        assert data["schmidt_number"] >= k_thr - 1e-9

    def test_kref_above_dimension_rejected(self, worked_spectrum, capsys):
        code = main(["concentrate", "--spectrum", str(worked_spectrum), "--kref", "96.3"])
        assert code == 1
        assert "OutOfRangeError" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["concentrate", "--spectrum", str(tmp_path / "no.json"), "--pref", "0.3"])
        assert code == 1
        assert "IoError" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_spectrum_exit_code(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 3, "squared_coefficients": [{bad}, 0.5, 0.5]}}')
        code = main(["concentrate", "--spectrum", str(path), "--pref", "0.5"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"SchemaError: {path}: InvalidSpectrumError: coefficients must be finite\n")

    def test_string_coefficient_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "squared_coefficients": [0.5, "a"]}')
        code = main(["concentrate", "--spectrum", str(path), "--pref", "0.6"])
        assert code == 1
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs", ['["0.5", "0.5"]', "[true, false]", "[[0.5], 0.5]", "[null, 1]"])
    def test_coefficients_that_are_not_numbers_exit_one(self, tmp_path, capsys, coeffs):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 2, "squared_coefficients": {coeffs}}}')
        assert main(["measures", str(path)]) == 1
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("digits", [401, 5001])
    def test_huge_integer_coefficient_exits_one(self, tmp_path, capsys, digits):
        # 401 digits overflow a float; 5001 pass the interpreter's digit limit
        # on int conversion, where it has one, so json.loads refuses them
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 2, "squared_coefficients": [{"1" * digits}, 0]}}')
        assert main(["measures", str(path)]) == 1
        limited = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < digits
        assert ("ParseError" if limited else "SchemaError") in capsys.readouterr().err

    def test_deeply_nested_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "squared_coefficients": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["measures", str(path)]) == 1
        assert "ParseError" in capsys.readouterr().err

    def test_usage_error_exits_two(self, worked_spectrum, tmp_path):
        sweep = ["sweep", "--spectrum", str(worked_spectrum), "--mode", "efficiency",
                 "--out", str(tmp_path / "x.csv"), "--pref-grid"]
        for argv in (
            ["concentrate", "--spectrum", str(worked_spectrum)],
            sweep + ["abc"],
            sweep + ["log:0:1:5"],
            # numpy warns on these endpoints, and the warning filter fails a warning
            sweep + ["log:1/D:inf:5"],
            sweep + ["log:-1:1:5"],
            sweep + ["log:1e-3:nan:3"],
            sweep + ["lin:0:inf:3"],
            sweep + ["lin:nan:1:3"],
            sweep + ["lin:-1e308:1e308:3"],
            sweep + ["lin:0.5:1"],
            sweep + ["lin:0:1:0"],
            ["sweep", "--spectrum", str(worked_spectrum), "--mode", "efficiency",
             "--out", str(tmp_path / "x.csv")],
            # the sampler refuses these before --out is made
            ["sample", "--dim", "1", "--seed", "0", "--count", "1", "--out", str(tmp_path / "s")],
            ["sample", "--dim", "4", "--seed", "0", "--count", "0", "--out", str(tmp_path / "s")],
            ["sample", "--dim", "4", "--seed", "-1", "--count", "1", "--out", str(tmp_path / "s")],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv
            assert not (tmp_path / "s").exists(), argv


#: argv of each command that reads a spectrum file, then writes a file or stdout
SPECTRUM_COMMANDS = {
    "measures": lambda spectrum, out: ["measures", spectrum],
    "concentrate": lambda spectrum, out: ["concentrate", "--spectrum", spectrum,
                                          "--pref", "0.6", "--out", out],
    "sweep": lambda spectrum, out: ["sweep", "--spectrum", spectrum, "--mode", "efficiency",
                                    "--pref-grid", "0.6", "--out", out],
}
VALID_FILE = b'{"dim": 2, "squared_coefficients": [0.5, 0.5]}'


def _run_on_file(command: str, content: bytes, tmp: Path) -> tuple[int, str, Path]:
    """Exit code and stderr of ``command`` on a spectrum file holding
    ``content``, and the path its output file would have."""
    spectrum, out = tmp / "spectrum.json", tmp / "out"
    spectrum.write_bytes(content)
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
        code = main(SPECTRUM_COMMANDS[command](str(spectrum), str(out)))
    return code, err.getvalue(), out


@pytest.mark.parametrize("command", sorted(SPECTRUM_COMMANDS))
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, command):
    code, err, out = _run_on_file(command, VALID_FILE + b"\xff", tmp_path)
    assert code == 1 and not out.exists()
    assert err.startswith(f"ParseError: {tmp_path / 'spectrum.json'}: not UTF-8")


def _document(pairs) -> bytes:
    """A JSON object from (name, text of value) pairs, names kept even when repeated."""
    return ("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}").encode()


_NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
_NON_FINITE = st.sampled_from(["NaN", "Infinity", "-Infinity"])


@st.composite
def malformed_spectrum_files(draw):
    """Bytes of a spectrum file that no command may accept: not UTF-8, a byte
    order mark or a NUL byte in a valid file, a field of the wrong type, a
    nested document, a repeated name, or a non-finite number."""
    kind = draw(st.sampled_from(["encoding", "bom", "nul", "dim", "coefficient", "coefficients",
                                 "nested", "duplicate", "non-finite"]))
    coeffs = "[0.5, 0.5]"
    if kind in ("encoding", "nul"):
        insert = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80",
                                       b"\xf4\x90\x80\x80"])) if kind == "encoding" else b"\0"
        i = draw(st.integers(0, len(VALID_FILE)))
        return VALID_FILE[:i] + insert + VALID_FILE[i:]
    if kind == "bom":
        return b"\xef\xbb\xbf" + VALID_FILE
    if kind == "dim":
        value = json.dumps(draw(_NOT_A_NUMBER | st.floats()))
        return _document([("dim", value), ("squared_coefficients", coeffs)])
    if kind == "coefficient":
        return _document([("dim", "2"), ("squared_coefficients",
                                         f"[0.5, {json.dumps(draw(_NOT_A_NUMBER))}]")])
    if kind == "coefficients":
        value = draw(_NOT_A_NUMBER.filter(lambda v: not isinstance(v, list))
                     | st.floats() | st.integers())
        return _document([("dim", "2"), ("squared_coefficients", json.dumps(value))])
    if kind == "nested":
        depth = draw(st.integers(1, 3))
        return (b"[" * depth + VALID_FILE + b"]" * depth if draw(st.booleans())
                else _document([("dim", "2"), ("squared_coefficients", "[" + coeffs + "]")]))
    pairs = [("dim", "2"), ("squared_coefficients", coeffs)]
    if kind == "duplicate":
        pairs.insert(draw(st.integers(0, 2)), pairs[draw(st.integers(0, 1))])
    else:
        pairs[draw(st.integers(0, 1))] = (
            ("dim", draw(_NON_FINITE)) if draw(st.booleans())
            else ("squared_coefficients", f"[0.5, {draw(_NON_FINITE)}]"))
    return _document(pairs)


@settings(max_examples=50)
@given(content=malformed_spectrum_files(), command=st.sampled_from(sorted(SPECTRUM_COMMANDS)))
@example(content=VALID_FILE + b"\xff", command="sweep")
@example(content=b"\xef\xbb\xbf" + VALID_FILE, command="measures")
@example(content=VALID_FILE[:10] + b"\0" + VALID_FILE[10:], command="concentrate")
@example(content=b'{"dim": "2", "squared_coefficients": [0.5, 0.5]}', command="concentrate")
@example(content=b'{"dim": 2, "squared_coefficients": [true, false]}', command="measures")
@example(content=b'{"dim": 2, "squared_coefficients": ["0.5", "0.5"]}', command="sweep")
@example(content=b"[" + VALID_FILE + b"]", command="sweep")
@example(content=b'{"dim": 2, "squared_coefficients": [[0.5, 0.5]]}', command="measures")
@example(content=b'{"dim": 2, "squared_coefficients": [0.5, 0.5], "dim": 2}', command="concentrate")
@example(content=b'{"dim": 2, "squared_coefficients": [0.5, NaN]}', command="sweep")
@example(content=b'{"dim": Infinity, "squared_coefficients": [0.5, 0.5]}', command="measures")
def test_malformed_spectrum_file_is_a_typed_error(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _run_on_file(command, content, Path(tmp))
        assert code == 1 and not out.exists(), err
    assert re.match(r"[A-Za-z]+Error: ", err) and "Traceback" not in err, err


class TestFixedpCommand:
    def test_worked_example(self, worked_spectrum, capsys):
        assert main(["fixedp", "--spectrum", str(worked_spectrum), "--p", "0.7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p_fix"] == 0.7
        assert data["p_success"] == pytest.approx(0.7, abs=1e-12)
        assert data["purity"] == pytest.approx(13 / 49, abs=1e-12)
        assert data["q_value"] is None


class TestSweepCommand:
    def test_efficiency_columns_and_monotonicity(self, worked_spectrum, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--spectrum", str(worked_spectrum), "--mode", "efficiency",
            "--pref-grid", "log:1/D:1:25", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == [
            "p_ref", "n_opt", "p_success", "purity",
            "schmidt_number", "concurrence_sq", "q_value",
        ]
        assert len(rows) == 25
        p_ref = np.array([r[0] for r in rows])
        n_opt = np.array([r[1] for r in rows])
        p_s = np.array([r[2] for r in rows])
        assert p_ref[0] == pytest.approx(0.25, abs=1e-15)  # 1/D token
        assert n_opt[0] == 4  # standard concentration at the endpoint
        assert np.all(np.diff(p_ref) > 0)
        assert np.all(np.diff(n_opt) <= 0)
        assert np.all(np.diff(p_s) >= -1e-12)

    def test_rows_match_per_point_planner(self, tmp_path):
        s = haar(64, 5)
        spath = tmp_path / "s.json"
        io.write_spectrum(s, spath)
        for mode in ("efficiency", "fixedprob"):
            out = tmp_path / f"{mode}.csv"
            assert main([
                "sweep", "--spectrum", str(spath), "--mode", mode,
                "--pref-grid", "log:1/D:1:30", "--pfix-grid", "log:0.001:1:30",
                "--out", str(out),
            ]) == 0
            _, rows = read_csv(out)
            assert len(rows) == 30
            for row in rows:
                if mode == "efficiency":
                    o = optimal_plan_efficiency(s, row[0])
                else:
                    o = optimal_plan_fixed(s, FixedProbRequest(row[0]))
                m = o.post_measures
                want = [row[0], o.plan.n_opt, o.p_success, m.purity, m.schmidt_number,
                        m.concurrence_sq, o.q_value]
                assert row == want[: len(row)]

    def test_fixedprob_mode(self, worked_spectrum, tmp_path):
        out = tmp_path / "fp.csv"
        assert main([
            "sweep", "--spectrum", str(worked_spectrum), "--mode", "fixedprob",
            "--pfix-grid", "lin:0.2:1:9", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == [
            "p_fix", "n_opt", "p_success", "purity", "schmidt_number", "concurrence_sq",
        ]
        purity = np.array([r[3] for r in rows])
        assert np.all(np.diff(purity) >= -1e-12)  # ascending p_fix: purity rises

    def test_interp_mode_csv(self, worked_spectrum, tmp_path):
        out = tmp_path / "interp.csv"
        assert main([
            "sweep", "--spectrum", str(worked_spectrum), "--mode", "interp",
            "--xi-grid", "lin:0:1:11", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["xi", "p_success", "purity", "schmidt_number", "concurrence_sq"]
        assert len(rows) == 11
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0
        assert rows[-1][1] == pytest.approx(0.4, abs=1e-12)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep mode 'efficency'"):
            sweep_table(make_spectrum(WORKED), "efficency", [0.3])


class TestValidateCommand:
    def test_quick_validation_passes(self, capsys):
        code = main(["validate", "--dim-max", "5", "--instances", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS efficiency-vs-enumeration" in out
        assert "FAIL" not in out

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        name = inject_fault(monkeypatch, 4, 1.0)
        code = main(["validate", "--dim-max", "5", "--instances", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert [line.split()[:2] for line in out.splitlines() if line.startswith("FAIL")] == [
            ["FAIL", name]
        ]
        assert out.endswith("5/6 suites passed\n")

    def test_dim_max_below_three_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--dim-max", "2"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "dim_max must be at least MIN_VALIDATION_DIM = 3, got 2" in captured.err
        assert captured.out == ""
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "at least 3" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_is_usage_error(self, capsys, instances):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--dim-max", "5", "--instances", instances])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert f"instances must be at least 1, got {instances}" in captured.err
        assert captured.out == ""

    def test_hundred_instance_run_passes(self, capsys):
        code = main(["validate", "--dim-max", "8", "--instances", "100", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6


@pytest.fixture
def large_spectrum(tmp_path):
    """A D = 2^14 spectrum: its plan prints far more than a pipe holds."""
    path = tmp_path / "large.json"
    rng = np.random.default_rng(14)
    io.write_spectrum(make_spectrum(rng.dirichlet(np.ones(2**14))), path)
    return path


def _cli_process(*args):
    src = str(Path(io.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "schmidt_forge", *args], cwd=src,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_underflowing_p_fix_is_a_typed_error(large_spectrum):
    proc = _cli_process("fixedp", "--spectrum", str(large_spectrum), "--p", "5e-324")
    out, err = proc.communicate(timeout=60)
    err = err.decode()
    assert proc.returncode == 1 and out == b""
    assert err.startswith("OutOfRangeError: p_fix=5e-324 is too small for dim=16384: ")
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_closed_stdout_exits_quietly(large_spectrum):
    proc = _cli_process("concentrate", "--spectrum", str(large_spectrum), "--pref", "1e-4")
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_imports_freeze_nothing():
    # only the program entry freezes, and only when it runs: a test or a
    # library caller that imports the package keeps a normal collector
    src = Path(io.__file__).parents[1]
    check = ("import gc, sys; before = gc.get_freeze_count(); "
             "import schmidt_forge, schmidt_forge.cli, schmidt_forge.__main__; "
             "sys.exit(gc.get_freeze_count() != before)")
    result = subprocess.run([sys.executable, "-c", check], cwd=src, capture_output=True)
    assert result.returncode == 0, result.stderr
    package = (src / "schmidt_forge").glob("*.py")
    assert [p.name for p in package if "gc.freeze" in p.read_text()] == ["__main__.py"]


@pytest.mark.parametrize("pref, code", [("0.3", 0), ("0.05", 1)], ids=["plan", "domain-error"])
def test_run_freezes_then_returns_mains_code(worked_spectrum, monkeypatch, capsys, pref, code):
    import schmidt_forge.__main__ as entry

    calls = []

    def traced_main():
        calls.append("main")
        return main()

    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))  # pytest's heap stays live
    monkeypatch.setattr(entry, "main", traced_main)
    monkeypatch.setattr(sys, "argv", ["schmidt-forge", "concentrate", "--spectrum",
                                      str(worked_spectrum), "--pref", pref])
    assert entry.run() == code
    assert calls == ["freeze", "main"]
    captured = capsys.readouterr()
    assert bool(captured.out) == (code == 0) and bool(captured.err) == (code == 1)


def test_console_script_is_the_program_entry():
    # both README routes run __main__.run (3.10 has no tomllib, so the text is read)
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert 'schmidt-forge = "schmidt_forge.__main__:run"' in lines


def test_module_route_writes_what_main_writes(large_spectrum, tmp_path, capsys):
    # the frozen heap loses no output: a file and a piped stdout are whole
    argv = ["concentrate", "--spectrum", str(large_spectrum), "--pref", "1e-4", "--out"]
    proc = _cli_process(*argv, str(tmp_path / "module.json"))
    assert proc.communicate(timeout=60) == (b"", b"") and proc.returncode == 0
    assert main([*argv, str(tmp_path / "main.json")]) == 0
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()
    proc = _cli_process("measures", str(large_spectrum))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b""
    assert main(["measures", str(large_spectrum)]) == 0
    assert out.decode() == capsys.readouterr().out
    assert json.loads(out)["dim"] == 2**14


class FullDevice(StringIO):
    """A stdout on a full device: every write fails with ENOSPC."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("argv", [
    ["measures", "{spectrum}"],
    ["concentrate", "--spectrum", "{spectrum}", "--pref", "0.5"],
    ["fixedp", "--spectrum", "{spectrum}", "--p", "0.5"],
    ["validate", "--dim-max", "3", "--instances", "1"],
])
def test_full_stdout_is_an_io_error(worked_spectrum, tmp_path, monkeypatch, capsys, argv):
    with open(tmp_path / "stdout", "w") as stand_in:  # the fd that devnull replaces
        monkeypatch.setattr(sys, "stdout", FullDevice(stand_in.fileno()))
        code = main([a.format(spectrum=worked_spectrum) for a in argv])
    assert code == 1
    assert capsys.readouterr().err.startswith("IoError: cannot write stdout: ")


def test_cli_import_leaves_oracle_unloaded(tmp_path):
    # only `validate` needs the oracles, so no other command pays for their
    # import; an efficiency sweep builds the frontier without them
    src = str(Path(io.__file__).parents[1])
    check = "import sys, schmidt_forge.cli; sys.exit('schmidt_forge.oracle' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", check], cwd=src, capture_output=True)
    assert result.returncode == 0, result.stderr
    spectrum = tmp_path / "spectrum.json"
    io.write_spectrum(haar(16, 0), spectrum)
    sweep = ("import sys; from schmidt_forge.cli import main; "
             "code = main(['sweep', '--spectrum', sys.argv[1], '--mode', 'efficiency', "
             "'--pref-grid', 'log:1/D:1:20', '--out', sys.argv[2]]); "
             "sys.exit(code or 10 * ('schmidt_forge.oracle' in sys.modules))")
    out = tmp_path / "sweep.csv"
    result = subprocess.run([sys.executable, "-c", sweep, str(spectrum), str(out)], cwd=src,
                            capture_output=True)
    assert result.returncode == 0, result.stderr
    assert len(read_csv(out)[1]) == 20


def test_package_exports_resolve():
    import schmidt_forge

    assert schmidt_forge.__all__ == [
        "ConcentrationOutcome", "ConcentrationPlan", "FixedProbRequest", "InterpPoint",
        "Measures", "SchmidtForgeError", "SchmidtSpectrum", "interpolate",
        "make_spectrum", "measures", "optimal_plan_efficiency", "optimal_plan_fixed",
        "reference_from", "sample_haar_spectrum", "sweep_table",
    ]
    for name in schmidt_forge.__all__:
        assert getattr(schmidt_forge, name) is not None, name


def test_package_root_is_the_library():
    # the root neither imports the oracle nor names a verifier, or a name that
    # only the tests and the benchmark reach; the verifiers live in the oracle
    verifiers = [
        "OracleReport", "appendix_a_check", "appendix_b_check", "duality_check",
        "enumerate_configurations", "enumerate_fixed_configurations", "numeric_qp_ascent",
        "relative_diffs", "run_validation",
    ]
    absent = verifiers + ["sort_descending", "interp_sweep"]
    check = ("import sys, schmidt_forge; "
             "sys.exit(('schmidt_forge.oracle' in sys.modules) + "
             f"2 * any(hasattr(schmidt_forge, n) for n in {absent!r}))")
    src = str(Path(io.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", check], cwd=src, capture_output=True)
    assert result.returncode == 0, result.stderr
    namespace = {}
    exec(f"from schmidt_forge.oracle import {', '.join(verifiers)}", namespace)
    assert all(namespace[name] is not None for name in verifiers)


#: a complete argv of each subcommand: its required options, each one with
#: its value, then optional ones
FULL_ARGV = {
    "measures": ([["{spectrum}"]], []),
    "sample": ([["--dim", "4"], ["--seed", "0"], ["--count", "1"], ["--out", "{out}"]], []),
    "concentrate": ([["--spectrum", "{spectrum}"], ["--kref", "3.15"]], ["--out", "{out}"]),
    "fixedp": ([["--spectrum", "{spectrum}"], ["--p", "0.7"]], ["--out", "{out}"]),
    "sweep": ([["--spectrum", "{spectrum}"], ["--mode", "interp"], ["--xi-grid", "0.5"],
               ["--out", "{out}"]], []),
    "validate": ([], ["--dim-max", "3", "--instances", "1"]),
}


def _subcommands() -> set[str]:
    return set(re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1).split(","))


def _argv(parts, spectrum, out) -> list[str]:
    return [a.format(spectrum=spectrum, out=out) for part in parts for a in part]


def test_one_route_per_computation():
    assert _subcommands() == set(FULL_ARGV)


@pytest.mark.parametrize("command", sorted(FULL_ARGV))
def test_full_argv_runs(worked_spectrum, tmp_path, command):
    required, optional = FULL_ARGV[command]
    assert main([command, *_argv([*required, optional], worked_spectrum, tmp_path / "out")]) == 0


def _usage_faults():
    for command, (required, optional) in FULL_ARGV.items():
        for i, dropped in enumerate(required):
            kept = required[:i] + required[i + 1:] + [optional]
            yield pytest.param(command, kept, id=f"{command}-without-{dropped[0].strip('-{}')}")
    # removed routes: `sweep --mode interp` and `concentrate --kref` replace them
    yield pytest.param("interp", [["--spectrum", "{spectrum}"], ["--grid-points", "5"],
                                  ["--out", "{out}"]], id="removed-interp")
    yield pytest.param("kthreshold", [["--spectrum", "{spectrum}"], ["--kmin", "3.5"],
                                      ["--gap", "0.1"], ["--out", "{out}"]],
                       id="removed-kthreshold")
    # removed options: `sample` then `sweep --spectrum` replaces --dim and
    # --seed, and sweep writes CSV only
    yield pytest.param("sweep", [["--dim", "8"], ["--seed", "0"], ["--mode", "efficiency"],
                                 ["--pref-grid", "0.5"], ["--out", "{out}"]],
                       id="removed-sweep-dim")
    yield pytest.param("sweep", [["--spectrum", "{spectrum}"], ["--mode", "efficiency"],
                                 ["--pref-grid", "0.5"], ["--format", "json"],
                                 ["--out", "{out}"]], id="removed-sweep-format")


@pytest.mark.parametrize("command, parts", _usage_faults())
def test_dropped_option_or_removed_command_is_usage_error(worked_spectrum, tmp_path, capsys,
                                                          command, parts):
    with pytest.raises(SystemExit) as err:
        main([command, *_argv(parts, worked_spectrum, tmp_path / "out")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == [worked_spectrum]


#: option values that are no number, or numbers at the edges of a float:
#: malformed, huge, subnormal and spelled out
_ODD_VALUES = st.sampled_from([
    "", "abc", "0.5.5", "1/D", "1e", "0x1p-2", "--",
    "1e308", "-1e308", "1e400", "9" * 400,
    "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308",
    "nan", "-NaN", "inf", "-Infinity", "1_0", " 0.5 ", "+.5", "\u0660.\u0665",
])
_GRID_POINTS = st.sampled_from(["0", "0.3", "1", "1/D"]) | _ODD_VALUES
_GRID_COUNTS = st.sampled_from(["1", "3", "0", "-1", "2.5", "x", str(MAX_GRID_POINTS + 1),
                                "1" + "0" * 30, "9" * 5000])
_GRIDS = st.one_of(
    st.builds("{}:{}:{}:{}".format, st.sampled_from(["lin", "log", "exp"]), _GRID_POINTS,
              _GRID_POINTS, _GRID_COUNTS),
    st.lists(_GRID_POINTS, min_size=1, max_size=3).map(",".join),
)
#: odd values of the file options: no file, a directory, a missing directory
_ODD_PATHS = st.sampled_from(["{dir}/none.json", "{dir}", "{dir}/none/out", ""])
#: the reference options of concentrate and values each one accepts at D = 4
_REFERENCES = {"--pref": ["0.3", "0.25", "1"], "--cref-sq": ["0", "0.5", "1"],
               "--kref": ["1", "2.5", "4"]}


@st.composite
def odd_argv(draw):
    """argv of concentrate, fixedp or sweep in some mode on a D = 4 spectrum
    file, each option kept, dropped, repeated or given an odd value."""
    command = draw(st.sampled_from(["concentrate", "fixedp", "sweep"]))
    options = [("--spectrum", st.just("{spectrum}"))]
    if command == "concentrate":
        ref = draw(st.sampled_from(sorted(_REFERENCES)))
        options.append((ref, st.sampled_from(_REFERENCES[ref])))
    elif command == "fixedp":
        options.append(("--p", st.sampled_from(["0.05", "0.5", "1"])))
    else:
        mode = draw(st.sampled_from(sorted(SWEEP_GRID_OPTIONS)))
        grid = "--" + SWEEP_GRID_OPTIONS[mode].replace("_", "-")
        options += [("--mode", st.just(mode)), (grid, _GRIDS)]
    options.append(("--out", st.just("{out}")))
    argv = [command]
    for name, values in options:
        odd = _ODD_PATHS if name in ("--spectrum", "--out") else _ODD_VALUES
        # kept more often than not, so that most runs reach the planners
        how = draw(st.sampled_from(["keep"] * 4 + ["drop", "repeat", "odd"]))
        if how != "drop":
            argv += [name, draw(odd if how == "odd" else values)]
        if how == "repeat":
            argv += [name, draw(values | odd)]
    return argv


def _sweep_argv(grid: str) -> list[str]:
    return ["sweep", "--spectrum", "{spectrum}", "--mode", "efficiency", "--pref-grid", grid,
            "--out", "{out}"]


@settings(max_examples=150, deadline=None)
@given(argv=odd_argv())
@example(argv=_sweep_argv("abc"))
@example(argv=_sweep_argv("log:0:1:5"))
@example(argv=_sweep_argv("lin:0.5:1"))
@example(argv=_sweep_argv("lin:0:1:0"))
@example(argv=_sweep_argv("log:1/D:inf:5"))
@example(argv=_sweep_argv("log:-1:1:5"))
@example(argv=_sweep_argv("log:1e-3:nan:3"))
@example(argv=_sweep_argv("lin:-1e308:1e308:3"))
@example(argv=_sweep_argv(f"lin:0.2:1:{MAX_GRID_POINTS + 1}"))
@example(argv=["sweep", "--spectrum", "{spectrum}", "--mode", "efficiency", "--out", "{out}"])
@example(argv=["sweep", "--dim", "8", "--mode", "interp", "--xi-grid", "0.5", "--out", "{out}"])
@example(argv=_sweep_argv("0.5")[:-2] + ["--format", "json", "--out", "{out}"])
@example(argv=["concentrate", "--spectrum", "{spectrum}", "--kref", "1000", "--out", "{out}"])
@example(argv=["concentrate", "--spectrum", "{spectrum}", "--kref", "4", "--out", "{out}"])
@example(argv=["concentrate", "--spectrum", "{spectrum}", "--cref-sq", "1", "--out", "{out}"])
@example(argv=["concentrate", "--spectrum", "{spectrum}", "--pref", "nan", "--out", "{out}"])
@example(argv=["fixedp", "--spectrum", "{spectrum}", "--p", "5e-324", "--out", "{out}"])
@example(argv=["sweep", "--spectrum", "{spectrum}", "--mode", "interp", "--xi-grid", "1.5",
               "--out", "{out}"])
def test_odd_argv_is_a_usage_or_typed_error(argv):
    # exit 0, a typed error (1) or a usage error (2), never a traceback, and
    # no output file unless the command succeeds
    with tempfile.TemporaryDirectory() as tmp:
        spectrum = Path(tmp) / "spectrum.json"
        io.write_spectrum(make_spectrum(WORKED), spectrum)
        argv = [a.format(spectrum=spectrum, out=Path(tmp) / "out", dir=tmp) for a in argv]
        err = StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
        if code == 1:
            assert err.startswith(tuple(f"{name}: " for name in ERROR_KINDS)), (argv, err)
        if code != 0:
            assert [p.name for p in Path(tmp).iterdir()] == ["spectrum.json"], (argv, err)


def test_readme_command_lines_parse():
    # every `schmidt-forge` line of README's code blocks (the command-line
    # block and the one that regenerates results/), continuation lines
    # joined, must parse: a removed command or option cannot stay documented
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"^```\w*\n(.*?)^```", readme, re.M | re.S))
    lines = [line for line in blocks.replace("\\\n", " ").splitlines()
             if line.startswith("schmidt-forge ")]
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    assert {shlex.split(line)[1] for line in lines} == _subcommands()


def test_readme_library_block_runs():
    # README's Python block runs as written: a removed name or a drifted
    # value cannot stay in the docs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    names = {}
    exec(block, names)
    assert names["out"].p_success == 0.75
    assert names["fixed"].post_measures.purity == pytest.approx(13 / 49, rel=1e-15)
