import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schmidt_forge import (
    FixedProbRequest,
    ReferenceLevel,
    io,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sweep_table,
)
from schmidt_forge.cli import main, parse_grid
from schmidt_forge.sampling import MAX_SAMPLE_DIM

from helpers import haar, read_csv

WORKED = [0.4, 0.3, 0.2, 0.1]


@pytest.fixture
def worked_spectrum(tmp_path):
    path = tmp_path / "spectrum.json"
    io.write_spectrum(make_spectrum(WORKED), path)
    return path


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
        assert main(["sweep", "--dim", too_big, "--mode", "interp", "--xi-grid", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert not (tmp_path / "x.csv").exists()
        assert capsys.readouterr().err.count("DimensionTooLargeError") == 2


class TestInterpCommand:
    def test_writes_fig1_style_csv(self, worked_spectrum, tmp_path):
        out = tmp_path / "interp.csv"
        assert main([
            "interp", "--spectrum", str(worked_spectrum),
            "--grid-points", "11", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["xi", "p_success", "purity", "schmidt_number", "concurrence_sq"]
        assert len(rows) == 11
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0
        assert rows[-1][1] == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_non_positive_grid_points_is_usage_error(self, worked_spectrum, tmp_path, capsys,
                                                    points):
        out = tmp_path / "interp.csv"
        with pytest.raises(SystemExit) as err:
            main(["interp", "--spectrum", str(worked_spectrum),
                  "--grid-points", points, "--out", str(out)])
        assert err.value.code == 2
        assert f"--grid-points: must be at least 1, got {points}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_domain_error_exit_code(self, worked_spectrum, capsys):
        code = main(["concentrate", "--spectrum", str(worked_spectrum), "--pref", "0.05"])
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
        assert "NonFiniteEntryError" in capsys.readouterr().err

    def test_string_coefficient_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "squared_coefficients": [0.5, "a"]}')
        code = main(["concentrate", "--spectrum", str(path), "--pref", "0.6"])
        assert code == 1
        assert "SchemaError" in capsys.readouterr().err

    def test_usage_error_exits_two(self, worked_spectrum, tmp_path):
        sweep = ["sweep", "--spectrum", str(worked_spectrum), "--mode", "efficiency",
                 "--out", str(tmp_path / "x.csv"), "--pref-grid"]
        for argv in (
            ["concentrate", "--spectrum", str(worked_spectrum)],
            sweep + ["abc"],
            sweep + ["log:0:1:5"],
            sweep + ["lin:0.5:1"],
            sweep + ["lin:0:1:0"],
            ["sweep", "--dim", "4", "--mode", "efficiency", "--out", str(tmp_path / "x.csv")],
            ["sample", "--dim", "1", "--seed", "0", "--count", "1",
             "--out", str(tmp_path / "s")],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv


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
                    o = optimal_plan_efficiency(s, ReferenceLevel(s.dim, row[0]))
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

    def test_interp_mode_json_format(self, worked_spectrum, tmp_path):
        out = tmp_path / "interp.json"
        assert main([
            "sweep", "--spectrum", str(worked_spectrum), "--mode", "interp",
            "--xi-grid", "lin:0:1:5", "--format", "json", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "interp"
        assert len(data["rows"]) == 5
        assert data["rows"][0]["p_success"] == 1.0

    def test_sampled_spectrum_source(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--dim", "8", "--seed", "3", "--mode", "efficiency",
            "--pref-grid", "lin:0.2:0.9:5", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep mode 'efficency'"):
            sweep_table(make_spectrum(WORKED), "efficency", [0.3])

    def test_requires_exactly_one_source(self, worked_spectrum):
        with pytest.raises(SystemExit) as err:
            main([
                "sweep", "--spectrum", str(worked_spectrum), "--dim", "4",
                "--mode", "efficiency", "--pref-grid", "lin:0.3:0.9:3",
                "--out", "x.csv",
            ])
        assert err.value.code == 2


class TestValidateCommand:
    def test_quick_validation_passes(self, capsys):
        code = main(["validate", "--dim-max", "5", "--instances", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS efficiency-vs-enumeration" in out
        assert "FAIL" not in out

    def test_dim_max_below_three_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--dim-max", "2"])
        assert err.value.code == 2
        assert "--dim-max must be at least 3" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "at least 3" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_is_usage_error(self, capsys, instances):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--dim-max", "5", "--instances", instances])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert f"--instances: must be at least 1, got {instances}" in captured.err
        assert "passed" not in captured.out

    def test_hundred_instance_run_passes(self, capsys):
        code = main(["validate", "--dim-max", "8", "--instances", "100", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6


class TestKthresholdCommand:
    def test_threshold_heuristic(self, tmp_path, capsys):
        # D = 16 state; ask for at least K = 8 with a 10% threshold gap
        spath = tmp_path / "s.json"
        from helpers import haar

        io.write_spectrum(haar(16, 77), spath)
        assert main([
            "kthreshold", "--spectrum", str(spath), "--kmin", "8", "--gap", "0.1",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        k_thr = 8 * (1 - 0.1)
        assert data["p_ref"] == pytest.approx(1 / k_thr, abs=1e-15)
        assert data["schmidt_number"] >= k_thr - 1e-9

    def test_threshold_above_dimension_rejected(self, worked_spectrum, capsys):
        code = main([
            "kthreshold", "--spectrum", str(worked_spectrum),
            "--kmin", "100", "--gap", "0.037",
        ])
        assert code == 1
        assert "OutOfRangeError" in capsys.readouterr().err


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
    assert "PFixOutOfRangeError" in err and "dim=16384" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_closed_stdout_exits_quietly(large_spectrum):
    proc = _cli_process("concentrate", "--spectrum", str(large_spectrum), "--pref", "1e-4")
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_cli_import_leaves_oracle_unloaded():
    # only `validate` needs the oracles, so no other command pays for their import
    src = str(Path(io.__file__).parents[1])
    check = "import sys, schmidt_forge.cli; sys.exit('schmidt_forge.oracle' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", check], cwd=src, capture_output=True)
    assert result.returncode == 0, result.stderr
