import json
import re

import numpy as np
import pytest

from schmidt_forge import (
    FixedProbRequest,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sample_haar_spectrum,
)
from schmidt_forge.errors import IoError, ParseError, SchemaError
from schmidt_forge import io

from helpers import read_csv, stored_spectrum

WORKED = [0.4, 0.3, 0.2, 0.1]


class TestSpectrumRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        s = sample_haar_spectrum(16, 3, 1)[0]
        path = tmp_path / "s.json"
        io.write_spectrum(s, path)
        back = io.read_spectrum(path)
        assert back.dim == s.dim
        assert np.array_equal(back.sq_coeffs, s.sq_coeffs)

    def test_seventeen_significant_digits(self, tmp_path):
        s = make_spectrum([1 / 3, 1 / 3, 1 / 3], normalize=True)
        path = tmp_path / "s.json"
        io.write_spectrum(s, path)
        text = path.read_text()
        assert '"dim": 3' in text
        assert '"squared_coefficients"' in text
        assert "0.33333333333333331" in text  # 17 significant digits

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "squared_coefficients": [0.5,')
        message = f"{path}: invalid JSON at line 1, column 41: Expecting value"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            io.read_spectrum(path)

    def test_not_normalized_is_schema_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"dim": 2, "squared_coefficients": [0.7, 0.5]}')
        message = (f"{path}: InvalidSpectrumError: squared coefficients sum to 1.2; "
                   "pass normalize=True to rescale")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            io.read_spectrum(path)

    @pytest.mark.parametrize("coeffs", ['[0.5, "a"]', "[0.5, [0.5]]", "[0.5, {}]"])
    def test_non_numeric_coefficient_is_schema_error(self, tmp_path, coeffs):
        path = tmp_path / "s.json"
        path.write_text(f'{{"dim": 2, "squared_coefficients": {coeffs}}}')
        with pytest.raises(SchemaError):
            io.read_spectrum(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"dim": 2}')
        with pytest.raises(SchemaError):
            io.read_spectrum(path)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"dim": 3, "squared_coefficients": [0.5, 0.5]}')
        with pytest.raises(SchemaError):
            io.read_spectrum(path)

    @pytest.mark.parametrize("document", [
        '{"dim": true, "squared_coefficients": [0.5, 0.5]}',
        '{"dim": false, "squared_coefficients": []}',
        '{"dim": 2.0, "squared_coefficients": [0.5, 0.5]}',
        '{"dim": 2, "squared_coefficients": 0.5}',
    ], ids=["dim-true", "dim-false", "dim-float", "coefficients-scalar"])
    def test_wrong_field_types(self, tmp_path, document):
        path = tmp_path / "s.json"
        path.write_text(document)
        with pytest.raises(SchemaError, match=": wrong field types$"):
            io.read_spectrum(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            io.read_spectrum(tmp_path / "absent.json")
        with pytest.raises(IoError):
            io.write_spectrum(make_spectrum([0.5, 0.5]), tmp_path / "no" / "dir.json")


@pytest.mark.xfail(strict=True, reason="read_spectrum divides by the float sum again")
def test_spectrum_file_round_trip(tmp_path):
    # numpy sums fewer than 8 values in order: 0.7 + 0.2 + 0.1 is 0.9999999999999999
    s = stored_spectrum([0.7, 0.2, 0.1])
    path = tmp_path / "s.json"
    io.write_spectrum(s, path)
    assert io.read_spectrum(path).sq_coeffs.tobytes() == s.sq_coeffs.tobytes()


@pytest.mark.parametrize("value", [[0.5, 0.5], "x", True], ids=["list", "str", "bool"])
def test_json_pieces_refuses_what_the_package_never_writes(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        "".join(io.json_pieces({"value": value}))


class TestOutcomeRoundTrip:
    def test_efficiency_outcome(self, tmp_path):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, 0.3)
        path = tmp_path / "o.json"
        io.write_json(io.outcome_dict(out, "efficiency", 0.3), path)
        back = json.loads(path.read_text())
        assert next(iter(back)) == "p_ref"
        assert back["p_ref"] == 0.3
        assert back["n_opt"] == out.plan.n_opt
        assert np.array_equal(back["y"], out.plan.y)
        assert np.array_equal(back["post_spectrum"], out.post_spectrum.sq_coeffs)
        assert back["q_value"] == out.q_value

    def test_fixedprob_outcome_null_q(self, tmp_path):
        s = make_spectrum(WORKED)
        out = optimal_plan_fixed(s, FixedProbRequest(0.7))
        path = tmp_path / "o.json"
        io.write_json(io.outcome_dict(out, "fixedprob", 0.7), path)
        text = path.read_text()
        assert '"q_value": null' in text
        back = json.loads(text)
        assert next(iter(back)) == "p_fix"
        assert back["q_value"] is None
        assert back["purity"] == out.post_measures.purity


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0.1, 3, 1 / 7], [0.2, 2, 2 / 3]]
        io.write_csv(path, ["a", "b", "c"], rows)
        header, back = read_csv(path)
        assert header == ["a", "b", "c"]
        assert back[0][2] == 1 / 7
        assert back[1][2] == 2 / 3

    def test_format_details(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_csv(path, ["x", "n"], [[0.5, 4]])
        raw = path.read_bytes()
        assert raw == b"x,n\n0.5,4\n"

    def test_every_cell_type(self, tmp_path):
        # ints (not bools) print as ints, everything else as the repr of its float
        row = [0.1, -0.0, 5e-324, float("nan"), float("-inf"), np.float64(1 / 3),
               np.float32(0.1), 7, np.int64(-3), True, np.bool_(False)]
        path = tmp_path / "t.csv"
        io.write_csv(path, [str(i) for i in range(len(row))], [row])
        expected = ["0.1", "-0.0", "5e-324", "nan", "-inf", repr(1 / 3),
                    repr(float(np.float32(0.1))), "7", "-3", "1.0", "0.0"]
        assert path.read_text().splitlines()[1] == ",".join(expected)

