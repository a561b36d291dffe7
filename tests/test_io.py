import json

import numpy as np
import pytest

from schmidt_forge import (
    FixedProbRequest,
    ReferenceLevel,
    make_spectrum,
    optimal_plan_efficiency,
    optimal_plan_fixed,
    sample_haar_spectrum,
    SampleSpec,
)
from schmidt_forge.errors import IoError, ParseError, SchemaError
from schmidt_forge import io

from helpers import read_csv

WORKED = [0.4, 0.3, 0.2, 0.1]


class TestSpectrumRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        s = sample_haar_spectrum(SampleSpec(dim=16, seed=3, count=1))[0]
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
        with pytest.raises(ParseError) as err:
            io.read_spectrum(path)
        assert err.value.lineno == 1
        assert err.value.colno > 1

    def test_not_normalized_is_schema_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"dim": 2, "squared_coefficients": [0.7, 0.5]}')
        with pytest.raises(SchemaError, match="NotNormalized"):
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

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            io.read_spectrum(tmp_path / "absent.json")
        with pytest.raises(IoError):
            io.write_spectrum(make_spectrum([0.5, 0.5]), tmp_path / "no" / "dir.json")


class TestOutcomeRoundTrip:
    def test_efficiency_outcome(self, tmp_path):
        s = make_spectrum(WORKED)
        out = optimal_plan_efficiency(s, ReferenceLevel(4, 0.3))
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

