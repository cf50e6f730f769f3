import json
import re

import numpy as np
import pytest

from chshlab import (
    RunConfig,
    analyze,
    bell_state,
    incompatibility_sweep,
    run_experiment,
)
from chshlab import fileio
from chshlab.fileio import FormatError
from chshlab.quantum import SIGMA_Z


def optimal_doc(state="psi_minus"):
    inv = 1.0 / np.sqrt(2.0)
    return {
        "a1": {"bloch": [0.0, 0.0, 1.0]},
        "a2": {"bloch": [1.0, 0.0, 0.0]},
        "b1": {"bloch": [-inv, 0.0, -inv]},
        "b2": {"bloch": [inv, 0.0, -inv]},
        "state": state,
    }


class TestScenarioParsing:
    def test_bloch_form(self):
        sc, echo = fileio.parse_scenario(json.dumps(optimal_doc()))
        assert np.allclose(sc.a1.matrix, SIGMA_Z, atol=0)
        assert sc.state is not None
        assert echo == optimal_doc()

    def test_angle_form(self):
        doc = {
            "a1": {"angle": 0.0},
            "a2": {"angle": np.pi / 2.0},
            "b1": {"angle": 5.0 * np.pi / 4.0},
            "b2": {"angle": 3.0 * np.pi / 4.0},
            "state": "psi_minus",
        }
        sc, _ = fileio.parse_scenario(json.dumps(doc))
        from chshlab import s_value

        assert abs(s_value(sc) - 2.0 * np.sqrt(2.0)) < 1e-9

    def test_explicit_matrix_state(self):
        rho = bell_state("phi_plus").matrix
        doc = optimal_doc(state={"matrix": [[[c.real, c.imag] for c in row] for row in rho]})
        sc, _ = fileio.parse_scenario(json.dumps(doc))
        assert np.allclose(sc.state.matrix, rho, atol=0)

    def test_null_and_mixed_states(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc(state=None)))
        assert sc.state is None
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc(state="maximally_mixed")))
        assert np.array_equal(sc.state.matrix, np.eye(4) / 4.0)

    def test_bad_json_is_format_error(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            fileio.parse_scenario("{not json")

    @pytest.mark.parametrize("parse", [fileio.parse_scenario, fileio.parse_document],
                             ids=["scenario", "document"])
    def test_too_deeply_nested_json_is_format_error(self, parse):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse("[" * 100_000 + "]" * 100_000)

    def test_missing_field_is_format_error(self):
        doc = optimal_doc()
        del doc["b2"]
        with pytest.raises(FormatError, match="b2"):
            fileio.parse_scenario(json.dumps(doc))

    def test_wrong_shape_bloch_is_format_error(self):
        doc = optimal_doc()
        doc["a1"] = {"bloch": [1.0, 0.0]}
        with pytest.raises(FormatError, match="a1.bloch"):
            fileio.parse_scenario(json.dumps(doc))

    def test_non_unit_vector_is_validation_error(self):
        doc = optimal_doc()
        doc["b1"] = {"bloch": [0.5, 0.0, 0.0]}
        with pytest.raises(ValueError, match="b1.bloch"):
            fileio.parse_scenario(json.dumps(doc))

    def test_unknown_state_lists_valid_names(self):
        with pytest.raises(ValueError, match="maximally_mixed"):
            fileio.parse_scenario(json.dumps(optimal_doc(state="bogus")))

    def test_nan_bloch_component_is_validation_error(self):
        doc = optimal_doc()
        text = json.dumps(doc).replace("1.0, 0.0, 0.0", "NaN, 0.0, 0.0")
        with pytest.raises(ValueError, match="unit length"):
            fileio.parse_scenario(text)

    def test_non_numeric_angle_is_format_error(self):
        doc = optimal_doc()
        doc["a1"] = {"angle": None}
        with pytest.raises(FormatError, match="a1.angle"):
            fileio.parse_scenario(json.dumps(doc))

    def test_non_finite_angle_is_validation_error(self):
        doc = optimal_doc()
        doc["a1"] = {"angle": float("inf")}
        with pytest.raises(ValueError, match="finite"):
            fileio.parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("field, spec, where", [
        ("a1", {"bloch": [10**400, 0, 0]}, "a1.bloch"),
        ("a1", {"angle": 10**400}, "a1.angle"),
        ("state", {"matrix": [[[10**400, 0]] * 4] * 4}, "state.matrix[0][0]"),
    ], ids=["bloch", "angle", "matrix"])
    def test_integer_too_large_for_float_is_format_error(self, field, spec, where):
        doc = optimal_doc()
        doc[field] = spec
        with pytest.raises(FormatError, match=re.escape(where)):
            fileio.parse_scenario(json.dumps(doc))

    def test_invalid_matrix_state_is_validation_error(self):
        bad = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        with pytest.raises(ValueError, match="state.matrix"):
            fileio.parse_scenario(json.dumps(optimal_doc(state={"matrix": bad})))


class TestRoundTrips:
    def test_report_round_trip(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc()))
        report = analyze(sc)
        assert fileio.report_from_dict(fileio.report_to_dict(report)) == report

    def test_report_round_trip_without_state(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc(state=None)))
        report = analyze(sc)
        assert report.s_value is None
        recovered = fileio.report_from_dict(json.loads(json.dumps(fileio.report_to_dict(report))))
        assert recovered == report

    def test_run_result_round_trip(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc()))
        result = run_experiment(RunConfig(sc, shots_per_pair=2000, seed=17))
        through_json = json.loads(json.dumps(fileio.run_result_to_dict(result)))
        assert fileio.run_result_from_dict(through_json) == result

    def test_sweep_result_round_trip(self):
        result = incompatibility_sweep(4, bell_state("psi_minus"))
        through_json = json.loads(json.dumps(fileio.sweep_result_to_dict(result)))
        assert fileio.sweep_result_from_dict(through_json) == result

    def test_document_round_trip(self):
        sc, echo = fileio.parse_scenario(json.dumps(optimal_doc()))
        report = analyze(sc)
        doc = fileio.make_document("analyze", {"scenario": echo}, "report",
                                   fileio.report_to_dict(report))
        text = fileio.dumps(doc)
        parsed = fileio.parse_document(text)
        assert parsed["tool"] == "chshlab"
        assert parsed["input"]["scenario"] == echo
        assert fileio.result_from_document(parsed) == report

    def test_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            fileio.dumps({"s_value": float("nan")})

    def test_csv_matches_json_exactly(self):
        result = incompatibility_sweep(6, bell_state("psi_minus"))
        rows = fileio.sweep_rows_from_csv(fileio.sweep_result_to_csv(result))
        assert len(rows) == 6
        for csv_row, row in zip(rows, result.rows):
            assert csv_row["phi"] == row.phi
            assert csv_row["comm_a_norm"] == row.comm_a_norm
            assert csv_row["comm_b_norm"] == row.comm_b_norm
            assert csv_row["max_s"] == row.max_s
            assert csv_row["s_singlet"] == row.s_singlet

    def test_csv_header_contract(self):
        result = incompatibility_sweep(2, bell_state("psi_minus"))
        text = fileio.sweep_result_to_csv(result)
        assert text.split("\n")[0] == "phi,comm_a_norm,comm_b_norm,max_s,s_singlet"
        assert text.endswith("\n")
        assert "," in text and ";" not in text

    def test_unknown_document_command(self):
        with pytest.raises(FormatError, match="unknown report command"):
            fileio.result_from_document({"command": "frobnicate"})
