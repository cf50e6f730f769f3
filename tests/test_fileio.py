import csv
import io
import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab import (
    RunConfig,
    analyze,
    bell_state,
    incompatibility_sweep,
    observable_from_bloch,
    run_experiment,
)
from chshlab import fileio
from chshlab.fileio import FormatError
from chshlab.quantum import SIGMA_Z
from chshlab.sampler import PAIR_LABELS


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

    def test_spec_forms_match_library_input(self):
        # the checked components enter observable_from_bloch as a tuple of
        # floats; the Pauli vector is the one list input gives, bit for bit
        doc = {"a1": {"bloch": [0.6, 0, 0.8]}, "a2": {"angle": 1.2},
               "b1": {"bloch": [0, 1, 0]}, "b2": {"angle": -0.4}, "state": None}
        sc, _ = fileio.parse_scenario(json.dumps(doc))
        want = {"a1": [0.6, 0, 0.8], "a2": [np.sin(1.2), 0.0, np.cos(1.2)],
                "b1": [0, 1, 0], "b2": [np.sin(-0.4), 0.0, np.cos(-0.4)]}
        for name, n in want.items():
            got = getattr(sc, name)
            assert np.array_equal(got.pauli, observable_from_bloch(n).pauli)
            assert got.label == name
        with pytest.raises(ValueError, match="real numbers"):
            observable_from_bloch([0.0, False, 1.0])

    def test_parsed_values_match_the_array_construction_bit_for_bit(self):
        # plain-float entry gives the bits of the Pauli vector (0, n) as a
        # float64 array, and of a complex matrix filled cell by cell: signed
        # zeros and integer literals included
        vectors = {"a1": [-0.0, 0, 1], "a2": [0, -1, -0.0], "b1": [0.6, -0.0, -0.8], "b2": [1, 0, 0]}
        rows = [[[0.25, -0.0], [0, 0], [-0.0, 0.125], [0, -0.0]],
                [[0, 0], [0.25, 0], [0, 0], [0.0, 0]],
                [[-0.0, -0.125], [0, 0], [0.25, 0.0], [-0.0, 0]],
                [[0, 0.0], [0, -0.0], [-0.0, 0], [0.25, -0.0]]]
        doc = {**{name: {"bloch": n} for name, n in vectors.items()}, "state": {"matrix": rows}}
        sc, _ = fileio.parse_scenario(json.dumps(doc))
        for name, n in vectors.items():
            want = np.array([0.0, *(float(c) for c in n)])
            assert getattr(sc, name).pauli.tobytes() == want.tobytes()
        want = np.zeros((4, 4), dtype=np.complex128)
        for i, row in enumerate(rows):
            for j, (re_part, im_part) in enumerate(row):
                want[i, j] = complex(float(re_part), float(im_part))
        assert sc.state.matrix.tobytes() == want.tobytes()
        assert np.signbit(sc.state.matrix.imag[0, 0]) and np.signbit(sc.state.matrix.real[0, 2])

    def test_angles_match_the_stacked_construction_bit_for_bit(self):
        # one float angle takes the same formula as a stack: seeded angles,
        # signed zeros, multiples of 2 pi and |t| > 1e6 give the stacked bits
        angles = np.random.default_rng(19).uniform(-10.0, 10.0, 200).tolist()
        angles += [0.0, -0.0, 2.0 * np.pi, -2.0 * np.pi, 6.0 * np.pi, 1e6 * np.pi,
                   1e6 + 0.5, -3.3e7, 1e15, -1e300, 2.0**60, 5]
        for t in angles:
            spec = json.loads(json.dumps({"angle": t}))
            got = fileio.observable_from_spec(spec, "a1").pauli
            t = np.asarray(float(t))
            zero = np.zeros_like(t)
            want = np.stack((zero, np.sin(t), zero, np.cos(t)), axis=-1)
            assert got.tobytes() == want.tobytes(), t

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

    @pytest.mark.parametrize("parse", [fileio.parse_scenario], ids=["scenario"])
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
        with pytest.raises(ValueError, match="bloch vectors must be finite real numbers"):
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

    @pytest.mark.parametrize("bad", ["0", "1.0", True, False, None, [1.0], {"re": 1.0}],
                             ids=["str", "str_float", "true", "false", "null", "list", "object"])
    @pytest.mark.parametrize("field, make, where", [
        ("b1", lambda v: {"bloch": [0.0, v, 1.0]}, "b1.bloch"),
        ("b1", lambda v: {"angle": v}, "b1.angle"),
        ("state", lambda v: {"matrix": [[[0.25, v] if i == j == 2 else [0.25 if i == j else 0.0, 0.0]
                                         for j in range(4)] for i in range(4)]}, "state.matrix[2][2]"),
    ], ids=["bloch", "angle", "matrix"])
    def test_non_number_is_format_error(self, field, make, where, bad):
        # JSON strings and booleans are not numbers, even where float() would take them
        doc = optimal_doc()
        doc[field] = make(bad)
        with pytest.raises(FormatError, match=re.escape(f"{where}: expected a number")):
            fileio.parse_scenario(json.dumps(doc))


def written(payload_dict):
    """A payload as it reads back from its serialized document."""
    return json.loads(fileio.dumps(payload_dict))


class TestRoundTrips:
    """Documents are write-only; `json.loads` and `csv` recover each payload
    exactly, compared with `dataclasses.asdict` of the typed result."""

    def test_report_round_trip(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc()))
        report = analyze(sc)
        assert written(fileio.report_to_dict(report)) == asdict(report)

    def test_report_round_trip_without_state(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc(state=None)))
        report = analyze(sc)
        assert report.s_value is None
        recovered = written(fileio.report_to_dict(report))
        assert recovered["s_value"] is None
        assert recovered == asdict(report)

    def test_run_result_round_trip(self):
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc()))
        result = run_experiment(RunConfig(sc, shots_per_pair=2000, seed=17))
        through_json = written(fileio.run_result_to_dict(result))
        assert [c.pop("pair") for c in through_json["counts"]] == list(PAIR_LABELS)
        assert through_json == asdict(result)

    def test_sweep_result_round_trip(self):
        result = incompatibility_sweep(4, bell_state("psi_minus"))
        through_json = written(fileio.sweep_result_to_dict(result))
        assert through_json == asdict(result)

    def test_document_round_trip(self):
        sc, echo = fileio.parse_scenario(json.dumps(optimal_doc()))
        report = analyze(sc)
        doc = fileio.make_document("analyze", {"scenario": echo}, "report",
                                   fileio.report_to_dict(report))
        text = fileio.dumps(doc)
        parsed = json.loads(text)
        assert parsed["tool"] == "chshlab"
        assert parsed["command"] == "analyze"
        assert parsed["input"]["scenario"] == echo
        assert parsed["report"] == asdict(report)

    def test_payloads_serialize_as_the_deep_copy_would(self):
        # the shallow payloads keep asdict's key order, so the bytes match
        sc, _ = fileio.parse_scenario(json.dumps(optimal_doc()))
        report = analyze(sc)
        result = run_experiment(RunConfig(sc, shots_per_pair=500, seed=3))
        run_deep = asdict(result)
        run_deep = {
            "seed": run_deep["seed"],
            "shots_per_pair": run_deep["shots_per_pair"],
            "counts": [{"pair": label, **c} for label, c in zip(PAIR_LABELS, run_deep["counts"])],
            "e_hat": run_deep["e_hat"],
            "s_hat": run_deep["s_hat"],
            "s_stderr": run_deep["s_stderr"],
        }
        sweep = incompatibility_sweep(7, bell_state("phi_plus"))
        sweep_deep = asdict(sweep)
        sweep_deep = {"phi_steps": sweep_deep["phi_steps"], "rows": sweep_deep["rows"],
                      "best": sweep_deep["best"]}
        for shallow, deep in ((fileio.report_to_dict(report), asdict(report)),
                              (fileio.run_result_to_dict(result), run_deep),
                              (fileio.sweep_result_to_dict(sweep), sweep_deep)):
            assert fileio.dumps(shallow) == fileio.dumps(deep)

    def test_payloads_are_copies(self):
        # shallow, but writing to a payload never writes to the result
        result = incompatibility_sweep(3, bell_state("psi_minus"))
        payload = fileio.sweep_result_to_dict(result)
        payload["rows"][0]["settings"]["beta1"] = -1.0
        payload["best"]["max_s"] = -1.0
        assert result.rows[0].settings.beta1 != -1.0
        assert result.best.max_s != -1.0
        report = analyze(fileio.parse_scenario(json.dumps(optimal_doc()))[0])
        fileio.report_to_dict(report)["violates"] = None
        assert report.violates is True

    def test_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            fileio.dumps({"s_value": float("nan")})

    def test_csv_matches_json_exactly(self):
        result = incompatibility_sweep(6, bell_state("psi_minus"))
        rows = list(csv.DictReader(io.StringIO(fileio.sweep_result_to_csv(result))))
        assert len(rows) == 6
        for csv_row, row in zip(rows, result.rows):
            assert {k: float(v) for k, v in csv_row.items()} == {
                k: getattr(row, k) for k in fileio.SWEEP_CSV_COLUMNS}

    def test_csv_header_contract(self):
        result = incompatibility_sweep(2, bell_state("psi_minus"))
        text = fileio.sweep_result_to_csv(result)
        assert text.split("\n")[0] == "phi,comm_a_norm,comm_b_norm,max_s,s_singlet"
        assert text.endswith("\n")
        assert "," in text and ";" not in text


# JSON trees as documents may hold them: leaves of the five exact types `dumps`
# writes, with the extreme floats and ints named explicitly, under dicts with str keys,
# lists and tuples, empty ones included
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308))
strings = st.text() | st.text(st.characters(max_codepoint=0x1F)) | st.text(
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))  # lone surrogates
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((2**63, -(2**64), 10**300, -(10**300)))
    | finite_floats
    | strings
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(strings, children, max_size=4),
    max_leaves=30,
)


def buried(leaf):
    """Trees holding `leaf` once, among valid siblings, at a drawn depth."""
    return st.recursive(
        st.just(leaf),
        lambda inner: st.builds(lambda before, x, after: [*before, x, *after],
                                st.lists(json_leaves, max_size=2), inner,
                                st.lists(json_leaves, max_size=2))
        | st.builds(lambda d, key, x: {**d, key: x},
                    st.dictionaries(strings, json_leaves, max_size=2), strings, inner),
        max_leaves=6,
    )


ENCODER_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)
BAD_LEAVES = [(float("nan"), ValueError), (float("inf"), ValueError), (float("-inf"), ValueError),
              (object(), TypeError), (np.int64(3), TypeError), (np.bool_(True), TypeError),
              ({1, 2}, TypeError), (b"x", TypeError)]


class TestDumps:
    """`dumps` writes exactly what `json.dumps(doc, indent=2, allow_nan=False)`
    writes, plus a newline, and fails where it fails."""

    @ENCODER_SETTINGS
    @given(json_trees)
    def test_matches_json_dumps(self, doc):
        assert fileio.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @ENCODER_SETTINGS
    @given(st.sampled_from(BAD_LEAVES).flatmap(
        lambda bad: st.tuples(buried(bad[0]), st.just(bad[1]))))
    def test_bad_leaf_at_any_depth_fails_as_json_does(self, case):
        # NaN and +-inf are ValueErrors, types json cannot write TypeErrors,
        # with json's messages
        doc, error = case
        with pytest.raises(error) as want:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(error) as got:
            fileio.dumps(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)], ids=repr)
    def test_non_str_key_is_type_error(self, key):
        # json would write the scalar keys as strings; documents only have str keys
        with pytest.raises(TypeError):
            fileio.dumps({"ok": {key: 0.0}})

    def test_str_subclass_key_is_type_error(self):
        # keys follow the leaves' rule: an exact str, or json's message for
        # an object it cannot write
        class Label(str):
            pass

        for doc in ({Label("k"): 1}, {"ok": [{"fine": 0.5, Label("k"): 0.5}]}):
            with pytest.raises(TypeError, match="^Object of type Label is not JSON serializable$"):
                fileio.dumps(doc)

    def test_subclass_leaves_are_type_errors(self):
        # json writes these as their base; no document holds one, so `dumps`
        # rejects them like any other type outside its five
        class Label(str):
            pass

        class Count(int):
            pass

        class Value(float):
            pass

        for leaf in (Label("v"), Count(7), Value(0.1), np.float64(1 / 3), np.float64("nan")):
            with pytest.raises(TypeError, match=f"Object of type {type(leaf).__name__} is not"):
                fileio.dumps({"ok": [True, {"leaf": leaf}]})
