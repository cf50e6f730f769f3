import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from chshlab import __version__, bell_state, chsh, cli, fileio, quantum, sampler
from chshlab.cli import main

from helpers import EDGE_STATES

TSIRELSON = 2.0 * np.sqrt(2.0)


def write_scenario(path, state="psi_minus", **settings):
    inv = 1.0 / np.sqrt(2.0)
    doc = {
        "a1": {"bloch": [0.0, 0.0, 1.0]},
        "a2": {"bloch": [1.0, 0.0, 0.0]},
        "b1": {"bloch": [-inv, 0.0, -inv]},
        "b2": {"bloch": [inv, 0.0, -inv]},
        **settings,
        "state": state,
    }
    path.write_text(json.dumps(doc))
    return path


def diagonal_spec(*diag):
    return {"matrix": [[[x if i == j else 0.0, 0.0] for j in range(4)] for i, x in enumerate(diag)]}


def assert_canonical(text):
    assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"


# the same settings as write_scenario's, with a2 and b2 named by their planar angles
ANGLES = {"a2": {"angle": 1.5707963267948966}, "b2": {"angle": 2.356194490192345}}
WERNER = [[0.05, 0, 0, 0], [0, 0.45, -0.4, 0], [0, -0.4, 0.45, 0], [0, 0, 0, 0.05]]
WERNER_SPEC = {"matrix": [[[x, 0.0] for x in row] for row in WERNER]}
QUARTER = diagonal_spec(0.25, 0.25, 0.25, 0.25)["matrix"]
ENTRY_ERRORS = {
    "bloch_length": ({"a1": {"bloch": [0.9, 0, 0]}}, 2,
                     "invalid input: a1.bloch: bloch vectors must have unit length"),
    "string_number": ({"b1": {"bloch": [0, "0", 1]}}, 1, "error: b1.bloch: expected a number"),
    "short_row": ({"state": {"matrix": [QUARTER[0], QUARTER[1][:3], *QUARTER[2:]]}}, 1,
                  "error: state.matrix[1]: expected 4 entries"),
    "bare_number": ({"state": {"matrix": [[[0.25], *QUARTER[0][1:]], *QUARTER[1:]]}}, 1,
                    "error: state.matrix[0][0]: expected an [re, im] pair"),
    "negative_eigenvalue": ({"state": diagonal_spec(1.5, -0.5, 0.0, 0.0)}, 2,
                            "invalid input: state.matrix: density matrix has negative eigenvalue"),
    "unknown_name": ({"state": "bogus"}, 2, "invalid input: state: unknown name 'bogus'"),
    # json.dumps writes these as the literals Infinity and NaN
    "infinite_angle": ({"a2": {"angle": float("inf")}}, 2, "invalid input: a2.angle: must be finite"),
    "nan_bloch": ({"b1": {"bloch": [float("nan"), 0, 1]}}, 2,
                  "invalid input: b1.bloch: bloch vectors must be finite real numbers"),
    "infinite_matrix_entry": ({"state": diagonal_spec(float("inf"), 0.0, 0.0, 0.0)}, 2,
                              "invalid input: state.matrix: density matrix must be finite numbers"),
}


def degenerate_scenario(path):
    doc = {
        "a1": {"bloch": [0.0, 0.0, 1.0]},
        "a2": {"bloch": [0.0, 0.0, 1.0]},
        "b1": {"bloch": [1.0, 0.0, 0.0]},
        "b2": {"bloch": [0.0, 1.0, 0.0]},
        "state": None,
    }
    path.write_text(json.dumps(doc))
    return path


class TestAnalyze:
    def test_stdout_report(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        assert main(["analyze", str(scen)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "chshlab" and doc["version"] == __version__
        report = doc["report"]
        assert abs(report["max_s_over_states"] - TSIRELSON) < 1e-9
        assert abs(report["s_value"] - TSIRELSON) < 1e-9
        assert report["violates"] is True
        assert report["identity_sign"] == -1

    def test_output_file_and_round_trip(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        out = tmp_path / "report.json"
        assert main(["analyze", str(scen), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "analyze"
        assert abs(doc["report"]["chsh_operator_norm"] - np.sqrt(2.0)) < 1e-10
        assert "wrote" in capsys.readouterr().out

    def test_degenerate_scenario_passes_expectation(self, tmp_path, capsys):
        scen = degenerate_scenario(tmp_path / "deg.json")
        assert main(["analyze", str(scen), "--expect-no-violation"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["violates"] is False
        assert doc["report"]["comm_a_norm"] < 1e-12
        assert doc["report"]["s_value"] is None

    def test_expectation_flag_fails_on_violation(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        assert main(["analyze", str(scen), "--expect-no-violation"]) == 3
        assert "expectation failed" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{')")
        assert main(["analyze", str(bad)]) == 1

    @pytest.mark.parametrize("command, flags", [("analyze", []), ("simulate", ["--shots", "10"])],
                             ids=["analyze", "simulate"])
    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path, capsys, command, flags):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main([command, str(bad), *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("change, code, prefix", ENTRY_ERRORS.values(), ids=ENTRY_ERRORS)
    def test_entry_error_exit_code_and_message(self, tmp_path, capsys, change, code, prefix):
        scen = write_scenario(tmp_path / "bad.json", **{**ANGLES, **change})
        assert main(["analyze", str(scen)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix)

    def test_non_unit_vector_is_validation_error(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "bad.json", b1={"bloch": [0.5, 0.0, 0.0]})
        assert main(["analyze", str(scen)]) == 2
        assert "b1" in capsys.readouterr().err

    def test_integer_too_large_for_float_is_parse_error(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "huge.json", b1={"bloch": [10**400, 0, 0]})
        assert main(["analyze", str(scen)]) == 1
        assert "b1.bloch" in capsys.readouterr().err

    @pytest.mark.parametrize("b1", [{"bloch": ["0", "0", "1"]}, {"angle": True},
                                    {"bloch": [0, False, 1]}, {"angle": "0.5"}],
                             ids=["string", "boolean", "bloch_boolean", "angle_string"])
    def test_string_or_boolean_number_is_parse_error(self, tmp_path, capsys, b1):
        scen = write_scenario(tmp_path / "typed.json", b1=b1)
        assert main(["analyze", str(scen)]) == 1
        assert "b1." in capsys.readouterr().err


class TestCheckIdentity:
    def test_verifies_minus_sign(self, capsys):
        assert main(["check-identity", "--trials", "200", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "trials: 200" in out
        assert "verified sign: -1" in out
        assert "the +1 sign convention fails" in out
        plus = float(re.search(r"sign \+1\): (\S+)", out).group(1))
        minus = float(re.search(r"sign -1\): (\S+)", out).group(1))
        assert minus <= 1e-9 < plus

    def test_trials_validated(self, capsys):
        assert main(["check-identity", "--trials", "0"]) == 2

    def test_seed_range_checked(self, capsys):
        assert main(["check-identity", "--trials", "1", "--seed", "-1"]) == 2
        assert "unsigned 64-bit" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        assert main(["check-identity", "--trials", "50", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["check-identity", "--trials", "50", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first


class TestSimulate:
    def test_estimate_against_exact(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        out = tmp_path / "run.json"
        assert main(["simulate", str(scen), "--shots", "20000", "--seed", "42",
                     "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "s_hat" in printed and "s_exact" in printed
        doc = json.loads(out.read_text())
        result = doc["result"]
        assert abs(result["s_hat"] - TSIRELSON) <= 5.0 * result["s_stderr"]
        assert abs(doc["s_exact"] - TSIRELSON) < 1e-9
        assert doc["input"]["seed"] == 42

    def test_byte_identical_outputs(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", str(scen), "--shots", "5000", "--seed", "9",
                     "--output", str(out1)]) == 0
        first_stdout = capsys.readouterr().out.replace(str(out1), "")
        assert main(["simulate", str(scen), "--shots", "5000", "--seed", "9",
                     "--output", str(out2)]) == 0
        second_stdout = capsys.readouterr().out.replace(str(out2), "")
        assert out1.read_bytes() == out2.read_bytes()
        assert first_stdout == second_stdout

    def test_zero_shots_rejected(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        assert main(["simulate", str(scen), "--shots", "0"]) == 2
        assert capsys.readouterr().err == "invalid input: shots_per_pair must be >= 1\n"

    def test_state_required(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "stateless.json", state=None)
        assert main(["simulate", str(scen), "--shots", "10"]) == 2

    def test_stdout_is_one_json_document(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        assert main(["simulate", str(scen), "--shots", "100", "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "simulate" and doc["input"]["seed"] == 4

    def test_state_correlations_computed_once(self, tmp_path, capsys, monkeypatch):
        # run_experiment and s_value share the parsed state's R
        calls = []
        compute = quantum.pauli_correlations
        for module in (quantum, chsh, sampler, cli):
            if hasattr(module, "pauli_correlations"):
                monkeypatch.setattr(module, "pauli_correlations",
                                    lambda rho: calls.append(rho) or compute(rho))
        werner = 0.8 * bell_state("psi_minus").matrix + 0.05 * np.eye(4)
        scen = write_scenario(tmp_path / "werner.json",
                              state={"matrix": [[[c.real, c.imag] for c in row] for row in werner]})
        assert main(["simulate", str(scen), "--shots", "100", "--seed", "4"]) == 0
        assert "s_exact" in json.loads(capsys.readouterr().out)
        assert len(calls) == 1

    @pytest.mark.parametrize("diag", [diag for diag, _, _ in EDGE_STATES])
    def test_edge_states_simulate(self, tmp_path, capsys, diag):
        # a file names unit Bloch vectors only, so the edge pair here is
        # a1 = b1 = sz; three of the four states put a cell of it outside [0, 1]
        scen = str(write_scenario(tmp_path / "edge.json", state=diagonal_spec(*diag),
                                  b1={"bloch": [0.0, 0.0, 1.0]}))
        assert main(["analyze", scen]) == 0
        assert_canonical(capsys.readouterr().out)
        assert main(["simulate", scen, "--shots", "1000", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert_canonical(text)
        counts = json.loads(text)["result"]["counts"]
        assert [c["pp"] + c["pm"] + c["mp"] + c["mm"] for c in counts] == [1000] * 4

    def test_seed_range_checked(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "opt.json")
        assert main(["simulate", str(scen), "--shots", "10",
                     "--seed", str(1 << 64)]) == 2


class TestSweep:
    def test_json_report(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--phi-steps", "181", "--state", "psi_minus",
                     "--output", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        rows = result["rows"]
        assert len(rows) == 181
        assert rows[0]["max_s"] <= 2.0 + 1e-9
        # the singlet reaches the Landau ceiling 2||C|| on every row
        assert all(abs(row["s_singlet"] - row["max_s"]) <= 1e-12 for row in rows)
        assert abs(result["best"]["max_s"] - TSIRELSON) <= 1e-12
        assert abs(rows[-1]["max_s"] - TSIRELSON) <= 1e-12

    def test_csv_matches_json(self, tmp_path):
        out_json = tmp_path / "s.json"
        out_csv = tmp_path / "s.csv"
        assert main(["sweep", "--phi-steps", "5", "--output", str(out_json)]) == 0
        assert main(["sweep", "--phi-steps", "5", "--format", "csv",
                     "--output", str(out_csv)]) == 0
        rows = json.loads(out_json.read_text())["result"]["rows"]
        with open(out_csv, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(rows) == 5
        for csv_row, row in zip(csv_rows, rows):
            for key in ("phi", "comm_a_norm", "comm_b_norm", "max_s", "s_singlet"):
                assert float(csv_row[key]) == row[key]

    def test_csv_to_stdout(self, capsys):
        assert main(["sweep", "--phi-steps", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "phi,comm_a_norm,comm_b_norm,max_s,s_singlet"
        assert len(lines) == 4

    def test_unknown_state_lists_names(self, capsys):
        assert main(["sweep", "--state", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "psi_minus" in err and "maximally_mixed" in err

    def test_state_help_lists_the_names(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep", "--help"])
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps help lines
        assert f"named state for the S column: {', '.join(quantum.STATE_NAMES)}" in out

    def test_phi_steps_validated(self, capsys):
        assert main(["sweep", "--phi-steps", "1"]) == 2

    def test_consecutive_calls_share_no_parse_state(self, capsys):
        assert main(["sweep", "--phi-steps", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("phi,")
        assert main(["sweep", "--phi-steps", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "sweep"


def _leaves(x):
    if isinstance(x, dict):
        for key, value in x.items():
            assert type(key) is str
            yield from _leaves(value)
    elif isinstance(x, (list, tuple)):
        for value in x:
            yield from _leaves(value)
    else:
        yield x


class TestEveryCommand:
    @pytest.mark.parametrize("command, state, flags", [
        ("analyze", "psi_minus", []),
        ("analyze", WERNER_SPEC, []),
        ("simulate", WERNER_SPEC, ["--shots", "5000", "--seed", "7"]),
        ("sweep", None, ["--phi-steps", "19", "--state", "phi_plus"]),
    ], ids=["analyze_bell", "analyze_matrix", "simulate", "sweep"])
    def test_stdout_is_canonical_json(self, tmp_path, capsys, command, state, flags):
        scen = [] if command == "sweep" else [str(write_scenario(tmp_path / "s.json", state, **ANGLES))]
        assert main([command, *scen, *flags]) == 0
        assert_canonical(capsys.readouterr().out)

    def test_maximally_mixed_gives_zero(self, tmp_path, capsys):
        scen = str(write_scenario(tmp_path / "mixed.json", "maximally_mixed", **ANGLES))
        assert main(["analyze", scen]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["s_value"] == 0.0
        assert main(["simulate", scen, "--shots", "5000", "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["s_exact"] == 0.0
        assert main(["sweep", "--phi-steps", "19", "--state", "maximally_mixed", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 19 and all(float(row["s_singlet"]) == 0.0 for row in rows)


class TestDocumentLeaves:
    """Every leaf of every document the CLI writes has one of the five exact
    types `fileio.dumps` accepts, which write as `json.dumps` writes them."""

    @pytest.mark.parametrize("state", [
        "psi_minus", "maximally_mixed", WERNER_SPEC, None,
    ], ids=["bell", "maximally_mixed", "matrix", "null"])
    def test_every_leaf_has_an_exact_json_type(self, tmp_path, monkeypatch, capsys, state):
        docs = []
        dumps = fileio.dumps
        monkeypatch.setattr(fileio, "dumps", lambda doc: docs.append(doc) or dumps(doc))
        scen = str(write_scenario(tmp_path / "s.json", state=state))
        runs = [["analyze", scen]]
        if state is not None:
            runs.append(["simulate", scen, "--shots", "300", "--seed", "5"])
        if isinstance(state, str):
            runs.append(["sweep", "--phi-steps", "5", "--state", state])
        for argv in runs:
            assert main(argv) == 0, argv
        assert [doc["command"] for doc in docs] == [argv[0] for argv in runs]
        for doc in docs:
            kinds = {type(leaf) for leaf in _leaves(doc)}
            assert kinds <= {str, int, float, bool, type(None)}, (doc["command"], kinds)


class TestLhv:
    def test_listing(self, capsys):
        assert main(["lhv"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if re.match(r"\s+[+-]1\s+[+-]1\s+[+-]1\s+[+-]1", ln)]
        assert len(rows) == 16
        assert "classical max S: 2" in out
        assert "classical min S: -2" in out


class TestPerCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["lhv", "--format", "csv", "--expect-no-violation"],
        ["simulate", "SCENARIO", "--shots", "10", "--format", "csv"],
        ["analyze", "SCENARIO", "--seed", "1"],
    ])
    def test_flag_of_another_command_is_usage_error(self, tmp_path, capsys, argv):
        scen = str(write_scenario(tmp_path / "opt.json"))
        assert main([scen if a == "SCENARIO" else a for a in argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-m", "chshlab.cli", "lhv"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "classical max S: 2" in proc.stdout

    def test_version_imports_the_whole_package(self):
        # setup_s times this command as the cost of loading all of chshlab; cli
        # runs as __main__, so the loaded modules are the package and its other eight
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "chshlab.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0 and proc.stdout == f"chshlab {__version__}\n"
        loaded = {ln.rsplit("|", 1)[-1].strip() for ln in proc.stderr.splitlines()
                  if ln.startswith("import time:")}
        modules = ("chsh", "fileio", "lhv", "linalg", "quantum", "rng", "sampler", "sweep")
        assert {m for m in loaded if m.split(".")[0] == "chshlab"} == {
            "chshlab", *(f"chshlab.{m}" for m in modules)}

    def test_readme_library_example_runs(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
            block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
        ns = {}
        exec(block, ns)
        assert ns["report"].violates is True
        assert abs(ns["best"].s_value - TSIRELSON) <= 1e-12

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_usage_error_is_nonzero(self, capsys):
        assert main(["analyze"]) != 0
