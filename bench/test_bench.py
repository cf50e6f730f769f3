"""Tests of the benchmark itself: real chshlab outputs pass the checker and
each corrupted output counts as a failure; inputs follow the seed; speed
scaling and metric names behave as documented.

    python -m pytest bench/test_bench.py
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chshlab import bell_state, cli, optimize_settings  # noqa: E402


def _cli(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--output", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "s.json"
    sc = workloads.BELL_RUN_SCENARIOS[1]
    path.write_text(json.dumps(sc))
    return sc, str(path)


def test_analyze_report(scenario_file, tmp_path):
    sc, path = scenario_file
    doc = _cli(["analyze", path], tmp_path / "o.json")
    assert oracles.check_analyze(sc, doc) == []
    for field, change in (("max_s_over_states", 1e-6), ("comm_a_norm", -1e-6), ("s_value", 1e-6)):
        bad = copy.deepcopy(doc)
        bad["report"][field] += change
        assert oracles.check_analyze(sc, bad), field
    bad = copy.deepcopy(doc)
    bad["report"]["violates"] = False
    assert oracles.check_analyze(sc, bad)


def test_simulate_counts(scenario_file, tmp_path):
    sc, path = scenario_file
    _, shots, seed, digest = workloads.PINNED_RUNS[4]
    doc = _cli(["simulate", path, "--shots", str(shots), "--seed", str(seed)], tmp_path / "o.json")
    assert oracles.check_simulate(sc, shots, doc, digest) == []
    moved = copy.deepcopy(doc)  # same total, different counts
    moved["result"]["counts"][0]["pp"] -= 1
    moved["result"]["counts"][0]["pm"] += 1
    assert oracles.check_simulate(sc, shots, moved, digest)
    short = copy.deepcopy(doc)
    short["result"]["counts"][2]["mm"] -= 1
    assert oracles.check_simulate(sc, shots, short)
    far = copy.deepcopy(doc)
    far["result"]["s_hat"] = doc["s_exact"] + 6.0 * doc["result"]["s_stderr"]
    assert oracles.check_simulate(sc, shots, far)


def test_zero_probability_cells(tmp_path):
    sc = workloads.BELL_RUN_SCENARIOS[2]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc))
    doc = _cli(["simulate", str(path), "--shots", "1000", "--seed", "3"], tmp_path / "o.json")
    assert oracles.check_simulate(sc, 1000, doc) == []
    bad = copy.deepcopy(doc)
    bad["result"]["counts"][0]["pp"] -= 1
    bad["result"]["counts"][0]["pm"] += 1
    assert any("zero-probability" in p for p in oracles.check_simulate(sc, 1000, bad))


def test_optimizer_value():
    rho = workloads.werner_matrix(0.8)
    result = optimize_settings(bell_state("psi_minus"), restarts=8)
    psi_minus = oracles.state_matrix("psi_minus")
    assert oracles.check_optimize(psi_minus, result.s_value) == []
    assert oracles.check_optimize(psi_minus, result.s_value + 1e-5)
    assert oracles.horodecki_planar(rho) == pytest.approx(0.8 * oracles.TSIRELSON, abs=1e-12)


def test_sweep_rows(tmp_path):
    doc = _cli(["sweep", "--phi-steps", "3"], tmp_path / "o.json")
    assert oracles.check_sweep(doc) == []
    bad = copy.deepcopy(doc)
    bad["result"]["rows"][1]["max_s"] += 1e-3
    assert oracles.check_sweep(bad)


def test_identity_stdout():
    assert oracles.check_identity_stdout("verified sign: -1   [C^2 = ...]\n") == []
    assert oracles.check_identity_stdout("verified sign: +1   [C^2 = ...]\n")


def test_runner_counts_failures(scenario_file, tmp_path):
    _, path = scenario_file
    runner = run.Runner(tmp_path)
    out = str(tmp_path / "out.json")
    good = workloads.Op("analyze", ["analyze", path, "--output", out],
                        scenario=workloads.BELL_RUN_SCENARIOS[1])
    wrong_rc = workloads.Op("analyze", ["analyze", path, "--output", out], expect_rc=2)
    wrong_doc = workloads.Op("analyze", ["analyze", path, "--output", out],
                             scenario=workloads.BELL_RUN_SCENARIOS[0])
    for op in (good, wrong_rc, wrong_doc):
        runner.execute(op)
    assert runner.attempted == 3 and len(runner.failures) == 2


def test_workload_inputs_are_seeded(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a, ref_a = workloads.build("settings_search", 5, a)
    ops_b, ref_b = workloads.build("settings_search", 5, b)
    assert len(ops_a) == len(ops_b) and len(ref_a) == len(ref_b)
    for x, y in zip(ops_a + ref_a, ops_b + ref_b):
        assert [s.replace(str(a), "") for s in x.argv] == [s.replace(str(b), "") for s in y.argv]
        assert (x.rho is None) == (y.rho is None)
        assert x.rho is None or np.array_equal(x.rho, y.rho)


def test_speed_scaling():
    # kernel twice as slow as nominal around the operation: its time halves
    calibration = [(0.1 * i, 2.0 * run.CAL_NOMINAL_S) for i in range(20)]
    rounds = [[("analyze", 0.5, 4e-3, 0, True)]]
    [[(kind, seconds, size, own)]] = run.speed_scaled(rounds, calibration)
    assert (kind, size, own) == ("analyze", 0, True)
    assert seconds == pytest.approx(2e-3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
