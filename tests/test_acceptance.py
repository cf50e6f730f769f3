"""Acceptance gate: every release criterion, one test each, stated tolerances.

Each test prints a single `ACCEPTANCE <name>: PASS` line once its assertions
hold (visible with `pytest -s tests/test_acceptance.py`); a failing criterion
fails its test.
"""

import json
import time

import numpy as np

from chshlab import (
    IDENTITY_SIGN,
    Mixture,
    RunConfig,
    Scenario,
    analyze,
    bell_state,
    bloch_of,
    classical_max,
    incompatibility_sweep,
    joint_distribution,
    max_s_over_states,
    mixture_s_value,
    observable_from_bloch,
    optimize_settings,
    run_experiment,
    square_identity_residual,
)
from chshlab import rng
from chshlab.chsh import random_scenario
from chshlab.cli import main
from chshlab.fileio import run_result_to_dict
from chshlab.linalg import frobenius, hermitian_eigen

from helpers import random_density, random_observable, random_unitary

TSIRELSON = 2.0 * np.sqrt(2.0)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def optimal_scenario(state=None):
    inv = 1.0 / np.sqrt(2.0)
    return Scenario(
        observable_from_bloch((0, 0, 1), "a1"),
        observable_from_bloch((1, 0, 0), "a2"),
        observable_from_bloch((-inv, 0, -inv), "b1"),
        observable_from_bloch((inv, 0, -inv), "b2"),
        state=state,
    )


def test_operator_identity_sign():
    """1000 random scenarios: exactly one sign convention holds to 1e-9."""
    t0 = time.perf_counter()
    n_minus_ok = 0
    n_plus_ok = 0
    for k in range(1000):
        sc = random_scenario(seed=rng.child_seed(314159, k))
        if square_identity_residual(sc, -1) <= 1e-9:
            n_minus_ok += 1
        if square_identity_residual(sc, 1) <= 1e-9:
            n_plus_ok += 1
    assert n_minus_ok == 1000
    assert n_plus_ok == 0
    assert IDENTITY_SIGN == -1
    assert main(["check-identity", "--trials", "1000", "--seed", "314159"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"identity check took {elapsed:.1f}s"
    _report("operator-identity-sign")


def test_local_compatibility_theorem():
    """Either side compatible (a2 = +/-a1 or b2 = +/-b1) forbids violation."""
    t0 = time.perf_counter()
    rng_np = np.random.default_rng(271828)
    for k in range(1000):
        a1 = random_observable(rng_np, "a1")
        sign = 1.0 if k % 2 == 0 else -1.0
        a2 = observable_from_bloch([sign * c for c in bloch_of(a1)], "a2")
        sc = Scenario(a1, a2, random_observable(rng_np, "b1"), random_observable(rng_np, "b2"))
        assert max_s_over_states(sc) <= 2.0 + 1e-9
    for k in range(1000):
        b1 = random_observable(rng_np, "b1")
        sign = 1.0 if k % 2 == 0 else -1.0
        b2 = observable_from_bloch([sign * c for c in bloch_of(b1)], "b2")
        sc = Scenario(random_observable(rng_np, "a1"), random_observable(rng_np, "a2"), b1, b2)
        assert max_s_over_states(sc) <= 2.0 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"local-compatibility check took {elapsed:.1f}s"
    _report("local-compatibility-theorem")


def test_tsirelson_reproduction():
    """Optimizer and spectral analysis both land on 2*sqrt(2)."""
    opt = optimize_settings(bell_state("psi_minus"), restarts=8)
    assert abs(opt.s_value - TSIRELSON) < 1e-6
    report = analyze(optimal_scenario(state=bell_state("psi_minus")))
    assert abs(report.chsh_operator_norm - np.sqrt(2.0)) < 1e-10
    assert abs(report.max_s_over_states - TSIRELSON) < 1e-9
    _report("tsirelson-reproduction")


def test_classical_bound():
    """Brute force gives exactly 2; random mixtures stay inside."""
    assert classical_max() == 2
    for k in range(1000):
        w = rng.uniforms(rng.child_seed(1618, k), 16)
        assert abs(mixture_s_value(Mixture(w / w.sum()))) <= 2.0 + 1e-10
    _report("classical-bound")


def test_quantum_classical_gap():
    """Best quantum S exceeds the classical max by 2*sqrt(2) - 2."""
    best_quantum = analyze(optimal_scenario()).max_s_over_states
    gap = best_quantum - classical_max()
    assert abs(gap - 0.8284271) < 1e-6
    _report("quantum-classical-gap")


def test_monte_carlo_consistency():
    """20 seeds at 1e6 shots/pair: 5-sigma coverage and bit determinism."""
    t0 = time.perf_counter()
    sc = optimal_scenario(state=bell_state("psi_minus"))
    hits = 0
    for seed in range(20):
        r = run_experiment(RunConfig(sc, shots_per_pair=10**6, seed=seed))
        if abs(r.s_hat - TSIRELSON) <= 5.0 * r.s_stderr:
            hits += 1
    assert hits >= 19
    r1 = run_experiment(RunConfig(sc, shots_per_pair=10**5, seed=12345))
    r2 = run_experiment(RunConfig(sc, shots_per_pair=10**5, seed=12345))
    assert json.dumps(run_result_to_dict(r1)).encode() == json.dumps(run_result_to_dict(r2)).encode()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"Monte Carlo consistency took {elapsed:.1f}s"
    _report("monte-carlo-consistency")


def test_sweep_bound():
    """19-point sweep: identity bound per row, endpoints at 2 and 2*sqrt(2)."""
    result = incompatibility_sweep(19, bell_state("psi_minus"))
    for row in result.rows:
        assert row.max_s**2 <= 4.0 * (1.0 + 0.25 * row.comm_a_norm * row.comm_b_norm) + 1e-8
    assert abs(result.rows[0].max_s - 2.0) < 1e-6
    assert abs(result.rows[-1].max_s - TSIRELSON) < 1e-6
    _report("sweep-bound")


def test_eigensolver_oracle():
    """1000 construct-then-recover eigenproblems at 1e-10."""
    rng_np = np.random.default_rng(999)
    for _ in range(1000):
        want = np.sort(rng_np.uniform(-5.0, 5.0, size=4))[::-1]
        u = random_unitary(rng_np, 4)
        m = u @ np.diag(want) @ u.conj().T
        eig = hermitian_eigen(m)
        assert np.max(np.abs(eig.eigenvalues - want)) < 1e-10
        v = eig.eigenvectors
        scale = max(1.0, frobenius(m))
        assert frobenius(v @ np.diag(eig.eigenvalues) @ v.conj().T - m) <= 1e-10 * scale
        assert frobenius(v.conj().T @ v - np.eye(4)) <= 1e-10
    _report("eigensolver-oracle")


def test_no_signaling_marginals():
    """Exact marginals do not depend on the remote setting (1e-10)."""
    rng_np = np.random.default_rng(31415)
    for _ in range(1000):
        rho = random_density(rng_np)
        a = random_observable(rng_np)
        b1 = random_observable(rng_np)
        b2 = random_observable(rng_np)
        d1 = joint_distribution(rho, a, b1)
        d2 = joint_distribution(rho, a, b2)
        assert abs((d1.p_pp + d1.p_pm) - (d2.p_pp + d2.p_pm)) < 1e-10
        da1 = joint_distribution(rho, b1, a)
        da2 = joint_distribution(rho, b2, a)
        assert abs((da1.p_pp + da1.p_mp) - (da2.p_pp + da2.p_mp)) < 1e-10
    _report("no-signaling-marginals")
