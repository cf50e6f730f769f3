"""Seeded inputs for the three benchmark workloads.

`build(workload, seed, workdir)` writes every scenario file the workload
needs under `workdir` and returns two operation lists: the workload's own
list, whose time is `wall_s`, and the reference ops that a round runs
between the workload's own operations: the fresh-process setup probes and
the operation kinds the workload's own list lacks (see `REFERENCE`).  Inputs depend only on the seed; numpy's PCG64 generator draws
them, so the program under test never sees the benchmark's random stream.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import bloch_of_spec, state_matrix

BELL_NAMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
SETTING_NAMES = ("a1", "a2", "b1", "b2")
STATE_KINDS = ("none", "bell", "maximally_mixed", "mixed", "pure")
WORKLOADS = ("scenario_batch", "bell_run", "settings_search")

BULK_SHOTS = 2_500_000
IDENTITY_TRIALS = 500
SWEEP_STEPS = 19
RESTARTS = 8

_R = 1.0 / np.sqrt(2.0)
TSIRELSON_SETTINGS = {
    "a1": {"bloch": [0.0, 0.0, 1.0]},
    "a2": {"bloch": [1.0, 0.0, 0.0]},
    "b1": {"bloch": [-_R, 0.0, -_R]},
    "b2": {"bloch": [_R, 0.0, -_R]},
}
# phi_plus measured along +-z on both sides: the settings commute locally and
# the (+,-), (-,+) Born cells of every pair are exactly zero
COMPATIBLE_SETTINGS = {
    "a1": {"angle": 0.0},
    "a2": {"bloch": [0.0, 0.0, -1.0]},
    "b1": {"bloch": [0.0, 0.0, 1.0]},
    "b2": {"bloch": [0.0, 0.0, -1.0]},
}


def werner_matrix(p: float) -> np.ndarray:
    v = np.array([0.0, _R, -_R, 0.0], dtype=complex)
    return p * np.outer(v, v) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def matrix_spec(m: np.ndarray) -> dict:
    return {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


# Werner state p = 0.8 written out exactly, so its pinned digests do not
# depend on how a matrix expression rounds
WERNER_SPEC = matrix_spec(np.array([
    [0.05, 0.0, 0.0, 0.0],
    [0.0, 0.45, -0.4, 0.0],
    [0.0, -0.4, 0.45, 0.0],
    [0.0, 0.0, 0.0, 0.05],
]))

BELL_RUN_SCENARIOS = (
    dict(TSIRELSON_SETTINGS, state="psi_minus"),
    dict(TSIRELSON_SETTINGS, state=WERNER_SPEC),
    dict(COMPATIBLE_SETTINGS, state="phi_plus"),
)

# (scenario index in BELL_RUN_SCENARIOS, shots per pair, seed, count digest).
# Digests were recorded from chshlab 0.1.0 (commit bd3fddf) so that seeded
# runs are checked to stay bit-identical.
PINNED_RUNS = (
    (0, BULK_SHOTS, 0x5EED0001, "fbdfdd9d76c762b9"),
    (1, BULK_SHOTS, 0x5EED0002, "235891c922767dc8"),
    (2, BULK_SHOTS, 0x5EED0003, "861e141cd3c57e86"),
    (0, 4096, 7, "8dfd0e188a0a0612"),
    (1, 4096, 7, "1f73fcbdabbbbecf"),
    (2, 4096, 7, "4874b83f6b83eacd"),
)

# Reference ops of one round: the operation kinds missing from a workload's
# own list, and the setup probes.  Every workload must report every
# end-to-end metric, and every traced layer must be called on every
# workload.  Sweeps, optimizer calls and check-identity commands are run
# smaller here than in the workloads that own them, so that a round holds
# enough of them for a steady median at little cost.
REFERENCE = {
    "scenario_batch": {"setup": 3, "sweep": 5, "optimize": 5},
    "bell_run": {"setup": 3, "analyze": 500, "check-identity": 4, "sweep": 5, "optimize": 5},
    "settings_search": {"setup": 3, "analyze": 500, "check-identity": 4, "simulate": 60},
}
REFERENCE_SWEEP_STEPS = 5
REFERENCE_RESTARTS = 2
REFERENCE_TRIALS = 100


@dataclass
class Op:
    """One closed-loop operation: a CLI argv, or an optimize_settings call."""

    kind: str
    argv: list[str] = field(default_factory=list)
    expect_rc: int = 0
    scenario: dict | None = None  # spec the oracle rebuilds (valid inputs only)
    size: int = 0  # trials (check-identity), total shots (simulate) or restarts (optimize)
    digest: str | None = None
    rho: np.ndarray | None = None  # optimize input


class _Builder:
    def __init__(self, seed: int, workdir: Path):
        self.g = np.random.Generator(np.random.PCG64(seed))
        self.workdir = workdir
        self.out = str(workdir / "out.json")
        self.files = 0
        # state kinds cycle instead of being drawn, so that every seed gets
        # the same mix (an analyze command's cost depends on the kind)
        self.state_kinds = {True: itertools.cycle(STATE_KINDS),
                            False: itertools.cycle(STATE_KINDS[1:])}

    # -- random inputs -----------------------------------------------------

    def seed64(self) -> int:
        return int(self.g.integers(0, 2**63))

    def unit_vector(self) -> list[float]:
        v = self.g.normal(size=3)
        return (v / np.linalg.norm(v)).tolist()

    def setting(self) -> dict:
        if self.g.random() < 0.25:
            return {"angle": float(self.g.uniform(0.0, 2.0 * np.pi))}
        return {"bloch": self.unit_vector()}

    def settings(self) -> dict:
        return {k: self.setting() for k in SETTING_NAMES}

    def mixed(self) -> np.ndarray:
        z = self.g.normal(size=(4, 4)) + 1j * self.g.normal(size=(4, 4))
        m = z @ z.conj().T
        m = 0.5 * (m + m.conj().T)
        return m / np.trace(m).real

    def pure(self) -> np.ndarray:
        v = self.g.normal(size=4) + 1j * self.g.normal(size=4)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())

    def unitary(self) -> np.ndarray:
        z = self.g.normal(size=(4, 4)) + 1j * self.g.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def state(self, allow_none: bool):
        kind = next(self.state_kinds[allow_none])
        if kind == "none":
            return None
        if kind == "bell":
            return BELL_NAMES[int(self.g.integers(4))]
        if kind == "maximally_mixed":
            return "maximally_mixed"
        return matrix_spec(self.mixed() if kind == "mixed" else self.pure())

    def write(self, text: str) -> str:
        path = self.workdir / f"s{self.files:05d}.json"
        self.files += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    # -- operations ----------------------------------------------------------

    def analyze_ops(self, count: int) -> list[Op]:
        """~10% invalid files, 20 --expect-no-violation cases, rest valid."""
        invalid = [self.invalid_analyze(i % 6) for i in range(count // 10)]
        expect = [self.expect_analyze(i % 2 == 0) for i in range(min(20, count // 50))]
        valid = [self.valid_analyze() for _ in range(count - len(invalid) - len(expect))]
        ops = invalid + expect + valid
        return [ops[i] for i in self.g.permutation(len(ops))]

    def valid_analyze(self) -> Op:
        sc = dict(self.settings(), state=self.state(allow_none=True))
        return Op("analyze", ["analyze", self.write(json.dumps(sc)), "--output", self.out],
                  scenario=sc)

    def expect_analyze(self, violating: bool) -> Op:
        sc = dict(self.settings(), state=self.state(allow_none=True))
        if not violating:
            # a2 = -a1 commutes with a1 exactly, so no state can violate
            sc["a2"] = {"bloch": (-bloch_of_spec(sc["a1"])).tolist()}
        argv = ["analyze", self.write(json.dumps(sc)), "--output", self.out,
                "--expect-no-violation"]
        return Op("analyze", argv, expect_rc=3 if violating else 0, scenario=sc)

    def invalid_analyze(self, case: int) -> Op:
        """Exit 2 for invalid physics input, exit 1 for malformed documents."""
        sc = self.settings()
        sc["state"] = self.state(allow_none=False)
        rc = 2
        if case == 0:  # Bloch vector of length 0.9
            sc["b1"] = {"bloch": [0.9 * c for c in self.unit_vector()]}
        elif case == 1:  # Hermitian, unit trace, one eigenvalue -0.1
            u = self.unitary()
            m = u @ np.diag([0.6, 0.3, 0.2, -0.1]) @ u.conj().T
            sc["state"] = matrix_spec(0.5 * (m + m.conj().T))
        elif case == 2:  # trace 1.25
            sc["state"] = matrix_spec(1.25 * self.mixed())
        elif case == 3:
            sc["state"] = "psi_zero"
        elif case == 5:
            del sc[SETTING_NAMES[int(self.g.integers(4))]]
            rc = 1
        text = json.dumps(sc)
        if case == 4:
            text = text[: len(text) // 2]
            rc = 1
        return Op("analyze", ["analyze", self.write(text), "--output", self.out], expect_rc=rc)

    def identity_ops(self, count: int, trials: int = IDENTITY_TRIALS) -> list[Op]:
        return [
            Op("check-identity",
               ["check-identity", "--trials", str(trials), "--seed", str(self.seed64())],
               size=trials)
            for _ in range(count)
        ]

    def simulate_op(self, sc: dict, shots: int, seed: int, digest: str | None = None) -> Op:
        argv = ["simulate", self.write(json.dumps(sc)), "--shots", str(shots),
                "--seed", str(seed), "--output", self.out]
        return Op("simulate", argv, scenario=sc, size=4 * shots, digest=digest)

    def small_simulate_ops(self, count: int) -> list[Op]:
        # shots per pair step evenly through 1000..10000, so every seed
        # samples the same total
        return [
            self.simulate_op(dict(self.settings(), state=self.state(allow_none=False)),
                             1000 * (1 + i % 10), self.seed64())
            for i in range(count)
        ]

    def pinned_simulate_ops(self, shots: int) -> list[Op]:
        return [self.simulate_op(BELL_RUN_SCENARIOS[i], n, seed, digest)
                for i, n, seed, digest in PINNED_RUNS if n == shots]

    def sweep_ops(self, count: int, steps: int = SWEEP_STEPS) -> list[Op]:
        return [
            Op("sweep", ["sweep", "--phi-steps", str(steps), "--state",
                         ("psi_minus", "phi_plus")[i % 2], "--output", self.out])
            for i in range(count)
        ]

    def optimize_ops(self, count: int, restarts: int = RESTARTS) -> list[Op]:
        states = [self.mixed(), werner_matrix(float(self.g.uniform(0.6, 0.95))),
                  self.pure(), state_matrix(BELL_NAMES[int(self.g.integers(4))])]
        return [Op("optimize", rho=states[i % 4], size=restarts) for i in range(count)]

    def reference_ops(self, kind: str, count: int) -> list[Op]:
        return {
            "analyze": self.analyze_ops,
            "check-identity": lambda n: self.identity_ops(n, REFERENCE_TRIALS),
            "simulate": self.small_simulate_ops,
            "sweep": lambda n: self.sweep_ops(n, REFERENCE_SWEEP_STEPS),
            "optimize": lambda n: self.optimize_ops(n, REFERENCE_RESTARTS),
            "setup": lambda n: [Op("setup") for _ in range(n)],
        }[kind](count)


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """The workload's own operation list and the reference ops of one round."""
    b = _Builder(seed, workdir)
    if workload == "scenario_batch":
        small = b.small_simulate_ops(200 - len(PINNED_RUNS) // 2) + b.pinned_simulate_ops(4096)
        ops = b.analyze_ops(1000) + b.identity_ops(4) + small
        ops = [ops[i] for i in b.g.permutation(len(ops))]
    elif workload == "bell_run":
        pinned = b.pinned_simulate_ops(BULK_SHOTS)
        seeded = [b.simulate_op(sc, BULK_SHOTS, b.seed64()) for sc in BELL_RUN_SCENARIOS]
        ops = [op for pair in zip(pinned, seeded) for op in pair]
    elif workload == "settings_search":
        ops = b.sweep_ops(4) + b.optimize_ops(4)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    reference = [op for kind, n in REFERENCE[workload].items() for op in b.reference_ops(kind, n)]
    return ops, [reference[i] for i in b.g.permutation(len(reference))]
