"""Independent numpy references for every chshlab result the benchmark checks.

Nothing here imports chshlab: each reference is rebuilt from the scenario
spec the benchmark generated (Pauli matrices, Born rule, closed forms), so a
defect in the program cannot hide in a shared code path.  Every `check_*`
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOL = 1e-9
OPT_TOL = 1e-6
TSIRELSON = 2.0 * np.sqrt(2.0)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

_S2 = 1.0 / np.sqrt(2.0)
BELL_VECTORS = {
    "phi_plus": np.array([_S2, 0, 0, _S2], dtype=complex),
    "phi_minus": np.array([_S2, 0, 0, -_S2], dtype=complex),
    "psi_plus": np.array([0, _S2, _S2, 0], dtype=complex),
    "psi_minus": np.array([0, _S2, -_S2, 0], dtype=complex),
}
SETTING_NAMES = ("a1", "a2", "b1", "b2")
PAIRS = (("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"))
CELLS = ("pp", "pm", "mp", "mm")


# ---------------------------------------------------------------------------
# references built from a scenario spec

def bloch_of_spec(spec: dict) -> np.ndarray:
    if "bloch" in spec:
        return np.asarray(spec["bloch"], dtype=float)
    t = float(spec["angle"])
    return np.array([np.sin(t), 0.0, np.cos(t)])


def observable(n) -> np.ndarray:
    return n[0] * SX + n[1] * SY + n[2] * SZ


def state_matrix(spec) -> np.ndarray | None:
    if spec is None:
        return None
    if spec == "maximally_mixed":
        return np.eye(4, dtype=complex) / 4.0
    if isinstance(spec, str):
        v = BELL_VECTORS[spec]
        return np.outer(v, v.conj())
    return np.array([[complex(re, im) for re, im in row] for row in spec["matrix"]])


def chsh_matrix(ops: dict) -> np.ndarray:
    return 0.5 * (np.kron(ops["a1"], ops["b1"] + ops["b2"])
                  + np.kron(ops["a2"], ops["b1"] - ops["b2"]))


def s_exact(rho: np.ndarray, ops: dict) -> float:
    e = [np.trace(rho @ np.kron(ops[a], ops[b])).real for a, b in PAIRS]
    return float(e[0] + e[1] + e[2] - e[3])


def born_cells(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p(++), p(+-), p(-+), p(--) for one setting pair."""
    pa = ((I2 + a) / 2.0, (I2 - a) / 2.0)
    pb = ((I2 + b) / 2.0, (I2 - b) / 2.0)
    return np.array([np.trace(rho @ np.kron(x, y)).real for x in pa for y in pb])


def analyze_reference(scenario: dict) -> dict:
    """max S over states, both commutator norms (Landau) and S at the state."""
    n = {k: bloch_of_spec(scenario[k]) for k in SETTING_NAMES}
    ops = {k: observable(v) for k, v in n.items()}
    eig = np.linalg.eigvalsh(chsh_matrix(ops))
    ref = {
        "max_s": 2.0 * float(np.max(np.abs(eig))),
        "comm_a": 2.0 * float(np.linalg.norm(np.cross(n["a1"], n["a2"]))),
        "comm_b": 2.0 * float(np.linalg.norm(np.cross(n["b1"], n["b2"]))),
    }
    rho = state_matrix(scenario.get("state"))
    ref["s_value"] = None if rho is None else s_exact(rho, ops)
    return ref


def horodecki_planar(rho: np.ndarray) -> float:
    """Max S over x-z plane settings: 2 sqrt(s1^2 + s2^2), with s_i the
    singular values of the x-z block of T_ij = tr(rho sigma_i x sigma_j)
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995))."""
    planar = (SX, SZ)
    t = np.array([[np.trace(rho @ np.kron(p, q)).real for q in planar] for p in planar])
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * float(np.sqrt(s[0] ** 2 + s[1] ** 2))


def counts_digest(counts: list[dict]) -> str:
    cells = [[int(c[k]) for k in CELLS] for c in counts]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks of program output

def _close(name: str, got, want: float, tol: float = TOL) -> list[str]:
    if got is None or not abs(float(got) - want) <= tol:
        return [f"{name}: got {got!r}, reference {want!r}"]
    return []


def check_analyze(scenario: dict, doc: dict) -> list[str]:
    report = doc["report"]
    ref = analyze_reference(scenario)
    problems = _close("max_s_over_states", report["max_s_over_states"], ref["max_s"])
    problems += _close("comm_a_norm", report["comm_a_norm"], ref["comm_a"])
    problems += _close("comm_b_norm", report["comm_b_norm"], ref["comm_b"])
    # Landau: ||C||^2 = 1 + comm_a comm_b / 4, an independent route to max S
    landau = 2.0 * np.sqrt(1.0 + 0.25 * ref["comm_a"] * ref["comm_b"])
    problems += _close("landau max_s", ref["max_s"], landau)
    for name, value in (("spectral", ref["max_s"]), ("landau", landau)):
        if report["violates"] != bool(value > 2.0 + TOL):
            problems.append(f"violates={report['violates']} disagrees with {name} max_s {value!r}")
    if ref["s_value"] is None:
        if report["s_value"] is not None:
            problems.append(f"s_value: got {report['s_value']!r} for a scenario without state")
    else:
        problems += _close("s_value", report["s_value"], ref["s_value"])
    return problems


def check_identity_stdout(text: str) -> list[str]:
    if "verified sign: -1" not in text:
        return [f"check-identity did not verify sign -1: {text.strip()[-200:]!r}"]
    return []


def check_simulate(scenario: dict, shots: int, doc: dict, digest: str | None = None) -> list[str]:
    result = doc["result"]
    n = {k: bloch_of_spec(scenario[k]) for k in SETTING_NAMES}
    ops = {k: observable(v) for k, v in n.items()}
    rho = state_matrix(scenario["state"])
    exact = s_exact(rho, ops)
    problems = _close("s_exact", doc["s_exact"], exact)
    for (a, b), c in zip(PAIRS, result["counts"]):
        got = [int(c[k]) for k in CELLS]
        if sum(got) != shots:
            problems.append(f"{a}{b}: counts sum to {sum(got)}, expected {shots}")
        p = born_cells(rho, ops[a], ops[b])
        hit_impossible = [k for k, pk, ck in zip(CELLS, p, got) if pk <= 0.0 and ck]
        if hit_impossible:
            problems.append(f"{a}{b}: counts in zero-probability cells {hit_impossible}")
    if not abs(result["s_hat"] - exact) <= 5.0 * result["s_stderr"] + 1e-12:
        problems.append(
            f"s_hat {result['s_hat']!r} is more than 5 stderr "
            f"({result['s_stderr']!r}) from {exact!r}"
        )
    if digest is not None and counts_digest(result["counts"]) != digest:
        problems.append(f"count digest {counts_digest(result['counts'])} != pinned {digest}")
    return problems


def check_sweep(doc: dict) -> list[str]:
    problems = []
    rows = doc["result"]["rows"]
    for i, row in enumerate(rows):
        angles = zip(SETTING_NAMES, ("alpha1", "alpha2", "beta1", "beta2"))
        ref = analyze_reference({name: {"angle": row["settings"][key]} for name, key in angles})
        problems += _close(f"row {i} max_s", row["max_s"], ref["max_s"])
        problems += _close(f"row {i} comm_a_norm", row["comm_a_norm"], ref["comm_a"])
        problems += _close(f"row {i} comm_b_norm", row["comm_b_norm"], ref["comm_b"])
        bound = 4.0 * (1.0 + 0.25 * row["comm_a_norm"] * row["comm_b_norm"]) + TOL
        if not row["max_s"] ** 2 <= bound:
            problems.append(f"row {i}: max_s^2 {row['max_s'] ** 2!r} exceeds {bound!r}")
    problems += _close("best max_s", doc["result"]["best"]["max_s"], TSIRELSON, OPT_TOL)
    return problems


def check_optimize(rho: np.ndarray, s_value: float) -> list[str]:
    return _close("optimize s_value", s_value, horodecki_planar(rho), OPT_TOL)
