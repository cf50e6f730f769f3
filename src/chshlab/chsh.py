"""CHSH operator analysis: violation decided spectrally.

For qubit observables a1, a2 (party A) and b1, b2 (party B), all with
outcomes +1/-1, the CHSH operator on the joint space is

    C = (1/2) * [ a1 x (b1 + b2)  +  a2 x (b1 - b2) ]

The CHSH combination S = E11 + E12 + E21 - E22 satisfies S = 2 tr(rho C),
so sup |S| over all states equals 2 ||C||, and |S| <= 2 holds for every
state exactly when C^2 <= I.  Squaring C collapses to

    C^2 = I + sign * (1/4) [a1, a2] x [b1, b2]

with a fixed sign that this module refuses to assume: `verify_identity_sign`
establishes it by brute force over random scenarios, and `IDENTITY_SIGN`
records the result.  The identity makes the package's central fact
mechanical: if either local commutator vanishes, C^2 = I, hence no state
violates |S| <= 2 - and both commutators live on a single party's side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rng
from .quantum import (DensityMatrix, Observable, observable_from_bloch, pauli_correlations,
                      pauli_vector, pure_state)

VIOLATION_TOL = 1e-9
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])

# Sign of the commutator term in C^2 = I + sign * (1/4)[a1,a2] x [b1,b2].
# Fixed by verify_identity_sign() (see also the check-identity CLI command),
# never hardcoded from a printed convention: the +1 variant fails for this
# operator ordering.
IDENTITY_SIGN = -1


@dataclass(eq=False)
class Scenario:
    """Four measurement settings plus an optional shared state.

    The realized full-space operators are a_i x I and I x b_j, so the two
    parties' observables commute across sides identically; only the setting
    types and the state dimension need checking.
    """

    a1: Observable
    a2: Observable
    b1: Observable
    b2: Observable
    state: DensityMatrix | None = None

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            obs = getattr(self, name)
            if not isinstance(obs, Observable):
                raise ValueError(f"{name}: expected an Observable")
        if self.state is not None and self.state.dim != 4:
            raise ValueError(f"scenario state must have dim 4, got {self.state.dim}")

    def observables(self) -> tuple[Observable, Observable, Observable, Observable]:
        return self.a1, self.a2, self.b1, self.b2


def chsh_operator(sc: Scenario) -> np.ndarray:
    """C = (1/2)[a1 x (b1 + b2) + a2 x (b1 - b2)], a Hermitian 4x4 matrix."""
    b_sum = sc.b1.matrix + sc.b2.matrix
    b_diff = sc.b1.matrix - sc.b2.matrix
    return 0.5 * (np.kron(sc.a1.matrix, b_sum) + np.kron(sc.a2.matrix, b_diff))


def chsh_coefficients(vectors) -> np.ndarray:
    """M = (1/2)[a1 (b1 + b2)^T + a2 (b1 - b2)^T] for coordinate rows a1, a2, b1, b2;
    on Pauli 4-vectors C = sum M_mu,nu sigma_mu x sigma_nu and S = 2 <M, R>."""
    v = np.asarray(vectors)
    return 0.5 * v[:2].T @ (_SUM_DIFF @ v[2:])


def square_identity_residual(sc: Scenario, sign: int) -> float:
    """Frobenius distance between C^2 and I + sign*(1/4)[a1,a2] x [b1,b2].

    Evaluating both signs tells the caller which convention actually holds;
    when a1 = a2 or b1 = b2 the commutator term vanishes and the two signs
    agree.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    c = chsh_operator(sc)
    comm_a = linalg.commutator(sc.a1.matrix, sc.a2.matrix)
    comm_b = linalg.commutator(sc.b1.matrix, sc.b2.matrix)
    target = np.eye(4, dtype=np.complex128) + sign * 0.25 * np.kron(comm_a, comm_b)
    return linalg.frobenius(c @ c - target)


def commutator_norms(sc: Scenario) -> tuple[float, float]:
    """Spectral norms of the two local commutators.

    Computed as the operator norm of the Hermitian matrix i[x, y], which
    equals the spectral norm of the anti-Hermitian commutator itself and
    keeps the Hermitian eigensolver applicable.  Ranges over [0, 2] for
    +1/-1 valued observables; 0 means the pair is jointly measurable.
    """
    comm_a = 1j * linalg.commutator(sc.a1.matrix, sc.a2.matrix)
    comm_b = 1j * linalg.commutator(sc.b1.matrix, sc.b2.matrix)
    return linalg.operator_norm(comm_a), linalg.operator_norm(comm_b)


def check_state_independent_bound(sc: Scenario) -> bool:
    """True iff |S| <= 2 for every state, i.e. max eig of C^2 is <= 1 + tol."""
    nrm = linalg.operator_norm(chsh_operator(sc))
    return nrm * nrm <= 1.0 + VIOLATION_TOL


def s_value(sc: Scenario) -> float:
    """S = E11 + E12 + E21 - E22 = 2 <M, R> at the scenario's state."""
    if sc.state is None:
        raise ValueError("scenario has no state; s_value needs one")
    m = chsh_coefficients([pauli_vector(obs) for obs in sc.observables()])
    return 2.0 * float(np.vdot(m, pauli_correlations(sc.state)))


def max_s_over_states(sc: Scenario) -> float:
    """sup |S| over all states: 2 ||C||, attained on an extremal eigenstate."""
    return 2.0 * linalg.operator_norm(chsh_operator(sc))


def extremal_eigenstate(sc: Scenario) -> DensityMatrix:
    """Eigenstate of C with the largest |eigenvalue|.

    For traceless settings the spectrum of C is symmetric, so the two ends
    tie up to rounding; the positive branch wins unless the negative one
    dominates beyond the rounding scale.
    """
    eig = linalg.hermitian_eigen(chsh_operator(sc))
    vals = eig.eigenvalues
    top, bottom = float(vals[0]), float(vals[-1])
    scale = max(1.0, abs(top), abs(bottom))
    col = 0 if abs(top) >= abs(bottom) - 1e-12 * scale else len(vals) - 1
    return pure_state(eig.eigenvectors[:, col])


@dataclass
class Report:
    """Spectral summary of one scenario."""

    s_value: float | None
    max_s_over_states: float
    chsh_operator_norm: float
    comm_a_norm: float
    comm_b_norm: float
    identity_residual: float
    identity_sign: int
    violates: bool


def analyze(sc: Scenario) -> Report:
    """Full report: S (if a state is present), 2||C||, local commutator
    norms, the C^2 identity residual at the verified sign, and the
    violation verdict max_s > 2 + 1e-9."""
    nrm = linalg.operator_norm(chsh_operator(sc))
    comm_a, comm_b = commutator_norms(sc)
    max_s = 2.0 * nrm
    return Report(
        s_value=s_value(sc) if sc.state is not None else None,
        max_s_over_states=max_s,
        chsh_operator_norm=nrm,
        comm_a_norm=comm_a,
        comm_b_norm=comm_b,
        identity_residual=square_identity_residual(sc, IDENTITY_SIGN),
        identity_sign=IDENTITY_SIGN,
        violates=bool(max_s > 2.0 + VIOLATION_TOL),
    )


def random_bloch_vectors(seed: int, n: int) -> np.ndarray:
    """n unit vectors drawn uniformly on the sphere from the seeded stream."""
    u = rng.uniforms(seed, 2 * n)
    z = 2.0 * u[0::2] - 1.0
    phi = 2.0 * np.pi * u[1::2]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def random_scenario(seed: int, state: DensityMatrix | None = None) -> Scenario:
    """Scenario with four independent uniformly random settings."""
    vecs = random_bloch_vectors(seed, 4)
    a1, a2, b1, b2 = (
        observable_from_bloch(vecs[i], label=lbl)
        for i, lbl in enumerate(("a1", "a2", "b1", "b2"))
    )
    return Scenario(a1, a2, b1, b2, state=state)


@dataclass
class SignCheck:
    """Outcome of the randomized C^2 identity verification."""

    trials: int
    max_residual_plus: float
    max_residual_minus: float
    tolerance: float

    @property
    def plus_ok(self) -> bool:
        return self.max_residual_plus <= self.tolerance

    @property
    def minus_ok(self) -> bool:
        return self.max_residual_minus <= self.tolerance

    @property
    def verified_sign(self) -> int | None:
        """The unique holding sign, or None (neither, or degenerate tie)."""
        if self.plus_ok and not self.minus_ok:
            return 1
        if self.minus_ok and not self.plus_ok:
            return -1
        return None


def verify_identity_sign(trials: int = 1000, seed: int = 20260808) -> SignCheck:
    """Brute-force the sign of the C^2 identity over random scenarios.

    Evaluates `square_identity_residual` for both signs on `trials` random
    scenarios, drawn from child streams of the unsigned 64-bit `seed`, and
    records the maximum residual of each convention against VIOLATION_TOL.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst_plus = worst_minus = 0.0
    for k in range(trials):
        sc = random_scenario(rng.child_seed(seed, k))
        worst_plus = max(worst_plus, square_identity_residual(sc, 1))
        worst_minus = max(worst_minus, square_identity_residual(sc, -1))
    return SignCheck(
        trials=trials,
        max_residual_plus=worst_plus,
        max_residual_minus=worst_minus,
        tolerance=VIOLATION_TOL,
    )
