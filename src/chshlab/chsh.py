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

Every operator-level number comes from one stacked kernel over N scenarios
(`_chsh_pass`).  C is built in Pauli coordinates, C = sum M_mu,nu
sigma_mu x sigma_nu with M = `chsh_coefficients` of the settings' Pauli
vectors, against the constant `quantum.PAULI_PRODUCTS`; the local commutators
are batched 2x2 products; one pass returns C, both commutator norms and the
identity residuals of both signs.  `analyze`, `chsh_operator`,
`commutator_norms`, `square_identity_residual` and each `sweep` row run it
with N = 1;
`verify_identity_sign` runs it on blocks of _BLOCK random trials, drawn for a
whole block at once from the child streams of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, rng
from .quantum import (PAULI_PRODUCTS, DensityMatrix, Observable, bloch_settings,
                      correlation_tensor, observable_from_bloch, pauli_correlations,
                      pauli_vector, pure_state)

VIOLATION_TOL = 1e-9
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])
_PRODUCTS = PAULI_PRODUCTS.reshape(16, 16)  # row 4 mu + nu: sigma_mu x sigma_nu, flattened
_SIGNS = (1, -1)  # column order of the identity residuals
# trials per array pass of verify_identity_sign; bounds its memory at any trial count
_BLOCK = 1024

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


def chsh_coefficients(vectors) -> np.ndarray:
    """M = (1/2)[a1 (b1 + b2)^T + a2 (b1 - b2)^T] for coordinate rows a1, a2, b1, b2
    (stacked over any leading axes); on Pauli 4-vectors C = sum M_mu,nu
    sigma_mu x sigma_nu and S = 2 <M, R>."""
    v = np.asarray(vectors)
    return 0.5 * v[..., :2, :].swapaxes(-2, -1) @ (_SUM_DIFF @ v[..., 2:, :])


class _Pass(NamedTuple):
    """One stacked evaluation of N scenarios."""

    operator: np.ndarray  # (N, 4, 4) C
    commutator_norms: np.ndarray  # (N, 2) spectral norms of [a1, a2] and [b1, b2]
    residuals: np.ndarray  # (N, 2) identity residuals, signs in _SIGNS order


def _chsh_pass(vectors: np.ndarray, settings: np.ndarray) -> _Pass:
    """C, both local commutator norms and both identity residuals of N scenarios.

    `vectors` (N, 4, 4) are the Pauli vectors of a1, a2, b1, b2 and
    `settings` (N, 4, 2, 2) their matrices.  C = sum M_mu,nu sigma_mu x sigma_nu
    over the stacked `chsh_coefficients`; the commutators are batched 2x2
    products.  i[x, y] is traceless Hermitian, so its spectral norm is its
    Frobenius norm over sqrt 2.
    """
    n = len(vectors)
    c = (chsh_coefficients(vectors).reshape(n, 16) @ _PRODUCTS).reshape(n, 4, 4)
    firsts, seconds = settings[:, 0::2], settings[:, 1::2]  # (a1, b1), (a2, b2)
    comm = firsts @ seconds - seconds @ firsts
    term = 0.25 * np.einsum("nij,nkl->nikjl", comm[:, 0], comm[:, 1]).reshape(n, 1, 4, 4)
    target = np.eye(4) + np.array(_SIGNS)[:, None, None] * term
    residuals = np.linalg.norm((c @ c)[:, None] - target, axis=(-2, -1))
    return _Pass(c, np.linalg.norm(comm, axis=(-2, -1)) / np.sqrt(2.0), residuals)


def _scenario_pass(sc: Scenario) -> _Pass:
    """The N = 1 pass over one scenario's settings."""
    obs = sc.observables()
    return _chsh_pass(np.array([[pauli_vector(o) for o in obs]]),
                      np.array([[o.matrix for o in obs]]))


def chsh_operator(sc: Scenario) -> np.ndarray:
    """C = (1/2)[a1 x (b1 + b2) + a2 x (b1 - b2)], a Hermitian 4x4 matrix."""
    return _scenario_pass(sc).operator[0]


def square_identity_residual(sc: Scenario, sign: int) -> float:
    """Frobenius distance between C^2 and I + sign*(1/4)[a1,a2] x [b1,b2].

    Evaluating both signs tells the caller which convention actually holds;
    when a1 = a2 or b1 = b2 the commutator term vanishes and the two signs
    agree.
    """
    if sign not in _SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return float(_scenario_pass(sc).residuals[0, _SIGNS.index(sign)])


def commutator_norms(sc: Scenario) -> tuple[float, float]:
    """Spectral norms of the two local commutators [a1, a2] and [b1, b2].

    Ranges over [0, 2] for +1/-1 valued observables; 0 means the pair is
    jointly measurable.
    """
    return tuple(_scenario_pass(sc).commutator_norms[0].tolist())


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


def max_s_over_settings(state: DensityMatrix) -> float:
    """sup |S| over all settings at `state`, the dual of 2||C||: 2 sqrt(m1 + m2)
    for the two largest eigenvalues m1, m2 of T^T T, T = `correlation_tensor`
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  m1, m2
    are the squares of T's two largest singular values."""
    s = np.linalg.svd(correlation_tensor(state), compute_uv=False)
    return 2.0 * float(np.hypot(s[0], s[1]))


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
    p = _scenario_pass(sc)
    nrm = linalg.operator_norm(p.operator[0])
    comm_a, comm_b = p.commutator_norms[0].tolist()
    max_s = 2.0 * nrm
    return Report(
        s_value=s_value(sc) if sc.state is not None else None,
        max_s_over_states=max_s,
        chsh_operator_norm=nrm,
        comm_a_norm=comm_a,
        comm_b_norm=comm_b,
        identity_residual=float(p.residuals[0, _SIGNS.index(IDENTITY_SIGN)]),
        identity_sign=IDENTITY_SIGN,
        violates=bool(max_s > 2.0 + VIOLATION_TOL),
    )


def _sphere(u: np.ndarray) -> np.ndarray:
    """Uniforms (..., 2n) -> n unit vectors (..., n, 3), uniform on the sphere."""
    z = 2.0 * u[..., 0::2] - 1.0
    phi = 2.0 * np.pi * u[..., 1::2]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def random_bloch_vectors(seed: int, n: int) -> np.ndarray:
    """n unit vectors drawn uniformly on the sphere from the seeded stream."""
    return _sphere(rng.uniforms(seed, 2 * n))


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

    Trial k is `random_scenario(rng.child_seed(seed, k))` for the unsigned
    64-bit `seed`.  The trials run _BLOCK at a time, each block one
    `_chsh_pass`: `rng.child_uniforms` draws the settings of all its child
    streams at once and `bloch_settings` checks them as `observable_from_bloch`
    would.  Records the maximum residual of each sign against VIOLATION_TOL;
    the maxima do not depend on where the blocks split.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = np.zeros(len(_SIGNS))
    for start in range(0, trials, _BLOCK):
        count = min(_BLOCK, trials - start)
        vectors = _sphere(rng.child_uniforms(seed, count, 8, start))
        worst = np.maximum(worst, _chsh_pass(*bloch_settings(vectors)).residuals.max(axis=0))
    return SignCheck(
        trials=trials,
        max_residual_plus=float(worst[0]),
        max_residual_minus=float(worst[1]),
        tolerance=VIOLATION_TOL,
    )
