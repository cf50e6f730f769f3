"""Qubit observables, states, and Born-rule statistics for two parties.

Observables are Hermitian 2x2 matrices squaring to the identity (outcomes
+1/-1), built from unit Bloch vectors as n_x*sx + n_y*sy + n_z*sz.  States
are density matrices throughout; pure states enter as rank-1 projectors, so
a single code path covers every quantum state.

Every two-party statistic is one bilinear form in Pauli coordinates (Fano,
Rev. Mod. Phys. 55, 855 (1983)), mu, nu over I, x, y, z: an observable
M = sum_mu c_mu sigma_mu is its real 4-vector c (`pauli_vector`, identity
component kept, so +/-I is valid input), a state its real 4x4
R_mu,nu = tr(rho sigma_mu x sigma_nu) (`pauli_correlations`).  Then
E(a, b) = a^T R b, p(alpha, beta) = (1/4)(e0 + alpha a)^T R (e0 + beta b),
and the correlation tensor is R[1:, 1:].

Tensor-order convention, used everywhere in this package: party A is the
left Kronecker factor, party B the right one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
# Pauli bases, index order I, x, y, z: PAULIS[mu] = sigma_mu and
# PAULI_PRODUCTS[mu, nu] = sigma_mu x sigma_nu
PAULIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_PRODUCTS = np.array([[np.kron(s, t) for t in PAULIS] for s in PAULIS])
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2, PAULIS, PAULI_PRODUCTS):
    _m.flags.writeable = False
_E0 = np.array([1.0, 0.0, 0.0, 0.0])  # the Pauli vector of I

OBSERVABLE_TOL = 1e-10
BLOCH_UNIT_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10

BELL_STATE_NAMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


@dataclass(eq=False)
class Observable:
    """A +1/-1 valued qubit observable: Hermitian with M^2 = I."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        tag = f"observable {self.label!r}" if self.label else "observable"
        m = linalg.as_matrix(self.matrix)
        if m.shape[0] != 2:
            raise ValueError(f"{tag}: expected a 2x2 matrix, got dim {m.shape[0]}")
        if not linalg.is_hermitian(m):
            raise ValueError(f"{tag}: matrix is not Hermitian")
        if linalg.frobenius(m @ m - IDENTITY_2) > OBSERVABLE_TOL:
            raise ValueError(f"{tag}: matrix does not square to the identity")
        self.matrix = m


def observable_from_bloch(n, label: str = "") -> Observable:
    """Observable n . sigma for a unit Bloch vector n = (x, y, z)."""
    x, y, z = (float(c) for c in n)
    norm2 = x * x + y * y + z * z
    if not abs(norm2 - 1.0) <= BLOCH_UNIT_TOL:  # also catches NaN components
        tag = f" {label!r}" if label else ""
        raise ValueError(
            f"bloch vector{tag} must have unit length, got |n|^2 = {norm2!r}"
        )
    return Observable(x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z, label=label)


def bloch_settings(vectors) -> np.ndarray:
    """Stacked `observable_from_bloch` for Bloch vectors of shape (..., 3): the
    Pauli vectors (0, n), shape (..., 4), after the same unit-length check.

    For real unit n, n . sigma is exactly Hermitian and squares to I up to
    sqrt(2) ||n|^2 - 1| <= 1.5e-12 in Frobenius norm, far below
    OBSERVABLE_TOL, so the other `Observable` checks cannot fail here.
    """
    n = np.asarray(vectors, dtype=np.float64)
    if not np.all(np.abs(np.sum(n * n, axis=-1) - 1.0) <= BLOCH_UNIT_TOL):  # NaN fails too
        raise ValueError("bloch vectors must have unit length")
    return np.concatenate((np.zeros(n.shape[:-1] + (1,)), n), axis=-1)


def pauli_vector(obs: Observable) -> np.ndarray:
    """Real 4-vector c with M = sum_mu c_mu sigma_mu: c_mu = Re tr(M sigma_mu) / 2."""
    return np.einsum("ij,mji->m", obs.matrix, PAULIS).real / 2.0


def bloch_of(obs: Observable) -> tuple[float, float, float]:
    """The Bloch vector (c_x, c_y, c_z) of `pauli_vector`."""
    return tuple(float(c) for c in pauli_vector(obs)[1:])


@dataclass(eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace operator (dim 2 or 4)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape[0] not in (2, 4):
            raise ValueError(f"density matrix must have dim 2 or 4, got {m.shape[0]}")
        if not linalg.is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace must be 1, got {tr!r}")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])  # ascending
        if lo < _EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {lo!r}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(vector) -> DensityMatrix:
    """Rank-1 projector |v><v| of a normalized state vector."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state vector must be normalized, got norm {nrm!r}")
    return DensityMatrix(np.outer(v, v.conj()))


_BELL_VECTORS = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0),
    "phi_minus": np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2.0),
    "psi_plus": np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2.0),
    "psi_minus": np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2.0),
}


def bell_state(name: str) -> DensityMatrix:
    """One of the four maximally entangled states, as a rank-1 projector.

    psi_minus is the singlet (|01> - |10>)/sqrt(2), the state with
    correlation E(u, v) = -u.v for Bloch directions u, v.
    """
    try:
        v = _BELL_VECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown Bell state {name!r}; expected one of {', '.join(BELL_STATE_NAMES)}"
        ) from None
    return pure_state(v)


def maximally_mixed(dim: int = 4) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim)


@dataclass
class JointDistribution:
    """Outcome probabilities p(alpha, beta) for one setting pair."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        probs = self.as_array()
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise ValueError(f"probabilities out of range: {probs.tolist()}")
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        """Cell order (+,+), (+,-), (-,+), (-,-); fixed across the package."""
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm], dtype=float)

    def expectation(self) -> float:
        """Signed sum p(+,+) - p(+,-) - p(-,+) + p(-,-)."""
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm


def pauli_correlations(rho: DensityMatrix) -> np.ndarray:
    """Real 4x4 R_mu,nu = tr(rho (sigma_mu x sigma_nu)) of a two-party state."""
    if rho.dim != 4:
        raise ValueError(f"two-party state must have dim 4, got {rho.dim}")
    return np.einsum("ij,mnji->mn", rho.matrix, PAULI_PRODUCTS).real


def joint_distribution(rho: DensityMatrix, a: Observable, b: Observable) -> JointDistribution:
    """Born-rule joint outcomes p(alpha, beta) = tr(rho (P_alpha x P_beta)),
    P_alpha = (I + alpha M) / 2: (1/4) (e0 + alpha a)^T R (e0 + beta b)."""
    r = pauli_correlations(rho)
    u, v = (_E0 + np.outer((1.0, -1.0), pauli_vector(obs)) for obs in (a, b))
    (pp, pm), (mp, mm) = (0.25 * u @ r @ v.T).tolist()
    return JointDistribution(p_pp=pp, p_pm=pm, p_mp=mp, p_mm=mm)


def correlation(rho: DensityMatrix, a: Observable, b: Observable) -> float:
    """E(a, b) = tr(rho (A x B)) = a^T R b, in [-1, 1] up to rounding."""
    return float(pauli_vector(a) @ pauli_correlations(rho) @ pauli_vector(b))


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """Real 3x3 T = R[1:, 1:]; E(a, b) = n_a^T T n_b for Bloch vectors n_a, n_b
    (Horodecki et al., Phys. Lett. A 200, 340 (1995))."""
    return pauli_correlations(rho)[1:, 1:]
