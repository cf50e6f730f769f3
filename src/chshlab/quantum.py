"""Qubit observables, states, and Born-rule statistics for two parties.

An observable with outcomes +1/-1 is held as its real Pauli 4-vector c,
M = sum_mu c_mu sigma_mu with mu over I, x, y, z: +/-I (c = (+/-1, 0, 0, 0))
or n . sigma for a unit Bloch vector n (c = (0, n)).  A real c always gives a
Hermitian M, so the only check is M^2 = I, in closed form on c.  States are
two-qubit (4x4) density matrices throughout; pure states enter as rank-1
projectors, so a single code path covers every quantum state.

Every two-party statistic is one bilinear form in Pauli coordinates (Fano,
Rev. Mod. Phys. 55, 855 (1983)): an observable enters as its `pauli` vector
c, a state as its real 4x4 R_mu,nu = tr(rho sigma_mu x sigma_nu)
(`pauli_correlations`).  Then
E(a, b) = a^T R b, p(alpha, beta) = (1/4)(e0 + alpha a)^T R (e0 + beta b),
and the correlation tensor is R[1:, 1:].

The named states (`STATE_NAMES`) live here only: `named_state` builds each
exactly from its diagonal R; `fileio` and the CLI read the names here.

Tensor-order convention, used everywhere in this package: party A is the
left Kronecker factor, party B the right one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
# Pauli bases, index order I, x, y, z: PAULIS[mu] = sigma_mu and
# PAULI_PRODUCTS[mu, nu] = sigma_mu x sigma_nu
PAULIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])
# one broadcast product: byte for byte the table of 16 np.kron calls, in 0.004 ms rather than 0.23
PAULI_PRODUCTS = (PAULIS[:, None, :, None, :, None] * PAULIS[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2, PAULIS, PAULI_PRODUCTS):
    _m.flags.writeable = False
_E0 = np.array([1.0, 0.0, 0.0, 0.0])  # the Pauli vector of I

OBSERVABLE_TOL = 1e-10
BLOCH_UNIT_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10
_EFFECT_SLACK = 0.5 * (math.sqrt(1.0 + OBSERVABLE_TOL) - 1.0)  # delta, see JointDistribution
_CELL_LO = 2.0 * _EIGENVALUE_FLOOR - _EFFECT_SLACK - 1e-12
_CELL_HI = 1.0 + _TRACE_TOL - 3.0 * _EIGENVALUE_FLOOR + 2.0 * _EFFECT_SLACK + 1e-12

# diag R = (R_00, R_xx, R_yy, R_zz) of each named state (Horodecki et al., PLA 200, 340 (1995))
_DIAGONALS = {
    "phi_plus": (1, 1, -1, 1),
    "phi_minus": (1, -1, 1, 1),
    "psi_plus": (1, 1, 1, -1),
    "psi_minus": (1, -1, -1, -1),
    "maximally_mixed": (1, 0, 0, 0),
}
STATE_NAMES = tuple(_DIAGONALS)
BELL_STATE_NAMES = STATE_NAMES[:4]


class Observable(linalg.Record):
    """A +1/-1 valued qubit observable M = sum_mu c_mu sigma_mu, held as its real
    Pauli 4-vector c (`pauli`, read-only).

    M^2 = (c0^2 + |c'|^2) I + 2 c0 c' . sigma, so for real c
    ||M^2 - I||_F = sqrt(2) hypot(c0^2 + |c'|^2 - 1, 2 |c0| |c'|), which must
    not exceed OBSERVABLE_TOL: c is +/-e0 or (0, n) for a unit n, up to rounding.
    c must pass `linalg.as_floats` with n = 4; +/-I is written Observable((+/-1, 0, 0, 0)).
    The check runs on those floats, and only then is the one array built from them,
    so no caller's array is kept or copied twice.
    """

    _fields = ("pauli", "label")

    def __init__(self, pauli, label: str = ""):
        tag = f"observable {label!r}" if label else "observable"
        c0, *bloch = c = linalg.as_floats(pauli, f"{tag}: Pauli vector", 4)
        r = math.hypot(*bloch)
        residual = math.sqrt(2.0) * math.hypot(c0 * c0 + r * r - 1.0, 2.0 * abs(c0) * r)
        if not residual <= OBSERVABLE_TOL:
            raise ValueError(f"{tag}: Pauli vector {list(c)} does not square to the identity")
        pauli = np.array(c)
        pauli.flags.writeable = False
        self.__dict__.update(pauli=pauli, label=label)

    @property
    def matrix(self) -> np.ndarray:
        """M = sum_mu c_mu sigma_mu, a fresh 2x2 complex array."""
        return np.tensordot(self.pauli, PAULIS, axes=1)


def observable_from_bloch(n, label: str = "") -> Observable:
    """Observable n . sigma, Pauli vector (0, n), for a unit Bloch vector n = (x, y, z),
    abs(x*x + y*y + z*z - 1) <= BLOCH_UNIT_TOL; n must pass `linalg.as_floats`."""
    x, y, z = linalg.as_floats(n, "bloch vectors", 3)
    norm2 = x * x + y * y + z * z
    if not abs(norm2 - 1.0) <= BLOCH_UNIT_TOL:
        raise ValueError(f"bloch vectors must have unit length, got |n|^2 = {norm2!r}")
    return Observable((0.0, x, y, z), label=label)


def bloch_of(obs: Observable) -> tuple[float, float, float]:
    """The Bloch vector (c_x, c_y, c_z) of `obs.pauli`."""
    return tuple(obs.pauli[1:].tolist())


class DensityMatrix(linalg.Record):
    """A two-qubit state: positive semidefinite, unit trace, 4x4, held as a
    read-only complex128 copy (`matrix`): later writes to the caller's array
    do not reach a validated state, and the state's own array rejects them.
    Its R = `pauli_correlations` is taken once, here, and kept read-only
    (`correlations`), so every statistic of one state shares one R."""

    _fields = ("matrix", "correlations")
    _hidden = ("correlations",)

    def __init__(self, matrix):
        m = linalg.as_numbers(matrix, "density matrix", np.complex128, (4, 4)).copy()
        if not linalg.is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace must be 1, got {tr!r}")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])  # ascending
        if lo < _EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {lo!r}")
        m.flags.writeable = False
        self.__dict__["matrix"] = m  # first: pauli_correlations reads it
        r = self.__dict__["correlations"] = pauli_correlations(self)
        r.flags.writeable = False


def pure_state(vector) -> DensityMatrix:
    """Rank-1 projector |v><v| of a normalized 4-vector of numbers (`linalg.as_numbers`)."""
    v = linalg.as_numbers(vector, "state vector", np.complex128, (4,))
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state vector must be normalized, got norm {nrm!r}")
    return DensityMatrix(np.outer(v, v.conj()))


@functools.cache
def named_state(name: str) -> DensityMatrix:
    """rho = (1/4) sum_mu d_mu sigma_mu x sigma_mu for d = `_DIAGONALS[name]`, so R = diag(d).

    Every entry of rho is 0, +-1/4 or +-1/2, exact in binary: tr rho is 1.0 and
    a Bell state is a projector bit for bit.  Each state is built once and
    shared (a DensityMatrix is immutable and read-only); an unknown name is not
    cached, so it raises on every call.
    """
    if name not in _DIAGONALS:
        raise ValueError(f"unknown state {name!r}; expected one of {', '.join(STATE_NAMES)}")
    return DensityMatrix(np.einsum("m,mmij->ij", _DIAGONALS[name], PAULI_PRODUCTS) / 4)


def bell_state(name: str) -> DensityMatrix:
    """The Bell state `named_state(name)`; psi_minus is the singlet (|01> - |10>)/sqrt(2),
    the state with correlation E(u, v) = -u.v for Bloch directions u, v."""
    if name not in _DIAGONALS or name not in BELL_STATE_NAMES:  # dict first: TypeError if unhashable
        raise ValueError(f"unknown Bell state {name!r}; expected one of {', '.join(BELL_STATE_NAMES)}")
    return named_state(name)


def maximally_mixed() -> DensityMatrix:
    """I/4, the shared named state of that name."""
    return named_state("maximally_mixed")


class JointDistribution(linalg.ValueRecord):
    """Outcome probabilities p(alpha, beta) for one setting pair, in the cell
    order (+,+), (+,-), (-,+), (-,-) used across the package; immutable, so no
    later rebinding skips the checks.

    A Born cell is tr(rho E), E = E_A x E_B, E_A = (I +- M_a)/2.  An `Observable`
    has ||M^2 - I||_F <= OBSERVABLE_TOL, which bounds each |lambda^2 - 1|, so E_A
    and E_B have eigenvalues in [-delta, 1 + delta], delta = _EFFECT_SLACK =
    (sqrt(1 + OBSERVABLE_TOL) - 1)/2, near 0 or 1 as for a projector: E has r in
    {0, 1, 2, 4} eigenvalues near 1, all in [-delta (1 + delta), (1 + delta)^2].
    A `DensityMatrix` has eigenvalues >= _EIGENVALUE_FLOOR and trace within
    _TRACE_TOL of 1, so to first order in delta (the rest is below 1e-20)
    r * floor - delta <= cell <= 1 + _TRACE_TOL - (4 - r) * floor + 2 delta.
    Cells must pass `linalg.as_floats` and lie in [_CELL_LO, _CELL_HI], the widest
    of these (r = 2 below, r = 1 above) plus 1e-12 for rounding, summing to 1 within _TRACE_TOL;
    the record holds those floats."""

    _fields = ("p_pp", "p_pm", "p_mp", "p_mm")

    def __init__(self, p_pp: float, p_pm: float, p_mp: float, p_mm: float):
        p0, p1, p2, p3 = cells = linalg.as_floats((p_pp, p_pm, p_mp, p_mm), "probabilities", 4)
        lo, hi = _CELL_LO, _CELL_HI
        if not (lo <= p0 <= hi and lo <= p1 <= hi and lo <= p2 <= hi and lo <= p3 <= hi):
            raise ValueError(f"probabilities out of range: {list(cells)}")
        total = 0.0 + p0 + p1 + p2 + p3  # np.sum's order: from +0.0, left to right
        if abs(total - 1.0) > _TRACE_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        self.__dict__.update(p_pp=p0, p_pm=p1, p_mp=p2, p_mm=p3)  # the floats checked


def pauli_correlations(rho: DensityMatrix) -> np.ndarray:
    """Real 4x4 R_mu,nu = tr(rho (sigma_mu x sigma_nu)) of a two-party state."""
    return np.einsum("ij,mnji->mn", rho.matrix, PAULI_PRODUCTS).real


_SIGNS = np.array([1.0, -1.0])


def _born_cells(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Born cells of stacked setting pairs, shape (..., 4) in `JointDistribution`
    order, for the correlations `r` of one state and Pauli vectors `a`, `b` of
    shape (..., 4): (1/4) (e0 + alpha a)^T R (e0 + beta b), one matmul stack."""
    u = _E0 + _SIGNS[:, None] * a[..., None, :]
    v = _E0 + _SIGNS[:, None] * b[..., None, :]
    return (0.25 * u @ r @ np.swapaxes(v, -1, -2)).reshape(a.shape[:-1] + (4,))


def joint_distribution(rho: DensityMatrix, a: Observable, b: Observable) -> JointDistribution:
    """Born-rule joint outcomes p(alpha, beta) = tr(rho (P_alpha x P_beta)),
    P_alpha = (I + alpha M) / 2: `_born_cells` of the one pair."""
    return JointDistribution(*_born_cells(rho.correlations, a.pauli, b.pauli).tolist())


def correlation(rho: DensityMatrix, a: Observable, b: Observable) -> float:
    """E(a, b) = tr(rho (A x B)) = a^T R b, in [-1, 1] up to rounding."""
    return float(a.pauli @ rho.correlations @ b.pauli)


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """Real 3x3 T = R[1:, 1:]; E(a, b) = n_a^T T n_b for Bloch vectors n_a, n_b
    (Horodecki et al., Phys. Lett. A 200, 340 (1995))."""
    return rho.correlations[1:, 1:]
