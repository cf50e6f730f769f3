"""Shared generators and independent oracle routines for the test suite."""

import math

import numpy as np

from chshlab import DensityMatrix, Observable, Scenario, observable_from_bloch
from chshlab.linalg import Record


def frobenius(m) -> float:
    """||m||_F; `math.hypot` scales internally, so no square overflows."""
    return math.hypot(*np.abs(np.asarray(m)).ravel().tolist())


def deep_fields(x):
    """A record as a dict of its `_fields`, read by attribute, with every record and
    list inside it converted too: the deep copy that `dataclasses.asdict` made."""
    if isinstance(x, Record):
        return {name: deep_fields(getattr(x, name)) for name in x._fields}
    if isinstance(x, list):
        return [deep_fields(v) for v in x]
    return x


def as_array(d) -> np.ndarray:
    """The cells of a `JointDistribution`, in the order (+,+), (+,-), (-,+), (-,-)."""
    return np.array([d.p_pp, d.p_pm, d.p_mp, d.p_mm], dtype=float)


def expectation(d) -> float:
    """Signed sum p(+,+) - p(+,-) - p(-,+) + p(-,-) of a `JointDistribution`."""
    return d.p_pp - d.p_pm - d.p_mp + d.p_mm


_I, _Z = (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)
_I_EDGE, _Z_EDGE = (1.0 + 3.5e-11, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0 + 3.5e-11)
# Diagonals of states at the edges of DensityMatrix's tolerances (an eigenvalue
# below zero, a trace above one), each with a setting pair (Pauli vectors a, b)
# whose Born cells leave [-1e-12, 1 + 1e-12]; every one of them must sample.
EDGE_STATES = [
    ((-5e-11, 0.5, 0.5, 5e-11), _Z, _Z),
    ((1.0 + 3e-11, -1e-11, -1e-11, -1e-11), _Z, _Z),
    (((1.0 + 5e-11) / 4.0,) * 4, _I, _I),
    ((0.5, -6e-11, 0.5 + 6e-11, 0.0), _I, _Z),
    # settings at the edge of OBSERVABLE_TOL too: effects (I +- M)/2 with
    # eigenvalues 1 + 1.75e-11 and -1.75e-11 move the cells a little further
    ((1.0 + 3.96e-10, -0.99e-10, -0.99e-10, -0.99e-10), _Z_EDGE, _Z_EDGE),
    ((-0.99e-10, 0.5 + 0.99e-10, -0.99e-10, 0.5 + 0.99e-10), _I_EDGE, _Z_EDGE),
]


def diagonal_state(diag) -> DensityMatrix:
    return DensityMatrix(np.diag(diag).astype(complex))


def random_hermitian(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_bloch(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sqrt(max(0.0, 1.0 - z * z))
    return (r * np.cos(phi), r * np.sin(phi), z)


def random_observable(rng, label=""):
    return observable_from_bloch(random_bloch(rng), label=label)


def random_scenario(rng, state=None):
    return Scenario(
        random_observable(rng, "a1"),
        random_observable(rng, "a2"),
        random_observable(rng, "b1"),
        random_observable(rng, "b2"),
        state=state,
    )


def random_pure_density(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density(rng, dim=4, components=3):
    """Random mixed state: convex mix of a few random pure projectors."""
    w = rng.uniform(0.1, 1.0, size=components)
    w /= w.sum()
    m = sum(wi * random_pure_density(rng, dim) for wi in w)
    return DensityMatrix(m)


def random_qubit_density(rng):
    """Random single-qubit state (I + r . sigma)/2 with |r| <= 1."""
    from chshlab.quantum import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

    x, y, z = random_bloch(rng)
    r = rng.uniform(0.0, 1.0)
    return 0.5 * (IDENTITY_2 + r * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z))


def partial_trace(m, keep):
    """Reduce a 4x4 two-party matrix to one party ('A' left, 'B' right)."""
    t = np.asarray(m).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError(keep)


def kron_trace(rho, x, y):
    """Independent oracle Re tr(rho (x ⊗ y)) by an explicit Kronecker product."""
    return float(np.trace(np.asarray(rho) @ np.kron(x, y)).real)


def born_joint(rho, a, b):
    """Independent Born-rule oracle for 4x4 rho and 2x2 observables a, b:
    p(alpha, beta) = tr(rho (P_alpha ⊗ P_beta)), P_alpha = (I + alpha a) / 2,
    in cell order (+,+), (+,-), (-,+), (-,-)."""
    eye = np.eye(2)
    return np.array(
        [
            kron_trace(rho, (eye + s * np.asarray(a)) / 2.0, (eye + t * np.asarray(b)) / 2.0)
            for s in (1, -1)
            for t in (1, -1)
        ]
    )


def kron_chsh_operator(a1, a2, b1, b2):
    """Independent oracle C = (1/2)[a1 ⊗ (b1 + b2) + a2 ⊗ (b1 - b2)] by explicit
    Kronecker products of the 2x2 setting matrices."""
    a1, a2, b1, b2 = (np.asarray(m) for m in (a1, a2, b1, b2))
    return 0.5 * (np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2))


def kron_identity_target(a1, a2, b1, b2, sign):
    """Independent oracle I + sign (1/4)[a1, a2] ⊗ [b1, b2], the right side of the
    C^2 identity, from 2x2 matrix products and an explicit Kronecker product."""
    a1, a2, b1, b2 = (np.asarray(m) for m in (a1, a2, b1, b2))
    return np.eye(4) + sign * 0.25 * np.kron(a1 @ a2 - a2 @ a1, b1 @ b2 - b2 @ b1)


def kron_max_s_over_settings(rho):
    """Independent oracle for max |S| over all settings: 2 sqrt(m1 + m2) over the
    two largest eigenvalues of T^T T, with T_kl = tr(rho sigma_k ⊗ sigma_l) built
    by explicit Kronecker products (Horodecki, Horodecki & Horodecki, Phys. Lett.
    A 200, 340 (1995))."""
    from chshlab.quantum import SIGMA_X, SIGMA_Y, SIGMA_Z

    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    t = np.array([[kron_trace(rho, p, q) for q in paulis] for p in paulis])
    m = np.linalg.eigvalsh(t.T @ t)  # ascending
    return 2.0 * np.sqrt(max(0.0, m[-1] + m[-2]))


def complex_chsh_pass(vectors):
    """Oracle for `chsh._chsh_pass` by the complex construction: M as
    `chsh_coefficients` forms it, C = M . PAULI_PRODUCTS and the commutator term
    -(0, u)(0, v)^T . PAULI_PRODUCTS as complex matmuls, the commutator norms
    2|u|, 2|v| of the cross products u, v, and the Frobenius norms of the complex
    square C @ C minus I + sign * term for sign +1, -1.  Returns (C, M, norms,
    residuals) for the (N, 4, 4) Pauli vectors of a1, a2, b1, b2."""
    from chshlab.quantum import PAULI_PRODUCTS

    v = np.asarray(vectors)
    n = len(v)
    m = 0.5 * v[:, :2, :].swapaxes(-2, -1) @ (np.array([[1.0, 1.0], [1.0, -1.0]]) @ v[:, 2:, :])
    x, y = v[..., [0, 2, 3, 1]], v[..., [0, 3, 1, 2]]
    w = x[:, 0::2] * y[:, 1::2] - y[:, 0::2] * x[:, 1::2]  # (0, u), (0, v)
    coefficients = np.concatenate((m[:, None], -w[:, :1, :, None] * w[:, 1:, None, :]), axis=1)
    ops = (coefficients.reshape(2 * n, 16) @ PAULI_PRODUCTS.reshape(16, 16)).reshape(n, 2, 4, 4)
    c, term = ops[:, 0], ops[:, 1:]
    target = np.eye(4) + np.array([1.0, -1.0])[:, None, None] * term
    residuals = np.linalg.norm((c @ c)[:, None] - target, axis=(-2, -1))
    return c, m, 2.0 * np.linalg.norm(w, axis=-1), residuals
