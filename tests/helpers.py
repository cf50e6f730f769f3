"""Shared generators and independent oracle routines for the test suite."""

import numpy as np

from chshlab import DensityMatrix, Observable, Scenario, observable_from_bloch


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
