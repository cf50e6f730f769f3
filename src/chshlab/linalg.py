"""Dense complex linear algebra for small operators, checked for matrices that
come from outside: states (`DensityMatrix`) and tests.

Each function works on one square complex128 matrix.  `as_matrix`
coerces and checks it; `is_hermitian` tests a matrix that has already been
through `as_matrix`.  `hermitian_eigen` is the checked entry point to the
eigensolver: it coerces once, rejects a non-Hermitian matrix and hands the
symmetrized matrix to LAPACK's Hermitian solver (`np.linalg.eigh`).
`operator_norm` is the largest |eigenvalue| of that solve, and `commutator`
completes the set; products, adjoints and Kronecker products are plain
numpy (`@`, `.conj().T`, `np.kron`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_RTOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to one square complex128 matrix of finite numbers (not bool, str or object)."""
    a = np.asarray(m)
    if a.dtype.kind not in "iufc":
        raise ValueError(f"matrix entries must be numbers, got dtype {a.dtype}")
    a = a.astype(np.complex128, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # complex isfinite: both parts finite
        raise ValueError("matrix entries must be finite")
    return a


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a^H||_F <= HERMITIAN_RTOL * max(1, ||a||_F) for the output `a` of
    `as_matrix` (not coerced again here).

    The norms reduce |entries| with `np.hypot`, which scales each step, so
    no square overflows.
    """
    skew, size = (np.hypot.reduce(np.abs(x), axis=None) for x in (a - a.conj().T, a))
    return bool(skew <= HERMITIAN_RTOL * max(1.0, size))


def commutator(x, y) -> np.ndarray:
    """[x, y] = xy - yx; anti-Hermitian whenever x and y are Hermitian."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x @ y - y @ x


class EigenDecomposition(NamedTuple):
    """The pair (eigenvalues, eigenvectors): eigenvalues in descending order,
    eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by LAPACK
    (`np.linalg.eigh`).

    The matrix is checked against HERMITIAN_RTOL relative to max(1, ||m||_F)
    and symmetrized before the solve.  Raises ValueError if it is not
    Hermitian.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    return EigenDecomposition(eigenvalues=vals[::-1], eigenvectors=vecs[:, ::-1])


def operator_norm(m) -> float:
    """Spectral norm max |eigenvalue| of a Hermitian matrix."""
    return float(np.abs(hermitian_eigen(m).eigenvalues).max())
