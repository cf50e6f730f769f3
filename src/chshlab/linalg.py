"""Dense complex linear algebra for small operators.

Matrices are square numpy arrays of complex128.  `as_matrix` coerces and
checks outside input; `is_hermitian` tests an array that has already been
through it.  `hermitian_eigen` is the one validated entry point to the
eigensolver: it coerces once, rejects non-Hermitian input and hands the
symmetrized matrix to LAPACK's Hermitian solver (`np.linalg.eigh`).
`commutator`, `frobenius` and `operator_norm` complete the set; products,
adjoints and Kronecker products are plain numpy (`@`, `.conj().T`, `np.kron`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # complex isfinite: both parts finite
        raise ValueError("matrix entries must be finite")
    return a


def frobenius(m) -> float:
    """||m||_F; `math.hypot` scales internally, so no square overflows."""
    return math.hypot(*np.abs(np.asarray(m)).ravel().tolist())


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a^H||_F <= HERMITIAN_RTOL * max(1, ||a||_F) for a square array `a`
    (the output of `as_matrix`; not coerced again here)."""
    return frobenius(a - a.conj().T) <= HERMITIAN_RTOL * max(1.0, frobenius(a))


def commutator(x, y) -> np.ndarray:
    """[x, y] = xy - yx; anti-Hermitian whenever x and y are Hermitian."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x @ y - y @ x


@dataclass(eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (`np.linalg.eigh`).

    The input is checked against HERMITIAN_RTOL relative to max(1, ||m||_F)
    and symmetrized before the solve.  Raises ValueError for non-Hermitian
    input.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    return EigenDecomposition(eigenvalues=vals[::-1], eigenvectors=vecs[:, ::-1])


def operator_norm(m) -> float:
    """Spectral norm of a Hermitian matrix: max |eigenvalue|."""
    eig = hermitian_eigen(m)
    return float(np.max(np.abs(eig.eigenvalues)))
