"""Dense complex linear algebra for small operators.

Matrices are square numpy arrays of complex128.  `hermitian_eigen` is the one
validated entry point to the eigensolver: it rejects non-Hermitian input and
hands the symmetrized matrix to LAPACK's Hermitian solver (`np.linalg.eigh`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def frobenius(m) -> float:
    a = np.asarray(m)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def is_hermitian(m, rtol: float = HERMITIAN_RTOL) -> bool:
    a = as_matrix(m)
    return frobenius(a - a.conj().T) <= rtol * max(1.0, frobenius(a))


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def kron(a, b) -> np.ndarray:
    """Kronecker product; dim of result is the product of the input dims."""
    return np.kron(as_matrix(a), as_matrix(b))


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
