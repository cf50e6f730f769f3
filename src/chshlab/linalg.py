"""Dense complex linear algebra for small operators, checked for matrices that
come from outside: states (`DensityMatrix`) and tests.

Matrices are square numpy arrays of complex128.  `as_matrix` coerces and
checks one matrix, `as_stack` a stack (..., n, n) of them; `is_hermitian`
tests every member of an array that has already been through either.
`hermitian_eigen` is the checked entry point to the eigensolver: it coerces
once, rejects a stack with any non-Hermitian member and hands the
symmetrized stack to LAPACK's Hermitian solver in one `np.linalg.eigh` call.
`operator_norm` takes a stack the same way, so N norms cost one check, one
symmetrization and one solve.  `commutator` completes the set; products,
adjoints and Kronecker products are plain numpy (`@`, `.conj().T`,
`np.kron`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_RTOL = 1e-10


def as_stack(m) -> np.ndarray:
    """Coerce to a stack (..., n, n) of square complex128 matrices with finite
    entries; a single matrix is the stack with no leading axes."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # complex isfinite: both parts finite
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to one square complex128 matrix with finite entries."""
    a = as_stack(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-2, -1)


def is_hermitian(a: np.ndarray) -> np.ndarray:
    """||a - a^H||_F <= HERMITIAN_RTOL * max(1, ||a||_F) for each matrix of a
    stack `a` (the output of `as_matrix` or `as_stack`; not coerced again
    here), as a bool array of shape a.shape[:-2].

    The norms reduce |entries| with `np.hypot`, which scales each step, so
    no square overflows.
    """
    skew, size = (np.hypot.reduce(np.abs(x), axis=(-2, -1)) for x in (a - _adjoint(a), a))
    return skew <= HERMITIAN_RTOL * np.maximum(1.0, size)


def commutator(x, y) -> np.ndarray:
    """[x, y] = xy - yx; anti-Hermitian whenever x and y are Hermitian."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x @ y - y @ x


class EigenDecomposition(NamedTuple):
    """The pair (eigenvalues, eigenvectors): eigenvalues in descending order,
    eigenvectors as matching columns (per matrix, for a stack)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (..., n, n), by LAPACK (`np.linalg.eigh`, one call per stack).

    Every matrix is checked against HERMITIAN_RTOL relative to
    max(1, ||m||_F) and the stack is symmetrized before the solve.  Raises
    ValueError if any member is not Hermitian.  Eigenvalues have shape
    (..., n), eigenvectors (..., n, n).
    """
    a = as_stack(m)
    if not is_hermitian(a).all():
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (a + _adjoint(a)))
    return EigenDecomposition(eigenvalues=vals[..., ::-1], eigenvectors=vecs[..., ::-1])


def operator_norm(m):
    """Spectral norm max |eigenvalue| of a Hermitian matrix (a float), or of
    each matrix of a stack (..., n, n) (an array of shape (...))."""
    nrm = np.abs(hermitian_eigen(m).eigenvalues).max(axis=-1)
    return float(nrm) if nrm.ndim == 0 else nrm
