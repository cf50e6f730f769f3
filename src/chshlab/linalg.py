"""Dense complex linear algebra for small operators, and `as_numbers`, the one
check for numbers from outside: every array, angle, weight and matrix.

Each function works on one square complex128 matrix.  `as_matrix` coerces
and checks it; `is_hermitian` tests a matrix that has already been
through `as_matrix`.  `hermitian_eigen` is the checked entry point to the
eigensolver: it coerces once, rejects a non-Hermitian matrix and hands the
symmetrized matrix to LAPACK's Hermitian solver (`np.linalg.eigh`).
`operator_norm` is the largest |eigenvalue| of that solve, and `commutator`
completes the set; products, adjoints and Kronecker products are plain
numpy (`@`, `.conj().T`, `np.kron`).
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

HERMITIAN_RTOL = 1e-10
_RULES = {  # dtype: (ndarray dtype kinds, entry types (bool, timedelta fail apart), message's rule)
    np.float64: ("iuf", (int, float, np.integer, np.floating), "real numbers (int or float)"),
    np.complex128: ("iufc", (int, float, complex, np.number), "numbers (int, float or complex)"),
}


def as_numbers(x, what: str, dtype) -> np.ndarray:
    """`x` as a `dtype` (float64 or complex128) array of finite numbers, else the ValueError
    `<what> must be finite <rule>`: an ndarray is judged by its dtype, other input per entry."""
    kinds, types, rule = _RULES[dtype]
    if isinstance(x, np.ndarray):
        ok = x.dtype.kind in kinds
    else:
        ok = all(isinstance(v, types) and not isinstance(v, (bool, np.timedelta64))
                 for v in np.asarray(x, dtype=object).flat)
    try:
        a = np.asarray(x, dtype=dtype) if ok else None
    except OverflowError:  # an int beyond the float range
        a = None
    if a is None or not all(map(cmath.isfinite, a.ravel().tolist())):  # on few entries, beats numpy
        raise ValueError(f"{what} must be finite {rule}")
    return a


def as_matrix(m) -> np.ndarray:
    """One square complex128 matrix of finite numbers (`as_numbers`)."""
    a = as_numbers(m, "matrix entries", np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
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
    x, y = as_matrix(x), as_matrix(y)
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
