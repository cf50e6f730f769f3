"""Dense complex linear algebra for small operators, and the one gate for numbers from
outside: `as_numbers` for arrays, weights and matrices, `as_floats` for a few floats.

Each function works on one square complex128 matrix.  `as_matrix` coerces
and checks it; `is_hermitian` tests a matrix that has already been
through the gate.  `hermitian_eigen` is the checked entry point to the
eigensolver: it coerces once, rejects a non-Hermitian matrix and hands the
symmetrized matrix to LAPACK's Hermitian solver (`np.linalg.eigh`).
`operator_norm` is the largest |eigenvalue| of that solve, and `commutator`
completes the set; products, adjoints and Kronecker products are plain
numpy (`@`, `.conj().T`, `np.kron`).

`Record`, beside the gate, is the base of the package's records: plain
classes whose fields are written once and never rebound.
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


def as_numbers(x, what: str, dtype, shape: tuple[int, ...] | None) -> np.ndarray:
    """`x` as a `dtype` (float64 or complex128) array of finite numbers of `shape` (None: any),
    else the ValueError `<what> must be finite <rule>` or `<what> must have shape S, got T`.
    An ndarray is judged by its dtype (one already of `dtype` is not cast), other input per entry."""
    kinds, types, rule = _RULES[dtype]
    if isinstance(x, np.ndarray) and x.dtype == dtype:
        a = x  # the package's own arrays: no cast, so no np.errstate (about 1 us)
    else:
        if isinstance(x, np.ndarray):
            ok = x.dtype.kind in kinds
        else:
            ok = all(isinstance(v, types) and not isinstance(v, (bool, np.timedelta64))
                     for v in np.asarray(x, dtype=object).flat)
        try:
            with np.errstate(over="ignore"):  # a longdouble beyond the float64 range casts to inf
                a = np.asarray(x, dtype=dtype) if ok else None
        except OverflowError:  # an int beyond the float range
            a = None
    if a is None or not all(map(cmath.isfinite, a.ravel().tolist())):  # on few entries, beats numpy
        raise ValueError(f"{what} must be finite {rule}")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    return a


def as_floats(x, what: str, n: int) -> tuple[float, ...]:
    """`x` as a tuple of `n` Python floats.  A tuple of `n` exact floats with a finite sum,
    as the package itself passes, is returned as it is; any other input must pass
    `as_numbers` with shape (n,)."""
    if type(x) is tuple and len(x) == n:
        for v in x:  # a loop, not all(...): its generator took 0.25 of 0.55 us (Python 3.11)
            if type(v) is not float:
                break
        else:
            if cmath.isfinite(sum(x)):
                return x
    return tuple(as_numbers(x, what, np.float64, (n,)).tolist())


class Record:
    """Named fields, written once by `__init__` and then immutable; equal only to itself.

    A subclass names its fields in `_fields`, and its `__init__` checks its
    arguments, then writes each field once into `__dict__`, in `_fields`
    order, so `vars(record)` lists the fields in that order (the report
    documents follow it).  Assigning or deleting any attribute afterwards
    raises AttributeError, so no field rebound after construction skips the
    checks.  `repr` is the dataclass format over the fields not in `_hidden`.
    These are plain classes rather than dataclasses: the decorator compiled
    and ran 3-6 generated methods per class, 6-10 ms of every process's import.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class ValueRecord(Record):
    """A record equal to another of its exact class with equal fields, hashed by its
    fields (as a frozen dataclass): for records whose fields are values."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)


class ResultRecord(ValueRecord):
    """A value record that is unhashable (as a plain dataclass): a computed result,
    which may hold lists."""

    __hash__ = None


def as_matrix(m) -> np.ndarray:
    """One square complex128 matrix of any size (`as_numbers`)."""
    a = as_numbers(m, "matrix entries", np.complex128, None)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a^H||_F <= HERMITIAN_RTOL * max(1, ||a||_F) for a square matrix `a` that
    has passed the gate (not coerced again here).

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
