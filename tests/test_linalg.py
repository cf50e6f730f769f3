import math
import re

import numpy as np
import pytest

from chshlab import (DensityMatrix, JointDistribution, Mixture, Observable, OptimizeResult, PairCounts,
                     PlanarSettings, Report, RunConfig, RunResult, Scenario, SweepResult, SweepRow, linalg,
                     observable_from_bloch, pure_state)
from chshlab.chsh import SignCheck
from chshlab.quantum import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

from helpers import as_array, frobenius, random_hermitian, random_unitary


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.as_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize("m", [[[True, False], [False, True]], [["1", "0"], ["0", "1"]],
                                   np.eye(2, dtype=object)], ids=["bool", "str", "object"])
    def test_rejects_entries_that_are_not_numbers(self, m):
        with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
            linalg.as_matrix(m)

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix(bad)


def sz_with(v):
    """sigma_z with `v` in place of its upper-right zero."""
    return [[1.0, v], [0.0, -1.0]]


REAL = "real numbers (int or float)"
COMPLEX = "numbers (int, float or complex)"
# every entry point that takes numbers from outside -> (the name its message
# gives, the numbers it takes, a valid input with the value v in place of one of
# its zeros, returned as something np.array_equal compares)
NUMERIC_INPUTS = {
    "Observable": ("observable: Pauli vector", REAL, lambda v: Observable([0.0, v, 0.0, 1.0]).pauli),
    "observable_from_bloch": ("bloch vectors", REAL,
                              lambda v: observable_from_bloch([v, 0.0, 1.0]).pauli),
    "Mixture": ("mixture weights", REAL, lambda v: Mixture([1.0, v] + [0.0] * 14).weights),
    "PlanarSettings": ("planar angles", REAL, lambda v: PlanarSettings(0.5, v, 1.0, 2.0).as_tuple()),
    "JointDistribution": ("probabilities", REAL, lambda v: as_array(JointDistribution(0.5, v, 0.25, 0.25))),
    "DensityMatrix": ("density matrix", COMPLEX, lambda v: DensityMatrix(
        [[0.5, v, 0, 0], [0] * 4, [0] * 4, [0, 0, 0, 0.5]]).matrix),
    "pure_state": ("state vector", COMPLEX, lambda v: pure_state([1.0, v, 0.0, 0.0]).matrix),
    "hermitian_eigen": ("matrix entries", COMPLEX,
                        lambda v: linalg.hermitian_eigen(sz_with(v)).eigenvalues),
    "operator_norm": ("matrix entries", COMPLEX, lambda v: linalg.operator_norm(sz_with(v))),
    "commutator": ("matrix entries", COMPLEX, lambda v: linalg.commutator(SIGMA_X, sz_with(v))),
}


def huge_longdouble():
    """1e4000 as a numpy longdouble, beyond the float64 range, where longdouble reaches it."""
    if np.log10(np.finfo(np.longdouble).max) < 4000:
        pytest.skip("numpy's longdouble is no wider than float64 here")
    return np.longdouble("1e4000")


# a callable value is built inside the test
NOT_NUMBERS = {"bool": True, "str": "0", "None": None, "complex": 1j, "huge-int": 10**400,
               "huge-longdouble": huge_longdouble, "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf, "timedelta": np.timedelta64(1, "s")}  # a numpy integer subclass
NUMBERS = {"int": 0, "numpy-int64": np.int64(0), "numpy-int32": np.int32(0),
           "numpy-float64": np.float64(0.0), "numpy-float32": np.float32(0.0)}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{label}")
    for entry, (_, numbers, _) in NUMERIC_INPUTS.items()
    for label, value in NOT_NUMBERS.items() if not (label == "complex" and numbers == COMPLEX)
])
def test_value_that_is_not_a_finite_number_rejected(entry, value):
    # one rule and one message for all: a bool, None or 10**400 used to pass the
    # dtype-only checks or raise TypeError or OverflowError, and NaN or +-inf
    # failed later, under another name or none; a longdouble beyond the float64
    # range also printed numpy's overflow warning
    what, numbers, make = NUMERIC_INPUTS[entry]
    if callable(value):
        value = value()
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be finite {numbers}')}$"):
        make(value)


# every entry point with a fixed shape -> a call with one wrong shape, and its message
SHAPES = {
    "Observable": (lambda: Observable([0.0, 0.0, 1.0]),
                   "observable: Pauli vector must have shape (4,), got (3,)"),
    "observable_from_bloch": (lambda: observable_from_bloch([[0.0, 0.0, 1.0]]),
                              "bloch vectors must have shape (3,), got (1, 3)"),
    "Mixture": (lambda: Mixture(np.full((4, 4), 1 / 16)),
                "mixture weights must have shape (16,), got (4, 4)"),
    "PlanarSettings": (lambda: PlanarSettings([0.5], [1.0], [2.0], [3.0]),
                       "planar angles must have shape (4,), got (4, 1)"),
    "JointDistribution": (lambda: JointDistribution([0.25], [0.25], [0.25], [0.25]),
                          "probabilities must have shape (4,), got (4, 1)"),
    "DensityMatrix": (lambda: DensityMatrix(np.eye(2) / 2),
                      "density matrix must have shape (4, 4), got (2, 2)"),
    "pure_state": (lambda: pure_state([1.0, 0.0]), "state vector must have shape (4,), got (2,)"),
}


@pytest.mark.parametrize("make, message", SHAPES.values(), ids=list(SHAPES))
def test_wrong_shape_rejected(make, message):
    # one rule and one message: a 4x4 Mixture used to be flattened, a 2-vector
    # pure_state failed in DensityMatrix, and each class had its own wording.
    # The linalg functions take any square matrix (TestStacks)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("value", NUMBERS.values(), ids=list(NUMBERS))
@pytest.mark.parametrize("make", [make for _, _, make in NUMERIC_INPUTS.values()],
                         ids=list(NUMERIC_INPUTS))
def test_ints_and_numpy_numbers_accepted(make, value):
    assert np.array_equal(make(value), make(0.0))


class TestFrobenius:
    def test_zero_matrix(self):
        assert frobenius(np.zeros((3, 3))) == 0.0

    def test_extreme_entries_neither_overflow_nor_underflow(self):
        assert frobenius([[3e300, 4e300]]) == pytest.approx(5e300, rel=1e-15)
        assert frobenius([[3e-200, 4e-200]]) == pytest.approx(5e-200, rel=1e-15)

    def test_matches_plain_sum_of_squares(self):
        # the plain sum rounds once per term; the two agree to a few ulp
        rng = np.random.default_rng(26)
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m *= 10.0 ** rng.uniform(-100, 100)
            want = float(np.sqrt(np.sum(np.abs(m) ** 2)))
            assert frobenius(m) == pytest.approx(want, rel=1e-15)


class TestCommutator:
    def test_pauli_pair(self):
        assert np.allclose(linalg.commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y, atol=0)

    def test_self_commutation(self):
        assert frobenius(linalg.commutator(SIGMA_Z, SIGMA_Z)) == 0.0

    def test_distinct_tensor_factors_commute(self):
        c = linalg.commutator(np.kron(SIGMA_Z, IDENTITY_2), np.kron(IDENTITY_2, SIGMA_X))
        assert frobenius(c) == 0.0

    def test_anti_hermitian_for_hermitian_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = random_hermitian(rng, 4)
            y = random_hermitian(rng, 4)
            c = linalg.commutator(x, y)
            assert frobenius(c.conj().T + c) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.commutator(np.eye(2), np.eye(4))


class TestHermitianEigen:
    def test_diagonal_input(self):
        eig = linalg.hermitian_eigen(SIGMA_Z)
        assert np.array_equal(eig.eigenvalues, [1.0, -1.0])

    def test_unit_bloch_observable(self):
        # any unit-Bloch observable has characteristic polynomial l^2 - 1
        m = (SIGMA_Z + SIGMA_X) / np.sqrt(2.0)
        eig = linalg.hermitian_eigen(m)
        assert np.allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(21)
        want = np.array([3.0, 1.0, -2.0, -5.0])
        u = random_unitary(rng, 4)
        m = u @ np.diag(want) @ u.conj().T
        eig = linalg.hermitian_eigen(m)
        assert np.max(np.abs(eig.eigenvalues - want)) < 1e-10

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(22)
        for k in range(1000):
            dim = 2 if k % 2 == 0 else 4
            m = random_hermitian(rng, dim)
            eig = linalg.hermitian_eigen(m)
            v, w = eig.eigenvectors, eig.eigenvalues
            scale = max(1.0, frobenius(m))
            assert frobenius(v @ np.diag(w) @ v.conj().T - m) <= 1e-10 * scale
            assert frobenius(v.conj().T @ v - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(w) <= 0)

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = random_hermitian(rng, 4)
            ours = linalg.hermitian_eigen(m).eigenvalues
            lapack = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(ours - lapack)) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_hermitian_with_huge_entries(self):
        # unscaled squares overflow to inf near 1.3e154 and inf <= inf passed
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eigen(np.array([[0, 1e200], [0, 0]], dtype=complex))

    def test_accepts_hermitian_with_huge_entries(self):
        eig = linalg.hermitian_eigen(np.array([[1e200, 2e199j], [-2e199j, -3e200]]))
        assert np.allclose(eig.eigenvalues, [1.00997512422e200, -3.00997512422e200], rtol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(24)
        h = random_hermitian(rng, 4)
        base = linalg.hermitian_eigen(h).eigenvalues
        for scale in (1e-6, 1e6):
            scaled = linalg.hermitian_eigen(scale * h).eigenvalues
            assert np.max(np.abs(scaled - scale * base)) < 1e-9 * scale

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(25)
        want = np.array([2.0, 2.0, -1.0, -1.0])
        u = random_unitary(rng, 4)
        m = u @ np.diag(want) @ u.conj().T
        eig = linalg.hermitian_eigen(m)
        assert np.max(np.abs(eig.eigenvalues - want)) < 1e-10
        assert frobenius(
            eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T - m
        ) < 1e-12

    def test_already_diagonal_is_exact(self):
        eig = linalg.hermitian_eigen(np.diag([4.0, -1.0, 3.0, 0.0]).astype(complex))
        assert np.array_equal(eig.eigenvalues, [4.0, 3.0, 0.0, -1.0])


class TestOperatorNorm:
    def test_identity(self):
        assert linalg.operator_norm(np.eye(4)) == 1.0

    def test_hermitian_commutator_form(self):
        # i[sz, sx] = -2 sy has spectral norm 2
        m = 1j * linalg.commutator(SIGMA_Z, SIGMA_X)
        assert abs(linalg.operator_norm(m) - 2.0) < 1e-12

    def test_zero_matrix(self):
        assert linalg.operator_norm(np.zeros((4, 4))) == 0.0

    def test_two_by_two(self):
        assert abs(linalg.operator_norm(np.diag([0.25, -3.0]).astype(complex)) - 3.0) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.operator_norm(np.array([[0, 2], [0, 0]], dtype=complex))

    def test_random_vector_lower_bound(self):
        # ||m v|| for unit v never exceeds the reported norm
        rng = np.random.default_rng(31)
        m = random_hermitian(rng, 4)
        nrm = linalg.operator_norm(m)
        sampled = 0.0
        for _ in range(1000):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            sampled = max(sampled, float(np.linalg.norm(m @ v)))
        assert sampled <= nrm + 1e-6


class TestStacks:
    """Every function takes one matrix: a stack (..., n, n) is not a matrix,
    and a single matrix's results are a float and plain arrays."""

    def test_single_matrix_keeps_its_return_types(self):
        nrm = linalg.operator_norm(np.diag([0.5, -2.0]).astype(complex))
        assert type(nrm) is float and nrm == 2.0
        eig = linalg.hermitian_eigen(np.diag([1.0, 3.0, 2.0]).astype(complex))
        assert eig.eigenvalues.tolist() == [3.0, 2.0, 1.0]
        assert np.array_equal(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])
        # each matrix is judged on its own scale, huge entries included
        ok = linalg.as_matrix([[1e200, 2e199j], [-2e199j, -3e200]])
        bad = linalg.as_matrix([[0, 1e200], [0, 0]])
        assert linalg.is_hermitian(ok) is True and linalg.is_hermitian(bad) is False

    @pytest.mark.parametrize("bad", [np.ones(4), np.ones((3, 2, 4)), np.ones((2, 4, 4))])
    def test_rejects_non_square_stacks(self, bad):
        # (2, 4, 4) is a stack of square Hermitian matrices, not one matrix
        for fn in (linalg.as_matrix, linalg.hermitian_eigen, linalg.operator_norm):
            with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {bad.shape}")):
                fn(bad)


_SZ = Observable((0.0, 0.0, 0.0, 1.0), label="a1")
_SX = observable_from_bloch((1.0, 0.0, 0.0))
_SCENARIO = Scenario(_SZ, _SX, _SZ, _SX)
_PLANAR = PlanarSettings(0.0, 0.5, 0.25, 1.0)
_ROW = SweepRow(0.0, _PLANAR, 0.0, 2.0, 2.0, -2.0)
_SZ_REPR = "Observable(pauli=array([0., 0., 0., 1.]), label='a1')"
_SX_REPR = "Observable(pauli=array([0., 1., 0., 0.]), label='')"
_SCENARIO_REPR = f"Scenario(a1={_SZ_REPR}, a2={_SX_REPR}, b1={_SZ_REPR}, b2={_SX_REPR}, state=None)"
_PLANAR_REPR = "PlanarSettings(alpha1=0.0, alpha2=0.5, beta1=0.25, beta2=1.0)"
_ROW_REPR = (f"SweepRow(phi=0.0, settings={_PLANAR_REPR}, comm_a_norm=0.0, comm_b_norm=2.0, "
             "max_s=2.0, s_singlet=-2.0)")
# every record class -> (a fresh record, its fields in `vars` order, its repr, how it compares):
# "identity" records equal only themselves and hash by identity, "value" records compare and
# hash by their fields, "result" records compare by their fields and are unhashable.  Each
# call builds a new record from the same parts; fields and reprs are those the dataclasses had.
RECORDS = {
    "Observable": (lambda: Observable((0.0, 0.0, 0.0, 1.0), label="a1"), ("pauli", "label"),
                   _SZ_REPR, "identity"),
    "DensityMatrix": (lambda: DensityMatrix(np.diag([1, 0, 0, 0])), ("matrix", "correlations"),
                      "DensityMatrix(matrix=array([[1.+0.j, 0.+0.j, 0.+0.j, 0.+0.j],\n"
                      "       [0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j],\n"
                      "       [0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j],\n"
                      "       [0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j]]))", "identity"),
    "JointDistribution": (lambda: JointDistribution(0.5, 0.0, 0.25, 0.25), ("p_pp", "p_pm", "p_mp", "p_mm"),
                          "JointDistribution(p_pp=0.5, p_pm=0.0, p_mp=0.25, p_mm=0.25)", "value"),
    "Scenario": (lambda: Scenario(_SZ, _SX, _SZ, _SX), ("a1", "a2", "b1", "b2", "state"),
                 _SCENARIO_REPR, "identity"),
    "Report": (lambda: Report(None, 2.0, 1.0, 0.0, 2.0, 0.0, -1, False),
               ("s_value", "max_s_over_states", "chsh_operator_norm", "comm_a_norm", "comm_b_norm",
                "identity_residual", "identity_sign", "violates"),
               "Report(s_value=None, max_s_over_states=2.0, chsh_operator_norm=1.0, comm_a_norm=0.0, "
               "comm_b_norm=2.0, identity_residual=0.0, identity_sign=-1, violates=False)", "result"),
    "SignCheck": (lambda: SignCheck(8, 0.5, 0.0, 1e-9),
                  ("trials", "max_residual_plus", "max_residual_minus", "tolerance"),
                  "SignCheck(trials=8, max_residual_plus=0.5, max_residual_minus=0.0, tolerance=1e-09)",
                  "result"),
    "Mixture": (lambda: Mixture([1.0] + [0.0] * 15), ("weights",),
                "Mixture(weights=array([1., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0.]))",
                "identity"),
    "PairCounts": (lambda: PairCounts(3, 1, 0, 4), ("pp", "pm", "mp", "mm"),
                   "PairCounts(pp=3, pm=1, mp=0, mm=4)", "value"),
    "RunConfig": (lambda: RunConfig(_SCENARIO, 10, 7), ("scenario", "shots_per_pair", "seed"),
                  f"RunConfig(scenario={_SCENARIO_REPR}, shots_per_pair=10, seed=7)", "value"),
    "RunResult": (lambda: RunResult(7, 10, [PairCounts(3, 1, 0, 6)], [0.25], 0.25, 0.5),
                  ("seed", "shots_per_pair", "counts", "e_hat", "s_hat", "s_stderr"),
                  "RunResult(seed=7, shots_per_pair=10, counts=[PairCounts(pp=3, pm=1, mp=0, mm=6)], "
                  "e_hat=[0.25], s_hat=0.25, s_stderr=0.5)", "result"),
    "PlanarSettings": (lambda: PlanarSettings(0.0, 0.5, 0.25, 1.0), ("alpha1", "alpha2", "beta1", "beta2"),
                       _PLANAR_REPR, "value"),
    "SweepRow": (lambda: SweepRow(0.0, _PLANAR, 0.0, 2.0, 2.0, -2.0),
                 ("phi", "settings", "comm_a_norm", "comm_b_norm", "max_s", "s_singlet"), _ROW_REPR, "result"),
    "SweepResult": (lambda: SweepResult(2, [_ROW], _ROW), ("phi_steps", "rows", "best"),
                    f"SweepResult(phi_steps=2, rows=[{_ROW_REPR}], best={_ROW_REPR})", "result"),
    "OptimizeResult": (lambda: OptimizeResult(_PLANAR, 2.5), ("settings", "s_value"),
                       f"OptimizeResult(settings={_PLANAR_REPR}, s_value=2.5)", "result"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields, text, kind = RECORDS[name]
    r = make()
    assert type(r).__name__ == name and isinstance(r, linalg.Record)
    assert r._fields == tuple(vars(r)) == fields
    assert repr(r) == text
    before = dict(vars(r))
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            setattr(r, attr, 0.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{attr}'$"):
            delattr(r, attr)
    assert tuple(vars(r)) == fields and all(vars(r)[f] is before[f] for f in fields)
    other = make()
    assert r == r and r != object()
    if kind == "identity":
        assert r != other and hash(r) == object.__hash__(r)
    else:
        assert r == other and not r != other
        if kind == "value":
            assert hash(r) == hash(other) == hash(tuple(before.values()))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(r)
