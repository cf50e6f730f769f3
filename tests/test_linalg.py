import numpy as np
import pytest

from chshlab import linalg
from chshlab.chsh import _chsh_pass
from chshlab.quantum import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

from helpers import frobenius, random_hermitian, random_unitary


def random_chsh_operators(rng, n):
    """C of n scenarios with uniformly random settings, shape (n, 4, 4)."""
    v = rng.normal(size=(n, 4, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return _chsh_pass(np.concatenate((np.zeros((n, 4, 1)), v), axis=-1)).operator  # Pauli (0, v)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.as_matrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix(bad)


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
    """`hermitian_eigen` and `operator_norm` on a stack (..., n, n): one check,
    one symmetrization and one `eigh` call, member for member what the
    single-matrix call returns."""

    @pytest.mark.parametrize("n", [1, 5, 19, 1000])
    def test_chsh_stack_matches_single_calls_bit_for_bit(self, n):
        stack = random_chsh_operators(np.random.default_rng(n), n)
        eig = linalg.hermitian_eigen(stack)
        norms = linalg.operator_norm(stack)
        assert eig.eigenvalues.shape == (n, 4) and eig.eigenvectors.shape == (n, 4, 4)
        assert norms.shape == (n,)
        for k, c in enumerate(stack):
            single = linalg.hermitian_eigen(c)
            assert np.array_equal(eig.eigenvalues[k], single.eigenvalues)
            assert np.array_equal(eig.eigenvectors[k], single.eigenvectors)
            assert norms[k] == linalg.operator_norm(c)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_hermitian_stack_matches_single_calls(self, dim):
        rng = np.random.default_rng(40 + dim)
        stack = np.array([[random_hermitian(rng, dim) for _ in range(3)] for _ in range(2)])
        eig = linalg.hermitian_eigen(stack)
        norms = linalg.operator_norm(stack)
        assert norms.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                single = linalg.hermitian_eigen(stack[i, j])
                assert np.array_equal(eig.eigenvalues[i, j], single.eigenvalues)
                assert np.array_equal(eig.eigenvectors[i, j], single.eigenvectors)
                assert norms[i, j] == linalg.operator_norm(stack[i, j])

    def test_single_matrix_keeps_its_return_types(self):
        nrm = linalg.operator_norm(np.diag([0.5, -2.0]).astype(complex))
        assert type(nrm) is float and nrm == 2.0
        eig = linalg.hermitian_eigen(np.diag([1.0, 3.0, 2.0]).astype(complex))
        assert eig.eigenvalues.tolist() == [3.0, 2.0, 1.0]
        assert np.array_equal(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    @pytest.mark.parametrize("fn", [linalg.hermitian_eigen, linalg.operator_norm])
    def test_one_non_hermitian_member_rejects_the_stack(self, fn):
        stack = random_chsh_operators(np.random.default_rng(7), 19)
        stack[11, 0, 3] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            fn(stack)

    def test_huge_members_are_judged_each_on_its_own_scale(self):
        ok = np.array([[1e200, 2e199j], [-2e199j, -3e200]])
        bad = np.array([[0, 1e200], [0, 0]], dtype=complex)
        assert linalg.is_hermitian(np.array([ok, np.eye(2)])).tolist() == [True, True]
        assert linalg.is_hermitian(np.array([ok, bad, np.eye(2)])).tolist() == [True, False, True]
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.operator_norm(np.array([ok, bad]))
        assert linalg.operator_norm(np.array([ok, np.eye(2)]))[1] == 1.0

    @pytest.mark.parametrize("bad", [np.ones(4), np.ones((3, 2, 4))])
    def test_rejects_non_square_stacks(self, bad):
        with pytest.raises(ValueError, match="square"):
            linalg.operator_norm(bad)
