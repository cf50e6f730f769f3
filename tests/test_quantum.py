import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from chshlab import (
    DensityMatrix,
    Mixture,
    Observable,
    PlanarSettings,
    RunConfig,
    Scenario,
    bell_state,
    bloch_of,
    correlation,
    correlation_tensor,
    joint_distribution,
    maximally_mixed,
    observable_from_bloch,
    pure_state,
    s_value,
    sample_pair,
)
from chshlab import quantum
from chshlab.linalg import hermitian_eigen
from chshlab.quantum import (
    BELL_STATE_NAMES,
    BLOCH_UNIT_TOL,
    IDENTITY_2,
    OBSERVABLE_TOL,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    JointDistribution,
    pauli_correlations,
)

from helpers import (
    EDGE_STATES,
    as_array,
    born_joint,
    diagonal_state,
    expectation,
    frobenius,
    kron_trace,
    partial_trace,
    random_bloch,
    random_density,
    random_observable,
    random_qubit_density,
)


class TestObservable:
    def test_axis_cases(self):
        assert np.array_equal(observable_from_bloch((0, 0, 1)).matrix, SIGMA_Z)
        assert np.array_equal(observable_from_bloch((1, 0, 0)).matrix, SIGMA_X)
        assert np.array_equal(observable_from_bloch((0, 1, 0)).matrix, SIGMA_Y)

    def test_tilted_observable_spectrum(self):
        inv = 1.0 / np.sqrt(2.0)
        obs = observable_from_bloch((inv, 0.0, inv))
        assert frobenius(obs.matrix - (SIGMA_X + SIGMA_Z) * inv) < 1e-15
        assert np.allclose(hermitian_eigen(obs.matrix).eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit length"):
            observable_from_bloch((0.5, 0.0, 0.0))

    def test_bloch_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = random_bloch(rng)
            assert bloch_of(observable_from_bloch(n)) == tuple(n)
        # exact to the bit: signed zeros come back as they went in
        back = bloch_of(observable_from_bloch((-0.0, 0.0, -1.0)))
        assert np.signbit(back).tolist() == [True, False, True]

    def test_rejects_non_hermitian(self):
        # a complex Pauli vector is the only way to a non-Hermitian M:
        # (0, 1, i, 0) is sx + i sy = [[0, 2], [0, 0]]
        with pytest.raises(ValueError, match="must be finite real numbers"):
            Observable(np.array([0.0, 1.0, 1j, 0.0]), label="bad")

    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0, 0.0), (0.0, np.inf, 0.0, 0.0),
                                     (0.0, 0.0, 0.0, -np.inf), (0.0, 1.0, np.nan, 0.0)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="Pauli vector must be finite real numbers"):
            Observable(bad)

    def test_rejects_wrong_spectrum(self):
        # M = diag(1, 0.5): Hermitian, but it does not square to I
        with pytest.raises(ValueError, match="square to the identity"):
            Observable((0.75, 0.0, 0.0, 0.25))

    def test_rejects_wrong_dim(self):
        for bad in ((0.0, 0.0, 1.0), np.eye(2), np.zeros((4, 1)), 1.0):
            with pytest.raises(ValueError, match="Pauli 4-vector"):
                Observable(bad)

    @pytest.mark.parametrize("bad", [("0", "0", "1"), (True, False, False), (True, 0.0, 0.0),
                                     (None, 0.0, 1.0), np.array([False, False, True]),
                                     np.array(["0", "0", "1"]), np.array([0.0, 0.0, 1.0], dtype=object),
                                     (0.0, 0.0, 1.0 + 0.0j)])
    def test_bloch_input_must_be_ints_or_floats(self, bad):
        with pytest.raises(ValueError, match="real numbers"):
            observable_from_bloch(bad)

    @pytest.mark.parametrize("bad", [("-1", "0", "0", "0"), (True, False, False, False),
                                     (1, 0, 0, False), np.array([1, 0, 0, 0], dtype=object),
                                     np.array([True, False, False, False]), "1000"])
    def test_pauli_input_must_be_ints_or_floats(self, bad):
        with pytest.raises(ValueError, match="real numbers"):
            Observable(bad)

    def test_integer_input_is_accepted(self):
        assert Observable((1, 0, 0, 0)).pauli.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert Observable(np.array([-1, 0, 0, 0])).pauli.tolist() == [-1.0, 0.0, 0.0, 0.0]
        assert observable_from_bloch((0, np.int64(1), 0)).pauli.tolist() == [0.0, 0.0, 1.0, 0.0]
        int32 = np.array([0, 0, 1], dtype=np.int32)
        assert observable_from_bloch(int32).pauli.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_label_appears_in_diagnostics(self):
        with pytest.raises(ValueError, match="'b2'"):
            Observable((0.75, 0.0, 0.0, 0.25), label="b2")

    def test_pauli_vector_is_read_only(self):
        c = np.array([0.0, 0.0, 0.0, 1.0])
        obs = Observable(c)
        c[3] = -1.0  # the observable holds its own copy
        assert obs.pauli.tolist() == [0.0, 0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            obs.pauli[3] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            observable_from_bloch((1.0, 0.0, 0.0)).pauli[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.pauli = np.array([3.0, 0.0, 0.0, 0.0])

    def test_closed_form_check_matches_matrix_residual(self):
        # sqrt(2) hypot(c0^2 + |c'|^2 - 1, 2|c0||c'|) is ||M^2 - I||_F: it must
        # accept and reject exactly where the matrix residual does
        rng = np.random.default_rng(54)
        cases = [(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.0, *random_bloch(rng))]
        for scale in (1e-13, 3e-11, 1e-10, 2e-10, 1e-6, 0.3, 2.0):
            for _ in range(40):
                base = (rng.choice((-1.0, 1.0)), 0.0, 0.0, 0.0) if rng.random() < 0.3 \
                    else (0.0, *random_bloch(rng))
                cases.append(np.asarray(base) + scale * rng.normal(size=4))
        cases += [(0.5, 0.5, 0.5, 0.0), (0.6, 0.0, 0.0, 0.8), (0.3, 0.4, 0.0, 0.0)]
        accepted = 0
        for c in cases:
            c0, r = c[0], float(np.linalg.norm(c[1:]))
            m = np.tensordot(np.asarray(c, dtype=float), PAULIS, axes=1)
            matrix_residual = frobenius(m @ m - IDENTITY_2)
            closed = np.sqrt(2.0) * np.hypot(c0 * c0 + r * r - 1.0, 2.0 * abs(c0) * r)
            assert abs(closed - matrix_residual) <= 1e-15 * max(1.0, matrix_residual)
            if abs(matrix_residual - OBSERVABLE_TOL) <= 1e-14:
                continue  # too close to the threshold for rounding to settle
            if matrix_residual <= OBSERVABLE_TOL:
                accepted += 1
                obs = Observable(c)
                assert obs.pauli.tolist() == [float(x) for x in c]
                assert frobenius(obs.matrix @ obs.matrix - IDENTITY_2) == matrix_residual
            else:
                with pytest.raises(ValueError, match="square to the identity"):
                    Observable(c)
        assert 0 < accepted < len(cases)


class TestValidatedRecordsAreFrozen:
    """A field rebound after construction would skip the record's checks, as
    for `Observable` and `DensityMatrix`."""

    def test_scenario(self):
        sz = observable_from_bloch((0, 0, 1))
        sc = Scenario(sz, sz, sz, sz, state=bell_state("psi_minus"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.state = np.eye(4) / 4

    def test_run_config(self):
        sz = observable_from_bloch((0, 0, 1))
        cfg = RunConfig(Scenario(sz, sz, sz, sz, state=bell_state("psi_minus")), 10, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.shots_per_pair = 0

    def test_mixture(self):
        mix = Mixture(np.full(16, 1.0 / 16.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            mix.weights = np.full(16, 0.5)

    def test_planar_settings(self):
        ps = PlanarSettings(-1.0, 7.0, 0.5, 0.0)
        assert ps.as_tuple() == (2.0 * np.pi - 1.0, 7.0 - 2.0 * np.pi, 0.5, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ps.alpha1 = 100.0

    def test_joint_distribution(self):
        sz = observable_from_bloch((0, 0, 1))
        d = joint_distribution(bell_state("psi_minus"), sz, sz)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.p_pp = 7.0
        assert (d.p_pp, d.p_mm) == (0.0, 0.0)


class TestStates:
    def test_bell_states_pure_unit_trace(self):
        for name in BELL_STATE_NAMES:
            rho = bell_state(name).matrix
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert abs(np.trace(rho @ rho) - 1.0) < 1e-14

    def test_singlet_reduced_states_maximally_mixed(self):
        rho = bell_state("psi_minus").matrix
        for party in ("A", "B"):
            assert frobenius(partial_trace(rho, party) - IDENTITY_2 / 2.0) < 1e-12

    def test_bell_states_orthogonal(self):
        for i, a in enumerate(BELL_STATE_NAMES):
            for b in BELL_STATE_NAMES[i + 1 :]:
                overlap = np.trace(bell_state(a).matrix @ bell_state(b).matrix)
                assert abs(overlap) < 1e-14

    def test_unknown_bell_name(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("sigma_plus")

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="dim 4, got 3"):
            DensityMatrix(np.eye(3, dtype=complex) / 3.0)
        with pytest.raises(ValueError, match="dim 4, got 2"):  # a valid qubit state is not one
            DensityMatrix(np.eye(2) / 2)
        not_hermitian = np.eye(4, dtype=complex) / 4.0
        not_hermitian[0, 1] = 0.25
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(not_hermitian)

    def test_pure_state_requires_normalized_vector(self):
        with pytest.raises(ValueError, match="normalized"):
            pure_state([1.0, 1.0])

    @pytest.mark.parametrize("vector, message", [
        ([[1], [0], [0], [0]], "state vector must be 1-D, got shape (4, 1)"),
        (["1", "0", "0", "0"], "state vector must be finite numbers (int, float or complex)"),
        ([True, False, False, False], "state vector must be finite numbers (int, float or complex)"),
    ], ids=["column", "strings", "booleans"])
    def test_pure_state_requires_a_vector_of_numbers(self, vector, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pure_state(vector)

    @pytest.mark.parametrize("matrix", [np.diag([True, False, False, False]), np.full((4, 4), "0")],
                             ids=["booleans", "strings"])
    def test_density_matrix_entries_must_be_numbers(self, matrix):
        with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
            DensityMatrix(matrix)

    def test_maximally_mixed(self):
        assert np.array_equal(maximally_mixed().matrix, np.eye(4) / 4.0)

    def test_named_states_are_built_once(self):
        for name in BELL_STATE_NAMES:
            assert bell_state(name) is bell_state(name)
        assert maximally_mixed() is maximally_mixed()

    @pytest.mark.parametrize("make", [lambda: bell_state("psi_minus"), maximally_mixed],
                             ids=["bell", "maximally_mixed"])
    def test_shared_state_cannot_change(self, make):
        rho = make()
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.matrix = np.eye(4, dtype=complex)
        assert make().matrix[0, 0] != 5.0

    def test_unknown_bell_name_message(self):
        want = ("unknown Bell state 'sigma_plus'; expected one of "
                "phi_plus, phi_minus, psi_plus, psi_minus")
        for _ in range(2):  # a failed lookup is never cached
            with pytest.raises(ValueError) as exc:
                bell_state("sigma_plus")
            assert str(exc.value) == want
        with pytest.raises(TypeError, match="unhashable"):
            bell_state(["psi_minus"])

    def test_density_matrix_is_read_only(self):
        rho = bell_state("psi_minus")
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.matrix = np.eye(4, dtype=complex)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-15)

    def test_density_matrix_holds_its_own_copy(self):
        # a complex128 input, which `np.asarray` alone would not copy
        m = np.eye(4, dtype=np.complex128) / 4.0
        rho = DensityMatrix(m)
        m[0, 0] = 5.0
        assert rho.matrix[0, 0] == 0.25
        assert rho.matrix.dtype == np.complex128
        sc = Scenario(*(observable_from_bloch(n) for n in ((0, 0, 1), (1, 0, 0),
                                                            (0, 0, 1), (1, 0, 0))), state=rho)
        assert s_value(sc) == 0.0


class TestJointDistribution:
    @pytest.mark.parametrize("cell", range(4))
    def test_nan_cell_rejected(self, cell):
        cells = [0.25] * 4
        cells[cell] = float("nan")
        with pytest.raises(ValueError, match="probabilities must be finite real numbers"):
            JointDistribution(*cells)

    @pytest.mark.parametrize("cells, message", [
        ((2, 0, 0, 0), "probabilities out of range: [2.0, 0.0, 0.0, 0.0]"),
        ((-3e-10, 0.5, 0.5, 3e-10), "probabilities out of range: [-3e-10, 0.5, 0.5, 3e-10]"),
        ((1, 1, 0, 0), "probabilities must sum to 1, got 2.0"),
        ((np.float64(0.3),) * 4, "probabilities must sum to 1, got 1.2"),
        ((-0.0,) * 4, "probabilities must sum to 1, got 0.0"),
        ((1.0 + 5e-10, 0.0, 0.0, -5e-10), "probabilities out of range: [1.0000000005, 0.0, 0.0, -5e-10]"),
    ])
    def test_messages(self, cells, message):
        with pytest.raises(ValueError) as exc:
            JointDistribution(*cells)
        assert str(exc.value) == message

    def test_sum_check_matches_numpy_sum(self):
        # rows scaled to the edge of the 1e-10 tolerance pass exactly when
        # numpy's sum of the four cells does
        rng = np.random.default_rng(266)
        for _ in range(2000):
            edge = rng.choice((-1e-10, 1e-10)) * rng.uniform(0.999, 1.001)
            p = rng.dirichlet(np.ones(4)) * (1.0 + edge)
            if abs(float(np.sum(p)) - 1.0) <= 1e-10:
                JointDistribution(*p.tolist())
            else:
                with pytest.raises(ValueError, match="sum to 1"):
                    JointDistribution(*p.tolist())

    def test_cell_bounds_follow_the_state_tolerances(self):
        # lowest: a rank-2 projector on two eigenvalues at the floor; highest: a
        # rank-1 projector on the top eigenvalue of a state whose other three
        # sit at the floor, at the largest trace.  Effects of observables at
        # OBSERVABLE_TOL have eigenvalues in [-delta, 1 + delta]: delta more
        # below (weight 1 on -delta), 2 delta above ((1 + delta)^2); 1e-12 more
        # for rounding
        floor, tol = quantum._EIGENVALUE_FLOOR, quantum._TRACE_TOL
        delta = 0.5 * (math.sqrt(1.0 + OBSERVABLE_TOL) - 1.0)
        lo, hi = 2.0 * floor - delta - 1e-12, 1.0 + tol - 3.0 * floor + 2.0 * delta + 1e-12
        rest = (-1.5e-10,) * 3
        JointDistribution(lo, 0.5, 0.5, -lo)
        JointDistribution(hi, *rest)
        for cells in ((np.nextafter(lo, -1.0), 0.5, 0.5, -lo), (np.nextafter(hi, 2.0), *rest)):
            with pytest.raises(ValueError, match="out of range"):
                JointDistribution(*cells)

    @pytest.mark.parametrize("diag, a, b", EDGE_STATES)
    def test_edge_states_pass(self, diag, a, b):
        # the cells of every accepted state pass, including those that leave [0, 1]
        rho = diagonal_state(diag)
        cells = as_array(joint_distribution(rho, Observable(a), Observable(b)))
        assert cells.min() < -1e-12 or cells.max() > 1.0 + 1e-12
        pa = [(IDENTITY_2 + s * Observable(a).matrix) / 2 for s in (1, -1)]
        pb = [(IDENTITY_2 + s * Observable(b).matrix) / 2 for s in (1, -1)]
        want = [np.trace(rho.matrix @ np.kron(p, q)).real for p in pa for q in pb]
        assert np.allclose(cells, want, rtol=0.0, atol=1e-15)

    def test_singlet_perfect_anticorrelation(self):
        sz = observable_from_bloch((0, 0, 1))
        d = joint_distribution(bell_state("psi_minus"), sz, sz)
        assert abs(d.p_pp) < 1e-15 and abs(d.p_mm) < 1e-15
        assert abs(d.p_pm - 0.5) < 1e-12 and abs(d.p_mp - 0.5) < 1e-12

    def test_maximally_mixed_flat(self):
        rng = np.random.default_rng(43)
        d = joint_distribution(maximally_mixed(), random_observable(rng), random_observable(rng))
        assert np.allclose(as_array(d), 0.25, atol=1e-12)

    def test_product_eigenstate(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex))
        sz = observable_from_bloch((0, 0, 1))
        d = joint_distribution(rho, sz, sz)
        assert d.p_pp == 1.0 and d.p_pm == 0.0 and d.p_mp == 0.0 and d.p_mm == 0.0

    def test_no_signaling_marginals_exact(self):
        # the A-side marginal cannot depend on which B observable is measured
        rng = np.random.default_rng(44)
        for _ in range(1000):
            rho = random_density(rng)
            a = random_observable(rng)
            b1 = random_observable(rng)
            b2 = random_observable(rng)
            d1 = joint_distribution(rho, a, b1)
            d2 = joint_distribution(rho, a, b2)
            assert abs((d1.p_pp + d1.p_pm) - (d2.p_pp + d2.p_pm)) < 1e-10
            assert abs((d1.p_mp + d1.p_mm) - (d2.p_mp + d2.p_mm)) < 1e-10

    def test_marginal_matches_single_party_born_rule(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            rho = random_density(rng)
            a = random_observable(rng)
            b = random_observable(rng)
            d = joint_distribution(rho, a, b)
            direct = kron_trace(rho.matrix, (IDENTITY_2 + a.matrix) / 2.0, IDENTITY_2)
            assert abs((d.p_pp + d.p_pm) - direct) < 1e-10


class TestCorrelation:
    def test_singlet_dot_product_law(self):
        rng = np.random.default_rng(46)
        singlet = bell_state("psi_minus")
        for _ in range(100):
            u = random_bloch(rng)
            v = random_bloch(rng)
            e = correlation(singlet, observable_from_bloch(u), observable_from_bloch(v))
            assert abs(e - (-np.dot(u, v))) < 1e-10

    def test_singlet_equal_settings(self):
        rng = np.random.default_rng(47)
        obs = random_observable(rng)
        assert abs(correlation(bell_state("psi_minus"), obs, obs) + 1.0) < 1e-10

    def test_maximally_mixed_uncorrelated(self):
        rng = np.random.default_rng(48)
        e = correlation(maximally_mixed(), random_observable(rng), random_observable(rng))
        assert abs(e) < 1e-12

    def test_two_computation_routes_agree(self):
        rng = np.random.default_rng(49)
        for _ in range(1000):
            rho = random_density(rng)
            a = random_observable(rng)
            b = random_observable(rng)
            via_trace = correlation(rho, a, b)
            via_distribution = expectation(joint_distribution(rho, a, b))
            oracle = kron_trace(rho.matrix, a.matrix, b.matrix)
            assert abs(via_trace - oracle) < 1e-10
            assert abs(via_distribution - oracle) < 1e-10
            assert -1.0 - 1e-10 <= via_trace <= 1.0 + 1e-10


class TestCorrelationTensor:
    def test_bilinear_form_matches_correlation(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            rho = random_density(rng)
            u, v = random_bloch(rng), random_bloch(rng)
            got = np.asarray(u) @ correlation_tensor(rho) @ np.asarray(v)
            want = kron_trace(
                rho.matrix, observable_from_bloch(u).matrix, observable_from_bloch(v).matrix
            )
            assert abs(got - want) < 1e-12


class TestPauliCoordinates:
    def test_pauli_vector_of_bloch_observable_is_exact(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = random_bloch(rng)
            assert observable_from_bloch(n).pauli.tolist() == [0.0, *n]

    def test_pauli_vector_keeps_identity_component(self):
        assert Observable((1, 0, 0, 0)).pauli.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert Observable((-1, 0, 0, 0)).pauli.tolist() == [-1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(Observable((-1, 0, 0, 0)).matrix, -IDENTITY_2)

    def test_correlations_of_product_state(self):
        # R of rho_A x rho_B is the outer product of (1, r_A) and (1, r_B)
        rng = np.random.default_rng(52)
        rho_a, rho_b = random_qubit_density(rng), random_qubit_density(rng)
        r = pauli_correlations(DensityMatrix(np.kron(rho_a, rho_b)))
        ca = [np.trace(rho_a @ s).real for s in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)]
        cb = [np.trace(rho_b @ s).real for s in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)]
        assert np.allclose(r, np.outer(ca, cb), atol=1e-15)


def bloch_with_norm2(ulps: int) -> tuple[float, float, float]:
    """(x, y, 0.0) whose x*x + y*y + 0.0*0.0 is exactly 1 + ulps spacings of
    the floats on that side of 1 (2**-52 above, 2**-53 below)."""
    if ulps >= 0:
        x, want = 1.0, 1.0 + ulps * 2.0**-52
    else:
        x, want = 1.0 - 2.0**-40, 1.0 + ulps * 2.0**-53  # x*x rounds to 1 - 2**-39
    n = (x, math.sqrt(want - x * x), 0.0)
    assert n[0] * n[0] + n[1] * n[1] + n[2] * n[2] == want
    return n


def outcome(make, n):
    """What `make` does with the Bloch vector n: its Pauli vector's bytes, or
    its ValueError's message."""
    try:
        out = make(n)
    except ValueError as exc:
        return "rejects", str(exc)
    return "accepts", np.asarray(getattr(out, "pauli", out)).tobytes()


# the outermost accepted offsets from |n|^2 = 1, in float spacings
ULPS_ABOVE = math.floor(BLOCH_UNIT_TOL / 2.0**-52)
ULPS_BELOW = math.floor(BLOCH_UNIT_TOL / 2.0**-53)


class TestBlochUnitCheck:
    """`observable_from_bloch` has one unit check, in closed form on three
    floats: a tuple of exact floats is used as it is, and every other form is
    first turned into three floats.  So the tuple, list and array forms of one
    vector are accepted and rejected alike, with the same message, and give
    the same Pauli vector bit for bit."""

    @staticmethod
    def forms(n):
        return (tuple(n), list(n), np.array(n))

    @pytest.mark.parametrize("ulps, accepted", [
        (ULPS_ABOVE, True), (ULPS_ABOVE + 1, False), (-ULPS_BELOW, True), (-ULPS_BELOW - 1, False),
    ], ids=["+tol", "+tol+ulp", "-tol", "-tol-ulp"])
    def test_tolerance_edges(self, ulps, accepted):
        base = bloch_with_norm2(ulps)
        assert (outcome(observable_from_bloch, base)[0] == "accepts") == accepted
        # every order of the components, as a tuple, a list and an array
        for n in set(itertools.permutations(base)):
            want = outcome(observable_from_bloch, n)
            assert want[0] == ("accepts" if accepted else "rejects")
            for form in self.forms(n):
                assert outcome(observable_from_bloch, form) == want, form

    @pytest.mark.parametrize("n", [
        (math.nan, 0.0, 1.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf), (math.inf, math.nan, 0.0),
        (1e200, 0.0, 0.0), (0.0, -1e200, 1.0), (1e154, 1e154, 0.0), (1e308, 1e308, 0.0),
    ])
    def test_non_finite_and_huge_components(self, n):
        # NaN and +-inf fail the numeric-input gate; huge finite components, whose
        # sum may overflow too, fail the unit check
        want = outcome(observable_from_bloch, n)
        assert want[0] == "rejects"
        if all(map(math.isfinite, n)):
            assert want[1].startswith("bloch vectors must have unit length, got |n|^2 = ")
        else:
            assert want[1] == "bloch vectors must be finite real numbers (int or float)"
        for form in self.forms(n):
            assert outcome(observable_from_bloch, form) == want

    @pytest.mark.parametrize("n", [
        ("1", 0.0, 0.0), (0.0, "0", 1.0), (True, 0.0, 0.0), (0.0, 0.0, True), (1j, 0.0, 0.0),
        (0.0, 0.0, 1.0 + 0.0j), np.array([0.0, 0.0, 1.0 + 0.0j]), np.array([True, False, False]),
    ], ids=repr)
    def test_entries_that_are_not_ints_or_floats(self, n):
        # library callers can pass anything; no form casts it to a float (an
        # array built from a tuple with True would already be a float array)
        for form in (n, tuple(n), list(n)):
            got = outcome(observable_from_bloch, form)
            assert got == ("rejects", "bloch vectors must be finite real numbers (int or float)"), form

    @pytest.mark.parametrize("n", [(0, 0, 1), (-0.0, 0, -1), (0.6, -0.0, 0.8), (np.float64(0.6), 0, 0.8)],
                             ids=repr)
    def test_accepted_forms_agree_bit_for_bit(self, n):
        want = outcome(observable_from_bloch, tuple(float(x) for x in n))
        assert want[0] == "accepts"
        for form in (n, *self.forms(n)):
            assert outcome(observable_from_bloch, form) == want, form
        assert np.signbit(observable_from_bloch(n).pauli).tolist() == [False, *np.signbit(n)]

    @pytest.mark.parametrize("n, want", [
        ([0.6, 0.0, 0.8], "0000000000000000333333333333e33f00000000000000009a9999999999e93f"),
        ((0, -1, 0), "00000000000000000000000000000000000000000000f0bf0000000000000000"),
        (np.array([0.0, -0.6, 0.8]), "00000000000000000000000000000000333333333333e3bf9a9999999999e93f"),
        ([0.6, 0.0, 0.9], "bloch vectors must have unit length, got |n|^2 = 1.17"),
        ((1, 1, 0), "bloch vectors must have unit length, got |n|^2 = 2.0"),
        (np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), "bloch vectors must have shape (3,), got (2, 3)"),
        (np.array([[0.0, 0.0, 1.0], [1.0, 0.1, 0.0]]), "bloch vectors must have shape (3,), got (2, 3)"),
        (1.0, "bloch vectors must have shape (3,), got ()"),
        ((0.0, 0.0, 0.0, 1.0), "bloch vectors must have shape (3,), got (4,)"),
    ], ids=["list", "int-tuple", "array", "list-not-unit", "int-tuple-not-unit", "stack", "stack-not-unit",
            "scalar", "4-vector"])
    def test_other_forms_keep_their_bytes_and_messages(self, n, want):
        # every input but a tuple of three floats is turned into three floats
        # first; the Pauli bytes and unit messages are pinned from the earlier
        # per-vector path, and anything but three numbers is rejected by shape
        verdict, got = outcome(lambda v: observable_from_bloch(v, label="x"), n)
        assert (got.hex() if verdict == "accepts" else got) == want


class TestIdentityComponent:
    """Observable(+/-I) on a product state with nonzero local Bloch vectors:
    the identity and marginal terms that a Bloch-only Fano form would drop."""

    def setup_method(self):
        rng = np.random.default_rng(53)
        self.rho = DensityMatrix(np.kron(random_qubit_density(rng), random_qubit_density(rng)))
        self.obs = [
            Observable((1.0, 0.0, 0.0, 0.0), "id"),
            Observable((-1.0, 0.0, 0.0, 0.0), "-id"),
            random_observable(rng, "a"),
            random_observable(rng, "b"),
        ]

    def test_statistics_match_kron_oracle(self):
        r = self.rho.matrix
        for a in self.obs:
            for b in self.obs:
                want = born_joint(r, a.matrix, b.matrix)
                got = as_array(joint_distribution(self.rho, a, b))
                assert np.max(np.abs(got - want)) < 1e-12
                assert abs(correlation(self.rho, a, b) - kron_trace(r, a.matrix, b.matrix)) < 1e-12
        ident, minus, a, b = self.obs
        want_s = sum(
            sign * kron_trace(r, x.matrix, y.matrix)
            for sign, x, y in ((1, ident, minus), (1, ident, b), (1, a, minus), (-1, a, b))
        )
        assert abs(s_value(Scenario(ident, a, minus, b, state=self.rho)) - want_s) < 1e-12

    def test_sampler_cells_follow_oracle(self):
        shots = 40_000
        for k, (x, y) in enumerate(((0, 3), (2, 1), (0, 1))):
            a, b = self.obs[x], self.obs[y]
            counts = sample_pair(self.rho, a, b, shots, seed=900 + k)
            got = np.array([counts.pp, counts.pm, counts.mp, counts.mm])
            want = born_joint(self.rho.matrix, a.matrix, b.matrix)
            assert np.array_equal(got[want == 0.0], np.zeros(np.sum(want == 0.0)))
            sigma = np.sqrt(shots * want * (1.0 - want))
            assert np.all(np.abs(got - shots * want) <= 5.0 * sigma + 1e-9)
