import numpy as np
import pytest

from chshlab import (
    IDENTITY_SIGN,
    DensityMatrix,
    Observable,
    Scenario,
    analyze,
    bell_state,
    bloch_of,
    check_state_independent_bound,
    chsh_operator,
    commutator_norms,
    extremal_eigenstate,
    max_s_over_states,
    maximally_mixed,
    observable_from_bloch,
    s_value,
    square_identity_residual,
    verify_identity_sign,
)
from chshlab.chsh import VIOLATION_TOL, SignCheck, random_bloch_vectors, random_scenario
from chshlab.linalg import frobenius
from chshlab.quantum import SIGMA_X, SIGMA_Z

from helpers import random_observable, random_qubit_density
from helpers import random_scenario as np_random_scenario

TSIRELSON = 2.0 * np.sqrt(2.0)


def optimal_scenario(state=None):
    inv = 1.0 / np.sqrt(2.0)
    return Scenario(
        observable_from_bloch((0, 0, 1), "a1"),
        observable_from_bloch((1, 0, 0), "a2"),
        observable_from_bloch((-inv, 0, -inv), "b1"),
        observable_from_bloch((inv, 0, -inv), "b2"),
        state=state,
    )


def all_sz_scenario(state=None):
    sz = observable_from_bloch((0, 0, 1))
    return Scenario(sz, sz, sz, sz, state=state)


class TestChshOperator:
    def test_degenerate_settings_collapse(self):
        c = chsh_operator(all_sz_scenario())
        assert frobenius(c - np.kron(SIGMA_Z, SIGMA_Z)) < 1e-15
        assert abs(max_s_over_states(all_sz_scenario()) - 2.0) == 0.0

    def test_optimal_settings_norm(self):
        c = chsh_operator(optimal_scenario())
        assert frobenius(c - c.conj().T) < 1e-14
        # independent spectral oracle
        assert abs(np.max(np.abs(np.linalg.eigvalsh(c))) - np.sqrt(2.0)) < 1e-10
        assert abs(max_s_over_states(optimal_scenario()) - TSIRELSON) < 1e-9

    def test_equal_b_settings_collapse_to_product(self):
        rng = np.random.default_rng(50)
        a1, a2 = random_observable(rng, "a1"), random_observable(rng, "a2")
        b = random_observable(rng, "b")
        sc = Scenario(a1, a2, b, b)
        assert frobenius(chsh_operator(sc) - np.kron(a1.matrix, b.matrix)) < 1e-14
        nrm = max_s_over_states(sc) / 2.0
        assert abs(nrm - 1.0) < 1e-10


class TestSquareIdentity:
    def test_degenerate_a_settings_agree_for_both_signs(self):
        rng = np.random.default_rng(51)
        a = random_observable(rng, "a")
        sc = Scenario(a, a, random_observable(rng, "b1"), random_observable(rng, "b2"))
        r_plus = square_identity_residual(sc, 1)
        r_minus = square_identity_residual(sc, -1)
        c = chsh_operator(sc)
        direct = frobenius(c @ c - np.eye(4))
        assert abs(r_plus - r_minus) < 1e-14
        assert abs(r_plus - direct) < 1e-14
        assert r_minus < 1e-10

    def test_optimal_scenario_fixes_the_sign(self):
        sc = optimal_scenario()
        assert square_identity_residual(sc, -1) < 1e-10
        assert square_identity_residual(sc, 1) > 1.0

    def test_randomized_identity_holds_with_verified_sign(self):
        for k in range(1000):
            sc = random_scenario(seed=1000 + k)
            assert square_identity_residual(sc, IDENTITY_SIGN) <= 1e-9

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            square_identity_residual(optimal_scenario(), 0)

    def test_verify_identity_sign_randomized(self):
        check = verify_identity_sign(trials=300, seed=424242)
        assert check.trials == 300
        assert check.verified_sign == -1
        assert check.minus_ok and not check.plus_ok
        assert check.max_residual_minus <= 1e-9
        assert check.max_residual_plus > 1e-3

    def test_verify_identity_sign_degenerate_ambiguous(self):
        rng = np.random.default_rng(52)
        a = random_observable(rng, "a")
        sc = Scenario(a, a, random_observable(rng, "b1"), random_observable(rng, "b2"))
        check = SignCheck(
            trials=1,
            max_residual_plus=square_identity_residual(sc, 1),
            max_residual_minus=square_identity_residual(sc, -1),
            tolerance=VIOLATION_TOL,
        )
        assert check.plus_ok and check.minus_ok
        assert check.verified_sign is None

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_verify_identity_sign_seed_range(self, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            verify_identity_sign(trials=1, seed=seed)


class TestStateIndependentBound:
    def test_compatible_a_side_never_violates(self):
        rng = np.random.default_rng(53)
        for k in range(500):
            a = random_observable(rng, "a1")
            sign = 1.0 if k % 2 == 0 else -1.0
            a2 = observable_from_bloch(tuple(sign * c for c in bloch_of(a)), "a2")
            sc = Scenario(a, a2, random_observable(rng, "b1"), random_observable(rng, "b2"))
            assert check_state_independent_bound(sc)
            assert max_s_over_states(sc) <= 2.0 + 1e-9

    def test_compatible_b_side_never_violates(self):
        rng = np.random.default_rng(54)
        for _ in range(500):
            b = random_observable(rng, "b1")
            sc = Scenario(random_observable(rng, "a1"), random_observable(rng, "a2"), b, b)
            assert check_state_independent_bound(sc)

    def test_optimal_scenario_violates(self):
        assert not check_state_independent_bound(optimal_scenario())


class TestSValue:
    def test_tsirelson_value_on_singlet(self):
        sc = optimal_scenario(state=bell_state("psi_minus"))
        assert abs(s_value(sc) - TSIRELSON) < 1e-9

    def test_matches_twice_trace_of_chsh_operator(self):
        rng = np.random.default_rng(55)
        from helpers import random_density

        for _ in range(200):
            sc = np_random_scenario(rng, state=random_density(rng))
            direct = 2.0 * float(np.trace(sc.state.matrix @ chsh_operator(sc)).real)
            assert abs(s_value(sc) - direct) < 1e-10

    def test_maximally_mixed_gives_zero(self):
        sc = optimal_scenario(state=maximally_mixed(4))
        assert abs(s_value(sc)) < 1e-12

    def test_product_states_respect_classical_bound(self):
        rng = np.random.default_rng(56)
        for _ in range(1000):
            rho = DensityMatrix(np.kron(random_qubit_density(rng), random_qubit_density(rng)))
            sc = np_random_scenario(rng, state=rho)
            assert abs(s_value(sc)) <= 2.0 + 1e-9

    def test_requires_state(self):
        with pytest.raises(ValueError, match="no state"):
            s_value(optimal_scenario())


class TestMaxSOverStates:
    def test_extremal_eigenstate_attains_the_ceiling(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            sc = np_random_scenario(rng)
            target = max_s_over_states(sc)
            rho = extremal_eigenstate(sc)
            sc_with = Scenario(sc.a1, sc.a2, sc.b1, sc.b2, state=rho)
            assert abs(s_value(sc_with) - target) < 1e-9

    def test_tsirelson_ceiling_for_all_scenarios(self):
        rng = np.random.default_rng(58)
        for _ in range(500):
            assert max_s_over_states(np_random_scenario(rng)) <= TSIRELSON + 1e-9


class TestAnalyze:
    def test_optimal_scenario_report(self):
        rep = analyze(optimal_scenario(state=bell_state("psi_minus")))
        assert abs(rep.comm_a_norm - 2.0) < 1e-12
        assert abs(rep.comm_b_norm - 2.0) < 1e-12
        assert abs(rep.max_s_over_states - TSIRELSON) < 1e-9
        assert abs(rep.chsh_operator_norm - np.sqrt(2.0)) < 1e-10
        assert rep.identity_residual < 1e-10
        assert rep.identity_sign == IDENTITY_SIGN
        assert rep.violates

    def test_degenerate_a_report(self):
        rng = np.random.default_rng(59)
        a = random_observable(rng, "a")
        rep = analyze(Scenario(a, a, random_observable(rng, "b1"), random_observable(rng, "b2")))
        assert rep.comm_a_norm < 1e-12
        assert not rep.violates
        assert rep.s_value is None

    def test_all_sz_report(self):
        rep = analyze(all_sz_scenario())
        assert rep.comm_a_norm == 0.0 and rep.comm_b_norm == 0.0
        assert rep.max_s_over_states == 2.0
        assert not rep.violates

    def test_report_invariants_on_random_scenarios(self):
        rng = np.random.default_rng(60)
        from helpers import random_density

        for _ in range(200):
            rep = analyze(np_random_scenario(rng, state=random_density(rng)))
            assert abs(rep.max_s_over_states - 2.0 * rep.chsh_operator_norm) < 1e-10
            assert abs(rep.s_value) <= rep.max_s_over_states + 1e-9
            assert rep.violates == (rep.max_s_over_states > 2.0 + 1e-9)
            half = rep.max_s_over_states / 2.0
            assert half * half <= 1.0 + 0.25 * rep.comm_a_norm * rep.comm_b_norm + 1e-9


class TestScenarioValidation:
    def test_state_dim_checked(self):
        rng = np.random.default_rng(61)
        with pytest.raises(ValueError, match="dim 4"):
            Scenario(
                random_observable(rng, "a1"),
                random_observable(rng, "a2"),
                random_observable(rng, "b1"),
                random_observable(rng, "b2"),
                state=DensityMatrix(np.eye(2, dtype=complex) / 2.0),
            )

    def test_observable_type_checked(self):
        rng = np.random.default_rng(62)
        for position, name in enumerate(("a1", "a2", "b1", "b2")):
            settings = [random_observable(rng) for _ in range(4)]
            settings[position] = SIGMA_X  # a bare matrix, not an Observable
            with pytest.raises(ValueError, match=name):
                Scenario(*settings)


class TestIdentityObservables:
    # +/-I square to the identity too, so they are legal settings even
    # though no Bloch vector produces them
    def test_identity_settings_cannot_violate(self):
        eye = Observable(np.eye(2, dtype=complex), "a")
        rng = np.random.default_rng(64)
        sc = Scenario(eye, eye, random_observable(rng, "b1"), random_observable(rng, "b2"))
        rep = analyze(sc)
        assert rep.comm_a_norm == 0.0
        assert abs(rep.max_s_over_states - 2.0) < 1e-9
        assert not rep.violates
        assert rep.identity_residual < 1e-10

    def test_mixed_identity_and_pauli(self):
        eye = Observable(np.eye(2, dtype=complex), "a1")
        sz = observable_from_bloch((0, 0, 1), "a2")
        rng = np.random.default_rng(65)
        sc = Scenario(eye, sz, random_observable(rng, "b1"), random_observable(rng, "b2"))
        assert square_identity_residual(sc, IDENTITY_SIGN) <= 1e-9
        assert max_s_over_states(sc) <= 2.0 * np.sqrt(2.0) + 1e-9


class TestCommutatorNorms:
    def test_pauli_pair_norm(self):
        sc = optimal_scenario()
        ca, cb = commutator_norms(sc)
        assert abs(ca - 2.0) < 1e-12
        assert abs(cb - 2.0) < 1e-12

    def test_planar_angle_law(self):
        # ||[n1.sigma, n2.sigma]|| = 2 |sin(angle between)| in the x-z plane
        rng = np.random.default_rng(63)
        for _ in range(50):
            t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            o1 = observable_from_bloch((np.sin(t1), 0, np.cos(t1)))
            o2 = observable_from_bloch((np.sin(t2), 0, np.cos(t2)))
            sc = Scenario(o1, o2, o1, o2)
            ca, _ = commutator_norms(sc)
            assert abs(ca - 2.0 * abs(np.sin(t2 - t1))) < 1e-10


def test_random_bloch_vectors_unit_length():
    vecs = random_bloch_vectors(99, 500)
    norms = np.linalg.norm(vecs, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("seed", [-5, 1 << 64])
def test_random_draws_reject_out_of_range_seed(seed):
    # a wrapped seed would silently reuse the stream of seed mod 2**64
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        random_bloch_vectors(seed, 4)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        random_scenario(seed)
