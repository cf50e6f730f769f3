import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from chshlab import (
    IDENTITY_SIGN,
    DensityMatrix,
    Observable,
    PlanarSettings,
    Scenario,
    analyze,
    bell_state,
    bloch_of,
    chsh_operator,
    commutator_norms,
    extremal_eigenstate,
    max_s_over_settings,
    max_s_over_states,
    maximally_mixed,
    observable_from_bloch,
    optimize_settings,
    s_value,
    settings_to_scenario,
    square_identity_residual,
    verify_identity_sign,
)
from chshlab import chsh, linalg, rng
from chshlab.chsh import IDENTITY_SEED, VIOLATION_TOL, SignCheck, random_scenario
from chshlab.quantum import SIGMA_X, SIGMA_Z, pure_state

from helpers import (complex_chsh_pass, frobenius, kron_chsh_operator, kron_identity_target,
                     kron_max_s_over_settings, random_density, random_observable,
                     random_pure_density, random_qubit_density)
from helpers import random_scenario as np_random_scenario

TSIRELSON = 2.0 * np.sqrt(2.0)
HALF_ROOT = 0.5 ** 0.5


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


class TestStackedPass:
    def test_operator_matches_kron_oracle(self):
        rng_np = np.random.default_rng(66)
        scenarios = [np_random_scenario(rng_np) for _ in range(300)]
        scenarios.append(Scenario(Observable((1.0, 0.0, 0.0, 0.0), "a1"), *scenarios[0].observables()[1:]))
        vectors = np.array([[o.pauli for o in sc.observables()] for sc in scenarios])
        got = chsh._chsh_pass(vectors).operator
        for c, sc in zip(got, scenarios):
            want = kron_chsh_operator(*(o.matrix for o in sc.observables()))
            assert np.max(np.abs(c - want)) <= 1e-15
            assert np.max(np.abs(chsh_operator(sc) - want)) <= 1e-15

    def test_identity_residuals_match_kron_oracle(self):
        # the kernel takes the commutator term from cross products of Pauli
        # vectors; the oracle squares 2x2 commutators and takes np.kron
        rng_np = np.random.default_rng(68)
        scenarios = [np_random_scenario(rng_np) for _ in range(300)]
        a1, a2, b1, b2 = scenarios[0].observables()
        eye, minus_eye = Observable((1.0, 0.0, 0.0, 0.0), "I"), Observable((-1.0, 0.0, 0.0, 0.0), "-I")
        scenarios += [Scenario(eye, a2, b1, b2), Scenario(a1, minus_eye, b1, b2),
                      Scenario(a1, a2, eye, minus_eye), Scenario(a1, a1, b1, b2)]
        for sc in scenarios:
            mats = [o.matrix for o in sc.observables()]
            c = kron_chsh_operator(*mats)
            for sign in (1, -1):
                want = frobenius(c @ c - kron_identity_target(*mats, sign))
                assert abs(square_identity_residual(sc, sign) - want) <= 1e-15 * max(1.0, want)

    def test_kernel_matches_the_complex_construction(self):
        # C from its real image, M and the commutator norms equal the complex
        # construction bit for bit (signed zeros included) at every stack size;
        # the residuals, summed over real and imaginary parts, agree to rounding
        gen = np.random.default_rng(19)
        k = 12_000
        z, phi = gen.uniform(-1.0, 1.0, (k, 4)), gen.uniform(0.0, 2.0 * np.pi, (k, 4))
        r = np.sqrt(1.0 - z * z)
        vectors = np.stack((np.zeros_like(z), r * np.cos(phi), r * np.sin(phi), z), axis=-1)
        signed_axes = np.concatenate((np.eye(4), -np.eye(4)))  # +-I, +-x, +-y, +-z
        vectors[:2000] = signed_axes[gen.integers(0, 8, (2000, 4))]
        t = gen.uniform(-4.0 * np.pi, 4.0 * np.pi, (1000, 4))
        vectors[2000:3000] = np.stack((0.0 * t, np.sin(t), 0.0 * t, np.cos(t)), axis=-1)  # planar
        vectors[3000:3500, 1] = vectors[3000:3500, 0]  # a1 = a2
        vectors[3500:4000, 3] = vectors[3500:4000, 2]  # b1 = b2
        vectors[4000:4200, 1] = -vectors[4000:4200, 0]  # a2 = -a1
        want_c, want_m, want_norms, want_res = complex_chsh_pass(vectors)
        sizes = [1, 1, 19, chsh._BLOCK - 1, chsh._BLOCK, chsh._BLOCK + 1]
        sizes.append(k - sum(sizes))
        start = 0
        for size in sizes:
            rows = slice(start, start + size)
            start += size
            p = chsh._chsh_pass(vectors[rows])
            assert p.operator.tobytes() == want_c[rows].tobytes()
            assert p.coefficients.tobytes() == want_m[rows].tobytes()
            assert p.commutator_norms.tobytes() == want_norms[rows].tobytes()
            assert np.all(np.abs(p.residuals - want_res[rows]) <= 1e-15 * np.maximum(1.0, want_res[rows]))

    def test_commutator_norms_match_spectral_oracle(self):
        rng_np = np.random.default_rng(67)
        for _ in range(200):
            sc = np_random_scenario(rng_np)
            a1, a2, b1, b2 = (o.matrix for o in sc.observables())
            want = [np.linalg.norm(x @ y - y @ x, 2) for x, y in ((a1, a2), (b1, b2))]
            assert np.allclose(commutator_norms(sc), want, rtol=0.0, atol=1e-14)


class TestBlockedIdentityCheck:
    def test_batched_bloch_vectors_are_the_child_streams(self):
        # block row k holds the Pauli vectors of trial start + k's scenario, bit for bit
        seed, start = 20260808, chsh._BLOCK - 3
        got = chsh._sphere(rng.child_uniforms(seed, 6, 8, start))
        assert got.shape == (6, 4, 4)
        for k, paulis in enumerate(got):
            sc = random_scenario(rng.child_seed(seed, start + k))
            assert paulis.tobytes() == np.array([o.pauli for o in sc.observables()]).tobytes()

    # one block, either side of a block edge, and several blocks
    @pytest.mark.parametrize("trials", [1, chsh._BLOCK - 1, chsh._BLOCK + 1, 1023, 1025])
    def test_residuals_match_per_trial_loop(self, trials):
        seed = 8675309
        loop = np.zeros(2)
        for k in range(trials):
            sc = random_scenario(rng.child_seed(seed, k))
            loop = np.maximum(loop, [square_identity_residual(sc, s) for s in (1, -1)])
        check = verify_identity_sign(trials, seed)
        assert abs(check.max_residual_plus - loop[0]) <= 1e-15
        assert abs(check.max_residual_minus - loop[1]) <= 1e-15
        want = SignCheck(trials, float(loop[0]), float(loop[1]), VIOLATION_TOL).verified_sign
        assert check.verified_sign == want == -1

    def test_default_seed_output_is_pinned(self):
        # the printed maxima of `check-identity --trials 20000` at the default seed
        check = verify_identity_sign(20000, 20260808)
        assert check.verified_sign == -1
        assert abs(check.max_residual_plus - 3.99989188491558) <= 1e-12
        assert check.max_residual_minus <= 2e-15

    @pytest.mark.parametrize("trials", [255, 256, 257, 500, 1023, 1024, 1025])
    def test_maxima_around_one_block_are_pinned(self, trials):
        # the maxima these counts gave in blocks of 1024 trials, bit for bit
        check = verify_identity_sign(trials, IDENTITY_SEED)
        assert check.max_residual_plus == 3.9978479195160923
        assert check.max_residual_minus == 1.2055916925684481e-15

    def test_result_does_not_depend_on_block_edges(self, monkeypatch):
        want = verify_identity_sign(300, 99)
        for block in (1, 7, 299):
            monkeypatch.setattr(chsh, "_BLOCK", block)
            assert verify_identity_sign(300, 99) == want

    @pytest.mark.parametrize("n", [1, 19, chsh._BLOCK - 1, chsh._BLOCK])
    def test_pass_in_a_work_buffer_is_bit_identical(self, n):
        vectors = chsh._sphere(rng.child_uniforms(5, n, 8))
        work = np.full(192 * chsh._BLOCK, np.nan)
        for fresh, in_work in zip(chsh._chsh_pass(vectors), chsh._chsh_pass(vectors, work)):
            assert in_work.tobytes() == fresh.tobytes()

    def test_each_thread_keeps_one_work_buffer(self):
        verify_identity_sign(10)
        work = chsh._THREAD.work
        assert len(work) >= 192 * chsh._BLOCK
        verify_identity_sign(1025, 99)
        assert chsh._THREAD.work is work
        seen = []
        thread = threading.Thread(target=lambda: seen.append((verify_identity_sign(1025, 99),
                                                              chsh._THREAD.work)))
        thread.start()
        thread.join()
        check, other = seen[0]
        assert other is not work and check == verify_identity_sign(1025, 99)

    def test_memory_is_bounded_at_any_trial_count(self):
        verify_identity_sign(10)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            check = verify_identity_sign(50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.verified_sign == -1
        assert peak < 1.5e6, f"peak {peak / 1e6:.2f} MB"


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

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, np.int64(-1)],
                             ids=["True", "1.0", "-1.0", "numpy-int"])
    def test_sign_must_be_an_exact_int(self, sign):
        # True and 1.0 used to run as sign +1, and -1.0 as -1
        with pytest.raises(ValueError, match=f"^sign must be \\+1 or -1, got {re.escape(repr(sign))}$"):
            square_identity_residual(optimal_scenario(), sign)

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

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 3.5, "7", True])
    def test_verify_identity_sign_seed_range(self, seed):
        # a float or str used to fail inside the mixer, and True ran as seed 1
        with pytest.raises(ValueError, match="unsigned 64-bit integer, got"):
            verify_identity_sign(trials=1, seed=seed)

    @pytest.mark.parametrize("trials", [10.0, True, "5", None])
    def test_verify_identity_sign_trials_type(self, trials):
        # 10.0 used to fail in range() and True to run as SignCheck(trials=True)
        with pytest.raises(ValueError, match=f"^trials must be an int, got {trials!r}$"):
            verify_identity_sign(trials=trials)


class TestStateIndependentBound:
    def test_compatible_a_side_never_violates(self):
        rng = np.random.default_rng(53)
        for k in range(500):
            a = random_observable(rng, "a1")
            sign = 1.0 if k % 2 == 0 else -1.0
            a2 = observable_from_bloch(tuple(sign * c for c in bloch_of(a)), "a2")
            sc = Scenario(a, a2, random_observable(rng, "b1"), random_observable(rng, "b2"))
            assert not analyze(sc).violates
            assert max_s_over_states(sc) <= 2.0 + 1e-9

    def test_compatible_b_side_never_violates(self):
        rng = np.random.default_rng(54)
        for _ in range(500):
            b = random_observable(rng, "b1")
            sc = Scenario(random_observable(rng, "a1"), random_observable(rng, "a2"), b, b)
            assert not analyze(sc).violates

    def test_optimal_scenario_violates(self):
        assert analyze(optimal_scenario()).violates


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
        sc = optimal_scenario(state=maximally_mixed())
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


class TestUncheckedEigensolve:
    """The kernel's C goes to `np.linalg.eigh` as it is, with no `linalg` check: it
    equals its adjoint bit for bit, so `extremal_eigenstate` gets the checked path's
    bits.  ||C|| is read off the commutators instead, and agrees with the checked
    eigensolver, the reference here, within CLOSED_FORM_ULPS (7 ulp seen on 3000
    random scenarios)."""

    CLOSED_FORM_ULPS = 16

    @classmethod
    def assert_closed_form(cls, got, sc, factor=1.0):
        want = factor * linalg.operator_norm(chsh_operator(sc))
        assert abs(got - want) <= cls.CLOSED_FORM_ULPS * math.ulp(want)

    @staticmethod
    def checked_extremal(sc):
        # the rule on `linalg.hermitian_eigen`'s descending order
        eig = linalg.hermitian_eigen(chsh_operator(sc))
        top, bottom = float(eig.eigenvalues[0]), float(eig.eigenvalues[-1])
        scale = max(1.0, abs(top), abs(bottom))
        col = 0 if abs(top) >= abs(bottom) - 1e-12 * scale else 3
        return pure_state(eig.eigenvectors[:, col])

    @pytest.mark.parametrize("n", [1, 19, 500, 1024])
    def test_kernel_operator_is_exactly_hermitian(self, n):
        c = chsh._chsh_pass(chsh._sphere(rng.child_uniforms(20261019, n, 8))).operator
        assert np.array_equal(0.5 * (c + c.conj().swapaxes(-2, -1)), c)

    def test_random_scenarios_match_the_checked_path(self):
        states = (None, bell_state("psi_minus"), maximally_mixed())
        for k in range(300):
            sc = random_scenario(k, states[k % 3])
            self.assert_closed_form(analyze(sc).chsh_operator_norm, sc)
            self.assert_closed_form(max_s_over_states(sc), sc, 2.0)
            assert np.array_equal(extremal_eigenstate(sc).matrix, self.checked_extremal(sc).matrix)

    def test_tied_and_untied_spectra_match_the_checked_path(self):
        # the planar optimum has the spectrum (-sqrt 2, 0, 0, sqrt 2), its ends
        # tied up to rounding, and its positive end is psi_minus; an identity
        # setting makes the spectrum asymmetric
        sc = optimal_scenario(bell_state("psi_minus"))
        vals = np.linalg.eigvalsh(chsh_operator(sc))
        assert np.allclose(vals, [-np.sqrt(2.0), 0.0, 0.0, np.sqrt(2.0)], atol=1e-14)
        assert frobenius(extremal_eigenstate(sc).matrix - sc.state.matrix) < 1e-12
        eye = Observable((1.0, 0.0, 0.0, 0.0), "a1")
        rng_np = np.random.default_rng(66)
        asymmetric = Scenario(eye, random_observable(rng_np, "a2"), random_observable(rng_np, "b1"),
                              random_observable(rng_np, "b2"))
        for case in (sc, asymmetric, all_sz_scenario()):
            assert np.array_equal(extremal_eigenstate(case).matrix, self.checked_extremal(case).matrix)
            self.assert_closed_form(max_s_over_states(case), case, 2.0)


class TestMaxSOverSettings:
    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(59)
        states = [random_density(rng) for _ in range(20)]
        states += [DensityMatrix(random_pure_density(rng, 4)) for _ in range(20)]
        for rho in states:
            assert max_s_over_settings(rho) == pytest.approx(
                kron_max_s_over_settings(rho.matrix), abs=1e-12)

    @pytest.mark.parametrize("name", ["phi_plus", "phi_minus", "psi_plus", "psi_minus"])
    def test_tsirelson_on_bell_states(self, name):
        assert abs(max_s_over_settings(bell_state(name)) - TSIRELSON) < 1e-12

    def test_maximally_mixed_gives_zero(self):
        assert max_s_over_settings(maximally_mixed()) == 0.0

    def test_bounds_the_planar_optimum(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            rho = random_density(rng)
            assert max_s_over_settings(rho) >= optimize_settings(rho).s_value - 1e-12

    def test_exceeds_the_planar_optimum_on_a_random_state(self):
        # out-of-plane correlations: this state violates |S| <= 2 only with
        # settings outside the x-z plane
        rho = random_density(np.random.default_rng(4))
        assert max_s_over_settings(rho) > 2.0 + 1e-3
        assert optimize_settings(rho).s_value < 2.0 - 0.4


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

    @pytest.mark.parametrize("sc", [
        settings_to_scenario(PlanarSettings(0.0, 0.5 * math.pi, 0.25 * math.pi, -0.25 * math.pi)),
        Scenario(*(observable_from_bloch(n, lbl) for n, lbl in zip(
            [(0, 0, 1), (1, 0, 0), (-HALF_ROOT, 0, -HALF_ROOT), (HALF_ROOT, 0, -HALF_ROOT)],
            ("a1", "a2", "b1", "b2")))),
    ], ids=["angles", "bloch"])
    def test_tsirelson_settings_are_correctly_rounded(self, sc):
        # the closed form sqrt(1 + |u||v|) gives sqrt 2 and 2 sqrt 2 correctly rounded
        rep = analyze(sc)
        assert rep.chsh_operator_norm == math.sqrt(2.0) == 1.4142135623730951
        assert rep.max_s_over_states == max_s_over_states(sc) == 2.8284271247461903
        assert rep.violates

    @pytest.mark.parametrize("settings", [(1, -1, 1, -1), (1, 1, -1, 1), (-1, "z", "x", 1), ("z", "x", 1, 1),
                                          ("z", "z", "x", "z")],
                             ids=["all-identity", "a-identity", "mixed-a", "b-identity", "commuting"])
    def test_commuting_and_identity_settings_are_exact(self, settings):
        axes = {"z": (0.0, 0.0, 0.0, 1.0), "x": (0.0, 1.0, 0.0, 0.0)}
        sc = Scenario(*(Observable(axes[c] if c in axes else (float(c), 0.0, 0.0, 0.0), lbl)
                        for c, lbl in zip(settings, ("a1", "a2", "b1", "b2"))))
        rep = analyze(sc)
        assert (rep.chsh_operator_norm, rep.max_s_over_states, rep.violates) == (1.0, 2.0, False)
        assert max_s_over_states(sc) == 2.0

    def test_closed_form_at_the_observable_tolerance_edge(self):
        # settings accepted only just within OBSERVABLE_TOL, |c|^2 = 1 +- 7e-11: the
        # closed form is off the eigensolver by up to 7e-11, and every verdict agrees
        rng_np = np.random.default_rng(20261022)
        for _ in range(1000):
            obs = []
            for lbl in ("a1", "a2", "b1", "b2"):
                scale = np.sqrt(1.0 + rng_np.choice([-7e-11, 7e-11]))
                if rng_np.random() < 0.125:
                    c = (rng_np.choice([-1.0, 1.0]) * scale, 0.0, 0.0, 0.0)
                else:
                    n = rng_np.normal(size=3)
                    c = (0.0, *(n * (scale / np.linalg.norm(n))).tolist())
                obs.append(Observable(c, lbl))
            sc = Scenario(*obs)
            rep, want = analyze(sc), linalg.operator_norm(chsh_operator(sc))
            assert abs(rep.chsh_operator_norm - want) <= 1e-10
            assert rep.violates == (2.0 * want > 2.0 + VIOLATION_TOL)

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
    @pytest.mark.parametrize("state", [np.eye(4) / 4, np.eye(2) / 2, "psi_minus"],
                             ids=["array", "qubit_array", "name"])
    def test_state_type_checked(self, state):
        # a bare matrix, of any size, or a state's name is not a DensityMatrix
        rng = np.random.default_rng(63)
        settings = [random_observable(rng, name) for name in ("a1", "a2", "b1", "b2")]
        with pytest.raises(ValueError, match="state: expected a DensityMatrix or None"):
            Scenario(*settings, state=state)

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
        eye = Observable((1.0, 0.0, 0.0, 0.0), "a")
        rng = np.random.default_rng(64)
        sc = Scenario(eye, eye, random_observable(rng, "b1"), random_observable(rng, "b2"))
        rep = analyze(sc)
        assert rep.comm_a_norm == 0.0
        assert abs(rep.max_s_over_states - 2.0) < 1e-9
        assert not rep.violates
        assert rep.identity_residual < 1e-10

    def test_mixed_identity_and_pauli(self):
        eye = Observable((1.0, 0.0, 0.0, 0.0), "a1")
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


def test_sphere_rows_are_unit_pauli_vectors():
    # the draws are written as Pauli vectors (0, n) with no unit check, so
    # |n|^2 must sit far inside BLOCH_UNIT_TOL: over 10**5 draws and at the
    # ends of [0, 1)
    below_one = np.nextafter(1.0, 0.0)
    edges = np.array([[0.0, 0.0], [below_one, below_one], [0.0, below_one], [below_one, 0.0]])
    for u in (rng.uniforms(99, 2 * 10**5).reshape(10**5, 2), edges):
        paulis = chsh._sphere(u.reshape(-1))
        assert paulis.shape == (len(u), 4)
        assert paulis[:, 0].tobytes() == np.zeros(len(u)).tobytes()  # +0.0 exactly
        norm2 = np.sum(paulis[:, 1:] ** 2, axis=1)
        assert np.max(np.abs(norm2 - 1.0)) <= 1e-15


@pytest.mark.parametrize("seed", [-5, 1 << 64, 3.5, "7", True])
def test_random_draws_reject_out_of_range_seed(seed):
    # a wrapped seed would silently reuse the stream of seed mod 2**64
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        random_scenario(seed)
