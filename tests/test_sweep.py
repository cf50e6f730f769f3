import math
import re

import numpy as np
import pytest

from chshlab import (
    OptimizeResult,
    PlanarSettings,
    bell_state,
    chsh_operator,
    commutator_norms,
    incompatibility_sweep,
    max_s_over_states,
    maximally_mixed,
    optimize_settings,
    s_value,
    settings_to_scenario,
)
from chshlab.chsh import _chsh_pass
from chshlab.linalg import operator_norm
from chshlab.quantum import BELL_STATE_NAMES, SIGMA_X, SIGMA_Z, DensityMatrix
from chshlab.sweep import _planar_pauli

from helpers import frobenius, random_density, random_pure_density

TSIRELSON = 2.0 * np.sqrt(2.0)


def planar_bloch(t):
    return np.array([np.sin(t), 0.0, np.cos(t)])


def horodecki_planar(rho):
    """Max S over x-z settings, 2 sqrt(s1^2 + s2^2) from the singular values
    of the x-z block of T_kl = tr(rho sigma_k x sigma_l) (Horodecki,
    Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995))."""
    t = np.array([[np.trace(rho @ np.kron(p, q)).real for q in (SIGMA_X, SIGMA_Z)]
                  for p in (SIGMA_X, SIGMA_Z)])
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2)


class TestPlanarSettings:
    def test_normalization(self):
        ps = PlanarSettings(2.0 * np.pi, -np.pi / 2.0, 5.0 * np.pi, 1.0)
        assert ps.alpha1 == 0.0
        assert ps.alpha2 == pytest.approx(1.5 * np.pi, abs=1e-15)
        assert ps.beta1 == pytest.approx(np.pi, abs=1e-14)
        assert ps.beta2 == 1.0
        # a single t % 2pi rounds these to 2pi, outside [0, 2pi)
        tiny = PlanarSettings(-1e-20, -5e-324, 0.0, 0.0)
        assert tiny.alpha1 == tiny.alpha2 == 0.0

    @pytest.mark.parametrize("bad", ["1.5", True, math.nan, math.inf, -math.inf, None],
                             ids=["str", "bool", "nan", "inf", "-inf", "None"])
    @pytest.mark.parametrize("position", range(4))
    def test_angles_must_be_finite_numbers(self, bad, position):
        # "1.5" and True used to be stored as 1.5 and 1.0, and NaN or +-inf as
        # NaN, which failed only later, in `Observable`
        angles = [0.5, 1.0, np.float32(2.0), 3]
        angles[position] = bad
        message = "planar angles must be finite real numbers (int or float)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PlanarSettings(*angles)

    def test_ints_numpy_floats_and_huge_angles_accepted(self):
        assert PlanarSettings(0.5, 1, np.float32(2.0), np.float64(3.0)).as_tuple() == (0.5, 1.0, 2.0, 3.0)
        # four finite floats whose sum overflows are still finite angles
        huge = PlanarSettings(1e308, 1e308, 1e308, 1e308)
        assert huge.as_tuple() == (1e308 % (2.0 * np.pi),) * 4

    @pytest.mark.parametrize("bad", [[0.5], np.array([0.5]), (0.5, 1.0), np.array(0.5)], ids=repr)
    def test_an_angle_is_one_number(self, bad):
        # an array among the angles is not a number, as in any other list the gate takes
        message = "planar angles must be finite real numbers (int or float)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PlanarSettings(0.5, 1.0, bad, 3.0)

    def test_settings_to_scenario_axes(self):
        sc = settings_to_scenario(PlanarSettings(0.0, 0.0, 0.0, 0.0))
        for obs in sc.observables():
            assert frobenius(obs.matrix - SIGMA_Z) < 1e-15

    def test_quarter_turn_gives_sigma_x(self):
        sc = settings_to_scenario(PlanarSettings(0.0, np.pi / 2.0, 0.0, 0.0))
        assert frobenius(sc.a2.matrix - SIGMA_X) < 1e-15
        ca, cb = commutator_norms(sc)
        assert abs(ca - 2.0) < 1e-12
        assert cb < 1e-12

    def test_equal_a_angles_forbid_violation(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            t = rng.uniform(0.0, 2.0 * np.pi)
            b1, b2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            sc = settings_to_scenario(PlanarSettings(t, t, b1, b2))
            ca, _ = commutator_norms(sc)
            assert ca < 1e-12
            assert max_s_over_states(sc) <= 2.0 + 1e-9


@pytest.fixture(scope="module")
def sweep():
    return incompatibility_sweep(19, bell_state("psi_minus"))


class TestIncompatibilitySweep:
    def test_row_count_and_grid(self, sweep):
        assert sweep.phi_steps == 19
        assert len(sweep.rows) == 19
        assert sweep.rows[0].phi == 0.0
        assert sweep.rows[-1].phi == pytest.approx(np.pi / 2.0, abs=0)

    def test_compatible_endpoint(self, sweep):
        row = sweep.rows[0]
        assert row.comm_a_norm <= 1e-12
        assert row.max_s <= 2.0 + 1e-9

    def test_tsirelson_endpoint(self, sweep):
        row = sweep.rows[-1]
        assert abs(row.comm_a_norm - 2.0) < 1e-9
        assert abs(row.max_s - TSIRELSON) < 1e-6

    def test_commutator_norm_tracks_phi(self, sweep):
        for row in sweep.rows:
            assert row.comm_a_norm == pytest.approx(2.0 * np.sin(row.phi), abs=1e-9)

    def test_identity_bound_per_row(self, sweep):
        for row in sweep.rows:
            bound = 4.0 * (1.0 + 0.25 * row.comm_a_norm * row.comm_b_norm)
            assert row.max_s**2 <= bound + 1e-8

    def test_landau_closed_form_per_row(self, sweep):
        # Landau, Phys. Lett. A 120, 54 (1987): ||C||^2 = 1 + comm_a comm_b / 4,
        # with ||[n1.sigma, n2.sigma]|| = 2 |n1 x n2|
        for row in sweep.rows:
            n = [planar_bloch(t) for t in row.settings.as_tuple()]
            comm_a = 2.0 * np.linalg.norm(np.cross(n[0], n[1]))
            comm_b = 2.0 * np.linalg.norm(np.cross(n[2], n[3]))
            assert row.max_s == pytest.approx(2.0 * np.sqrt(1.0 + 0.25 * comm_a * comm_b), abs=1e-9)

    def test_max_s_nondecreasing(self, sweep):
        values = [row.max_s for row in sweep.rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_best_row_is_the_maximum(self, sweep):
        assert sweep.best.max_s == max(row.max_s for row in sweep.rows)

    def test_s_singlet_column_is_consistent(self, sweep):
        for row in sweep.rows[::6]:
            sc = settings_to_scenario(row.settings, bell_state("psi_minus"))
            assert row.s_singlet == pytest.approx(s_value(sc), abs=0)
            assert abs(row.s_singlet) <= row.max_s + 1e-9

    def test_grid_refinement_never_loses_the_best(self):
        coarse = incompatibility_sweep(10, bell_state("psi_minus"))
        fine = incompatibility_sweep(20, bell_state("psi_minus"))
        assert fine.best.max_s >= coarse.best.max_s - 1e-12

    def test_deterministic(self):
        s1 = incompatibility_sweep(5, bell_state("psi_minus"))
        s2 = incompatibility_sweep(5, bell_state("psi_minus"))
        assert [r.max_s for r in s1.rows] == [r.max_s for r in s2.rows]
        assert [r.settings.as_tuple() for r in s1.rows] == [r.settings.as_tuple() for r in s2.rows]

    def test_golden_rows(self):
        # canonical rows: beta1 - beta2 = pi/2 reaches the ceiling, and the
        # common B rotation maximizing S at the singlet gives
        # beta1 = pi + phi/2, beta2 = pi/2 + phi/2
        want = [
            ((0.0, 0.0, 3.141592653589793, 1.5707963267948966),
             2.0, 2.0),
            ((0.0, 0.39269908169872414, 3.3379421944391554, 1.7671458676442588),
             2.3517512048387177, 2.3517512048387172),
            ((0.0, 0.7853981633974483, 3.5342917352885173, 1.9634954084936207),
             2.613125929752753, 2.613125929752753),
            ((0.0, 1.1780972450961724, 3.7306412761378795, 2.159844949342983),
             2.774079690644295, 2.774079690644295),
            ((0.0, 1.5707963267948966, 3.9269908169872414, 2.356194490192345),
             2.82842712474619, 2.8284271247461903),
        ]
        rows = incompatibility_sweep(5, bell_state("psi_minus")).rows
        assert len(rows) == len(want)
        for row, (settings, s_singlet, max_s) in zip(rows, want):
            assert row.settings.as_tuple() == pytest.approx(settings, abs=1e-12)
            assert row.s_singlet == pytest.approx(s_singlet, abs=1e-12)
            assert row.max_s == pytest.approx(max_s, abs=1e-12)

    def test_singlet_rows_reach_the_landau_ceiling(self, sweep):
        # 2 (cos phi/2 + sin phi/2) = 2 sqrt(1 + sin phi): the row's S at the
        # singlet is its ceiling (Landau, Phys. Lett. A 120, 54 (1987))
        for row in sweep.rows:
            assert abs(row.s_singlet - row.max_s) <= 1e-12
            assert abs(row.max_s - 2.0 * np.sqrt(1.0 + np.sin(row.phi))) <= 1e-12

    @pytest.mark.parametrize("steps", [2, 19, 181])
    @pytest.mark.parametrize("name", BELL_STATE_NAMES)
    def test_compatible_row_sits_on_the_classical_bound(self, name, steps):
        # at phi = 0 A's two settings commute, so S at a Bell state is exactly 2
        row = incompatibility_sweep(steps, bell_state(name)).rows[0]
        assert row.phi == 0.0 and row.comm_a_norm == 0.0
        assert row.s_singlet == 2.0

    def test_rows_maximize_s_at_a_general_state(self):
        # among settings on the ceiling (beta1 - beta2 = +-pi/2), no common B
        # rotation beats the row's S at the state
        rho = random_density(np.random.default_rng(95))
        grid = np.linspace(0.0, 2.0 * np.pi, 721)
        for row in incompatibility_sweep(7, rho).rows:
            best = max(
                s_value(settings_to_scenario(PlanarSettings(0.0, row.phi, g + d, g), rho))
                for g in grid for d in (np.pi / 2.0, -np.pi / 2.0)
            )
            assert best <= row.s_singlet + 1e-12
            assert best >= row.s_singlet - 1e-4

    @pytest.mark.parametrize("name", ["phi_plus", "phi_minus", "psi_plus", "psi_minus",
                                      "maximally_mixed", "random_mixed", "random_pure"])
    @pytest.mark.parametrize("steps", [2, 5, 19])
    def test_stacked_ceiling_matches_single_scenarios(self, name, steps):
        # the stacked commutator norms give each row exactly the per-scenario 2||C||
        rng = np.random.default_rng(steps)
        if name == "random_mixed":
            rho = random_density(rng)
        elif name == "random_pure":
            rho = DensityMatrix(random_pure_density(rng, 4))
        elif name == "maximally_mixed":
            rho = maximally_mixed()
        else:
            rho = bell_state(name)
        result = incompatibility_sweep(steps, rho)
        for row in result.rows:
            assert row.max_s == max_s_over_states(settings_to_scenario(row.settings))

    @pytest.mark.parametrize("steps", [2, 19, 181])
    def test_rows_match_the_checked_eigensolve(self, steps):
        # the stacked C equals its adjoint bit for bit (`extremal_eigenstate` hands
        # it to eigh unchecked), and each row's closed-form ceiling is within 16 ulp
        # of `linalg.operator_norm`'s, the reference (3 ulp seen)
        for rho in (bell_state("psi_minus"), bell_state("phi_plus"), maximally_mixed()):
            result = incompatibility_sweep(steps, rho)
            c = _chsh_pass(_planar_pauli([row.settings.as_tuple() for row in result.rows])).operator
            assert np.array_equal(0.5 * (c + c.conj().swapaxes(-2, -1)), c)
            for row in result.rows:
                want = 2.0 * operator_norm(chsh_operator(settings_to_scenario(row.settings)))
                assert abs(row.max_s - want) <= 16 * math.ulp(want)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="phi_steps"):
            incompatibility_sweep(1, bell_state("psi_minus"))

    @pytest.mark.parametrize("steps", [19.0, "19", True, np.int64(19), None],
                             ids=["float", "str", "bool", "numpy-int", "none"])
    def test_steps_of_another_type_rejected(self, steps):
        # 19.0 and "19" used to raise TypeError from numpy or from `<`
        with pytest.raises(ValueError, match=f"^phi_steps must be an int, got {re.escape(repr(steps))}$"):
            incompatibility_sweep(steps, bell_state("psi_minus"))

    def test_sign_ties_go_to_plus(self):
        # at I/4 both signs' hypots are 0: beta1 - beta2 = +pi/2 and g = atan2(0, 0) = 0
        for row in incompatibility_sweep(7, maximally_mixed()).rows:
            want = PlanarSettings(0.0, row.phi, 0.25 * math.pi, -0.25 * math.pi)
            assert row.settings.as_tuple() == want.as_tuple()


class TestPlanarPauli:
    """The searches and `fileio` build the Pauli vectors (0, sin t, 0, cos t)
    directly, with one formula for every shape; pinned, bit for bit, against
    np.stack((0, sin t, 0, cos t)) of the same angles."""

    @pytest.mark.parametrize("angles", [
        [0.0, -0.0, np.pi / 2.0, 2.0 * np.pi - 1e-15, -1e-300, 1e6, -1e6, 2.0 * np.pi, -4.0 * np.pi],
        (0.0, 0.7853981633974483, 3.5342917352885173, 1.9634954084936207),
        np.random.default_rng(150).uniform(-10.0, 10.0, size=(19, 4)),
        np.random.default_rng(151).uniform(-1e3, 1e3, size=(3, 5, 4)),
    ], ids=["edges", "one_scenario", "sweep_stack", "nested_stack"])
    def test_matches_bloch_settings(self, angles):
        t = np.asarray(angles)
        zero = np.zeros_like(t)
        want = np.stack((zero, np.sin(t), zero, np.cos(t)), axis=-1)
        got = _planar_pauli(angles)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included
        for s, w in zip(t.ravel().tolist(), want.reshape(-1, 4)):  # one float angle at a time
            assert _planar_pauli(s).tobytes() == w.tobytes(), s


class TestOptimizeSettings:
    def test_singlet_reaches_tsirelson(self):
        res = optimize_settings(bell_state("psi_minus"), restarts=8)
        assert res.converged
        assert abs(res.s_value - TSIRELSON) < 1e-6

    def test_matches_planar_horodecki_value(self):
        rng = np.random.default_rng(90)
        states = [DensityMatrix(random_pure_density(rng, 4)) for _ in range(10)]
        states += [random_density(rng) for _ in range(10)]
        for rho in states:
            res = optimize_settings(rho, restarts=8)
            assert res.s_value == pytest.approx(horodecki_planar(rho.matrix), abs=1e-9)

    def test_product_state_stays_classical(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex))
        res = optimize_settings(rho, restarts=4)
        assert res.s_value <= 2.0 + 1e-6

    def test_maximally_mixed_is_flat_zero(self):
        res = optimize_settings(maximally_mixed(), restarts=2)
        assert abs(res.s_value) < 1e-9

    def test_never_exceeds_ceiling_of_returned_settings(self):
        res = optimize_settings(bell_state("phi_plus"), restarts=4)
        sc = settings_to_scenario(res.settings)
        assert res.s_value <= 2.0 * operator_norm(chsh_operator(sc)) + 1e-9

    def test_deterministic(self):
        r1 = optimize_settings(bell_state("psi_minus"), restarts=3)
        r2 = optimize_settings(bell_state("psi_minus"), restarts=3)
        assert r1.s_value == r2.s_value
        assert r1.settings.as_tuple() == r2.settings.as_tuple()

    def test_singlet_settings_pinned(self):
        # canonical representative of the degenerate singlet spectrum
        # (s1 = s2 = 1): atan2(0, 0) = 0 fixes alpha + gamma
        res = optimize_settings(bell_state("psi_minus"))
        want = (np.pi / 2.0, np.pi, 7.0 * np.pi / 4.0, 5.0 * np.pi / 4.0)
        assert res.settings.as_tuple() == pytest.approx(want, abs=1e-15)

    def test_restarts_do_not_change_the_result(self):
        rho = random_density(np.random.default_rng(91))
        r1, r8 = optimize_settings(rho, restarts=1), optimize_settings(rho, restarts=8)
        assert r1.settings.as_tuple() == r8.settings.as_tuple()
        assert r1.s_value == r8.s_value
        assert (r1.converged, r1.cycles) == (r8.converged, r8.cycles) == (True, 0)

    def test_converged_and_cycles_are_constants(self):
        # the maximizer is exact: neither is a field, so neither can be set
        res = optimize_settings(bell_state("psi_minus"))
        assert res._fields == tuple(vars(res)) == ("settings", "s_value")
        assert repr(res) == f"OptimizeResult(settings={res.settings!r}, s_value={res.s_value!r})"
        with pytest.raises(TypeError):
            OptimizeResult(res.settings, res.s_value, converged=False)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            optimize_settings(bell_state("psi_minus"), restarts=0)
