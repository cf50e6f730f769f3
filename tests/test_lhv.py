import numpy as np
import pytest

from chshlab import (
    Mixture,
    Observable,
    Scenario,
    Strategy,
    analyze,
    classical_max,
    classical_min,
    enumerate_strategies,
    mixture_correlations,
    mixture_s_value,
    s_value,
    strategy_s_value,
)
from chshlab import rng
from chshlab.quantum import STATE_NAMES, named_state

from helpers import random_density


class TestEnumeration:
    def test_sixteen_distinct_strategies(self):
        strategies = enumerate_strategies()
        assert len(strategies) == 16
        assert len(set(strategies)) == 16
        assert all(v in (1, -1) for st in strategies for v in st)

    def test_lexicographic_order(self):
        strategies = enumerate_strategies()
        assert strategies[0] == Strategy(1, 1, 1, 1)
        assert strategies[-1] == Strategy(-1, -1, -1, -1)
        # +1 sorts before -1 in enumeration order
        keys = [tuple(0 if v == 1 else 1 for v in st) for st in strategies]
        assert keys == sorted(keys)


class TestStrategyValues:
    def test_hand_computed_cases(self):
        assert strategy_s_value(Strategy(1, 1, 1, 1)) == 2
        # 1 + 1 - 1 - (-1) = 2
        assert strategy_s_value(Strategy(1, -1, 1, 1)) == 2
        assert strategy_s_value(Strategy(1, 1, -1, 1)) == -2

    def test_exhaustive_values_are_plus_minus_two(self):
        values = {strategy_s_value(st) for st in enumerate_strategies()}
        assert values == {-2, 2}

    def test_classical_bounds_exact(self):
        assert classical_max() == 2
        assert isinstance(classical_max(), int)
        assert classical_min() == -2


class TestMixtures:
    def test_point_mass(self):
        w = np.zeros(16)
        w[0] = 1.0
        e = mixture_correlations(Mixture(w))
        assert e == (1.0, 1.0, 1.0, 1.0)
        assert mixture_s_value(Mixture(w)) == 2.0

    def test_holds_a_read_only_copy(self):
        # a later write to the caller's array used to change the validated weights
        w = np.zeros(16)
        w[0] = 1.0
        m = Mixture(w)
        w[:] = 0.5
        assert mixture_s_value(m) == 2.0
        assert not m.weights.flags.writeable

    def test_uniform_mixture_uncorrelated(self):
        m = Mixture(np.full(16, 1.0 / 16.0))
        assert np.allclose(mixture_correlations(m), 0.0, atol=1e-15)
        assert abs(mixture_s_value(m)) < 1e-15

    def test_random_mixtures_obey_classical_bound(self):
        for k in range(1000):
            w = rng.uniforms(rng.child_seed(2024, k), 16)
            m = Mixture(w / w.sum())
            e = mixture_correlations(m)
            assert all(-1.0 <= x <= 1.0 for x in e)
            assert abs(mixture_s_value(m)) <= 2.0 + 1e-10

    def test_weight_validation(self):
        with pytest.raises(ValueError, match=r"^mixture weights must have shape \(16,\), got \(4,\)$"):
            Mixture(np.ones(4) / 4.0)
        with pytest.raises(ValueError, match="nonnegative, min -0.5$"):
            Mixture(np.array([-0.5] + [0.1] * 15))
        with pytest.raises(ValueError, match="sum to 1"):
            Mixture(np.full(16, 1.0))
        for typed in (["0.0625"] * 16, [True] + [False] * 15, [float("nan")] * 16):
            with pytest.raises(ValueError, match="mixture weights must be finite real numbers"):
                Mixture(typed)


@pytest.mark.parametrize("st", enumerate_strategies(), ids=lambda st: "".join("+-"[v < 0] for v in st))
def test_a_strategy_is_a_scenario_of_compatible_settings(st):
    # outcome v of a setting is the observable v I; on every state E_ij = a_i b_j tr(rho),
    # so the CHSH kernel's S is the strategy's, times tr(rho) as R holds it (R[0, 0]):
    # exactly 1.0 at every named state; both sides commute, so no state violates
    settings = [Observable((v, 0, 0, 0)) for v in st]
    for name in STATE_NAMES:
        assert s_value(Scenario(*settings, state=named_state(name))) == strategy_s_value(st)
    state = random_density(np.random.default_rng(31))  # R[0, 0] is 1 - 2**-52 here
    assert s_value(Scenario(*settings, state=state)) == strategy_s_value(st) * state.correlations[0, 0]
    report = analyze(Scenario(*settings))
    assert (report.comm_a_norm, report.comm_b_norm) == (0.0, 0.0)
    assert report.violates is False


def unrolled_correlations(mix):
    """The loop `mixture_correlations` replaced, kept as the reference for its bits."""
    e = [0.0, 0.0, 0.0, 0.0]
    for w, st in zip(mix.weights, enumerate_strategies()):
        e[0] += w * st.a1 * st.b1
        e[1] += w * st.a1 * st.b2
        e[2] += w * st.a2 * st.b1
        e[3] += w * st.a2 * st.b2
    return e


def test_mixture_correlations_keep_the_unrolled_loops_bits():
    # a running sum in enumeration order; `@` or `np.sum` would regroup the 16 terms
    for k in range(2000):
        w = rng.uniforms(rng.child_seed(31, k), 16)
        if k % 3 == 0:
            w[k % 16] = 0.0  # a zero term
        if k % 5 == 0:
            w = w**6  # weights over many binades
        m = Mixture(w / w.sum())
        want = unrolled_correlations(m)
        got = mixture_correlations(m)
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [float(x).hex() for x in want]
        assert mixture_s_value(m).hex() == float(want[0] + want[1] + want[2] - want[3]).hex()
