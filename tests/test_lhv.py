import numpy as np
import pytest

from chshlab import (
    Mixture,
    Strategy,
    classical_max,
    classical_min,
    enumerate_strategies,
    mixture_correlations,
    mixture_s_value,
    strategy_s_value,
)
from chshlab import rng


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
        with pytest.raises(ValueError, match="16 weights"):
            Mixture(np.ones(4) / 4.0)
        with pytest.raises(ValueError, match="nonnegative, min -0.5$"):
            Mixture(np.array([-0.5] + [0.1] * 15))
        with pytest.raises(ValueError, match="sum to 1"):
            Mixture(np.full(16, 1.0))
        for typed in (["0.0625"] * 16, [True] + [False] * 15, [float("nan")] * 16):
            with pytest.raises(ValueError, match="mixture weights must be finite real numbers"):
                Mixture(typed)
