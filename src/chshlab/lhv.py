"""Deterministic local hidden-variable strategies for the CHSH game.

A strategy fixes all four local outcomes in advance, independent of what is
measured on the other side; the 16 assignments exhaust the deterministic
possibilities and their mixtures form the local polytope.  The classical
CHSH bound |S| <= 2 is a brute-force fact over these 16 points, in exact
integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg


class Strategy(NamedTuple):
    a1: int
    a2: int
    b1: int
    b2: int


def enumerate_strategies() -> list[Strategy]:
    """All 16 outcome assignments, lexicographic with +1 before -1."""
    return [Strategy(*t) for t in itertools.product((1, -1), repeat=4)]


def strategy_s_value(st: Strategy) -> int:
    """a1*b1 + a1*b2 + a2*b1 - a2*b2; always -2 or +2."""
    return st.a1 * st.b1 + st.a1 * st.b2 + st.a2 * st.b1 - st.a2 * st.b2


def classical_max() -> int:
    """Largest S any deterministic strategy reaches: exactly 2."""
    return max(strategy_s_value(st) for st in enumerate_strategies())


def classical_min() -> int:
    return min(strategy_s_value(st) for st in enumerate_strategies())


@dataclass(frozen=True, eq=False)
class Mixture:
    """Probability weights (`linalg.as_numbers`) over the 16 strategies, in enumeration
    order, held as a read-only copy: later writes to the caller's array do not reach them."""

    weights: np.ndarray

    def __post_init__(self):
        w = linalg.as_numbers(self.weights, "mixture weights", np.float64).flatten()
        if w.shape[0] != 16:
            raise ValueError(f"mixture needs 16 weights, got {w.shape[0]}")
        if not np.all(w >= -1e-12):
            raise ValueError(f"mixture weights must be nonnegative, min {float(w.min())!r}")
        total = float(w.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)  # frozen, so no later rebinding skips the checks


def mixture_correlations(mix: Mixture) -> tuple[float, float, float, float]:
    """(E11, E12, E21, E22) with E_ij = sum_lambda w_lambda a_i b_j."""
    strategies = enumerate_strategies()
    e = [0.0, 0.0, 0.0, 0.0]
    for w, st in zip(mix.weights, strategies):
        e[0] += w * st.a1 * st.b1
        e[1] += w * st.a1 * st.b2
        e[2] += w * st.a2 * st.b1
        e[3] += w * st.a2 * st.b2
    return tuple(e)


def mixture_s_value(mix: Mixture) -> float:
    e11, e12, e21, e22 = mixture_correlations(mix)
    return e11 + e12 + e21 - e22
