"""Deterministic local hidden-variable strategies for the CHSH game.

A strategy fixes all four local outcomes in advance, independent of what is
measured on the other side; the 16 assignments exhaust the deterministic
possibilities and their mixtures form the local polytope.  The classical
CHSH bound |S| <= 2 is a brute-force fact over these 16 points, in exact
integer arithmetic.  The strategies are one read-only (16, 4) table, columns
in `chsh.SETTING_NAMES` order; their pair products a_i b_j (`chsh.PAIR_A`,
`chsh.PAIR_B`) are another, and every S here is `chsh.chsh_sum` of them.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import linalg
from .chsh import PAIR_A, PAIR_B, chsh_sum


class Strategy(NamedTuple):
    a1: int
    a2: int
    b1: int
    b2: int


_TABLE = np.array(list(itertools.product((1, -1), repeat=4)))
_PRODUCTS = _TABLE[:, PAIR_A] * _TABLE[:, PAIR_B]
_TABLE.flags.writeable = _PRODUCTS.flags.writeable = False


def enumerate_strategies() -> list[Strategy]:
    """All 16 outcome assignments, lexicographic with +1 before -1."""
    return [Strategy(*t) for t in _TABLE.tolist()]


def strategy_s_value(st: Strategy) -> int:
    """S of the strategy's pair products a_i b_j; always -2 or +2."""
    return chsh_sum([st[i] * st[j] for i, j in zip(PAIR_A.tolist(), PAIR_B.tolist())])


def classical_max() -> int:
    """Largest S any deterministic strategy reaches: exactly 2."""
    return max(chsh_sum(_PRODUCTS.T).tolist())


def classical_min() -> int:
    return min(chsh_sum(_PRODUCTS.T).tolist())


class Mixture(linalg.Record):
    """Probability weights (`linalg.as_numbers`) over the 16 strategies, in enumeration
    order, held as a read-only copy: later writes to the caller's array do not reach them."""

    _fields = ("weights",)

    def __init__(self, weights):
        w = linalg.as_numbers(weights, "mixture weights", np.float64, (16,)).copy()
        if not np.all(w >= -1e-12):
            raise ValueError(f"mixture weights must be nonnegative, min {float(w.min())!r}")
        total = float(w.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        w.flags.writeable = False
        self.__dict__["weights"] = w


def mixture_correlations(mix: Mixture) -> tuple[float, float, float, float]:
    """(E11, E12, E21, E22) with E_ij = sum_lambda w_lambda a_i b_j, summed in
    enumeration order (a running sum: `@` or `np.sum` would regroup the terms)."""
    return tuple(np.cumsum(mix.weights[:, None] * _PRODUCTS, axis=0)[-1].tolist())


def mixture_s_value(mix: Mixture) -> float:
    return chsh_sum(mixture_correlations(mix))
