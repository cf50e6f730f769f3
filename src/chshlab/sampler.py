"""Seeded Monte Carlo Bell runs: Born-rule outcomes per setting pair.

Reproducibility contract: every random draw comes from the counter-based
generator in `rng`, so identical configurations give bit-identical results
on any platform.  The master seed spawns one child stream per setting pair
in `chsh.PAIR_LABELS` order (settings `chsh.PAIR_A`, `chsh.PAIR_B`), and
s_hat is `chsh.chsh_sum` of the four estimates.  A run builds
one Born table: the state's R (`DensityMatrix.correlations`, computed once
when the state is built, which `chsh.s_value` reads too), then the four
pairs' cells (1/4)(e0 + alpha a)^T R (e0 + beta b) in one stacked product
(`quantum._born_cells`, whose one-pair case is `joint_distribution`)
and their CDF limits L_k = ceil(cdf_k * 2**53) in one array op.  Shot j
falls in the first cell of (+,+), (+,-), (-,+), (-,-) whose CDF value
exceeds u = t * 2**-53, t the top 53 bits of stream output j.  Each stream
is walked in blocks of `rng._CHUNK` outputs (`rng._blocks`, one reused
buffer, no allocation per block, its counter steps sliced from the table
that `rng` builds at import), and the raw outputs are counted
below L_k * 2**11, which holds exactly when t < L_k; L_k = 2**53 counts
every output.  Scaling by a power of two is exact, so the differences of
these counts are the cells of the per-shot lookup, bit for bit, in memory
that does not grow with shots; `_count` takes any number of limits.
`sample_pair` is the one-pair case of the same table and counting.

When calling `sample_pair` directly with many seeds, derive them through
`rng.child_seed` rather than using consecutive integers: splitmix64 streams
from sequential raw seeds carry a faint correlation that the extra mixing
step removes (run_experiment already does this).
"""

from __future__ import annotations

import numpy as np

from . import rng
from .chsh import PAIR_A, PAIR_B, PAIR_LABELS, Scenario, chsh_sum
from .linalg import ResultRecord, ValueRecord
from .quantum import DensityMatrix, JointDistribution, Observable, _born_cells

_EVERY = 1 << 53  # a CDF limit that every 53-bit t lies below


class PairCounts(ValueRecord):
    """2x2 outcome counts for one setting pair."""

    _fields = ("pp", "pm", "mp", "mm")

    def __init__(self, pp: int, pm: int, mp: int, mm: int):
        self.__dict__.update(pp=pp, pm=pm, mp=mp, mm=mm)

    @property
    def total(self) -> int:
        return self.pp + self.pm + self.mp + self.mm

    def correlation_estimate(self) -> float:
        return (self.pp + self.mm - self.pm - self.mp) / self.total


class RunConfig(ValueRecord):
    _fields = ("scenario", "shots_per_pair", "seed")

    def __init__(self, scenario: Scenario, shots_per_pair: int, seed: int):
        if not isinstance(scenario, Scenario):
            raise ValueError("scenario: expected a Scenario")
        rng._check_int("shots_per_pair", shots_per_pair, 1)
        rng._check_seed(seed)
        self.__dict__.update(scenario=scenario, shots_per_pair=shots_per_pair, seed=seed)


class RunResult(ResultRecord):
    """Counts and estimates of one full four-pair run, fields in document order.

    counts and e_hat follow PAIR_LABELS order; s_hat = `chsh_sum(e_hat)` and
    s_stderr = sqrt(sum_ij (1 - e_ij^2) / shots), each variance clamped
    at zero.
    """

    _fields = ("seed", "shots_per_pair", "counts", "e_hat", "s_hat", "s_stderr")

    def __init__(self, seed: int, shots_per_pair: int, counts: list[PairCounts], e_hat: list[float],
                 s_hat: float, s_stderr: float):
        self.__dict__.update(seed=seed, shots_per_pair=shots_per_pair, counts=counts, e_hat=e_hat,
                             s_hat=s_hat, s_stderr=s_stderr)


def sample_pair(
    rho: DensityMatrix, a: Observable, b: Observable, shots: int, seed: int
) -> PairCounts:
    """Draw i.i.d. joint outcomes for one setting pair from stream `seed`:
    the one-pair case of `run_experiment`'s table and counting."""
    rng._check_int("shots", shots, 1)
    cells = _born_cells(rho.correlations, a.pauli[None], b.pauli[None])
    return _sample(cells, shots, [seed])[0]


def _sample(cells: np.ndarray, shots: int, seeds) -> list[PairCounts]:
    """Counts of `shots` draws from each row of the Born table `cells`
    (shape (P, 4), `JointDistribution` order), row i from stream seeds[i].

    Each row passes `JointDistribution`'s range and sum checks, then is
    renormalized by its float sum before the limits are taken, so the last
    CDF value is exactly 1.0; a cell with exact probability zero can then
    never be hit, because its upper limit equals the one before it (2**53,
    above every t, for trailing cells).
    """
    for row in cells.tolist():
        JointDistribution(*row)
    cdf = np.cumsum(np.maximum(cells, 0.0), axis=1)
    cdf /= cdf[:, -1:]
    limits = np.ceil(cdf[:, :-1] * 2.0**53).astype(np.uint64).tolist()
    return [PairCounts(*_count(lims, shots, seed)) for lims, seed in zip(limits, seeds)]


def _count(limits: list[int], shots: int, seed: int) -> list[int]:
    """The len(limits) + 1 cells of `shots` outputs of stream `seed` against
    CDF limits L_k = ceil(cdf_k * 2**53) (non-decreasing): cell k holds the
    outputs with L_(k-1) <= t < L_k, from L_(-1) = 0 to L_(len) = 2**53.

    t = raw >> 11 lies below L exactly when raw < L * 2**11, so the raw
    outputs are compared as they come; L = 2**53 counts every output and
    L = 0 none, and a limit repeated by a zero cell is counted once.
    """
    below = dict.fromkeys(limits, 0)  # outputs with t < L so far, per distinct L
    if _EVERY in below:
        below[_EVERY] = shots
    scan = [(lim, np.uint64(lim << 11)) for lim in below if 0 < lim < _EVERY]
    for raw in rng._blocks(seed, shots):
        for lim, bound in scan:
            below[lim] += int(np.count_nonzero(raw < bound))
    edges = [0, *(below[lim] for lim in limits), shots]
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


def run_experiment(cfg: RunConfig) -> RunResult:
    """Sample all four setting pairs from one Born table and assemble estimates."""
    sc = cfg.scenario
    if sc.state is None:
        raise ValueError("scenario has no state; a Bell run needs one")
    v = np.array([o.pauli for o in sc.observables()])
    seeds = [rng.child_seed(cfg.seed, i) for i in range(len(PAIR_LABELS))]
    cells = _born_cells(sc.state.correlations, v.take(PAIR_A, 0), v.take(PAIR_B, 0))
    counts = _sample(cells, cfg.shots_per_pair, seeds)
    e_hat = [c.correlation_estimate() for c in counts]
    var = sum(max(0.0, 1.0 - e * e) / cfg.shots_per_pair for e in e_hat)
    return RunResult(seed=cfg.seed, shots_per_pair=cfg.shots_per_pair, counts=counts, e_hat=e_hat,
                     s_hat=chsh_sum(e_hat), s_stderr=float(np.sqrt(var)))
