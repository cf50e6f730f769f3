"""Seeded Monte Carlo Bell runs: Born-rule outcomes per setting pair.

Reproducibility contract: every random draw comes from the counter-based
generator in `rng`, so identical configurations give bit-identical results
on any platform.  The master seed spawns one child stream per setting pair
in the fixed order a1b1, a1b2, a2b1, a2b2 (pair index 0..3).  The cell
probabilities come from `quantum.joint_distribution`, the Pauli-coordinate
form (1/4)(e0 + alpha a)^T R (e0 + beta b).  Shot j falls in the first cell
of (+,+), (+,-), (-,+), (-,-) whose CDF value exceeds u = t * 2**-53, t the
top 53 bits of stream output j.  `sample_pair` walks the stream in blocks of
`_CHUNK` outputs (`rng._blocks`, one reused buffer, no allocation per
block) and counts t < ceil(cdf_k * 2**53); scaling by 2**53 is exact, so the
differences of these counts are the cells of the per-shot lookup, bit for
bit, in memory that does not grow with shots.

When calling `sample_pair` directly with many seeds, derive them through
`rng.child_seed` rather than using consecutive integers: splitmix64 streams
from sequential raw seeds carry a faint correlation that the extra mixing
step removes (run_experiment already does this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .chsh import Scenario
from .quantum import DensityMatrix, Observable, joint_distribution

PAIR_LABELS = ("a1b1", "a1b2", "a2b1", "a2b2")
# stream outputs per `sample_pair` block: 2**15 drew 119M shots/s of thread CPU
# time against 112M/s at 2**16 (30 of 30 interleaved pairs; 2-core x86-64,
# numpy 2.4), and 2**14 and 2**17 were slower still
_CHUNK = 1 << 15


@dataclass(frozen=True)
class PairCounts:
    """2x2 outcome counts for one setting pair."""

    pp: int
    pm: int
    mp: int
    mm: int

    @property
    def total(self) -> int:
        return self.pp + self.pm + self.mp + self.mm

    def correlation_estimate(self) -> float:
        return (self.pp + self.mm - self.pm - self.mp) / self.total


@dataclass
class RunConfig:
    scenario: Scenario
    shots_per_pair: int
    seed: int

    def __post_init__(self):
        for name in ("shots_per_pair", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.shots_per_pair < 1:
            raise ValueError("shots_per_pair >= 1 required")
        rng._check_seed(self.seed)


@dataclass
class RunResult:
    """Counts and estimates of one full four-pair run.

    e_hat follows PAIR_LABELS order; s_hat = e11 + e12 + e21 - e22 and
    s_stderr = sqrt(sum_ij (1 - e_ij^2) / shots), each variance clamped
    at zero.
    """

    counts: list[PairCounts]
    e_hat: list[float]
    s_hat: float
    s_stderr: float
    seed: int
    shots_per_pair: int


def sample_pair(
    rho: DensityMatrix, a: Observable, b: Observable, shots: int, seed: int
) -> PairCounts:
    """Draw i.i.d. joint outcomes for one setting pair from stream `seed`.

    The four cell probabilities are renormalized by their float sum before
    the limits are taken, so the last CDF value is exactly 1.0; a cell with
    exact probability zero can then never be hit, because its upper limit
    equals the one before it (2**53, above every t, for trailing cells).
    """
    if shots < 1:
        raise ValueError("shots >= 1 required")
    dist = joint_distribution(rho, a, b)
    probs = np.maximum(dist.as_array(), 0.0)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    limits = np.ceil(cdf[:3] * 2.0**53).astype(np.uint64)
    below = np.zeros(3, dtype=np.int64)  # shots with t < L_k so far
    for top53 in rng._blocks(seed, shots, _CHUNK):
        top53 >>= np.uint64(11)
        below += [np.count_nonzero(top53 < lim) for lim in limits]
    return PairCounts(*np.diff(below, prepend=0, append=shots).tolist())


def run_experiment(cfg: RunConfig) -> RunResult:
    """Sample all four setting pairs and assemble estimates."""
    sc = cfg.scenario
    if sc.state is None:
        raise ValueError("scenario has no state; a Bell run needs one")
    pairs = ((sc.a1, sc.b1), (sc.a1, sc.b2), (sc.a2, sc.b1), (sc.a2, sc.b2))
    counts = [
        sample_pair(sc.state, a, b, cfg.shots_per_pair, rng.child_seed(cfg.seed, i))
        for i, (a, b) in enumerate(pairs)
    ]
    e_hat = [c.correlation_estimate() for c in counts]
    s_hat = e_hat[0] + e_hat[1] + e_hat[2] - e_hat[3]
    var = sum(max(0.0, 1.0 - e * e) / cfg.shots_per_pair for e in e_hat)
    return RunResult(
        counts=counts,
        e_hat=e_hat,
        s_hat=s_hat,
        s_stderr=float(np.sqrt(var)),
        seed=cfg.seed,
        shots_per_pair=cfg.shots_per_pair,
    )
