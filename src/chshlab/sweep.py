"""Parameter exploration: angle grids, incompatibility sweeps, optimization.

Settings live in the x-z plane: angle t means cos(t)*sz + sin(t)*sx, i.e.
the Bloch vector (sin t, 0, cos t).  For two-qubit CHSH with the states used
here this loses nothing of the maximum and keeps searches four-dimensional;
full Bloch input remains available through the engine API.

The optimizer is derivative-free coordinate ascent: per coordinate a coarse
periodic scan brackets the best region and a golden-section search refines
it.  All restart points derive from fixed seeds, so results are
deterministic.

Both search objectives use the Pauli-coordinate kernel: with a = (sin t, cos t)
on x-z Bloch components and M = `chsh.chsh_coefficients`, S = 2 <M, R> on the
x-z block of R = `quantum.pauli_correlations` and C = sum_kl M_kl sigma_k x sigma_l.
Maximizers form continuous families (a row's ceiling depends on beta1 - beta2
only), so reported settings and s_singlet are one maximizer, not the unique
one; reported values are recomputed through the validated `chsh` path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .chsh import Scenario, chsh_coefficients, commutator_norms, max_s_over_states, s_value
from .quantum import PAULI_PRODUCTS, DensityMatrix, observable_from_bloch, pauli_correlations

_TWO_PI = 2.0 * np.pi
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 8
_MAX_CYCLES = 200

# fixed stream seeds for restart generation (documented; not user-tunable,
# so identical calls give identical optima)
_OPTIMIZER_SEED = 0x0C0A5CE27
_SWEEP_SEED = 0x51EE9B0A7

# x-z block of the Pauli-product basis (real symmetric), flattened for one matmul
_XZ = (1, 3)
_BASIS_XZ = PAULI_PRODUCTS[np.ix_(_XZ, _XZ)].real.reshape(4, 16)


@dataclass
class PlanarSettings:
    """Four x-z plane angles (radians), normalized into [0, 2*pi)."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        # t % 2pi rounds to 2pi itself for tiny negative t; reducing twice
        # keeps every angle in [0, 2pi), so normalizing is idempotent
        self.alpha1 = float(self.alpha1) % _TWO_PI % _TWO_PI
        self.alpha2 = float(self.alpha2) % _TWO_PI % _TWO_PI
        self.beta1 = float(self.beta1) % _TWO_PI % _TWO_PI
        self.beta2 = float(self.beta2) % _TWO_PI % _TWO_PI

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)


def settings_to_scenario(ps: PlanarSettings, state: DensityMatrix | None = None) -> Scenario:
    """Realize planar angles as Bloch observables (sin t, 0, cos t)."""
    obs = [
        observable_from_bloch((np.sin(t), 0.0, np.cos(t)), label=lbl)
        for t, lbl in zip(ps.as_tuple(), ("a1", "a2", "b1", "b2"))
    ]
    return Scenario(*obs, state=state)


@dataclass
class SweepRow:
    phi: float
    settings: PlanarSettings
    comm_a_norm: float
    comm_b_norm: float
    max_s: float
    s_singlet: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    best: SweepRow
    phi_steps: int


@dataclass
class OptimizeResult:
    """Best planar settings found, with the S value reached there.

    `converged` is False when the cycle cap hit before the per-cycle
    improvement fell under tolerance; the result is then best-so-far.
    """

    settings: PlanarSettings
    s_value: float
    converged: bool
    cycles: int


def _golden_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = f(c)
    fd = f(d)
    while (hi - lo) > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _line_max(f, x0: float, xtol: float) -> tuple[float, float]:
    # periodic objective: coarse scan over one period, then refine around
    # the best sample (the max is interior to a one-step bracket)
    step = _TWO_PI / _SCAN_POINTS
    xs = x0 + step * np.arange(_SCAN_POINTS)
    vals = [f(x) for x in xs]
    k = int(np.argmax(vals))
    xg, vg = _golden_max(f, xs[k] - step, xs[k] + step, xtol)
    if vals[k] >= vg:
        return float(xs[k]), float(vals[k])
    return float(xg), float(vg)


def _coordinate_ascent(f, start, xtol: float, vtol: float, max_cycles: int):
    """Cycle golden-section line maximizations over every coordinate in order."""
    x = np.array(start, dtype=float)
    best = f(x)
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        before = best
        for i in range(len(x)):
            xi = x.copy()

            def g(t, _xi=xi, _i=i):
                _xi[_i] = t
                return f(_xi)

            t, v = _line_max(g, x[i], xtol)
            if v > best:
                best = v
                x[i] = t
        if best - before < vtol:
            return x, best, True, cycles
    return x, best, False, cycles


def _planar_coefficients(angles) -> np.ndarray:
    """M = (1/2)[a1 (b1 + b2)^T + a2 (b1 - b2)^T] on x-z Bloch components."""
    return chsh_coefficients(np.stack((np.sin(angles), np.cos(angles)), axis=1))


def _better(s: float, tup, best_s: float | None, best_tup) -> bool:
    if best_s is None or s > best_s:
        return True
    return s == best_s and tup < best_tup


def optimize_settings(
    state: DensityMatrix, restarts: int = 8, tol: float = 1e-10
) -> OptimizeResult:
    """Coordinate-ascent search for the settings maximizing S at `state`.

    Runs `restarts` independent ascents from seed-derived starting angles
    and keeps the best final value; exact ties break toward the
    lexicographically smallest normalized angle tuple.
    """
    if restarts < 1:
        raise ValueError("restarts >= 1 required")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    t_xz = pauli_correlations(state)[np.ix_(_XZ, _XZ)]  # checks dim 4

    def objective(angles):
        return 2.0 * float(np.vdot(_planar_coefficients(angles), t_xz))

    best_s: float | None = None
    best_tup = None
    all_converged = True
    worst_cycles = 0
    for k in range(restarts):
        start = _TWO_PI * rng.uniforms(rng.child_seed(_OPTIMIZER_SEED, k), 4)
        x, s, ok, cycles = _coordinate_ascent(
            objective, start, xtol=1e-8, vtol=tol, max_cycles=_MAX_CYCLES
        )
        all_converged = all_converged and ok
        worst_cycles = max(worst_cycles, cycles)
        tup = PlanarSettings(*x).as_tuple()
        if _better(s, tup, best_s, best_tup):
            best_s, best_tup = s, tup
    ps = PlanarSettings(*best_tup)
    return OptimizeResult(
        settings=ps,
        s_value=s_value(settings_to_scenario(ps, state)),
        converged=all_converged,
        cycles=worst_cycles,
    )


def incompatibility_sweep(phi_steps: int, state: DensityMatrix) -> SweepResult:
    """Violation ceiling versus one party's incompatibility.

    phi sweeps [0, pi/2] in `phi_steps` points with a1 = sz fixed and
    a2 = cos(phi) sz + sin(phi) sx, so the A-side commutator norm is
    2 sin(phi).  Per row the B-side angles are optimized to maximize the
    state-independent ceiling 2||C||; the row records both local commutator
    norms, that ceiling, and S at the supplied state.
    """
    if phi_steps < 2:
        raise ValueError("phi_steps >= 2 required")
    if state.dim != 4:
        raise ValueError("incompatibility_sweep needs a two-party state (dim 4)")
    rows: list[SweepRow] = []
    for row_idx, phi in enumerate(np.linspace(0.0, np.pi / 2.0, phi_steps)):
        def objective(angles, _phi=phi):
            m = _planar_coefficients((0.0, _phi, angles[0], angles[1]))
            w = np.linalg.eigvalsh((m.ravel() @ _BASIS_XZ).reshape(4, 4))
            return 2.0 * float(max(-w[0], w[-1]))  # eigvalsh sorts ascending

        starts = [
            (phi / 2.0 + np.pi / 4.0, phi / 2.0 - np.pi / 4.0),
            (phi / 2.0 - np.pi / 4.0, phi / 2.0 + np.pi / 4.0),
            tuple(_TWO_PI * rng.uniforms(rng.child_seed(_SWEEP_SEED, row_idx), 2)),
        ]
        best_v: float | None = None
        best_beta = None
        for start in starts:
            x, v, _, _ = _coordinate_ascent(
                objective, start, xtol=1e-6, vtol=1e-12, max_cycles=60
            )
            tup = (float(x[0]) % _TWO_PI, float(x[1]) % _TWO_PI)
            if _better(v, tup, best_v, best_beta):
                best_v, best_beta = v, tup
        ps = PlanarSettings(0.0, phi, best_beta[0], best_beta[1])
        sc = settings_to_scenario(ps, state)
        comm_a, comm_b = commutator_norms(sc)
        rows.append(
            SweepRow(
                phi=float(phi),
                settings=ps,
                comm_a_norm=comm_a,
                comm_b_norm=comm_b,
                max_s=max_s_over_states(sc),
                s_singlet=s_value(sc),
            )
        )
    best = rows[int(np.argmax([r.max_s for r in rows]))]
    return SweepResult(rows=rows, best=best, phi_steps=phi_steps)
