"""Parameter exploration: planar settings, incompatibility sweeps, optimization.

Settings live in the x-z plane: angle t means cos(t)*sz + sin(t)*sx, i.e.
the Bloch vector (sin t, 0, cos t), whose x-z components are
e(t) = (sin t, cos t).  For the named states (the Bell states, whose
correlation tensor is diagonal with entries +-1, and `maximally_mixed`) this
loses nothing of the maximum over all settings.  For a general state it can
lose a lot: `chsh.max_s_over_settings` gives the full optimum, and full
Bloch input remains available through the engine API.

Both searches are closed forms on the x-z block T of
R = `quantum.pauli_correlations`, where S = a1^T T (b1 + b2) + a2^T T (b1 - b2):

- `optimize_settings` writes T = W(alpha) diag(s1, s2) W(gamma)^T with
  W(t) = [e(t), e(t + pi/2)], so s1 >= |s2| and s1 +- s2 and alpha -+ gamma
  are one hypot and one atan2 of T's entries each; a1 = alpha,
  a2 = alpha + sign(s2) pi/2 and b1,2 = gamma +- atan2(|s2|, s1) reach
  2 sqrt(s1^2 + s2^2) (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200,
  340 (1995)).
- Each `incompatibility_sweep` row reaches Landau's ceiling
  2 sqrt(1 + sin phi) with beta1 - beta2 = +-pi/2 (Landau, Phys. Lett. A 120,
  54 (1987)); S at the supplied state is then a sinusoid A cos g + B sin g
  in the common B rotation g: one hypot per sign picks the sign, one atan2
  the rotation.

Maximizers form continuous families, most visibly on degenerate spectra (the
singlet, `maximally_mixed`).  atan2(0, 0) = 0 and ties to the +pi/2 sign
pick one canonical representative that does not depend on any LAPACK build.
A sweep is one stacked pass over Pauli vectors (0, sin t, 0, cos t) built
directly from the angles (`_planar_pauli`; sin^2 + cos^2 is within a few ulp
of 1, so `observable_from_bloch`'s unit check could never fail on them) plus
one stacked eigensolve (`chsh._Pass.eigh` over every row's C, unchecked);
`optimize_settings` takes its S as 2 <M, R> from the maximizing settings'
Pauli vectors and the R it already holds, without building a `Scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, rng
from .chsh import Scenario, _chsh_pass, _s_at, chsh_coefficients
from .quantum import DensityMatrix, Observable

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, init=False)
class PlanarSettings:
    """Four x-z plane angles (radians), each one real number (`linalg.as_numbers`),
    normalized into [0, 2*pi); frozen, so no later rebinding skips the normalization."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __init__(self, alpha1: float, alpha2: float, beta1: float, beta2: float):
        # Four floats with a finite sum pass one test; other input is checked angle by
        # angle.  t % 2pi is 2pi itself for tiny negative t; reducing twice keeps each
        # angle in [0, 2pi), so normalizing is idempotent.  Written once, to the dict:
        # a generated frozen __init__ took 2 us against 0.7 us (Python 3.11)
        if not (type(alpha1) is type(alpha2) is type(beta1) is type(beta2) is float
                and math.isfinite(alpha1 + alpha2 + beta1 + beta2)):
            for name, t in zip(self.__dataclass_fields__, (alpha1, alpha2, beta1, beta2)):
                if linalg.as_numbers(t, name, np.float64).ndim:
                    raise ValueError(f"{name} must be one number, got {t!r}")
        d = self.__dict__
        d["alpha1"] = float(alpha1) % _TWO_PI % _TWO_PI
        d["alpha2"] = float(alpha2) % _TWO_PI % _TWO_PI
        d["beta1"] = float(beta1) % _TWO_PI % _TWO_PI
        d["beta2"] = float(beta2) % _TWO_PI % _TWO_PI

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)


def settings_to_scenario(ps: PlanarSettings, state: DensityMatrix | None = None) -> Scenario:
    """Realize planar angles as observables with Pauli vectors (0, sin t, 0, cos t)."""
    obs = [Observable(c, label=lbl)
           for c, lbl in zip(_planar_pauli(ps.as_tuple()), ("a1", "a2", "b1", "b2"))]
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
    """Maximizing planar settings, with the S value reached there.

    The maximizer is exact, so `converged` is always True and `cycles`
    always 0: class constants, not fields.  Both stay only because the
    benchmark's tracer reads them; they can go when it stops.
    """

    settings: PlanarSettings
    s_value: float
    converged = True
    cycles = 0


def _planar_pauli(angles) -> np.ndarray:
    """Pauli vectors (0, sin t, 0, cos t) of x-z angles t (one float or any
    stack), on a new last axis."""
    t = np.asarray(angles, dtype=np.float64)
    c = np.zeros(t.shape + (4,))
    c[..., 1] = np.sin(t)
    c[..., 3] = np.cos(t)
    return c


def _xz_block(r: np.ndarray) -> list[list[float]]:
    """[[T_xx, T_xz], [T_zx, T_zz]] of R = `pauli_correlations` (Pauli indices 1, 3)."""
    return r[1::2, 1::2].tolist()


def optimize_settings(state: DensityMatrix, restarts: int = 8) -> OptimizeResult:
    """The x-z settings maximizing S at `state`, from the angle form of the
    2x2 SVD of T (see the module docstring).

    `restarts` does not affect the result.  It is still checked (an int
    >= 1) because the benchmark's workloads pass it; it can go when they stop.
    """
    rng._check_int("restarts", restarts, 1)
    corr = state.correlations
    (t11, t12), (t21, t22) = _xz_block(corr)
    s_sum, s_diff = math.hypot(t22 + t11, t12 - t21), math.hypot(t22 - t11, t12 + t21)
    a_minus_g = math.atan2(t12 - t21, t22 + t11)
    a_plus_g = math.atan2(t12 + t21, t22 - t11)
    alpha, gamma = 0.5 * (a_plus_g + a_minus_g), 0.5 * (a_plus_g - a_minus_g)
    s1, s2 = 0.5 * (s_sum + s_diff), 0.5 * (s_sum - s_diff)
    theta = math.atan2(abs(s2), s1)
    quarter = 0.5 * math.pi if s2 >= 0.0 else -0.5 * math.pi
    ps = PlanarSettings(alpha, alpha + quarter, gamma + theta, gamma - theta)
    return OptimizeResult(
        settings=ps,
        s_value=_s_at(chsh_coefficients(_planar_pauli(ps.as_tuple())), corr),
    )


def _row_settings(phi: float, t: list[list[float]]) -> PlanarSettings:
    """a1 = 0, a2 = phi, beta1 - beta2 = +-pi/2 and the common B rotation g
    maximizing S at T.

    With beta1,2 = g +- sign pi/4, S / sqrt 2 = A cos g + B sin g for
    u = T^T e(0), v = T^T e(phi), A = u_z + sign v_x and B = u_x - sign v_z.
    """
    (t11, t12), (t21, t22) = t
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    ux, uz = t21, t22
    vx, vz = sin_phi * t11 + cos_phi * t21, sin_phi * t12 + cos_phi * t22
    a, b = uz + vx, ux - vz
    sign = 1.0
    if math.hypot(uz - vx, ux + vz) > math.hypot(a, b):  # ties go to +pi/2
        sign, a, b = -1.0, uz - vx, ux + vz
    g = math.atan2(b, a)
    return PlanarSettings(0.0, phi, g + sign * 0.25 * math.pi, g - sign * 0.25 * math.pi)


def incompatibility_sweep(phi_steps: int, state: DensityMatrix) -> SweepResult:
    """Violation ceiling versus one party's incompatibility.

    phi sweeps [0, pi/2] in `phi_steps` points with a1 = sz fixed and
    a2 = cos(phi) sz + sin(phi) sx, so the A-side commutator norm is
    2 sin(phi).  Each row's B angles reach the state-independent ceiling
    2||C|| = 2 sqrt(1 + sin phi) and, among those, maximize S at the
    supplied state.  One `chsh._chsh_pass` over every row's Pauli vectors gives
    both local commutator norms, C for the ceiling 2||C|| and M for S = 2 <M, R>
    at the state; one `eigh` call over the stack of C gives every row's
    ceiling.
    """
    rng._check_int("phi_steps", phi_steps, 2)
    corr = state.correlations
    t = _xz_block(corr)
    phis = np.linspace(0.0, np.pi / 2.0, phi_steps).tolist()
    settings = [_row_settings(phi, t) for phi in phis]
    p = _chsh_pass(_planar_pauli([ps.as_tuple() for ps in settings]))
    # a stack of 1x16 . 16x1 products takes each row's dot as `chsh.s_value` does
    s_values = 2.0 * (p.coefficients.reshape(phi_steps, 1, 16) @ corr.reshape(16, 1))
    max_s = 2.0 * np.abs(p.eigh().eigenvalues).max(axis=-1)  # one stacked eigensolve
    rows = [
        SweepRow(phi, ps, comm_a, comm_b, m, s)
        for phi, ps, (comm_a, comm_b), m, s in zip(
            phis, settings, p.commutator_norms.tolist(), max_s.tolist(), s_values.ravel().tolist())
    ]
    best = rows[int(np.argmax(max_s))]
    return SweepResult(rows=rows, best=best, phi_steps=phi_steps)
