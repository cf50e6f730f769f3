"""CHSH operator analysis: violation decided spectrally.

For qubit observables a1, a2 (party A) and b1, b2 (party B), all with
outcomes +1/-1, the CHSH operator on the joint space is

    C = (1/2) * [ a1 x (b1 + b2)  +  a2 x (b1 - b2) ]

The CHSH combination S = E11 + E12 + E21 - E22 satisfies S = 2 tr(rho C),
so sup |S| over all states equals 2 ||C||, and |S| <= 2 holds for every
state exactly when C^2 <= I.  Squaring C collapses to

    C^2 = I + sign * (1/4) [a1, a2] x [b1, b2]

with a fixed sign that this module refuses to assume: `verify_identity_sign`
establishes it by brute force over random scenarios, and `IDENTITY_SIGN`
records the result.  The identity makes the package's central fact
mechanical: if either local commutator vanishes, C^2 = I, hence no state
violates |S| <= 2 - and both commutators live on a single party's side.

Every operator-level number comes from one stacked kernel over N scenarios
(`_chsh_pass`), whose only input is the settings' real Pauli 4-vectors.  C is
built in Pauli coordinates, C = sum M_mu,nu sigma_mu x sigma_nu with M =
`chsh_coefficients`, as its real image R(C) = [[Re C, -Im C], [Im C, Re C]],
against the images of `quantum.PAULI_PRODUCTS`.  The local commutators are
cross products: [x, y] = 2i cross(x', y') . sigma for the Bloch parts x', y',
so ||[a1, a2]|| = 2|u| for u = cross(a1', a2') (and v likewise for B), and the
commutator term (1/4)[a1, a2] x [b1, b2] has the Pauli coefficients
-(0, u)(0, v)^T, contracted against the same images.  The sign of that term
is still established numerically, by squaring R(C).  One pass returns R(C),
M, both commutator norms and the identity residuals of both signs; complex C
is read off R(C) only where `_Pass.eigh` diagonalizes it, with no `linalg`
check, which is for matrices from outside: C is Hermitian by construction.
`analyze`, `max_s_over_states`, `extremal_eigenstate`, `chsh_operator`,
`commutator_norms` and `square_identity_residual` run it with N = 1,
`sweep.incompatibility_sweep` once over all its rows, and
`verify_identity_sign` on blocks of _BLOCK = 256 random trials, its largest
arrays in one buffer per thread, drawn for a whole block at once from the
child streams of its seed; `_sphere` writes those generated
settings, and `random_scenario`'s, as Pauli vectors into one array, unchecked.
The CHSH facts live here and the other modules read them: `SETTING_NAMES`, the
pairs `PAIR_LABELS` (`PAIR_A`, `PAIR_B` index the settings each pair measures)
and the signs of S in `chsh_sum` (`_SUM_DIFF` factors them inside M).
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from . import rng
from .linalg import Record, ResultRecord
from .quantum import PAULI_PRODUCTS, DensityMatrix, Observable, correlation_tensor, pure_state

SETTING_NAMES = ("a1", "a2", "b1", "b2")
# the settings (indices into SETTING_NAMES) that each setting pair measures
PAIR_A, PAIR_B = np.array([0, 0, 1, 1], dtype=np.intp), np.array([2, 3, 2, 3], dtype=np.intp)
PAIR_A.flags.writeable = PAIR_B.flags.writeable = False
PAIR_LABELS = tuple(SETTING_NAMES[i] + SETTING_NAMES[j] for i, j in zip(PAIR_A, PAIR_B))
VIOLATION_TOL = 1e-9
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])
_SIGNS = (1, -1)  # column order of the identity residuals
_SIGN_COLUMN = np.array(_SIGNS, dtype=float)[:, None, None]
# on Pauli 4-vectors, x[_NEXT] * y[_PREV] - x[_PREV] * y[_NEXT] = (0, cross(x', y'))
_NEXT, _PREV = np.array([0, 2, 3, 1], dtype=np.intp), np.array([0, 3, 1, 2], dtype=np.intp)
_NEXT.flags.writeable = _PREV.flags.writeable = False
# Real images R(Z) = [[Re Z, -Im Z], [Im Z, Re Z]] of the Pauli products, row
# 4 mu + nu, flattened: R is real-linear and R(XY) = R(X) R(Y), so M.reshape(16)
# @ _IMAGES is R(C).  _HALVES and _EYE_HALF hold the left halves [[Re Z], [Im Z]]
# of the products' images and of I's.
_IMAGES = np.block([[PAULI_PRODUCTS.real, -PAULI_PRODUCTS.imag],
                    [PAULI_PRODUCTS.imag, PAULI_PRODUCTS.real]]).reshape(16, 64)
_HALVES = _IMAGES.reshape(16, 8, 8)[..., :4].reshape(16, 32)
_EYE_HALF = np.eye(8, 4).reshape(32)
# trials per array pass of verify_identity_sign (a 500-trial command took 1.16x the
# time at 1024, 1.02x at 512 and 1.04x at 128; 2-core x86-64, numpy 2.4).  R(C) and
# the three largest temporaries, 192 floats per trial, live in one buffer per thread
# (_THREAD.work): freed after every block, glibc's malloc could trim those 384 KiB
# off the top of its heap and take 50-170 minor faults per command to get them back.
_BLOCK = 256
_THREAD = threading.local()

# Sign of the commutator term in C^2 = I + sign * (1/4)[a1,a2] x [b1,b2].
# Fixed by verify_identity_sign() (see also the check-identity CLI command),
# never hardcoded from a printed convention: the +1 variant fails for this
# operator ordering.
IDENTITY_SIGN = -1
IDENTITY_TRIALS, IDENTITY_SEED = 1000, 20260808  # defaults of check-identity too


class Scenario(Record):
    """Four measurement settings plus an optional shared state.

    The realized full-space operators are a_i x I and I x b_j, so the two
    parties' observables commute across sides identically; only the setting
    and state types need checking (every `DensityMatrix` is two-qubit), and
    the record is immutable, like its parts, so no later rebinding skips that.
    """

    _fields = (*SETTING_NAMES, "state")

    def __init__(self, a1: Observable, a2: Observable, b1: Observable, b2: Observable,
                 state: DensityMatrix | None = None):
        for name, obs in zip(SETTING_NAMES, (a1, a2, b1, b2)):
            if not isinstance(obs, Observable):
                raise ValueError(f"{name}: expected an Observable")
        if state is not None and not isinstance(state, DensityMatrix):
            raise ValueError("state: expected a DensityMatrix or None")
        self.__dict__.update(a1=a1, a2=a2, b1=b1, b2=b2, state=state)

    def observables(self) -> tuple[Observable, Observable, Observable, Observable]:
        return self.a1, self.a2, self.b1, self.b2


def chsh_sum(e):
    """S = E11 + E12 + E21 - E22 of four pair values in PAIR_LABELS order, numbers or rows."""
    return e[0] + e[1] + e[2] - e[3]


def chsh_coefficients(vectors) -> np.ndarray:
    """M = (1/2)[a1 (b1 + b2)^T + a2 (b1 - b2)^T] for coordinate rows a1, a2, b1, b2
    (stacked over any leading axes); on Pauli 4-vectors C = sum M_mu,nu
    sigma_mu x sigma_nu and S = 2 <M, R>."""
    v = np.asarray(vectors)
    return 0.5 * v[..., :2, :].swapaxes(-2, -1) @ (_SUM_DIFF @ v[..., 2:, :])


class _Pass(NamedTuple):
    """One stacked evaluation of N scenarios."""

    image: np.ndarray  # (N, 8, 8) real image R(C) = [[Re C, -Im C], [Im C, Re C]]
    coefficients: np.ndarray  # (N, 4, 4) M, with S = 2 <M, R>
    commutator_norms: np.ndarray  # (N, 2) spectral norms of [a1, a2] and [b1, b2]
    residuals: np.ndarray  # (N, 2) identity residuals, signs in _SIGNS order

    @property
    def operator(self) -> np.ndarray:
        """(N, 4, 4) complex C = Re C + i Im C, from the left blocks of R(C)."""
        c = np.empty((len(self.image), 4, 4), dtype=np.complex128)
        c.real, c.imag = self.image[:, :4, :4], self.image[:, 4:, :4]
        return c

    def eigh(self):
        """`np.linalg.eigh` of each C as it is, eigenvalues ascending: Re C sums symmetric
        images and Im C antisymmetric ones in a fixed order, so C == C^H bit for bit."""
        return np.linalg.eigh(self.operator)


def _chsh_pass(vectors: np.ndarray, work: np.ndarray | None = None) -> _Pass:
    """R(C), M, both local commutator norms and both identity residuals of N
    scenarios, from the (N, 4, 4) Pauli vectors of a1, a2, b1, b2.

    The cross products w = (0, u), (0, v) of (a1, a2) and (b1, b2) give the
    norms 2|u|, 2|v| and the commutator term's coefficients -w_A w_B^T.  Only
    left halves are formed: R(C) R(C)[:, :4] - I is that of C^2 - I, and
    ||Z||_F^2 is the sum of squares of Z's left half [[Re Z], [Im Z]].  R(C)
    and the three largest temporaries are new arrays, or the first 192 N floats of `work`.

    No numpy Python wrapper runs here, as fixed cost is most of an N = 1 pass:
    `_NEXT`/`_PREV` are intp arrays (a list index is converted on every call) used
    as plain indices, not via `ndarray.take` (4x as long on 256-trial blocks), and
    the norms are `np.linalg.norm`'s sqrt(add.reduce(w * w)) for real w, unwrapped.
    """
    n = len(vectors)
    image, neg_term, square, diff = (None,) * 4 if work is None else (
        work[:64 * n].reshape(n, 64), work[64 * n:96 * n].reshape(n, 32),
        work[96 * n:128 * n].reshape(n, 8, 4), work[128 * n:192 * n].reshape(2, n, 32))
    m = chsh_coefficients(vectors)
    x, y = vectors[..., _NEXT], vectors[..., _PREV]
    w = x[:, 0::2] * y[:, 1::2] - y[:, 0::2] * x[:, 1::2]  # (a1, b1) cross (a2, b2)
    image = np.matmul(m.reshape(n, 16), _IMAGES, out=image).reshape(n, 8, 8)
    neg_term = np.matmul((w[:, 0, :, None] * w[:, 1, None, :]).reshape(n, 16), _HALVES, out=neg_term)
    square = np.matmul(image, image[..., :4], out=square).reshape(n, 32)
    square -= _EYE_HALF
    diff = np.multiply(_SIGN_COLUMN, neg_term, out=diff)  # (2, N, 32), signs in _SIGNS order
    diff += square
    residuals = np.sqrt(np.einsum("snk,snk->ns", diff, diff))
    return _Pass(image, m, 2.0 * np.sqrt(np.add.reduce(w * w, axis=-1)), residuals)


def _scenario_pass(sc: Scenario) -> _Pass:
    """The N = 1 pass over one scenario's settings."""
    return _chsh_pass(np.array([[o.pauli for o in sc.observables()]]))


def chsh_operator(sc: Scenario) -> np.ndarray:
    """C = (1/2)[a1 x (b1 + b2) + a2 x (b1 - b2)], a Hermitian 4x4 matrix."""
    return _scenario_pass(sc).operator[0]


def square_identity_residual(sc: Scenario, sign: int) -> float:
    """Frobenius distance between C^2 and I + sign*(1/4)[a1,a2] x [b1,b2].

    Evaluating both signs tells the caller which convention actually holds;
    when a1 = a2 or b1 = b2 the commutator term vanishes and the two signs
    agree.
    """
    if type(sign) is not int or sign not in _SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return float(_scenario_pass(sc).residuals[0, _SIGNS.index(sign)])


def commutator_norms(sc: Scenario) -> tuple[float, float]:
    """Spectral norms of the two local commutators [a1, a2] and [b1, b2].

    Ranges over [0, 2] for +1/-1 valued observables; 0 means the pair is
    jointly measurable.
    """
    return tuple(_scenario_pass(sc).commutator_norms[0].tolist())


def s_value(sc: Scenario) -> float:
    """S = E11 + E12 + E21 - E22 = 2 <M, R> at the scenario's state."""
    if sc.state is None:
        raise ValueError("scenario has no state; s_value needs one")
    m = chsh_coefficients([obs.pauli for obs in sc.observables()])
    return _s_at(m, sc.state.correlations)


def _s_at(m: np.ndarray, r: np.ndarray) -> float:
    """S = 2 <M, R> for coefficients M and a state's correlations R."""
    return 2.0 * float(np.vdot(m, r))


def max_s_over_states(sc: Scenario) -> float:
    """sup |S| over all states: 2 ||C||, attained on an extremal eigenstate."""
    return 2.0 * float(np.abs(_scenario_pass(sc).eigh().eigenvalues).max())


def max_s_over_settings(state: DensityMatrix) -> float:
    """sup |S| over all settings at `state`, the dual of 2||C||: 2 sqrt(m1 + m2)
    for the two largest eigenvalues m1, m2 of T^T T, T = `correlation_tensor`
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  m1, m2
    are the squares of T's two largest singular values."""
    s = np.linalg.svd(correlation_tensor(state), compute_uv=False)
    return 2.0 * float(np.hypot(s[0], s[1]))


def extremal_eigenstate(sc: Scenario) -> DensityMatrix:
    """Eigenstate of C with the largest |eigenvalue|.

    For traceless settings the spectrum of C is symmetric, so the two ends
    tie up to rounding; the positive branch (the last of `eigh`'s ascending
    columns) wins unless the negative one dominates beyond the rounding scale.
    """
    vals, vecs = _scenario_pass(sc).eigh()
    bottom, top = float(vals[0, 0]), float(vals[0, -1])
    scale = max(1.0, abs(top), abs(bottom))
    col = -1 if abs(top) >= abs(bottom) - 1e-12 * scale else 0
    return pure_state(vecs[0, :, col])


class Report(ResultRecord):
    """Spectral summary of one scenario."""

    _fields = ("s_value", "max_s_over_states", "chsh_operator_norm", "comm_a_norm", "comm_b_norm",
               "identity_residual", "identity_sign", "violates")

    def __init__(self, s_value: float | None, max_s_over_states: float, chsh_operator_norm: float,
                 comm_a_norm: float, comm_b_norm: float, identity_residual: float,
                 identity_sign: int, violates: bool):
        self.__dict__.update(s_value=s_value, max_s_over_states=max_s_over_states,
                             chsh_operator_norm=chsh_operator_norm, comm_a_norm=comm_a_norm,
                             comm_b_norm=comm_b_norm, identity_residual=identity_residual,
                             identity_sign=identity_sign, violates=violates)


def analyze(sc: Scenario) -> Report:
    """Full report: S (if a state is present), 2||C||, local commutator
    norms, the C^2 identity residual at the verified sign, and the
    violation verdict max_s > 2 + 1e-9."""
    p = _scenario_pass(sc)
    nrm = float(np.abs(p.eigh().eigenvalues).max())
    comm_a, comm_b = p.commutator_norms[0].tolist()
    max_s = 2.0 * nrm
    s = None if sc.state is None else _s_at(p.coefficients[0], sc.state.correlations)
    return Report(s_value=s, max_s_over_states=max_s, chsh_operator_norm=nrm,
                  comm_a_norm=comm_a, comm_b_norm=comm_b,
                  identity_residual=float(p.residuals[0, _SIGNS.index(IDENTITY_SIGN)]),
                  identity_sign=IDENTITY_SIGN, violates=bool(max_s > 2.0 + VIOLATION_TOL))


def _sphere(u: np.ndarray) -> np.ndarray:
    """Uniforms (..., 2n) -> the Pauli vectors (0, n), shape (..., n, 4), of n unit
    vectors uniform on the sphere.  |n|^2 = r^2 (cos^2 + sin^2) + z^2 is 1 to a
    few ulp, so the points are written directly, with no unit check."""
    out = np.empty((*u.shape[:-1], u.shape[-1] // 2, 4))
    out[..., 0] = 0.0
    out[..., 3] = z = 2.0 * u[..., 0::2] - 1.0
    phi = 2.0 * np.pi * u[..., 1::2]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    np.multiply(r, np.cos(phi), out=out[..., 1])
    np.multiply(r, np.sin(phi), out=out[..., 2])
    return out


def random_scenario(seed: int, state: DensityMatrix | None = None) -> Scenario:
    """Scenario with four independent uniformly random settings: the `_sphere`
    rows of `seed`'s first 8 uniforms, as `verify_identity_sign` draws them."""
    paulis = _sphere(rng.uniforms(seed, 8))
    return Scenario(*(Observable(tuple(c), label=lbl) for c, lbl in zip(paulis.tolist(), SETTING_NAMES)),
                    state=state)


class SignCheck(ResultRecord):
    """Outcome of the randomized C^2 identity verification."""

    _fields = ("trials", "max_residual_plus", "max_residual_minus", "tolerance")

    def __init__(self, trials: int, max_residual_plus: float, max_residual_minus: float,
                 tolerance: float):
        self.__dict__.update(trials=trials, max_residual_plus=max_residual_plus,
                             max_residual_minus=max_residual_minus, tolerance=tolerance)

    @property
    def plus_ok(self) -> bool:
        return self.max_residual_plus <= self.tolerance

    @property
    def minus_ok(self) -> bool:
        return self.max_residual_minus <= self.tolerance

    @property
    def verified_sign(self) -> int | None:
        """The unique holding sign, or None (neither, or degenerate tie)."""
        if self.plus_ok and not self.minus_ok:
            return 1
        if self.minus_ok and not self.plus_ok:
            return -1
        return None


def verify_identity_sign(trials: int = IDENTITY_TRIALS, seed: int = IDENTITY_SEED) -> SignCheck:
    """Brute-force the sign of the C^2 identity over random scenarios.

    Trial k is `random_scenario(rng.child_seed(seed, k))` for an int `trials`
    >= 1 and an unsigned 64-bit `seed` (else ValueError).  The trials run
    _BLOCK at a time, each block one `_chsh_pass` in `_THREAD.work`: `rng.child_uniforms`
    draws the settings of all its child streams at once and `_sphere` writes their
    Pauli vectors.  Records the maximum residual of each sign against
    VIOLATION_TOL; the maxima do not depend on where the blocks split.
    """
    rng._check_int("trials", trials, 1)
    if len(work := getattr(_THREAD, "work", ())) < 192 * _BLOCK:
        work = _THREAD.work = np.empty(192 * _BLOCK)
    worst = np.zeros(len(_SIGNS))
    for start in range(0, trials, _BLOCK):
        count = min(_BLOCK, trials - start)
        paulis = _sphere(rng.child_uniforms(seed, count, 8, start))
        worst = np.maximum(worst, _chsh_pass(paulis, work).residuals.max(axis=0))
    return SignCheck(trials=trials, max_residual_plus=float(worst[0]),
                     max_residual_minus=float(worst[1]), tolerance=VIOLATION_TOL)
