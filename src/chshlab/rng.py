"""Deterministic counter-based random numbers (splitmix64).

The generator is pinned down by its integer recurrence so that a given seed
produces the same stream on every platform, independent of any library RNG.
Output k (k = 1, 2, ...) of the stream with seed s is

    out_k = mix64((s + k * GOLDEN) mod 2**64)

with GOLDEN = 0x9E3779B97F4A7C15 and the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2**64).  Uniform doubles keep the top 53 bits:
u = (out >> 11) * 2**-53, hence u in [0, 1).

Being a pure counter scheme, the stream needs no sequential state,
vectorizes, and any block of it can be generated on its own (`raw64` with a
counter offset); `uniforms` is the bulk path and `mix64` the scalar reference.
Child streams come from `child_seed`, which feeds the master seed and the
stream index back through the same mixer: child_seed(s, k) is exactly output
k+1 of the master stream, raw64(s, n)[k].  So `child_uniforms` draws many
child streams in one array pass, the seeds from `raw64` and their counters
through the same in-place mixer (`_mix`).  `_blocks` walks a long stream
through one reused buffer, block by block, allocating nothing per block.
The counter steps k * GOLDEN (`_steps`), the counter offset (`_offset`) and
the mixer (`_mix`) each exist once and serve all three paths, as does the
block size `_CHUNK`.  A walk's set-up is paid once per process: the mixer's
numpy scalar operands and the read-only steps of one block (`_STEP_TABLE`,
k < _CHUNK = 2**15, 256 KB) are built at import, and `_blocks` slices it.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer of a 64-bit integer (scalar reference path)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _check_int(name: str, value, least: int) -> None:
    """A count or index, not a seed: an int (no bool or numpy integer), then >= least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_seed(seed: int) -> None:
    """A seed is an int in [0, 2**64); a bool, float, str or numpy integer is not."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def child_seed(seed: int, index: int) -> int:
    """Seed of independent child stream `index` (0-based) of a master seed."""
    _check_seed(seed)
    _check_int("stream index", index, 0)
    return mix64(seed + GOLDEN * (index + 1))


def _as_signed(k: int) -> np.int64:
    # two's-complement image of an unsigned 64-bit constant
    return np.int64(k - (1 << 64)) if k >= (1 << 63) else np.int64(k)


def _steps(n: int) -> np.ndarray:
    """k * GOLDEN mod 2**64 for k = 0 .. n-1, as int64."""
    z = np.arange(n, dtype=np.int64)
    z *= _as_signed(GOLDEN)
    return z


# stream outputs per `_blocks` block: counting them against CDF limits
# (`sampler`), 2**15 drew 262M shots/s of thread CPU time against 213M/s at
# 2**16 and 206M/s at 2**14 (best in 30 of 30 interleaved rounds, 1e6 shots
# per pair; 2-core x86-64, numpy 2.4)
_CHUNK = 1 << 15
_STEP_TABLE = _steps(_CHUNK)  # the steps of one block
_STEP_TABLE.flags.writeable = False
# the mixer's operands as numpy scalars, so no call of `_mix` converts them
_SHIFT_30, _SHIFT_27, _SHIFT_31, _SHIFT_11 = (np.uint64(k) for k in (30, 27, 31, 11))
_MUL_A, _MUL_B = _as_signed(_MIX_A), _as_signed(_MIX_B)


def _offset(seed: int, start: int) -> np.int64:
    """Counter of output start+1 of stream `seed`, (seed + (start+1) GOLDEN) mod 2**64."""
    return _as_signed((seed + (start + 1) * GOLDEN) & MASK64)


def _mix(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer of every entry of the int64 array `z`, in place.

    Wrapping 64-bit multiplies run on `z` itself; the low 64 bits agree with
    unsigned arithmetic under two's complement, which sidesteps a slow
    unsigned-multiply path in some numpy builds.  The three xor-shifts go
    through `scratch`, a uint64 array of `z`'s shape (a new one if None).
    Returns the uint64 view.
    """
    u = z.view(np.uint64)
    if scratch is None:
        scratch = np.empty_like(u)
    u ^= np.right_shift(u, _SHIFT_30, out=scratch)
    z *= _MUL_A
    u ^= np.right_shift(u, _SHIFT_27, out=scratch)
    z *= _MUL_B
    u ^= np.right_shift(u, _SHIFT_31, out=scratch)
    return u


def _unit(u: np.ndarray) -> np.ndarray:
    """Top 53 bits of uint64 outputs as doubles in [0, 1)."""
    return (u >> _SHIFT_11).view(np.int64).astype(np.float64) * 2.0**-53


def raw64(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Outputs start+1 .. start+n of the stream as a uint64 array.

    A seed outside [0, 2**64) raises ValueError, here and in `child_seed`,
    instead of wrapping onto another seed's stream.
    """
    _check_seed(seed)
    _check_int("n", n, 0)
    _check_int("start", start, 0)
    z = _steps(n)
    z += _offset(seed, start)
    return _mix(z)


def _blocks(seed: int, n: int):
    """Outputs 1 .. n of stream `seed` in consecutive blocks of _CHUNK.

    Concatenated, the blocks equal raw64(seed, n).  Every block is a view of
    one buffer that the next block overwrites, so a caller consumes (or may
    modify) each block before asking for the next.
    """
    _check_seed(seed)
    steps = _STEP_TABLE[:min(_CHUNK, n)]
    buf, scratch = np.empty_like(steps), np.empty_like(steps, dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        z = np.add(steps[:m], _offset(seed, start), out=buf[:m])
        yield _mix(z, scratch[:m])


def uniforms(seed: int, n: int) -> np.ndarray:
    """n doubles in [0, 1), bit-reproducible for a given seed."""
    return _unit(raw64(seed, n))


def child_uniforms(seed: int, count: int, n: int, start: int = 0) -> np.ndarray:
    """(count, n) array whose row k is `uniforms(child_seed(seed, start + k), n)`.

    The child seeds are outputs start+1 .. start+count of the master stream
    (`raw64`), and every row's counters are mixed in one pass.
    """
    _check_int("n", n, 0)
    _check_int("count", count, 0)
    steps = _steps(n)
    steps += _offset(0, 0)  # counters of outputs 1 .. n at seed 0
    return _unit(_mix(raw64(seed, count, start).view(np.int64)[:, None] + steps))
