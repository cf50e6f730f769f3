import re

import numpy as np
import pytest

from chshlab import (RunConfig, bell_state, incompatibility_sweep, observable_from_bloch,
                     optimize_settings, rng, sample_pair, verify_identity_sign)
from chshlab.chsh import random_scenario
from chshlab.rng import _CHUNK

MASK = (1 << 64) - 1
WINDOW = 1 << 16  # windows below, at and across multiples of this size


def reference_stream(seed, n):
    """Direct transcription of the splitmix64 recurrence, scalar arithmetic."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_known_outputs_seed_zero():
    # frozen from the reference recurrence above
    assert reference_stream(0, 3) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert [int(v) for v in rng.raw64(0, 3)] == reference_stream(0, 3)


@pytest.mark.parametrize(
    "seed", [0, 1, 12345, MASK, 1 << 63, 0xDEADBEEFCAFEF00D]
)
def test_vectorized_matches_scalar_reference(seed):
    want = reference_stream(seed, 200)
    got = [int(v) for v in rng.raw64(seed, 200)]
    assert got == want
    assert [rng.mix64((seed + (k + 1) * rng.GOLDEN) & MASK) for k in range(200)] == want


def test_uniforms_range_and_determinism():
    u = rng.uniforms(987654321, 100000)
    assert u.shape == (100000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, rng.uniforms(987654321, 100000))
    assert not np.array_equal(u, rng.uniforms(987654322, 100000))
    # sane first moment for a uniform stream
    assert abs(u.mean() - 0.5) < 0.01


def test_uniforms_match_scalar_path():
    seed = 5150
    u = rng.uniforms(seed, 16)
    want = [(v >> 11) * 2.0**-53 for v in reference_stream(seed, 16)]
    assert u.tolist() == want


def test_child_seed_distinct_and_deterministic():
    children = [rng.child_seed(77, k) for k in range(64)]
    assert len(set(children)) == 64
    assert children == [rng.child_seed(77, k) for k in range(64)]
    assert all(0 <= c <= MASK for c in children)
    with pytest.raises(ValueError):
        rng.child_seed(1, -1)


@pytest.mark.parametrize("seed", [-1, MASK + 1 + 5])
def test_child_seed_rejects_out_of_range_master(seed):
    # wrapping would alias child_seed(-1, k) onto child_seed(2**64 - 1, k) and
    # child_seed(2**64 + 5, k) onto child_seed(5, k)
    with pytest.raises(ValueError, match="unsigned 64-bit integer, got"):
        rng.child_seed(seed, 0)


@pytest.mark.parametrize("seed", [0, MASK])
def test_child_seeds_are_the_master_stream(seed):
    # child_seed(seed, k) = mix64(seed + (k + 1) GOLDEN) is output k + 1 of the stream
    raw = rng.raw64(seed, 1000)
    assert [int(v) for v in raw] == [rng.child_seed(seed, k) for k in range(1000)]


@pytest.mark.parametrize("seed", [0, MASK])
@pytest.mark.parametrize("start, count", [(0, 300), (997, 6)])
def test_child_uniforms_are_the_child_streams(seed, start, count):
    got = rng.child_uniforms(seed, count, 8, start)
    want = [rng.uniforms(rng.child_seed(seed, start + k), 8) for k in range(count)]
    assert got.shape == (count, 8)
    assert np.array_equal(got, np.array(want))


def test_child_uniforms_checks_its_arguments():
    assert rng.child_uniforms(3, 0, 8).shape == (0, 8)
    assert rng.child_uniforms(3, 2, 0).shape == (2, 0)
    with pytest.raises(ValueError, match="n must be"):
        rng.child_uniforms(3, 2, -1)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        rng.child_uniforms(MASK + 1, 2, 8)
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        rng.child_uniforms(3, -2, 8)


@pytest.mark.parametrize("seed", [3.5, 7.0, "7", True, False, np.int64(7), np.uint64(7), None])
def test_seed_of_another_type_rejected(seed):
    # a float or str used to fail deep inside the mixer with a TypeError, and
    # a bool ran as seed 0 or 1
    message = re.escape(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    for draw in (lambda: rng.raw64(seed, 2), lambda: rng.uniforms(seed, 2),
                 lambda: rng.child_seed(seed, 0), lambda: rng.child_uniforms(seed, 2, 8),
                 lambda: next(rng._blocks(seed, 2))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            draw()


SINGLET, SZ = bell_state("psi_minus"), observable_from_bloch((0, 0, 1))
# every count and index of the package, each checked by one `rng._check_int`
# call: test id -> (argument name, least value, call with that argument)
COUNTS = {
    "raw64-n": ("n", 0, lambda v: rng.raw64(1, v)),
    "raw64-start": ("start", 0, lambda v: rng.raw64(1, 2, v)),
    "uniforms-n": ("n", 0, lambda v: rng.uniforms(1, v)),
    "child_seed-index": ("stream index", 0, lambda v: rng.child_seed(1, v)),
    "child_uniforms-count": ("count", 0, lambda v: rng.child_uniforms(1, v, 8)),
    "child_uniforms-n": ("n", 0, lambda v: rng.child_uniforms(1, 2, v)),
    "child_uniforms-start": ("start", 0, lambda v: rng.child_uniforms(1, 2, 8, v)),
    "verify_identity_sign-trials": ("trials", 1, lambda v: verify_identity_sign(v)),
    "sample_pair-shots": ("shots", 1, lambda v: sample_pair(SINGLET, SZ, SZ, v, 1)),
    "RunConfig-shots_per_pair": ("shots_per_pair", 1,
                                 lambda v: RunConfig(random_scenario(5, SINGLET), v, 1)),
    "incompatibility_sweep-phi_steps": ("phi_steps", 2, lambda v: incompatibility_sweep(v, SINGLET)),
    "optimize_settings-restarts": ("restarts", 1, lambda v: optimize_settings(SINGLET, v)),
}


@pytest.mark.parametrize("value", [2.0, 1.5, "2", True, False, np.int64(2), None],
                         ids=["2.0", "1.5", "str", "True", "False", "numpy-int", "None"])
@pytest.mark.parametrize("name, draw", [(name, draw) for name, _, draw in COUNTS.values()],
                         ids=list(COUNTS))
def test_count_or_index_of_another_type_rejected(name, draw, value):
    # a float used to draw (uniforms(1, 2.0) gave 2 values) or fail inside `&`
    # with a TypeError, and a bool ran as 0 or 1; restarts had no int check
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an int, got {value!r}')}$"):
        draw(value)


@pytest.mark.parametrize("name, least, draw", list(COUNTS.values()), ids=list(COUNTS))
def test_count_or_index_below_its_least_rejected(name, least, draw):
    # one message form for all: four sites used to say "X >= k required"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {least}')}$"):
        draw(least - 1)


def test_counter_prefix_property():
    # a counter-based stream is length-independent: shorter draws are prefixes
    long = rng.uniforms(31337, 1000)
    assert np.array_equal(rng.uniforms(31337, 10), long[:10])
    assert int(rng.raw64(31337, 1)[0]) == int(rng.raw64(31337, 500)[0])


def test_empty_and_invalid_counts():
    assert rng.raw64(9, 0).shape == (0,)
    with pytest.raises(ValueError):
        rng.raw64(9, -1)


@pytest.mark.parametrize(
    "start, n",
    [(0, WINDOW), (1, WINDOW - 1), (WINDOW - 1, 2), (WINDOW, WINDOW + 1), (2 * WINDOW + 3, 5)],
)
def test_counter_offset_is_a_window_of_the_stream(start, n):
    assert np.array_equal(rng.raw64(2718, n, start), rng.raw64(2718, start + n)[start:])


def test_counter_offset_wraps_mod_2_64():
    start = (1 << 64) - 2
    want = [rng.mix64((77 + k * rng.GOLDEN) & MASK) for k in range(start + 1, start + 5)]
    assert [int(v) for v in rng.raw64(77, 4, start)] == want


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_rejected(seed):
    # wrapping would make seed -1 an alias of seed 2**64 - 1
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        rng.raw64(seed, 1)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        rng.uniforms(seed, 1)


@pytest.mark.parametrize("seed", [0, MASK])
@pytest.mark.parametrize("size", [1, 7, _CHUNK])
@pytest.mark.parametrize("extra", ["1", "size-1", "size", "3size+5"])
def test_blocks_concatenate_to_the_stream(seed, size, extra, monkeypatch):
    # the walker reuses one buffer, so each block is copied before the next
    monkeypatch.setattr(rng, "_CHUNK", size)
    n = {"1": 1, "size-1": size - 1, "size": size, "3size+5": 3 * size + 5}[extra]
    blocks = [b.copy() for b in rng._blocks(seed, n)]
    assert [len(b) for b in blocks] == [min(size, n - k) for k in range(0, n, size)]
    got = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.uint64)
    assert got.dtype == np.uint64
    assert np.array_equal(got, rng.raw64(seed, n))


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_blocks_reject_out_of_range_seed(seed):
    with pytest.raises(ValueError, match="unsigned 64-bit") as walker:
        next(rng._blocks(seed, 10))
    with pytest.raises(ValueError, match="unsigned 64-bit") as direct:
        rng.raw64(seed, 10)
    assert str(walker.value) == str(direct.value)


def test_negative_start_rejected():
    with pytest.raises(ValueError, match="start"):
        rng.raw64(9, 1, -1)


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_step_table_walk_at_the_chunk_edges(n):
    # one block of _CHUNK steps comes from the import-time table
    assert rng._STEP_TABLE.size == _CHUNK
    seed = 0x5EED
    got = np.concatenate([b.copy() for b in rng._blocks(seed, n)])
    assert np.array_equal(got, rng.raw64(seed, n))


def test_step_table_is_read_only_and_unchanged_by_walks():
    table = rng._STEP_TABLE
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[1] = 0
    for block in rng._blocks(3, 2 * _CHUNK + 1):
        block[:] = 0  # a caller may overwrite each block it is given
    assert np.array_equal(table, rng._steps(_CHUNK))
