import json
import re
import tracemalloc

import numpy as np
import pytest

from chshlab import (
    PairCounts,
    RunConfig,
    Scenario,
    bell_state,
    joint_distribution,
    maximally_mixed,
    observable_from_bloch,
    pure_state,
    run_experiment,
    sample_pair,
    s_value,
)
from chshlab import rng, sampler
from chshlab.fileio import run_result_to_dict
from chshlab.quantum import DensityMatrix, Observable, _born_cells, pauli_correlations
from chshlab.rng import _CHUNK

from helpers import (EDGE_STATES, as_array, diagonal_state, random_density, random_pure_density,
                     random_scenario)


def optimal_scenario(state):
    inv = 1.0 / np.sqrt(2.0)
    return Scenario(
        observable_from_bloch((0, 0, 1), "a1"),
        observable_from_bloch((1, 0, 0), "a2"),
        observable_from_bloch((-inv, 0, -inv), "b1"),
        observable_from_bloch((inv, 0, -inv), "b2"),
        state=state,
    )


def inverse_cdf_counts(rho, a, b, shots, seed):
    """Reference: place every uniform of the stream by the pair's CDF."""
    probs = np.maximum(as_array(joint_distribution(rho, a, b)), 0.0)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, rng.uniforms(seed, shots), side="right")
    return PairCounts(*(int(n) for n in np.bincount(cells, minlength=4)))


class TestSamplePair:
    def test_zero_probability_cells_never_hit(self):
        sz = observable_from_bloch((0, 0, 1))
        singlet = bell_state("psi_minus")
        for seed in (0, 1, 99, 2**63):
            c = sample_pair(singlet, sz, sz, 20000, seed)
            assert c.pp == 0 and c.mm == 0
            assert c.pm + c.mp == 20000

    def test_deterministic_outcome_state(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex))
        sz = observable_from_bloch((0, 0, 1))
        c = sample_pair(rho, sz, sz, 5000, 7)
        assert c.pp == 5000 and c.total == 5000

    def test_fixed_seed_repeats(self):
        rng_np = np.random.default_rng(70)
        rho = random_density(rng_np)
        a = observable_from_bloch((1, 0, 0))
        b = observable_from_bloch((0, 0, 1))
        assert sample_pair(rho, a, b, 1234, 55) == sample_pair(rho, a, b, 1234, 55)

    def test_counts_sum_to_shots(self):
        rng_np = np.random.default_rng(71)
        for seed in range(5):
            c = sample_pair(random_density(rng_np), observable_from_bloch((0, 1, 0)),
                            observable_from_bloch((0, 0, 1)), 999, seed)
            assert c.total == 999

    def test_frequencies_track_probabilities(self):
        rng_np = np.random.default_rng(72)
        rho = random_density(rng_np)
        a = observable_from_bloch((1, 0, 0))
        b = observable_from_bloch((0, 0, 1))
        want = as_array(joint_distribution(rho, a, b))
        c = sample_pair(rho, a, b, 200000, 1729)
        got = np.array([c.pp, c.pm, c.mp, c.mm]) / 200000.0
        assert np.max(np.abs(got - want)) < 0.01

    @pytest.mark.parametrize("chunk", [1, 7, 4096, _CHUNK], ids=["1", "7", "4096", "default"])
    def test_matches_inverse_cdf_reference(self, chunk, monkeypatch):
        # the threshold counts must equal the inverse-CDF lookup of each uniform,
        # bit for bit, within one block and across block boundaries, whatever
        # the block size
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        rng_np = np.random.default_rng(75)
        sz = observable_from_bloch((0, 0, 1))
        phi = bell_state("phi_plus")  # two cells of exact probability zero
        up_up = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))  # every limit 2**53
        shot_counts = sorted({1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 7} - {0})
        for k, shots in enumerate(shot_counts):
            rho = random_density(rng_np)
            v = rng_np.normal(size=3)
            a = observable_from_bloch(v / np.linalg.norm(v))
            seed = rng.child_seed(76, k)
            for state, obs_a in ((rho, a), (phi, sz), (up_up, sz)):
                want = inverse_cdf_counts(state, obs_a, sz, shots, seed)
                assert sample_pair(state, obs_a, sz, shots, seed) == want
            assert want == PairCounts(shots, 0, 0, 0)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 3.5, True])
    def test_rejects_out_of_range_seed(self, seed):
        # seed -1 used to wrap to 2**64 - 1 and reuse that stream, 3.5 failed
        # inside the stream walk, and True ran as seed 1
        sz = observable_from_bloch((0, 0, 1))
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            sample_pair(bell_state("psi_minus"), sz, sz, 10, seed)

    def test_memory_bounded_at_large_shot_counts(self):
        # one block of the stream at a time: ~1.6 MB for 4e6 shots, where
        # materializing the shots took ~96 MB
        sz = observable_from_bloch((0, 0, 1))
        sx = observable_from_bloch((1, 0, 0))
        tracemalloc.start()
        try:
            sample_pair(bell_state("psi_minus"), sz, sx, 4_000_000, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @pytest.mark.parametrize("shots", [10.0, True])
    def test_shots_type_checked(self, shots):
        # 10.0 used to fail inside the stream walk, and True ran one shot
        sz = observable_from_bloch((0, 0, 1))
        with pytest.raises(ValueError, match=f"shots must be an int, got {shots!r}"):
            sample_pair(bell_state("psi_minus"), sz, sz, shots, 1)

    def test_requires_positive_shots(self):
        with pytest.raises(ValueError, match="shots"):
            sample_pair(bell_state("psi_minus"), observable_from_bloch((0, 0, 1)),
                        observable_from_bloch((0, 0, 1)), 0, 1)


class TestRunExperiment:
    def test_estimates_follow_counts(self):
        cfg = RunConfig(optimal_scenario(bell_state("psi_minus")), shots_per_pair=5000, seed=3)
        r = run_experiment(cfg)
        assert len(r.counts) == 4 and len(r.e_hat) == 4
        for c, e in zip(r.counts, r.e_hat):
            assert c.total == 5000
            assert e == (c.pp + c.mm - c.pm - c.mp) / 5000
            assert -1.0 <= e <= 1.0
        assert r.s_hat == r.e_hat[0] + r.e_hat[1] + r.e_hat[2] - r.e_hat[3]
        want_var = sum(max(0.0, 1.0 - e * e) / 5000 for e in r.e_hat)
        assert r.s_stderr == pytest.approx(np.sqrt(want_var), abs=0)
        assert r.seed == 3 and r.shots_per_pair == 5000

    def test_bit_identical_repeats(self):
        cfg = RunConfig(optimal_scenario(bell_state("psi_minus")), shots_per_pair=20000, seed=99)
        r1, r2 = run_experiment(cfg), run_experiment(cfg)
        assert r1 == r2
        assert json.dumps(run_result_to_dict(r1)) == json.dumps(run_result_to_dict(r2))

    def test_pairs_use_independent_substreams(self):
        # same settings everywhere, yet the four pair counts differ
        sz = observable_from_bloch((0, 0, 1))
        sx = observable_from_bloch((1, 0, 0))
        sc = Scenario(sz, sz, sx, sx, state=bell_state("psi_minus"))
        r = run_experiment(RunConfig(sc, shots_per_pair=4000, seed=12))
        assert len({(c.pp, c.pm, c.mp, c.mm) for c in r.counts[:2]}) > 1

    def test_singlet_estimate_within_five_sigma(self):
        sc = optimal_scenario(bell_state("psi_minus"))
        exact = s_value(sc)
        hits = 0
        for seed in range(30):
            r = run_experiment(RunConfig(sc, shots_per_pair=10000, seed=seed))
            if abs(r.s_hat - exact) <= 5.0 * r.s_stderr:
                hits += 1
        assert hits >= 29

    def test_maximally_mixed_hovers_near_zero(self):
        sc = optimal_scenario(maximally_mixed())
        r = run_experiment(RunConfig(sc, shots_per_pair=100000, seed=5))
        assert abs(r.s_hat) <= 5.0 * r.s_stderr

    def test_error_shrinks_with_more_shots(self):
        sc = optimal_scenario(bell_state("psi_minus"))
        exact = s_value(sc)
        errs_small, errs_large = [], []
        for seed in range(50):
            r_small = run_experiment(RunConfig(sc, shots_per_pair=10**4, seed=seed))
            r_large = run_experiment(RunConfig(sc, shots_per_pair=10**6, seed=seed))
            errs_small.append(abs(r_small.s_hat - exact))
            errs_large.append(abs(r_large.s_hat - exact))
        assert np.mean(errs_large) < np.mean(errs_small)

    def test_empirical_no_signaling(self):
        # A-side marginal frequency of setting a1 agrees across b1/b2 pairs
        rng_np = np.random.default_rng(73)
        for seed in range(10):
            sc = random_scenario(rng_np, state=random_density(rng_np))
            shots = 50000
            r = run_experiment(RunConfig(sc, shots_per_pair=shots, seed=seed))
            f1 = (r.counts[0].pp + r.counts[0].pm) / shots
            f2 = (r.counts[1].pp + r.counts[1].pm) / shots
            pooled = (f1 + f2) / 2.0
            stderr = np.sqrt(max(pooled * (1.0 - pooled), 0.0) * 2.0 / shots)
            assert abs(f1 - f2) <= 5.0 * stderr + 1e-12

    def test_requires_state(self):
        rng_np = np.random.default_rng(74)
        with pytest.raises(ValueError, match="state"):
            run_experiment(RunConfig(random_scenario(rng_np), shots_per_pair=10, seed=1))

    def test_config_validation(self):
        sc = optimal_scenario(bell_state("psi_minus"))
        with pytest.raises(ValueError, match="^shots_per_pair must be >= 1$"):
            RunConfig(sc, shots_per_pair=0, seed=1)
        with pytest.raises(ValueError, match="64-bit"):
            RunConfig(sc, shots_per_pair=10, seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            RunConfig(sc, shots_per_pair=10, seed=1 << 64)

    @pytest.mark.parametrize("field, value", [
        ("shots_per_pair", True), ("shots_per_pair", 2.5), ("seed", True), ("seed", 1.0),
    ])
    def test_config_requires_int(self, field, value):
        # the seed is type-checked once, by `rng._check_seed`, as everywhere else
        kwargs = {"shots_per_pair": 10, "seed": 1, field: value}
        want = (f"seed must be an unsigned 64-bit integer, got {value!r}" if field == "seed"
                else f"{field} must be an int, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            RunConfig(optimal_scenario(bell_state("psi_minus")), **kwargs)

    @pytest.mark.parametrize("scenario", ["x", None, bell_state("psi_minus")],
                             ids=["str", "None", "state"])
    def test_config_requires_a_scenario(self, scenario):
        # any object used to construct, and `run_experiment` then failed with
        # an AttributeError
        with pytest.raises(ValueError, match="^scenario: expected a Scenario$"):
            RunConfig(scenario, shots_per_pair=10, seed=1)

    @pytest.mark.parametrize(
        "case, seed, shots, want",
        [
            ("singlet", 42, 10000,
             [(4258, 780, 757, 4205), (4269, 720, 734, 4277),
              (4185, 709, 719, 4387), (744, 4274, 4221, 761)]),
            ("werner", 7, 5000,
             [(1954, 556, 550, 1940), (1986, 553, 532, 1929),
              (1954, 523, 555, 1968), (547, 1883, 1979, 591)]),
            ("tilted", 2**63 + 5, 3001,
             [(1099, 394, 1466, 42), (1365, 98, 900, 638),
              (1737, 198, 849, 217), (1334, 597, 966, 104)]),
        ],
    )
    def test_golden_counts(self, case, seed, shots, want):
        # pinned values, not just repeat-determinism: any change to the Born
        # probabilities or the inverse-CDF lookup shows up here
        if case == "singlet":
            sc = optimal_scenario(bell_state("psi_minus"))
        elif case == "werner":
            werner = 0.8 * bell_state("psi_minus").matrix + 0.2 * np.eye(4) / 4.0
            sc = optimal_scenario(DensityMatrix(werner))
        else:
            sc = Scenario(
                observable_from_bloch((0.6, 0, 0.8)),
                observable_from_bloch((0, 1, 0)),
                observable_from_bloch((-0.8, 0, 0.6)),
                observable_from_bloch((0, 0.6, 0.8)),
                state=pure_state(np.array([1, 1j, 2, -1]) / np.sqrt(7.0)),
            )
        r = run_experiment(RunConfig(sc, shots_per_pair=shots, seed=seed))
        assert [(c.pp, c.pm, c.mp, c.mm) for c in r.counts] == want

    @pytest.mark.parametrize(
        "case, seed, want",
        [
            ("singlet", 42,
             [(84867, 14950, 14763, 85423), (85031, 14769, 14911, 85292),
              (84931, 14498, 14616, 85958), (14738, 85321, 85191, 14753)]),
            ("phi_plus", 2**64 - 1,
             [(99871, 0, 0, 100132), (49897, 50220, 50143, 49743),
              (49683, 50128, 49808, 50384), (99865, 0, 0, 100138)]),
        ],
    )
    def test_golden_counts_across_chunks(self, case, seed, want):
        # 200003 shots span several stream blocks and end in a partial one;
        # phi_plus with a1 = b1 = sz and a2 = b2 = sx has zero Born cells
        shots = 200003
        assert shots > 3 * _CHUNK and shots % _CHUNK
        if case == "singlet":
            sc = optimal_scenario(bell_state("psi_minus"))
        else:
            sz = observable_from_bloch((0, 0, 1))
            sx = observable_from_bloch((1, 0, 0))
            sc = Scenario(sz, sx, sz, sx, state=bell_state("phi_plus"))
        r = run_experiment(RunConfig(sc, shots_per_pair=shots, seed=seed))
        assert [(c.pp, c.pm, c.mp, c.mm) for c in r.counts] == want

    def test_substream_derivation_is_documented_scheme(self):
        # child stream k of master seed must be mix64(seed + GOLDEN*(k+1))
        sc = optimal_scenario(bell_state("psi_minus"))
        r = run_experiment(RunConfig(sc, shots_per_pair=300, seed=321))
        first = sample_pair(sc.state, sc.a1, sc.b1, 300, rng.child_seed(321, 0))
        assert r.counts[0] == first


class TestStackedRun:
    """`run_experiment` builds one Born table for its four pairs and counts
    them through the same core as `sample_pair`."""

    @staticmethod
    def pairs(sc):
        return ((sc.a1, sc.b1), (sc.a1, sc.b2), (sc.a2, sc.b1), (sc.a2, sc.b2))

    @pytest.mark.parametrize("chunk", [1, 7, _CHUNK], ids=["1", "7", "default"])
    def test_run_equals_per_pair_loop(self, chunk, monkeypatch):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        rng_np = np.random.default_rng(77)
        sz = observable_from_bloch((0, 0, 1))
        sx = observable_from_bloch((1, 0, 0))
        shot_counts = sorted({1, 7, chunk - 1, chunk, chunk + 1, 3 * chunk + 5} - {0})
        for k, shots in enumerate(shot_counts):
            scenarios = [
                random_scenario(rng_np, state=random_density(rng_np)),
                random_scenario(rng_np, state=DensityMatrix(random_pure_density(rng_np, 4))),
                Scenario(sz, sx, sz, sx, state=bell_state("phi_plus")),  # zero cells
            ]
            for j, sc in enumerate(scenarios):
                seed = rng.child_seed(78, 3 * k + j)
                r = run_experiment(RunConfig(sc, shots_per_pair=shots, seed=seed))
                loop = [sample_pair(sc.state, a, b, shots, rng.child_seed(seed, i))
                        for i, (a, b) in enumerate(self.pairs(sc))]
                assert r.counts == loop

    def test_stacked_table_equals_joint_distribution(self):
        rng_np = np.random.default_rng(79)
        for _ in range(200):
            sc = random_scenario(rng_np, state=random_density(rng_np))
            a_stack = np.array([a.pauli for a, _ in self.pairs(sc)])
            b_stack = np.array([b.pauli for _, b in self.pairs(sc)])
            table = _born_cells(pauli_correlations(sc.state), a_stack, b_stack)
            want = np.array([as_array(joint_distribution(sc.state, a, b))
                             for a, b in self.pairs(sc)])
            assert table.shape == (4, 4)
            assert np.array_equal(table, want)

    def test_leading_zero_cell_and_certain_cell(self):
        # on |0>|+>: pair (-sz, sz) has cells (0, 0, 1/2, 1/2), limits (0, 0, 2**52);
        # (-sz, sx) has (0, 0, 1, 0), limits (0, 0, 2**53); (sz, sz) has
        # (1/2, 1/2, 0, 0); (sz, sx) has (1, 0, 0, 0), every limit 2**53
        sz, sx = observable_from_bloch((0, 0, 1)), observable_from_bloch((1, 0, 0))
        minus_z = observable_from_bloch((0, 0, -1))
        state = pure_state(np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2.0))
        sc = Scenario(minus_z, sz, sz, sx, state=state)
        for shots in (1, 7, 2 * _CHUNK + 3):
            r = run_experiment(RunConfig(sc, shots_per_pair=shots, seed=80))
            first, _, third, _ = r.counts
            assert first.pp == first.pm == 0 and first.total == shots
            assert r.counts[1] == PairCounts(0, 0, shots, 0)
            assert third.mp == third.mm == 0 and third.total == shots
            assert r.counts[3] == PairCounts(shots, 0, 0, 0)
            for i, (a, b) in enumerate(self.pairs(sc)):
                assert r.counts[i] == inverse_cdf_counts(state, a, b, shots, rng.child_seed(80, i))

    @pytest.mark.parametrize("setting", ["a1", "a2", "b1", "b2"])
    def test_every_pair_passes_the_distribution_checks(self, setting):
        # a Pauli vector forced past the Observable checks puts a cell at -1/2
        # in both pairs that use it; each setting covers a different two pairs
        sz = observable_from_bloch((0, 0, 1))
        bad = observable_from_bloch((0, 0, 1))
        object.__setattr__(bad, "pauli", np.array([0.0, 0.0, 0.0, 3.0]))
        settings = dict.fromkeys(("a1", "a2", "b1", "b2"), sz) | {setting: bad}
        sc = Scenario(**settings, state=bell_state("psi_minus"))
        with pytest.raises(ValueError, match="out of range"):
            run_experiment(RunConfig(sc, shots_per_pair=10, seed=1))

    @pytest.mark.parametrize("diag, a, b", EDGE_STATES)
    def test_edge_states_sample(self, diag, a, b):
        # every state DensityMatrix accepts runs, even where a Born cell leaves
        # [0, 1] by a tolerance; each pair counts as the inverse-CDF reference
        state = diagonal_state(diag)
        sa, sb = Observable(a), Observable(b)
        sc = Scenario(sa, sa, sb, sb, state=state)
        r = run_experiment(RunConfig(sc, shots_per_pair=1000, seed=7))
        for i, counts in enumerate(r.counts):
            assert counts.total == 1000
            assert counts == inverse_cdf_counts(state, sa, sb, 1000, rng.child_seed(7, i))


@pytest.mark.parametrize("n", [1, 2 * _CHUNK - 1, 2 * _CHUNK + 3, 5 * _CHUNK])
def test_counts_are_the_streams_own(n):
    # over several blocks of the step table, `_count`'s len(limits) + 1 cells
    # place the stream's own top 53 bits t by the sorted limits: cell k holds
    # L_(k-1) <= t < L_k; a repeated limit, 0 and 2**53 leave empty cells
    t = rng.raw64(11, n) >> np.uint64(11)
    for limits in ([1 << 52],
                   [1 << 51, 1 << 52, 3 << 51],
                   [0, 1 << 50, 1 << 51, 1 << 51, 3 << 51, (1 << 53) - 1, 1 << 53]):
        cells = np.searchsorted(np.array(limits, dtype=np.uint64), t, side="right")
        want = np.bincount(cells, minlength=len(limits) + 1).tolist()
        assert sampler._count(limits, n, 11) == want
