import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from citecopy import (
    CopyChainConfig,
    InsufficientStatisticsError,
    InvalidTallyError,
    MisprintTally,
    corrected_read_fraction,
    estimator_roundtrip,
    simulate_copy_chain,
)
from citecopy import copychain
from citecopy.copychain import trial_seeds

from chain_moments import Z, expected_tally, joint_probs, misprint_probs, pooled_moments


def reference_forest(config):
    """Reference: parents and corruption flags of a chain, citation by
    citation from the chain's own (3, N) block of PCG64 uniforms (read or
    copy, which earlier citation, corrupted)."""
    rng = np.random.default_rng(config.seed)
    reads, picks, corrupts = rng.random((3, config.n_citations)).tolist()
    parent = [
        -1 if i == 0 or u < config.read_prob else math.floor(v * i)
        for i, (u, v) in enumerate(zip(reads, picks))
    ]
    return parent, [c < config.misprint_prob for c in corrupts]


def loop_variants(parent, corrupt):
    """Reference: resolve variants citation by citation, in index order."""
    variants = []
    next_variant = 1
    for p, c in zip(parent, corrupt):
        if c:
            variants.append(next_variant)
            next_variant += 1
        else:
            variants.append(variants[p] if p >= 0 else 0)
    return variants


class TestSimulateCopyChain:
    def test_everyone_reads_nobody_corrupts(self):
        out = simulate_copy_chain(CopyChainConfig(500, 1.0, 0.0, 1))
        assert out.tally.distinct == 0
        assert out.tally.total == 0
        assert out.tally.citations == 500
        assert set(out.variants) == {0}

    def test_readers_never_copy_misprints(self):
        # with read_prob=1 every misprint is freshly introduced
        out = simulate_copy_chain(CopyChainConfig(100, 1.0, 0.5, 2))
        assert out.tally.distinct == out.tally.total
        assert all(size == 1 for size in np.bincount(out.variants)[1:])

    def test_deterministic(self):
        cfg = CopyChainConfig(2000, 0.3, 0.02, 123)
        assert simulate_copy_chain(cfg) == simulate_copy_chain(cfg)

    def test_different_seed_differs(self):
        a = simulate_copy_chain(CopyChainConfig(2000, 0.3, 0.02, 123))
        b = simulate_copy_chain(CopyChainConfig(2000, 0.3, 0.02, 124))
        assert not np.array_equal(a.variants, b.variants)
        assert a != b
        with pytest.raises(TypeError):
            hash(a)  # like its variants array, an outcome is unhashable

    def test_tally_conservation(self):
        for seed in range(10):
            out = simulate_copy_chain(CopyChainConfig(1000, 0.4, 0.03, seed))
            t = out.tally
            assert t.citations == len(out.variants) == 1000
            sizes = np.bincount(out.variants)[1:]
            assert t.distinct == len(sizes)
            assert t.total == sum(sizes)
            assert t.total == sum(1 for v in out.variants if v > 0)

    def test_parents_lie_below_their_child(self):
        # over many chains, the reference's citation i copies every index in
        # [0, i) and no other, and citation 0 always reads; the library
        # resolves each of these chains as the reference does
        n = 30
        seen = [set() for _ in range(n)]
        for sd in trial_seeds(11, 3000):
            config = CopyChainConfig(n, 0.1, 0.2, int(sd))
            parent, corrupt = reference_forest(config)
            assert simulate_copy_chain(config).variants.tolist() == loop_variants(parent, corrupt)
            for i, p in enumerate(parent):
                if p >= 0:
                    seen[i].add(p)
        assert seen == [set(range(i)) for i in range(n)]

    def test_pointer_jumping_matches_loop(self):
        # pins the RNG stream, the parent law and the resolution at once
        cases = [
            (1, 0.5, 0.5), (50, 0.0, 0.05), (500, 0.22, 0.0105),
            (2000, 0.0, 0.001), (300, 0.5, 0.9), (40, 1.0, 0.3), (40, 0.3, 0.0),
        ]
        for n, r, m in cases:
            for sd in trial_seeds(n, 5):
                config = CopyChainConfig(n, r, m, int(sd))
                assert simulate_copy_chain(config).variants.tolist() == loop_variants(*reference_forest(config))

    def test_variant_ids_in_order_of_first_appearance(self):
        for seed in range(10):
            out = simulate_copy_chain(CopyChainConfig(1000, 0.3, 0.05, seed))
            first_seen = list(dict.fromkeys(v for v in out.variants if v))
            assert first_seen == list(range(1, out.tally.distinct + 1))

    def test_misprinted_fraction_by_decile_matches_exact(self):
        # a parent drawn from [0, i], [1, i] or [0, i-1) instead of [0, i)
        # moves every decile by 4 to 25 standard deviations at this size
        n, r, m, trials = 30, 0.1, 0.2, 8000
        hits = np.zeros(n)
        for sd in trial_seeds(2024, trials):
            out = simulate_copy_chain(CopyChainConfig(n, r, m, int(sd)))
            hits += np.array(out.variants) > 0
        f = misprint_probs(n, r, m)
        joint = joint_probs(n, r, m)
        for decile in np.array_split(np.arange(n), 10):
            mean = trials * f[decile].sum()
            var = trials * (joint[np.ix_(decile, decile)].sum() - f[decile].sum() ** 2)
            assert abs(hits[decile].sum() - mean) <= Z * math.sqrt(var)

    def test_config_validation(self):
        with pytest.raises(InvalidTallyError):
            simulate_copy_chain(CopyChainConfig(0, 0.5, 0.1, 1))
        with pytest.raises(InvalidTallyError):
            simulate_copy_chain(CopyChainConfig(10, 1.5, 0.1, 1))
        with pytest.raises(InvalidTallyError):
            simulate_copy_chain(CopyChainConfig(10, 0.5, 1.0, 1))


class TestEstimatorRoundtrip:
    def test_all_read_with_misprints(self):
        s = estimator_roundtrip(CopyChainConfig(1000, 1.0, 0.1, 9), 50)
        assert s.corrected_mean == 1.0
        assert s.degenerate == 0

    def test_all_degenerate_is_an_error(self):
        with pytest.raises(InsufficientStatisticsError):
            estimator_roundtrip(CopyChainConfig(100, 1.0, 0.0, 9), 20)

    def test_half_read_band(self):
        s = estimator_roundtrip(CopyChainConfig(5000, 0.5, 0.02, 4242), 200)
        assert s.corrected_mean == pytest.approx(0.5, abs=0.05)

    def test_correction_shrinks_the_estimate(self):
        # corrected = naive * (N-T)/(N-D) <= naive, per trial and in the mean
        s = estimator_roundtrip(CopyChainConfig(5000, 0.5, 0.02, 4242), 200)
        assert s.corrected_mean <= s.naive_mean

    def test_pooled_estimate_tracks_true_read_fraction(self):
        # pooling tallies across trials removes most of the per-trial ratio
        # skew, but not the estimator's finite-N bias: the pooled estimate
        # scatters around the estimate on the expected tally (0.2523
        # at N = 4300 against R = 0.22), with the delta-method spread that
        # the pooled D and T carry into it
        n, r, m, trials = 4300, 0.22, 0.0105, 200
        s = estimator_roundtrip(CopyChainConfig(n, r, m, 12345), trials)
        target = corrected_read_fraction(expected_tally(n, r, m)).corrected_r
        mean_d, sd_d, mean_t, sd_t = pooled_moments(n, r, m, trials)
        big_n = n * trials
        # d(est)/dD = est N/(D(N-D)), d(est)/dT = -est N/(T(N-T)); D and T
        # are positively correlated, so ignoring the covariance overstates
        # the spread
        sd = target * big_n * math.hypot(
            sd_d / (mean_d * (big_n - mean_d)), sd_t / (mean_t * (big_n - mean_t))
        )
        assert s.pooled.citations == big_n
        assert s.pooled_corrected == corrected_read_fraction(s.pooled).corrected_r
        assert abs(s.pooled_corrected - target) <= Z * sd
        assert s.pooled_corrected <= s.pooled_naive

    def test_biggest_class_brackets_the_observed_point(self):
        # the renowned paper's most copied misprint is 78 of 196 total;
        # that ratio should sit inside the simulated 5th-95th band
        ratios = []
        for sd in trial_seeds(777, 200):
            out = simulate_copy_chain(CopyChainConfig(4300, 0.22, 0.0105, int(sd)))
            if out.tally.total:
                ratios.append(max(np.bincount(out.variants)[1:]) / out.tally.total)
        lo, hi = np.percentile(ratios, [5, 95])
        assert lo < 78 / 196 < hi

    def test_one_trial_pools_the_chain_of_its_seed(self):
        # `oracle --dump` writes this chain as trial 0 of the ensemble
        cfg = CopyChainConfig(4300, 0.22, 0.0105, 3)
        s = estimator_roundtrip(cfg, 1)
        first = CopyChainConfig(4300, 0.22, 0.0105, int(trial_seeds(3, 1)[0]))
        assert simulate_copy_chain(first).tally == s.pooled

    @given(seed=st.integers(0, 2**128), k=st.integers(1, 64), data=st.data())
    def test_trial_seeds_of_fewer_trials_are_a_prefix(self, seed, k, data):
        # so the first trial seed of any round trip is `trial_seeds(seed, 1)[0]`
        j = data.draw(st.integers(1, k))
        assert np.array_equal(trial_seeds(seed, k)[:j], trial_seeds(seed, j))

    def test_every_trial_is_one_simulate_copy_chain(self, monkeypatch):
        # the round trip has no chain path of its own: trial j is the chain
        # of the j-th trial seed, and the summary is built from its tally
        cfg, k = CopyChainConfig(60, 0.5, 0.01, 8), 40
        calls = []

        def counted(config):
            calls.append(config)
            return simulate_copy_chain(config)

        monkeypatch.setattr(copychain, "simulate_copy_chain", counted)
        s = estimator_roundtrip(cfg, k)
        monkeypatch.undo()
        assert len(calls) == k
        tallies = [simulate_copy_chain(replace(cfg, seed=int(sd))).tally for sd in trial_seeds(cfg.seed, k)]
        assert s.pooled == MisprintTally(
            sum(t.distinct for t in tallies), sum(t.total for t in tallies), sum(t.citations for t in tallies)
        )
        # at N M = 0.6 about half the chains have no misprint
        assert s.degenerate == sum(t.total == 0 for t in tallies)
        assert 0 < s.degenerate < k

    def test_trial_seeds_deterministic(self):
        assert list(trial_seeds(5, 10)) == list(trial_seeds(5, 10))
        assert list(trial_seeds(5, 10)) != list(trial_seeds(6, 10))

    def test_trials_validation(self):
        with pytest.raises(InvalidTallyError):
            estimator_roundtrip(CopyChainConfig(100, 0.5, 0.1, 1), 0)
