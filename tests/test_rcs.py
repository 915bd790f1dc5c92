import tracemalloc

import numpy as np
import pytest

from chain_moments import Z
from citecopy import (
    CountSample,
    InvalidTallyError,
    RcsConfig,
    ccdf,
    degree_stats,
    renowned_fraction,
    simulate_rcs,
)
from citecopy.rcs import _depths, _draw_picks


def check_network_invariants(net):
    assert net.in_degree.sum() == sum(len(refs) for refs in net.out_lists)
    for t, refs in enumerate(net.out_lists):
        assert all(r < t for r in refs), "edge pointing forward or to self"
        assert len(set(refs)) == len(refs), "duplicate reference"
    recount = np.zeros(net.n_papers, dtype=np.int64)
    for refs in net.out_lists:
        for r in refs:
            recount[r] += 1
    assert np.array_equal(recount, net.in_degree)


class TestSimulateRcs:
    def test_pure_random_tree(self):
        net = simulate_rcs(RcsConfig(1000, 1, 0.0, 5))
        assert all(len(refs) == 1 for refs in net.out_lists[1:])
        assert net.total_edges == 999
        assert net.in_degree.mean() == pytest.approx(999 / 1000)

    def test_no_copying_means_fixed_out_degree(self):
        net = simulate_rcs(RcsConfig(100, 3, 0.0, 7))
        assert all(len(refs) == 3 for refs in net.out_lists[3:])

    def test_bootstrap_cites_all_earlier(self):
        net = simulate_rcs(RcsConfig(50, 4, 0.5, 3))
        for t in range(4):
            assert net.out_lists[t] == tuple(range(t))

    def test_equality_compares_edges(self):
        cfg = RcsConfig(500, 3, 0.25, 42)
        assert simulate_rcs(cfg) == simulate_rcs(cfg)
        assert simulate_rcs(cfg) != simulate_rcs(RcsConfig(500, 3, 0.25, 43))
        with pytest.raises(TypeError):
            hash(simulate_rcs(cfg))

    def test_out_degree_fixed_point(self):
        # expected references per paper solves r = m + m*p*r, i.e. 12 for
        # m=3, p=1/4; realized out-degree past the transient lands within
        # 15% of it (deduplication eats the difference)
        net = simulate_rcs(RcsConfig(24000, 3, 0.25, 11))
        late = np.array([len(refs) for refs in net.out_lists[20000:]])
        assert late.mean() == pytest.approx(12.0, rel=0.15)

    def test_config_validation(self):
        with pytest.raises(InvalidTallyError):
            simulate_rcs(RcsConfig(3, 3, 0.5, 1))
        with pytest.raises(InvalidTallyError):
            simulate_rcs(RcsConfig(10, 2, 0.5, -1))
        with pytest.raises(InvalidTallyError):
            simulate_rcs(RcsConfig(10, 0, 0.5, 1))
        with pytest.raises(InvalidTallyError):
            simulate_rcs(RcsConfig(10, 2, 1.5, 1))


class TestCsrForm:
    def test_csr_invariants_over_random_configs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            cfg = RcsConfig(
                n_papers=int(rng.integers(8, 600)),
                m=int(rng.integers(1, 8)),
                p=float(rng.random()),
                seed=int(rng.integers(0, 2**63)),
            )
            net = simulate_rcs(cfg)
            check_network_invariants(net)
            assert net.indptr.size == cfg.n_papers + 1 == net.n_papers + 1
            assert net.indptr[0] == 0
            assert np.all(np.diff(net.indptr) >= 0)
            assert net.indptr[-1] == net.indices.size == net.total_edges
            assert np.array_equal(
                net.in_degree, np.bincount(net.indices, minlength=cfg.n_papers)
            )
            rows = net.out_lists
            assert len(rows) == cfg.n_papers
            for t, refs in enumerate(rows):
                assert refs == tuple(net.indices[net.indptr[t]:net.indptr[t + 1]].tolist())

    def test_full_copying_inherits_every_reference(self):
        # p = 1 copies each picked paper's whole list
        net = simulate_rcs(RcsConfig(400, 2, 1.0, 4))
        rows = net.out_lists
        for refs in rows[2:]:
            inherited = set(refs[:1]) | set(rows[refs[0]])
            assert inherited <= set(refs)


class TestGrowthLaws:
    """The block-drawn sampler against the model's exact laws."""

    def test_copies_are_one_bernoulli_coin_per_reference(self):
        # m = 1: paper t cites its pick and then a Binomial(L, p) subset of
        # the pick's L references (no duplicates can arise).  Pooled over
        # papers, sum(c - pL) and sum((c - pL)^2 - Lpq) are sums of
        # martingale differences with known variances.
        p, q = 0.3, 0.7
        resid, resid_var, sq, sq_var = 0.0, 0.0, 0.0, 0.0
        for seed in range(4):
            net = simulate_rcs(RcsConfig(20000, 1, p, seed))
            rows = net.out_lists
            for refs in rows[1:]:
                assert set(refs[1:]) <= set(rows[refs[0]])
            lengths = np.diff(net.indptr)
            picks = net.indices[net.indptr[1:-1]]
            big_l = lengths[picks].astype(float)
            copied = lengths[1:] - 1
            d = copied - p * big_l
            resid += d.sum()
            resid_var += (big_l * p * q).sum()
            sq += (d**2 - big_l * p * q).sum()
            sq_var += (big_l * p * q * (1 - 6 * p * q) + 2 * (big_l * p * q) ** 2).sum()
        assert abs(resid) <= Z * np.sqrt(resid_var)
        assert abs(sq) <= Z * np.sqrt(sq_var)

    def test_first_coin_of_a_network_is_fair(self):
        # n = 3, m = 1: paper 2 copies paper 0 only if it picks paper 1
        # (chance 1/2) and the first coin of the network comes up (p)
        seeds, p = 2000, 0.3
        copied = sum(
            len(simulate_rcs(RcsConfig(3, 1, p, seed)).out_lists[2]) - 1
            for seed in range(seeds)
        )
        mean, var = seeds * p / 2, seeds * (p / 2) * (1 - p / 2)
        assert abs(copied - mean) <= Z * np.sqrt(var)

    def test_picks_are_distinct_and_uniform(self):
        # p = 0, m = 3: paper 5 cites exactly its picks, in pick order; all
        # 5 * 4 * 3 ordered tuples of distinct papers below 5 are equally
        # likely.  Chi-square with 59 degrees of freedom.
        seeds = 3000
        cells: dict[tuple[int, ...], int] = {}
        for seed in range(seeds):
            refs = simulate_rcs(RcsConfig(6, 3, 0.0, seed)).out_lists[5]
            assert len(set(refs)) == 3 and all(0 <= r < 5 for r in refs)
            cells[refs] = cells.get(refs, 0) + 1
        expected = seeds / 60
        observed = np.array(list(cells.values()) + [0] * (60 - len(cells)))
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 <= 59 + Z * np.sqrt(2 * 59)


def reference_lists(cfg):
    """simulate_rcs as a plain loop: the same picks, then papers grown in
    order of depth (index order within a depth), one coin per reference
    of each pick, taken in that order."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    n, m, p = cfg.n_papers, cfg.m, cfg.p
    picks = _draw_picks(rng, n, m).tolist()
    depth = [0] * m
    for chosen in picks:
        depth.append(1 + max(depth[q] for q in chosen))
    lists = [tuple(range(t)) for t in range(m)] + [None] * (n - m)
    for t in sorted(range(m, n), key=depth.__getitem__):
        raw = []
        for q in picks[t - m]:
            raw.append(q)
            raw.extend(r for r in lists[q] if rng.random() < p)
        lists[t] = tuple(dict.fromkeys(raw))
    return tuple(lists)


class TestLevelGrowth:
    """Growth level by level against the plain loop it replaces."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.7, 1.0])
    def test_matches_plain_loop(self, m, p):
        for n in (m + 1, m + 2, 60, 300):
            for seed in range(3):
                cfg = RcsConfig(n, m, p, seed)
                assert simulate_rcs(cfg).out_lists == reference_lists(cfg), cfg

    def test_matches_plain_loop_over_random_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            cfg = RcsConfig(
                n_papers=int(rng.integers(m + 1, 500)),
                m=m,
                p=float(rng.random()),
                seed=int(rng.integers(0, 2**63)),
            )
            assert simulate_rcs(cfg).out_lists == reference_lists(cfg), cfg

    def test_depth_is_one_more_than_deepest_pick(self):
        rng = np.random.default_rng(3)
        # the smallest networks, of m + 1, m + 2 and 2m + 1 papers, then
        # random sizes
        cases = [
            (_draw_picks(rng, n, m), m)
            for m in (1, 2, 3, 5)
            for n in [m + 1, m + 2, 2 * m + 1] + [int(rng.integers(m + 1, 3000)) for _ in range(5)]
        ]
        # picks that form one chain: every block needs as many passes as
        # it has papers
        cases.append((np.arange(0, 999)[:, None], 1))
        cases.append((np.stack([np.arange(1, 998), np.arange(0, 997)], axis=1), 2))
        for picks, m in cases:
            depth = _depths(picks, m)
            assert depth.shape == (picks.shape[0] + m,)
            assert np.all(depth[:m] == 0)
            assert np.array_equal(depth[m:], depth[picks].max(axis=1) + 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_depth_matches_sequential_loop(self, m):
        rng = np.random.default_rng(4 + m)
        for n in (m + 1, m + 2, 2 * m + 1, 100, 5000):
            picks = _draw_picks(rng, n, m)
            depth = [0] * m
            for chosen in picks.tolist():
                depth.append(1 + max(depth[q] for q in chosen))
            assert _depths(picks, m).tolist() == depth, (n, m)

    def test_peak_memory_is_a_small_multiple_of_the_network(self):
        # numpy.random's modules load outside the traced region
        simulate_rcs(RcsConfig(10, 1, 0.5, 0))
        for seed in (0, 1):
            tracemalloc.start()
            try:
                net = simulate_rcs(RcsConfig(24000, 3, 0.25, seed))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = net.indptr.nbytes + net.indices.nbytes + net.in_degree.nbytes
            assert peak <= 3 * size


class TestRenownedFraction:
    def test_threshold_one_counts_cited_papers(self):
        net = simulate_rcs(RcsConfig(500, 2, 0.3, 9))
        count, fraction = renowned_fraction(net, 1)
        assert count == int((net.in_degree >= 1).sum())
        assert fraction == count / 500

    def test_uniform_citing_cannot_make_outliers(self):
        net = simulate_rcs(RcsConfig(1000, 1, 0.0, 13))
        count, fraction = renowned_fraction(net, 100)
        assert count == 0 and fraction == 0.0

    def test_threshold_validation(self):
        net = simulate_rcs(RcsConfig(50, 1, 0.0, 1))
        with pytest.raises(InvalidTallyError):
            renowned_fraction(net, 0)


class TestDegreeStats:
    def test_tree_edges(self):
        net = simulate_rcs(RcsConfig(1000, 1, 0.0, 5))
        stats = degree_stats(net)
        assert stats.total_edges == 999
        assert stats.mean_in_degree == stats.total_edges / 1000

    def test_ccdf_matches_renowned_fraction(self):
        net = simulate_rcs(RcsConfig(2000, 3, 0.25, 21))
        curve = ccdf(CountSample(tuple(int(d) for d in net.in_degree)))
        for threshold in (1, 5, 20):
            assert curve.at(threshold) == renowned_fraction(net, threshold)[1]


class TestPreferentialAttachment:
    @staticmethod
    def _pooled_correlation(p, seeds, n=3000, t0=1500, window=1000):
        xs, ys = [], []
        for seed in seeds:
            net = simulate_rcs(RcsConfig(n, 3, p, seed))
            indeg0 = np.zeros(t0)
            gains = np.zeros(t0)
            for t, refs in enumerate(net.out_lists):
                for r in refs:
                    if r < t0:
                        if t < t0:
                            indeg0[r] += 1
                        elif t < t0 + window:
                            gains[r] += 1
            xs.append(indeg0)
            ys.append(gains)
        return float(np.corrcoef(np.concatenate(xs), np.concatenate(ys))[0, 1])

    def test_copying_rewards_the_already_cited(self):
        assert self._pooled_correlation(0.25, range(3)) > 0.3

    def test_no_copying_no_advantage(self):
        assert abs(self._pooled_correlation(0.0, range(3))) < 0.05
