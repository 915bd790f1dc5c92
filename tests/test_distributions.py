import numpy as np
import pytest
from hypothesis import given, strategies as st

from citecopy import (
    CcdfCurve,
    CountSample,
    InvalidTallyError,
    RcsConfig,
    ccdf,
    ks_distance,
    log_bin_histogram,
    simulate_rcs,
)
from citecopy.distributions import _bin_count


class TestCcdf:
    def test_hand_enumeration(self):
        curve = ccdf(CountSample((0, 0, 1, 2)))
        assert curve.points.tolist() == [(0, 1.0), (1, 0.5), (2, 0.25)]

    def test_all_equal(self):
        curve = ccdf(CountSample((7, 7, 7)))
        assert curve.points.tolist() == [(7, 1.0)]

    def test_permutation_invariant(self):
        a = ccdf(CountSample((3, 1, 4, 1, 5, 9, 2, 6)))
        b = ccdf(CountSample((9, 6, 5, 4, 3, 2, 1, 1)))
        assert a == b

    def test_array_counts_equal_tuple_counts(self):
        counts = (3, 0, 4, 1, 5, 9, 2, 6, 0, 1)
        assert ccdf(CountSample(np.array(counts))) == ccdf(CountSample(counts))
        assert log_bin_histogram(CountSample(np.array(counts)), 3) == log_bin_histogram(
            CountSample(counts), 3
        )

    def test_empty_array_rejected(self):
        with pytest.raises(InvalidTallyError):
            ccdf(CountSample(np.array([], dtype=np.int64)))
        with pytest.raises(InvalidTallyError):
            log_bin_histogram(CountSample(np.array([], dtype=np.int64)), 3)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = tuple(int(c) for c in rng.integers(0, 30, size=rng.integers(1, 50)))
            curve = ccdf(CountSample(counts))
            for x, frac in curve.points:
                assert frac == sum(1 for c in counts if c >= x) / len(counts)

    def test_step_evaluation(self):
        curve = ccdf(CountSample((0, 0, 1, 2)))
        assert curve.at(0) == 1.0
        assert curve.at(1.5) == 0.25  # between points: fraction >= 2
        assert curve.at(99) == 0.0

    def test_empty_sample(self):
        with pytest.raises(InvalidTallyError):
            ccdf(CountSample(()))


class TestLogBinHistogram:
    def test_one_bin_per_decade(self):
        hist = log_bin_histogram(CountSample((1, 10, 100)), 1)
        occupied = [d for _, d in hist.points if d > 0]
        assert len(occupied) == 3

    def test_density_normalization(self):
        rng = np.random.default_rng(8)
        counts = tuple(int(c) for c in rng.geometric(0.05, size=500)) + (0,) * 50
        hist = log_bin_histogram(CountSample(counts), 5)
        widths = np.diff(hist.edges)
        densities = np.array([d for _, d in hist.points])
        positive_fraction = sum(1 for c in counts if c > 0) / len(counts)
        assert float((densities * widths).sum()) == pytest.approx(
            positive_fraction, abs=1e-9
        )
        assert hist.zero_mass == pytest.approx(50 / 550)

    def test_rcs_histogram_decreasing_beyond_mode(self):
        # coarse bins: fine binning shows small-integer artifacts instead
        # of the distribution's shape
        net = simulate_rcs(RcsConfig(24000, 3, 0.25, 99))
        hist = log_bin_histogram(
            CountSample(tuple(int(d) for d in net.in_degree)), 2
        )
        densities = [d for _, d in hist.points]
        mode = int(np.argmax(densities))
        tail = densities[mode:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_all_zero_counts(self):
        with pytest.raises(InvalidTallyError):
            log_bin_histogram(CountSample((0, 0, 0)), 5)

    def test_bins_validation(self):
        with pytest.raises(InvalidTallyError):
            log_bin_histogram(CountSample((1, 2)), 0)

    @pytest.mark.parametrize("bins_per_decade", [1, 2, 3, 5, 6, 7, 10, 12, 100])
    def test_bin_count_matches_per_bin_loop(self, bins_per_decade):
        def per_bin(max_count):
            n = 1
            while 10.0 ** (n / bins_per_decade) <= max_count:
                n += 1
            return n

        # powers of ten and their neighbours, and the counts next to
        # every tenth bin edge, where rounding decides the bin count
        maxima = {10**k + d for k in range(19) for d in (-1, 0, 1)} | {2, 3, 123456789, 2**63 - 1}
        edges = (int(10.0 ** (n / bins_per_decade)) for n in range(0, 19 * bins_per_decade, 10))
        maxima |= {edge + d for edge in edges for d in (-1, 0, 1)}
        for max_count in sorted(m for m in maxima if 1 <= m < 2**63):
            assert _bin_count(max_count, bins_per_decade) == per_bin(max_count), max_count

    @pytest.mark.parametrize("max_count, bins_per_decade", [
        (123456789, 10**9), (1, 10**18), (123456789, 10**18), (2**63 - 1, 10**25), (2, 10**300),
    ])
    def test_bin_count_is_where_the_loop_test_turns(self, max_count, bins_per_decade):
        # the per-bin loop would take minutes or longer for each of these
        n = _bin_count(max_count, bins_per_decade)
        assert 10.0 ** (n / bins_per_decade) > max_count
        assert n == 1 or 10.0 ** ((n - 1) / bins_per_decade) <= max_count

    @pytest.mark.parametrize("integer", [np.int64, np.uint64])
    def test_bin_count_of_a_numpy_integer_is_that_of_the_int(self, integer):
        # about 8.1e18 bins either way, too many for numpy to allocate; a
        # numpy b would round in division and overflow in 20 * b
        for bins_per_decade in (integer(10**18), 10**18):
            with pytest.raises(ValueError, match="array is too big"):
                log_bin_histogram(CountSample((123456789,)), bins_per_decade)


def step_curves():
    return st.dictionaries(
        st.integers(-20, 60), st.floats(0.0, 1.0), min_size=1, max_size=30
    ).map(lambda steps: CcdfCurve(points=tuple(sorted(steps.items()))))


def brute_at(curve, threshold):
    """Fraction at the first point with x >= threshold, else 0."""
    return next((f for x, f in curve.points if x >= threshold), 0.0)


class TestKsDistance:
    @given(step_curves(), step_curves())
    def test_brute_force_oracle(self, a, b):
        thresholds = {x for x, _ in a.points} | {x for x, _ in b.points}
        assert all(a.at(t) == brute_at(a, t) for t in thresholds)
        ordered = sorted(thresholds)
        assert a.at(np.array(ordered)).tolist() == [brute_at(a, t) for t in ordered]
        want = max(abs(brute_at(a, t) - brute_at(b, t)) for t in thresholds)
        assert ks_distance(a, b) == want

    def test_identical_curves(self):
        curve = ccdf(CountSample((0, 0, 1, 2)))
        assert ks_distance(curve, curve) == 0.0

    def test_disjoint_supports(self):
        a = ccdf(CountSample((0, 0, 1, 2)))
        b = ccdf(CountSample((5, 5, 5, 5)))
        # at threshold 5: 0 of a's items, all of b's
        assert ks_distance(a, b) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = ccdf(CountSample(tuple(int(c) for c in rng.integers(0, 20, 30))))
        b = ccdf(CountSample(tuple(int(c) for c in rng.integers(0, 20, 30))))
        assert ks_distance(a, b) == ks_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        curves = [
            ccdf(CountSample(tuple(int(c) for c in rng.integers(0, 15, 40))))
            for _ in range(3)
        ]
        a, b, c = curves
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12

    def test_same_model_different_seeds_are_close(self):
        nets = [simulate_rcs(RcsConfig(24000, 3, 0.25, s)) for s in (101, 202)]
        curves = [
            ccdf(CountSample(tuple(int(d) for d in n.in_degree))) for n in nets
        ]
        assert ks_distance(curves[0], curves[1]) < 0.05
