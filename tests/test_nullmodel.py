import math
from fractions import Fraction

import mpmath as mp
import pytest

from citecopy import (
    BinomialTailQuery,
    CitecopyError,
    InvalidTallyError,
    binomial_log10_tail,
    expected_count,
    streak_probability,
)


def exact_log10_tail(n: int, p: Fraction, k: int) -> float:
    """Rational-arithmetic oracle, practical for small n."""
    total = Fraction(0)
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * (1 - p) ** (n - j)
    return math.log10(total)


def mpmath_log10_tail(n: int, p, k: int) -> float:
    """High-precision oracle for far tails: sum terms from k upward."""
    with mp.workdps(60):
        p = mp.mpf(p)
        q = 1 - p
        term = mp.binomial(n, k) * p**k * q ** (n - k)
        total = mp.mpf(0)
        j = k
        while j <= n:
            total += term
            if term < total * mp.mpf("1e-40"):
                break
            term = term * (n - j) * p / ((j + 1) * q)
            j += 1
        return float(mp.log10(total))


def mpmath_log10_tails(n: int, p: float) -> list[float]:
    """log10 P(X >= k) for every k in 0..n, each the sum of every term
    from k to n in 60-digit arithmetic; for small n."""
    with mp.workdps(60):
        p = mp.mpf(p)
        terms = [mp.binomial(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
        return [float(mp.log10(mp.fsum(terms[k:]))) for k in range(n + 1)]


class TestBinomialLog10Tail:
    def test_threshold_zero_is_certain(self):
        for n, p in [(10, 0.3), (350000, 1 / 24000), (1, 0.0)]:
            assert binomial_log10_tail(BinomialTailQuery(n, p, 0)) == 0.0

    def test_single_term_exact_case(self):
        got = binomial_log10_tail(BinomialTailQuery(5, 0.5, 5))
        assert got == pytest.approx(math.log10(1 / 32), abs=1e-10)

    def test_renowned_paper_tail(self):
        got = binomial_log10_tail(BinomialTailQuery(350000, 1 / 24000, 500))
        assert got <= -500
        oracle = mpmath_log10_tail(350000, 1 / 24000, 500)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_small_n_matches_rational_oracle(self):
        cases = [
            (10, Fraction(1, 3), 4),
            (20, Fraction(1, 2), 15),
            (30, Fraction(1, 100), 3),
            (25, Fraction(9, 10), 5),
            (12, Fraction(1, 7), 12),
        ]
        for n, p, k in cases:
            got = binomial_log10_tail(BinomialTailQuery(n, float(p), k))
            assert got == pytest.approx(exact_log10_tail(n, p, k), rel=1e-12)

    def test_monotone_in_threshold_and_trials(self):
        p = 0.05
        tails_k = [
            binomial_log10_tail(BinomialTailQuery(200, p, k)) for k in range(0, 60, 3)
        ]
        assert all(a >= b for a, b in zip(tails_k, tails_k[1:]))
        tails_n = [
            binomial_log10_tail(BinomialTailQuery(n, p, 10))
            for n in range(10, 400, 20)
        ]
        assert all(a <= b for a, b in zip(tails_n, tails_n[1:]))

    def test_complement_identity(self):
        for n, p, k in [(20, 0.4, 7), (15, 0.1, 3), (25, 0.9, 20)]:
            upper = 10 ** binomial_log10_tail(BinomialTailQuery(n, p, k))
            lower = sum(
                math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k)
            )
            assert upper + lower == pytest.approx(1.0, abs=1e-10)

    def test_at_and_below_mode_match_mpmath(self):
        # the tail at k <= mode is one minus the lower sum; k = mode + 1
        # is the first threshold summed upward
        for n in range(1, 41):
            for p in (0.02, 0.3, 0.5, 0.77, 0.99):
                mode = int(n * p)
                want = mpmath_log10_tails(n, p)
                for k in range(1, min(mode + 1, n) + 1):
                    got = binomial_log10_tail(BinomialTailQuery(n, p, k))
                    assert got == pytest.approx(want[k], abs=1e-13), (n, p, k)

    def test_far_below_mode_is_exactly_certain(self):
        # P(X >= 1) = 1 - 0.7**1e6 is 1 in double precision; a sum of the
        # upper tail over its 3e5 terms lands about 3e-10 away
        got = binomial_log10_tail(BinomialTailQuery(10**6, 0.3, 1))
        assert got == 0.0
        assert math.copysign(1.0, got) == 1.0

    def test_degenerate_probabilities(self):
        assert binomial_log10_tail(BinomialTailQuery(10, 0.0, 3)) == -math.inf
        assert binomial_log10_tail(BinomialTailQuery(10, 1.0, 10)) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidTallyError):
            binomial_log10_tail(BinomialTailQuery(10, 0.5, 11))
        with pytest.raises(InvalidTallyError):
            binomial_log10_tail(BinomialTailQuery(10, 1.5, 5))


class TestStreakProbability:
    def test_five_battles(self):
        assert streak_probability(0.5, 5) == 0.03125

    def test_empty_streak(self):
        assert streak_probability(0.123, 0) == 1.0

    def test_two_wins(self):
        assert streak_probability(0.9, 2) == pytest.approx(0.81)

    def test_validation(self):
        with pytest.raises(InvalidTallyError):
            streak_probability(1.5, 2)
        with pytest.raises(InvalidTallyError):
            streak_probability(0.5, -1)


class TestExpectedCount:
    def test_renowned_expectation(self):
        assert expected_count(24000, math.log10(1 / 600)) == pytest.approx(40.0, rel=1e-9)

    def test_certain_probability(self):
        assert expected_count(1234, 0.0) == 1234

    def test_null_model_predicts_none(self):
        # 10**-500 underflows double precision, so this is exactly zero
        assert expected_count(24000, -500) <= 1e-490

    def test_overflow(self):
        with pytest.raises(CitecopyError):
            expected_count(10, 400.0)

    @pytest.mark.parametrize("log10", [math.inf, 400.0])
    def test_overflow_message(self, log10):
        # 10.0 ** inf is inf, while 10.0 ** 400.0 raises OverflowError
        with pytest.raises(CitecopyError, match=rf"^10\*\*{log10} overflows double precision$"):
            expected_count(1, log10)

    def test_validation(self):
        with pytest.raises(InvalidTallyError):
            expected_count(-1, 0.0)
