import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from citecopy import (
    InsufficientStatisticsError,
    InvalidTallyError,
    MisprintTally,
    corrected_read_fraction,
)

KT = MisprintTally(distinct=45, total=196, citations=4300)


def valid_tallies(max_n=100_000):
    # 1 <= D <= T <= N with the D=0 iff T=0 rule handled separately
    return st.integers(1, 200).flatmap(
        lambda d: st.integers(d, 2000).flatmap(
            lambda t: st.integers(t, max_n).map(
                lambda n: MisprintTally(distinct=d, total=t, citations=n)
            )
        )
    )


class TestNaiveReadFraction:
    def test_kt_value(self):
        assert corrected_read_fraction(KT).naive_r == pytest.approx(0.2296, abs=1e-4)

    def test_all_distinct_means_all_read(self):
        assert corrected_read_fraction(MisprintTally(10, 10, 100)).naive_r == 1.0

    def test_exact_division(self):
        assert corrected_read_fraction(MisprintTally(10, 100, 1000)).naive_r == 0.1

    def test_no_misprints_is_an_error(self):
        with pytest.raises(InsufficientStatisticsError, match="no misprints observed"):
            corrected_read_fraction(MisprintTally(0, 0, 50))


class TestPropagationFactor:
    def test_kt_value(self):
        # (196 - 45) / 45
        assert corrected_read_fraction(KT).propagation_factor == pytest.approx(3.3556, abs=1e-4)

    def test_no_copying(self):
        assert corrected_read_fraction(MisprintTally(10, 10, 100)).propagation_factor == 0.0

    def test_exact_arithmetic(self):
        assert corrected_read_fraction(MisprintTally(50, 150, 1000)).propagation_factor == 2.0

    def test_zero_distinct_is_an_error(self):
        # D = 0 reaches the estimator only with T = 0, which it rejects
        # (test_no_misprints): the tally rejects misprints without a variant
        with pytest.raises(InvalidTallyError, match="zero together"):
            MisprintTally(0, 5, 100)


class TestMisprintProbability:
    def test_kt_value(self):
        assert corrected_read_fraction(KT).misprint_prob == pytest.approx(0.010465, abs=1e-6)

    def test_exact(self):
        assert corrected_read_fraction(MisprintTally(43, 43, 4300)).misprint_prob == 0.01


class TestCopyFactor:
    def test_kt_value(self):
        assert corrected_read_fraction(KT).copy_factor == pytest.approx(3.5158, abs=1e-3)

    def test_nothing_propagates(self):
        # T = D: no copies, whatever the misprint probability (here 0.5)
        assert corrected_read_fraction(MisprintTally(10, 10, 20)).copy_factor == 0.0


class TestCorrectedReadFraction:
    def test_kt_value(self):
        est = corrected_read_fraction(KT)
        assert est.corrected_r == pytest.approx(0.2214, abs=1e-4)

    def test_all_distinct(self):
        est = corrected_read_fraction(MisprintTally(10, 10, 100))
        assert est.corrected_r == 1.0

    def test_all_misprinted_limit(self):
        est = corrected_read_fraction(MisprintTally(5, 100, 100))
        assert est.corrected_r == 0.0
        assert math.isinf(est.copy_factor)

    def test_invalid_tally(self):
        with pytest.raises(InvalidTallyError):
            corrected_read_fraction(MisprintTally(10, 5, 100))
        with pytest.raises(InvalidTallyError):
            corrected_read_fraction(MisprintTally(5, 10, 8))

    def test_no_misprints(self):
        with pytest.raises(InsufficientStatisticsError):
            corrected_read_fraction(MisprintTally(0, 0, 100))


def wide_tallies():
    # N up to the int64 limit, T often within 3 of N, as Python or numpy ints
    triples = st.integers(1, 2**63 - 1).flatmap(
        lambda n: st.one_of(st.integers(max(1, n - 3), n), st.integers(1, n)).flatmap(
            lambda t: st.integers(1, t).map(lambda d: (d, t, n))
        )
    )
    kinds = st.sampled_from([int, np.int64])
    return st.builds(lambda dtn, kind: MisprintTally(*map(kind, dtn)), triples, kinds)


class TestProperties:
    @given(st.one_of(
        valid_tallies(),
        valid_tallies().map(lambda x: MisprintTally(x.distinct, x.total, x.total)),
        wide_tallies(),
    ))
    # hand tallies: every misprint distinct, whole quotients, M = 0.01,
    # nothing copied at M = 0.5, and every citation misprinted
    @example(MisprintTally(10, 10, 100))
    @example(MisprintTally(10, 100, 1000))
    @example(MisprintTally(50, 150, 1000))
    @example(MisprintTally(43, 43, 4300))
    @example(MisprintTally(10, 10, 20))
    @example(MisprintTally(5, 100, 100))
    def test_fields_are_bit_exact(self, tally):
        # each field is its docstring definition solved exactly and rounded
        # once: n_c solves n_c = n_p + n_p k (1 + n_c) and corrected is
        # 1/(1 + n_c), in Fractions; the T = N tallies are where the copy
        # factor diverges
        d, t, n = tally.distinct, tally.total, tally.citations
        m, n_p = Fraction(d, n), Fraction(t - d, d)
        if t == n:
            n_c, corrected = math.inf, 0.0
        else:
            # n_c = n_p + n_p * k * (1 + n_c) with k = M / (1 - M)
            k = m / (1 - m)
            exact = n_p * (1 + k) / (1 - n_p * k)
            n_c, corrected = float(exact), float(1 / (1 + exact))
        fields = astuple(corrected_read_fraction(tally))
        assert fields == (float(Fraction(d, t)), corrected, float(n_p), n_c, float(m))
        assert all(type(field) is float for field in fields)

    @given(valid_tallies())
    def test_bounds(self, tally):
        est = corrected_read_fraction(tally)
        assert 0.0 <= est.corrected_r <= est.naive_r <= 1.0

    def test_monotone_in_total(self):
        d, n = 20, 5000
        values = [
            corrected_read_fraction(MisprintTally(d, t, n)).corrected_r
            for t in range(d, n + 1, 83)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_correction_vanishes_for_rare_misprints(self):
        tally = MisprintTally(45, 196, 10**9)
        est = corrected_read_fraction(tally)
        assert est.corrected_r == pytest.approx(est.naive_r, rel=1e-6)
