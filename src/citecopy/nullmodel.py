"""Exact tail probabilities for the equal-papers null hypothesis.

If every citation event lands on one of K equally likely papers, a
paper's citation count is binomial.  The tails of interest are so far
out (500 successes at p = 1/24000) that everything must be done in log
space with log-gamma terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import CitecopyError, InvalidTallyError, require_count

LN10 = math.log(10.0)
# stop summing once a term is this many orders of magnitude below the sum
TERM_CUTOFF_LOG = 40.0 * LN10


@dataclass(frozen=True)
class BinomialTailQuery:
    """P(X >= threshold) for X ~ binomial(trials, success_prob)."""

    trials: int
    success_prob: float
    threshold: int

    def __post_init__(self) -> None:
        if not 0 <= self.threshold <= self.trials:
            raise InvalidTallyError("need 0 <= threshold <= trials")
        if not isinstance(self.trials, Integral) or not isinstance(self.threshold, Integral):
            raise InvalidTallyError("trials and threshold must be integers")
        if not 0.0 <= self.success_prob <= 1.0:
            raise InvalidTallyError("success_prob must be in [0, 1]")


def _log_pmf(n: int, log_p: float, log_q: float, k: int) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * log_p
        + (n - k) * log_q
    )


def _log_sum_terms(n: int, log_p: float, log_q: float, ks: range) -> float:
    """log of the sum of the pmf over `ks`, which must run away from the
    mode: the running log-sum-exp stops once a term has fallen 40 orders
    of magnitude below the sum, so the truncation error stays far below
    reporting precision."""
    log_sum = -math.inf
    for j in ks:
        term = _log_pmf(n, log_p, log_q, j)
        if term > log_sum:
            log_sum = term + math.log1p(math.exp(log_sum - term))
        else:
            log_sum = log_sum + math.log1p(math.exp(term - log_sum))
        if term < log_sum - TERM_CUTOFF_LOG:
            break
    return log_sum


def binomial_log10_tail(query: BinomialTailQuery) -> float:
    """log10 of the upper tail P(X >= k), summed stably in log space.

    Above the mode the terms are summed from k upward.  At or below it
    the tail is 1 - P(X <= k - 1), with the lower sum taken from k - 1
    downward.  Both sums start at their largest term and stop early, so a
    threshold far below the mode costs a few terms and gives exactly 0.0
    when P(X <= k - 1) is below double precision.
    """
    n, p, k = query.trials, query.success_prob, query.threshold
    if k == 0:
        return 0.0
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    if k > int(n * p):
        return min(_log_sum_terms(n, log_p, log_q, range(k, n + 1)) / LN10, 0.0)
    lower = _log_sum_terms(n, log_p, log_q, range(k - 1, -1, -1))
    # + 0.0 turns the -0.0 of an empty complement into 0.0
    return math.log1p(-math.exp(lower)) / LN10 + 0.0


def streak_probability(win_prob: float, streak: int) -> float:
    """Probability of winning `streak` independent events in a row."""
    if not 0.0 <= win_prob <= 1.0:
        raise InvalidTallyError("win_prob must be in [0, 1]")
    require_count("streak", streak, 0)
    return win_prob**streak


def expected_count(population: int, per_item_prob_log10: float) -> float:
    """Expected number of hits in a population given a per-item log10
    probability: population * 10**per_item_prob_log10."""
    require_count("population", population, 0)
    try:
        prob = 10.0**per_item_prob_log10
    except OverflowError:
        prob = math.inf
    if math.isinf(prob):
        raise CitecopyError(f"10**{per_item_prob_log10} overflows double precision")
    return population * prob
