"""Exact tail probabilities for the equal-papers null hypothesis.

If every citation event lands on one of K equally likely papers, a
paper's citation count is binomial.  The tails of interest are so far
out (500 successes at p = 1/24000) that everything must be done in log
space with log-gamma terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidTallyError, require_count

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
        require_count("threshold", self.threshold, 0)
        require_count("trials", self.trials, self.threshold, "threshold")
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
    """log of the sum of the pmf over `ks`, a nonempty range that runs
    away from the mode.  The pmf is unimodal, so the first term is the
    largest and seeds the sum.  The running log-sum-exp stops once a term
    has fallen 40 orders of magnitude below the sum, so the truncation
    error stays far below reporting precision."""
    log_sum = _log_pmf(n, log_p, log_q, ks[0])
    for j in ks[1:]:
        term = _log_pmf(n, log_p, log_q, j)
        log_sum += math.log1p(math.exp(term - log_sum))
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
    if k == 0 or p == 1.0:
        return 0.0
    if p == 0.0:
        return -math.inf
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
    """Expected hits, population * 10**per_item_prob_log10, for a per-item
    log10 probability in its domain: <= 0, -inf included, NaN not."""
    require_count("population", population, 0)
    if not per_item_prob_log10 <= 0.0:
        raise InvalidTallyError("per_item_prob_log10 must be <= 0")
    return population * 10.0**per_item_prob_log10
