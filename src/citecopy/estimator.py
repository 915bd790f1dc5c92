"""Reader-fraction estimation from citation misprint statistics.

A celebrated paper accumulates N citations, T of which carry a misprint,
with only D distinct misprint variants among them.  Repeated identical
misprints are evidence of citation copying, and the ratios of these three
counts estimate what fraction of citers actually read the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import (
    EstimatorBreakdownError,
    InsufficientStatisticsError,
    InvalidTallyError,
)


@dataclass(frozen=True)
class MisprintTally:
    """Misprint counts for one cited paper.

    distinct : number of distinct misprint variants (D)
    total    : number of citations carrying any misprint (T)
    citations: total number of citations (N)
    """

    distinct: int
    total: int
    citations: int

    def __post_init__(self) -> None:
        d, t, n = self.distinct, self.total, self.citations
        if not (0 <= d <= t <= n):
            raise InvalidTallyError(
                f"need 0 <= distinct <= total <= citations, got "
                f"distinct={d}, total={t}, citations={n}"
            )
        if not all(isinstance(x, Integral) for x in (d, t, n)):
            raise InvalidTallyError(
                f"distinct, total and citations must be integers, got "
                f"distinct={d!r}, total={t!r}, citations={n!r}"
            )
        if (d == 0) != (t == 0):
            raise InvalidTallyError(
                f"distinct and total must be zero together, got "
                f"distinct={d}, total={t}"
            )


@dataclass(frozen=True)
class ReaderEstimate:
    """Naive and corrected read fractions with their intermediate factors."""

    naive_r: float
    corrected_r: float
    propagation_factor: float
    copy_factor: float  # may be math.inf when every citation is misprinted
    misprint_prob: float


def naive_read_fraction(tally: MisprintTally) -> float:
    """First-cut read fraction D/T: repeated misprints are copies, the
    rest are presumed readers."""
    if tally.total == 0:
        raise InsufficientStatisticsError("no misprints observed")
    return tally.distinct / tally.total


def propagation_factor(tally: MisprintTally) -> float:
    """Average number of times a typical misprint propagates, (T - D)/D."""
    if tally.distinct == 0:
        raise InsufficientStatisticsError("no distinct misprints observed")
    return (tally.total - tally.distinct) / tally.distinct


def misprint_probability(tally: MisprintTally) -> float:
    """Per-citation probability of introducing a fresh misprint, D/N."""
    if tally.citations == 0:
        raise InvalidTallyError("citations must be >= 1")
    return tally.distinct / tally.citations


def copy_factor(n_p: float, m: float) -> float:
    """Average number of citations copied (directly or transitively) from
    a given citation, including miscopied descendants.

    Solves the self-consistency relation
        n_c = n_p + n_p * (m / (1 - m)) * (1 + n_c)
    whose closed form is n_p / (1 - m - n_p * m).
    """
    if not 0.0 <= m < 1.0:
        raise InvalidTallyError(f"misprint probability must be in [0, 1), got {m}")
    if not n_p >= 0.0:
        raise InvalidTallyError(f"propagation factor must be >= 0, got {n_p}")
    denom = 1.0 - m - n_p * m
    if denom <= 0.0:
        raise EstimatorBreakdownError(
            f"misprint rate {m} too high for propagation factor {n_p}"
        )
    return n_p / denom


def corrected_read_fraction(tally: MisprintTally) -> ReaderEstimate:
    """Full estimator chain from a tally to a ReaderEstimate.

    The corrected read fraction is (D/T) * (N - T)/(N - D), which equals
    1/(1 + n_c) with n_c = (T - D)/(D - MT) and M = D/N.  The correction
    accounts for misprinted citations over-representing copiers.

    When T = N every citation is misprinted: the copy factor diverges and
    the corrected fraction is 0 (the continuous limit of the formula).
    """
    # raises when T = 0; past it D, T and N are all positive
    naive = naive_read_fraction(tally)
    n_p = propagation_factor(tally)
    m = misprint_probability(tally)
    d, t, n = tally.distinct, tally.total, tally.citations
    if t == n:
        n_c = math.inf
        corrected = 0.0
    else:
        corrected = naive * (n - t) / (n - d)
        denom = d - m * t  # positive whenever t < n, since m = d/n
        n_c = (t - d) / denom
    return ReaderEstimate(
        naive_r=naive,
        corrected_r=corrected,
        propagation_factor=n_p,
        copy_factor=n_c,
        misprint_prob=m,
    )
