"""Reader-fraction estimation from citation misprint statistics.

A celebrated paper accumulates N citations, T of which carry a misprint,
with only D distinct misprint variants among them.  Repeated identical
misprints are evidence of citation copying, and the ratios of these three
counts estimate what fraction of citers actually read the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InsufficientStatisticsError, InvalidTallyError, require_count


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
        require_count("distinct", d, 0)
        require_count("total", t, d, "distinct")
        require_count("citations", n, t, "total")
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


def corrected_read_fraction(tally: MisprintTally) -> ReaderEstimate:
    """The estimator: every factor of a ReaderEstimate, from one tally.

    The naive read fraction D/T counts repeated misprints as copies and
    the rest as readers.  A typical misprint propagates n_p = (T - D)/D
    times, and M = D/N is the per-citation probability of a fresh
    misprint.  The copy factor n_c = (T - D)/(D - MT) solves
        n_c = n_p + n_p * (M / (1 - M)) * (1 + n_c),
    and the corrected read fraction (D/T) * (N - T)/(N - D) equals
    1/(1 + n_c): misprinted citations over-represent copiers.

    When T = N every citation is misprinted: the copy factor diverges and
    the corrected fraction is 0 (the continuous limit of the formula).
    """
    d, t, n = tally.distinct, tally.total, tally.citations
    if t == 0:
        raise InsufficientStatisticsError("no misprints observed")
    # past it D, T and N are all positive
    naive = d / t
    m = d / n
    if t == n:
        n_c = math.inf
        corrected = 0.0
    else:
        corrected = naive * (n - t) / (n - d)
        n_c = (t - d) / (d - m * t)  # positive denominator whenever t < n
    return ReaderEstimate(
        naive_r=naive,
        corrected_r=corrected,
        propagation_factor=(t - d) / d,
        copy_factor=n_c,
        misprint_prob=m,
    )
