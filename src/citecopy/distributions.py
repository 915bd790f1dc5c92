"""Citation-count distribution analytics: CCDF, log-binned histograms,
and a Kolmogorov-Smirnov style distance between step curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArrayRecord, InvalidTallyError, require_count


@dataclass(frozen=True, eq=False)
class CountSample(ArrayRecord):
    """Citations-per-paper counts: any 1-D sequence of nonnegative
    integers, a numpy array included, kept as a numpy integer array."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise InvalidTallyError("counts must be a 1-D sequence of integers")
        if counts.size == 0:
            raise InvalidTallyError("empty sample")
        if not np.issubdtype(counts.dtype, np.integer):
            raise InvalidTallyError(f"counts must be integers, got dtype {counts.dtype}")
        if not counts.min() >= 0:
            raise InvalidTallyError("counts must be nonnegative")
        if counts.max() > np.iinfo(np.int64).max:
            raise InvalidTallyError("counts must be within the int64 range")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True, eq=False)
class CcdfCurve(ArrayRecord):
    """Complementary CDF: the fraction of items >= x, one point per
    distinct value.  `points` is a structured array with fields `x`
    (int64, strictly increasing) and `fraction` (float64, in [0, 1]);
    it iterates as (x, fraction) pairs.  Any structured array with those
    fields, or any sequence of (x, fraction) pairs, is accepted."""

    points: np.ndarray

    def __post_init__(self) -> None:
        points = self.points
        if isinstance(points, np.ndarray) and points.dtype.names:
            x, fraction = points["x"], points["fraction"]
        else:
            x, fraction = np.array([x for x, _ in points]), np.array([f for _, f in points])
        if x.ndim != 1 or x.size == 0:
            raise InvalidTallyError("a CCDF needs a 1-D sequence of at least one point")
        # pairs with an x beyond int64 give a uint64, float or object array
        if x.dtype.kind not in "iu" or x.max() > np.iinfo(np.int64).max:
            raise InvalidTallyError("every x must be an integer within the int64 range")
        if not (x[1:] > x[:-1]).all():
            raise InvalidTallyError("x must be strictly increasing")
        if fraction.dtype.kind not in "iuf" or not ((fraction >= 0) & (fraction <= 1)).all():
            raise InvalidTallyError("every fraction must be in [0, 1]")
        points = np.empty(x.size, [("x", np.int64), ("fraction", np.float64)])
        points["x"], points["fraction"] = x, fraction
        object.__setattr__(self, "points", points)

    def at(self, thresholds):
        """Fraction of items >= each threshold, as a step function: one
        float for a scalar threshold, an array for an array."""
        fractions = np.append(self.points["fraction"], 0.0)
        return fractions[np.searchsorted(self.points["x"], thresholds, side="left")]


def ccdf(sample: CountSample) -> CcdfCurve:
    counts = sample.counts
    values, occurrences = np.unique(counts, return_counts=True)
    # fraction >= x: cumulative occurrences from the top down
    above = np.cumsum(occurrences[::-1])[::-1] / counts.size
    return CcdfCurve(np.rec.fromarrays((values, above), names="x,fraction"))


@dataclass(frozen=True, eq=False)
class LogBinnedHistogram(ArrayRecord):
    """Geometric-bin density over positive counts; the zero-count mass is
    reported separately.  `points` is a structured array with float64
    fields `center` (the bin's geometric center) and `density`; it
    iterates as (center, density) pairs."""

    points: np.ndarray
    edges: np.ndarray  # float64, one more than the points
    zero_mass: float  # fraction of the sample with count 0


def _bin_count(max_count: int, bins_per_decade: int) -> int:
    """The fewest bins, n >= 1, whose top edge 10.0 ** (n / bins_per_decade)
    is above `max_count`: what `n = 1; while 10.0 ** (n / bins_per_decade)
    <= max_count: n += 1` returns, without a step per bin.  That float test
    turns once as n rises and holds at n = 20 * bins_per_decade, since
    10.0 ** 20 is above every int64, so the turn is bisected in [0, 20 * bins_per_decade]."""
    lo, hi = 0, 20 * bins_per_decade
    while hi - lo > 1:  # the test holds at hi and fails at lo > 0
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if 10.0 ** (mid / bins_per_decade) > max_count else (mid, hi)
    return hi


def log_bin_histogram(sample: CountSample, bins_per_decade: int) -> LogBinnedHistogram:
    """Histogram with `bins_per_decade` geometric bins per decade,
    covering [1, max count].  Density is count-in-bin divided by bin
    width and total sample size, so sum(density * width) equals the
    positive-count fraction."""
    bins_per_decade = require_count("bins_per_decade", bins_per_decade, 1)
    counts = sample.counts
    positive = counts[counts > 0]
    if positive.size == 0:
        raise InvalidTallyError("sample has no positive counts")
    n_total = counts.size
    max_count = int(positive.max())
    n_bins = _bin_count(max_count, bins_per_decade)
    edges = 10.0 ** (np.arange(n_bins + 1) / bins_per_decade)
    hist, _ = np.histogram(positive, bins=edges)
    points = np.empty(n_bins, [("center", np.float64), ("density", np.float64)])
    points["center"] = np.sqrt(edges[:-1] * edges[1:])
    points["density"] = hist / (np.diff(edges) * n_total)
    return LogBinnedHistogram(points, edges, (n_total - positive.size) / n_total)


def ks_distance(a: CcdfCurve, b: CcdfCurve) -> float:
    """Maximum absolute vertical gap between two CCDF step curves over
    the union of their thresholds."""
    thresholds = np.union1d(a.points["x"], b.points["x"])
    return float(np.abs(a.at(thresholds) - b.at(thresholds)).max())
