"""Citation-count distribution analytics: CCDF, log-binned histograms,
and a Kolmogorov-Smirnov style distance between step curves."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ArrayRecord, InvalidTallyError, require_count


@dataclass(frozen=True, eq=False)
class CountSample(ArrayRecord):
    """Citations-per-paper counts with a label for output files.  Counts
    may be any 1-D sequence of nonnegative integers, a numpy array
    included; they are kept as a numpy integer array."""

    counts: np.ndarray
    label: str = ""

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
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class CcdfCurve:
    """Complementary CDF: (threshold x, fraction of items >= x), one
    point per distinct value, thresholds strictly increasing."""

    points: tuple[tuple[int, float], ...]

    def at(self, threshold: float) -> float:
        """Fraction of items >= threshold, as a step function."""
        i = bisect_left(self.points, threshold, key=itemgetter(0))
        return float(self.points[i][1]) if i < len(self.points) else 0.0


def ccdf(sample: CountSample) -> CcdfCurve:
    counts = sample.counts
    values, occurrences = np.unique(counts, return_counts=True)
    # fraction >= x: cumulative occurrences from the top down
    above = np.cumsum(occurrences[::-1])[::-1] / counts.size
    return CcdfCurve(points=tuple((int(v), float(f)) for v, f in zip(values, above)))


@dataclass(frozen=True)
class LogBinnedHistogram:
    """Geometric-bin density over positive counts; the zero-count mass is
    reported separately."""

    points: tuple[tuple[float, float], ...]  # (bin geometric center, density)
    edges: tuple[float, ...]
    zero_mass: float  # fraction of the sample with count 0


def _bin_count(max_count: int, bins_per_decade: int) -> int:
    """The fewest bins, n >= 1, whose top edge 10.0 ** (n / bins_per_decade)
    is above `max_count`: what `n = 1; while 10.0 ** (n / bins_per_decade)
    <= max_count: n += 1` returns, without a step per bin.  That float test
    turns once as n rises, so the turn is bracketed from the exact answer,
    floor(bins_per_decade * log10(max_count)) + 1, by doubling steps, then
    bisected; rounding can put the turn far from that answer when
    `bins_per_decade` is huge."""

    def above(n: int) -> bool:
        return n > 0 and 10.0 ** (n / bins_per_decade) > max_count

    hi = max(1, math.floor(bins_per_decade * math.log10(max_count)) + 1)
    lo, step = hi - 1, 1
    while not above(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while above(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:  # above(hi), and not above(lo)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi


def log_bin_histogram(sample: CountSample, bins_per_decade: int) -> LogBinnedHistogram:
    """Histogram with `bins_per_decade` geometric bins per decade,
    covering [1, max count].  Density is count-in-bin divided by bin
    width and total sample size, so sum(density * width) equals the
    positive-count fraction."""
    require_count("bins_per_decade", bins_per_decade, 1)
    counts = sample.counts
    positive = counts[counts > 0]
    if positive.size == 0:
        raise InvalidTallyError("sample has no positive counts")
    n_total = counts.size
    max_count = int(positive.max())
    n_bins = _bin_count(max_count, bins_per_decade)
    edges = 10.0 ** (np.arange(n_bins + 1) / bins_per_decade)
    hist, _ = np.histogram(positive, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    density = hist / (widths * n_total)
    return LogBinnedHistogram(
        points=tuple(
            (float(c), float(d)) for c, d in zip(centers, density)
        ),
        edges=tuple(float(e) for e in edges),
        zero_mass=float((counts == 0).sum() / n_total),
    )


def _steps_at(curve: CcdfCurve, thresholds: np.ndarray) -> np.ndarray:
    """`curve.at` for every threshold, with one vectorised binary search."""
    xs = np.array([x for x, _ in curve.points])
    fractions = np.array([f for _, f in curve.points] + [0.0])
    return fractions[np.searchsorted(xs, thresholds, side="left")]


def ks_distance(a: CcdfCurve, b: CcdfCurve) -> float:
    """Maximum absolute vertical gap between two CCDF step curves over
    the union of their thresholds."""
    thresholds = np.union1d([x for x, _ in a.points], [x for x, _ in b.points])
    return float(np.abs(_steps_at(a, thresholds) - _steps_at(b, thresholds)).max())
