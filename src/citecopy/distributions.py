"""Citation-count distribution analytics: CCDF, log-binned histograms,
and a Kolmogorov-Smirnov style distance between step curves."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTallyError


@dataclass(frozen=True)
class CountSample:
    """Citations-per-paper counts with a label for output files; counts
    may be any integer sequence, a numpy array included."""

    counts: Sequence[int] | np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.counts) == 0:
            raise InvalidTallyError("empty sample")


@dataclass(frozen=True)
class CcdfCurve:
    """Complementary CDF: (threshold x, fraction of items >= x), one
    point per distinct value, thresholds strictly increasing."""

    points: tuple[tuple[int, float], ...]

    def at(self, threshold: float) -> float:
        """Fraction of items >= threshold, as a step function."""
        return float(_steps_at(self, np.array([threshold]))[0])


def ccdf(sample: CountSample) -> CcdfCurve:
    counts = np.asarray(sample.counts)
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


def log_bin_histogram(sample: CountSample, bins_per_decade: int) -> LogBinnedHistogram:
    """Histogram with `bins_per_decade` geometric bins per decade,
    covering [1, max count].  Density is count-in-bin divided by bin
    width and total sample size, so sum(density * width) equals the
    positive-count fraction."""
    if bins_per_decade < 1:
        raise InvalidTallyError("bins_per_decade must be >= 1")
    counts = np.asarray(sample.counts)
    positive = counts[counts > 0]
    if positive.size == 0:
        raise InvalidTallyError("sample has no positive counts")
    n_total = counts.size
    max_count = int(positive.max())
    n_bins = 1
    while 10.0 ** (n_bins / bins_per_decade) <= max_count:
        n_bins += 1
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
