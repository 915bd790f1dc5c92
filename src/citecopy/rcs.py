"""Random-citing-scientist citation network growth.

Papers arrive sequentially.  Each new paper picks m random earlier
papers, cites them, and also copies each of their references with
probability p.  Copying makes already-cited papers more likely to be
cited again, which is enough to produce the heavy-tailed citation
distributions seen in real bibliometric data.

Growth draws no random numbers per paper.  The picks of every paper come
from one (n - m, m) block of uniforms, and the per-reference copy coins
are replaced by geometric gaps between successive copied references, so
the loop touches only the references that get copied.  The network is
stored as compressed sparse rows (CSR): it grows in two compact int64
arrays, row offsets and cited papers, which are frozen into numpy arrays
without a copy at the end.  Seeded networks, and so seeded
`simulate-rcs` output, differ from those of releases before this scheme;
the statistics they are checked against do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTallyError

# geometric copy gaps are drawn this many at a time
GAP_BLOCK = 4096


@dataclass(frozen=True)
class RcsConfig:
    """Growth parameters.

    n_papers : total papers grown
    m        : random earlier papers picked per new paper
    p        : per-reference copy probability
    seed     : RNG seed (>= 0); identical configs give bit-identical networks
    """

    n_papers: int
    m: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        # written as `not in range`, so that NaN is out of range too
        if not self.m >= 1:
            raise InvalidTallyError("m must be >= 1")
        if not self.n_papers >= self.m + 1:
            raise InvalidTallyError("n_papers must be >= m + 1")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidTallyError("p must be in [0, 1]")
        if not self.seed >= 0:
            raise InvalidTallyError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class CitationNetwork:
    """Directed acyclic citation graph, papers indexed 0..n-1 in arrival
    order, in CSR form: paper t cites indices[indptr[t]:indptr[t + 1]]
    (all < t, no duplicates, in first-occurrence order); in_degree[i]
    counts the rows containing i.  Two networks are equal when they have
    the same edges; like their arrays, networks are unhashable."""

    indptr: np.ndarray
    indices: np.ndarray
    in_degree: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationNetwork):
            return NotImplemented
        # in_degree follows from the edges
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    __hash__ = None

    @property
    def n_papers(self) -> int:
        return self.indptr.size - 1

    @property
    def total_edges(self) -> int:
        return self.indices.size

    @property
    def out_lists(self) -> tuple[tuple[int, ...], ...]:
        """Reference list of every paper, rebuilt from the CSR arrays."""
        refs, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(refs[a:b]) for a, b in zip(bounds, bounds[1:]))


def _draw_picks(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Picks of papers m..n-1: entry t - m holds m distinct papers below
    t, every ordered m-tuple equally likely."""
    t = np.arange(m, n)[:, None]
    # floor(u * t) lies in [0, t) for every double u < 1
    picks = (rng.random((n - m, m)) * t).astype(np.intp)
    # a row of independent uniform picks that happens to be distinct is a
    # uniform distinct tuple; the rare rows with a repeat are redrawn
    ordered = np.sort(picks, axis=1)
    for i in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
        picks[i] = rng.choice(m + i, m, replace=False)
    return picks


def _copy_gaps(rng: np.random.Generator, p: float):
    """Endless stream of geometric(p) gaps between successive copied
    references: one Bernoulli(p) coin per reference, drawn in blocks."""
    while True:
        yield from rng.geometric(p, GAP_BLOCK).tolist()


def simulate_rcs(config: RcsConfig) -> CitationNetwork:
    """Grow one network.  Uses PCG64 seeded from config.seed.

    Bootstrap: papers 0..m-1 cite all earlier papers (paper 0 cites
    nothing).  From paper m on: pick m distinct earlier papers uniformly,
    cite each, then copy each reference of each picked paper with
    probability p; duplicates in the combined list are dropped, keeping
    first occurrence.
    """
    # imported here, so that a CLI call that grows no network does not
    # load the extension module
    from array import array

    rng = np.random.default_rng(np.random.PCG64(config.seed))
    n, m, p = config.n_papers, config.m, config.p
    # one flat list of every pick, read m at a time
    picks = iter(_draw_picks(rng, n, m).ravel().tolist())
    # the growing network in CSR form: paper t cites
    # indices[indptr[t]:indptr[t + 1]]
    indices, indptr = array("q"), array("q", [0])
    for t in range(m):
        indices.extend(range(t))
        indptr.append(len(indices))
    gap = _copy_gaps(rng, p).__next__ if p > 0.0 else None
    # offset of the next copied reference in the stream of all references
    # of all picks, counted from the start of the current pick's list; the
    # coins are independent, so one stream serves every paper.  p = 0
    # copies nothing.
    nxt = gap() - 1 if gap else math.inf
    for chosen in zip(*[picks] * m):
        raw: list[int] = []
        for pick in chosen:
            raw.append(pick)
            start, size = indptr[pick], indptr[pick + 1] - indptr[pick]
            while nxt < size:
                raw.append(indices[start + nxt])
                nxt += gap()
            nxt -= size
        indices.extend(dict.fromkeys(raw))
        indptr.append(len(indices))
    # the numpy arrays share the grown buffers
    indices = np.frombuffer(indices, dtype=np.int64)
    return CitationNetwork(
        np.frombuffer(indptr, dtype=np.int64),
        indices,
        np.bincount(indices, minlength=n),
    )


def renowned_fraction(network: CitationNetwork, threshold: int) -> tuple[int, float]:
    """Count and fraction of papers with at least `threshold` citations."""
    if threshold < 1:
        raise InvalidTallyError("threshold must be >= 1")
    count = int((network.in_degree >= threshold).sum())
    return count, count / network.n_papers


@dataclass(frozen=True)
class DegreeStats:
    total_edges: int
    mean_in_degree: float
    max_in_degree: int


def degree_stats(network: CitationNetwork) -> DegreeStats:
    """In-degree summary of a network."""
    deg = network.in_degree
    return DegreeStats(
        total_edges=network.total_edges,
        mean_in_degree=float(deg.mean()),
        max_in_degree=int(deg.max()),
    )
