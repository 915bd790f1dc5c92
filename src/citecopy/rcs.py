"""Random-citing-scientist citation network growth.

Papers arrive sequentially.  Each new paper picks m random earlier
papers, cites them, and also copies each of their references with
probability p.  Copying makes already-cited papers more likely to be
cited again, which is enough to produce the heavy-tailed citation
distributions seen in real bibliometric data.

Growth runs level by level, not paper by paper.  The picks of every
paper come from one (n - m, m) block of uniforms, so each paper's depth
is known before growth starts: papers 0..m-1 have depth 0, and every
later paper has 1 + the largest depth among its picks.  All papers of
one depth cite only shallower papers, so they grow together in numpy:
one Bernoulli(p) coin per reference of each pick, drawn as one block per
level in paper order, then one sort that keeps the first occurrence of
each (paper, reference) pair.  Lists are appended to one pool in the
order they are grown, and rearranged into compressed sparse rows (CSR),
row offsets and cited papers, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArrayRecord, InvalidTallyError, require_count

# rows moved from the growth pool into CSR order at a time
GATHER_ROWS = 1024


@dataclass(frozen=True)
class RcsConfig:
    """Growth parameters.

    n_papers : total papers grown
    m        : random earlier papers picked per new paper
    p        : per-reference copy probability
    seed     : RNG seed, an integer >= 0; identical configs give
               bit-identical networks
    """

    n_papers: int
    m: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        # NaN fails every comparison, and so every check
        object.__setattr__(self, "m", require_count("m", self.m, 1))
        object.__setattr__(self, "n_papers", require_count("n_papers", self.n_papers, self.m + 1, "m + 1"))
        if not 0.0 <= self.p <= 1.0:
            raise InvalidTallyError("p must be in [0, 1]")
        object.__setattr__(self, "seed", require_count("seed", self.seed, 0))


@dataclass(frozen=True, eq=False)
class CitationNetwork(ArrayRecord):
    """Directed acyclic citation graph, papers indexed 0..n-1 in arrival
    order, in CSR form: paper t cites indices[indptr[t]:indptr[t + 1]]
    (all < t, no duplicates, in first-occurrence order); in_degree[i]
    counts the rows containing i."""

    indptr: np.ndarray
    indices: np.ndarray
    in_degree: np.ndarray

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
    repeated = np.zeros(n - m, dtype=bool)
    for j in range(1, m):
        repeated |= (picks[:, :j] == picks[:, j:j + 1]).any(axis=1)
    for i in np.flatnonzero(repeated):
        picks[i] = rng.choice(m + i, m, replace=False)
    return picks


def _depths(picks: np.ndarray, m: int) -> np.ndarray:
    """Depth of every paper: 0 for papers 0..m-1, else 1 + the largest
    depth among its picks (row t - m of `picks`)."""
    n = picks.shape[0] + m
    depth = np.zeros(n, dtype=np.int32)
    # papers in [lo, hi) pick only below hi, so each block, a quarter as
    # long as what precedes it, is iterated to its own fixed point; depths
    # rise from 0 and the number of passes is the longest chain of picks
    # inside the block.  After the first pass only the rows that pick
    # inside the block can change.
    lo = m
    while lo < n:
        hi = min(lo + max(lo // 4, 1), n)
        block = picks[lo - m:hi - m]
        depth[lo:hi] = depth[block].max(axis=1) + 1
        rows = np.flatnonzero((block >= lo).any(axis=1))
        inner, papers = block[rows], lo + rows
        while True:
            d = depth[inner].max(axis=1) + 1
            if np.array_equal(d, depth[papers]):
                break
            depth[papers] = d
        lo = hi
    return depth


def simulate_rcs(config: RcsConfig) -> CitationNetwork:
    """Grow one network.  Uses PCG64 seeded from config.seed.

    Bootstrap: papers 0..m-1 cite all earlier papers (paper 0 cites
    nothing).  From paper m on: pick m distinct earlier papers uniformly,
    cite each, then copy each reference of each picked paper with
    probability p; duplicates in the combined list are dropped, keeping
    first occurrence.
    """
    rng = np.random.default_rng(config.seed)
    n, m, p = config.n_papers, config.m, config.p
    picks = _draw_picks(rng, n, m)
    depth = _depths(picks, m)
    # papers level by level, in index order within a level
    order = np.argsort(depth, kind="stable")
    bounds = np.cumsum(np.bincount(depth))
    # reference lists in the order they are grown: paper t cites
    # pool[start[t]:start[t] + length[t]]
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    # sized for the expected references per paper, which solve r = m + m p r,
    # but at most 4 m of them; the pool at least doubles when it fills
    pool = np.empty(int(n * m / max(1.0 - m * p, 0.25)), dtype=dtype)
    start = np.empty(n, dtype=np.int64)
    length = np.empty(n, dtype=np.int64)
    length[:m] = np.arange(m)
    start[:m] = np.cumsum(length[:m]) - length[:m]
    pos = m * (m - 1) // 2
    pool[:pos] = [r for t in range(m) for r in range(t)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        papers = order[a:b]
        chosen = picks[papers - m].ravel()
        # one coin per reference of every pick, picks in paper order
        lens = length[chosen]
        ends = np.cumsum(lens)
        hits = np.flatnonzero(rng.random(int(ends[-1])) < p)
        pick_of = np.searchsorted(ends, hits, side="right")
        # a hit's pool slot: its pick's first reference plus its offset in
        # the pick's list
        copied = pool[(start[chosen] - ends + lens)[pick_of] + hits]
        # raw lists: each pick followed by what was copied from it; a pick's
        # slots all start as the pick, and its copies overwrite all but one
        row = np.repeat(np.arange(chosen.size), np.bincount(pick_of, minlength=chosen.size) + 1)
        raw = chosen.astype(dtype)[row]
        raw[pick_of + np.arange(1, hits.size + 1)] = copied
        row //= m  # from each entry's pick to its paper
        # first occurrence of each (paper, reference), in raw order
        first = np.unique(row * n + raw, return_index=True)[1]
        first.sort()
        kept = raw[first]
        grown = np.bincount(row[first], minlength=papers.size)
        if pos + kept.size > pool.size:
            pool = np.concatenate([pool[:pos], np.empty(max(pool.size, kept.size), dtype)])
        pool[pos:pos + kept.size] = kept
        start[papers] = pos + np.cumsum(grown) - grown
        length[papers] = grown
        pos += kept.size
    # freed before the CSR arrays exist, which keeps the peak down
    del picks, order
    # the pool rearranged into paper order, a few thousand rows at a time
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    indices = np.empty(pos, dtype=np.int64)
    for a in range(0, n, GATHER_ROWS):
        b = min(a + GATHER_ROWS, n)
        lo, hi = indptr[a], indptr[b]
        src = np.repeat(start[a:b] - indptr[a:b], length[a:b]) + np.arange(lo, hi)
        indices[lo:hi] = pool[src]
    return CitationNetwork(indptr, indices, np.bincount(indices, minlength=n))


def renowned_fraction(network: CitationNetwork, threshold: int) -> tuple[int, float]:
    """Count and fraction of papers with at least `threshold` citations."""
    threshold = require_count("threshold", threshold, 1)
    count = int((network.in_degree >= threshold).sum())
    return count, count / network.n_papers


@dataclass(frozen=True)
class DegreeStats:
    total_edges: int
    mean_in_degree: float
    max_in_degree: int


def degree_stats(network: CitationNetwork) -> DegreeStats:
    """In-degree summary of a network."""
    return DegreeStats(
        total_edges=network.total_edges,
        mean_in_degree=network.total_edges / network.n_papers,
        max_in_degree=int(network.in_degree.max()),
    )
