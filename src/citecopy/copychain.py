"""Generative simulation of citation copying with misprint corruption.

Each citer either reads the original paper or copies a uniformly random
earlier citation's rendering; every transcription is corrupted into a
brand-new variant with a fixed probability.  Running the chain with a
known read fraction and corruption rate gives a brute-force check of the
misprint estimator.  The estimator is consistent: it approaches the true
read fraction as the number of citations grows, but slowly.  At the
paper's N = 4300 (R = 0.22, M = 0.0105) it reads about 0.25 on the
expected tally and about 0.32 averaged over single chains.

The chain is simulated in its forest form.  Citation i has a parent,
-1 when it read the original (citation 0 always does) or a uniform index
in [0, i) when it copied, and a corruption flag.  Its variant is the
ordinal of its nearest corrupted ancestor, itself included, or 0 when it
has none.  One (3, N) block of uniforms per chain gives every parent and
flag at once, and numpy pointer jumping (ptr[i] = ptr[ptr[i]] while ptr[i]
is an uncorrupted citation) finds the nearest corrupted ancestors in
O(log depth) vectorised rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArrayRecord, InsufficientStatisticsError, InvalidTallyError, require_count
from .estimator import MisprintTally, corrected_read_fraction


@dataclass(frozen=True)
class CopyChainConfig:
    """Parameters of one copy-chain run.

    n_citations : number of citers
    read_prob   : probability a citer reads the original (true R)
    misprint_prob: per-transcription corruption probability (M)
    seed        : RNG seed, an integer >= 0; identical configs give
                  bit-identical outcomes
    """

    n_citations: int
    read_prob: float
    misprint_prob: float
    seed: int

    def __post_init__(self) -> None:
        # NaN fails every comparison, and so every check
        object.__setattr__(self, "n_citations", require_count("n_citations", self.n_citations, 1))
        if not 0.0 <= self.read_prob <= 1.0:
            raise InvalidTallyError("read_prob must be in [0, 1]")
        if not 0.0 <= self.misprint_prob < 1.0:
            raise InvalidTallyError("misprint_prob must be in [0, 1)")
        object.__setattr__(self, "seed", require_count("seed", self.seed, 0))


@dataclass(frozen=True, eq=False)
class CopyChainOutcome(ArrayRecord):
    """Result of one chain: variant id per citation (0 = correct, each
    positive id is one distinct misprint class) and the derived tally."""

    variants: np.ndarray
    tally: MisprintTally


def simulate_copy_chain(config: CopyChainConfig) -> CopyChainOutcome:
    """Run one chain.  Uses PCG64 seeded from config.seed.

    Citation i reads the original (source variant 0) with probability
    read_prob, otherwise copies a uniformly random earlier citation's
    variant.  The transcription is then corrupted into a globally unique
    new variant with probability misprint_prob.  The first citation
    always sources the original.  Variant ids are 1..D in order of first
    appearance.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_citations
    reads, picks, corrupts = rng.random((3, n))
    # slot n stands for the original: -1 indexes it, and it points at
    # itself, as every corrupted citation does
    ptr = np.empty(n + 1, dtype=np.intp)
    ptr[:n] = picks * np.arange(n)  # floor(u * i), in [0, i) for every double u < 1
    ptr[:n][reads < config.read_prob] = -1
    ptr[0] = ptr[n] = -1
    hits = np.flatnonzero(corrupts < config.misprint_prob)
    ptr[hits] = hits
    # pointer jumping: every citation takes over its target's pointer.  No
    # corrupted citation ever lies strictly between a citation and its
    # target, so the fixed point, reached after O(log depth) rounds, is the
    # nearest corrupted ancestor or the original.
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            break
        ptr = jumped
    ordinal = np.zeros(n + 1, dtype=np.intp)
    ordinal[hits] = np.arange(1, hits.size + 1)
    variants = ordinal[ptr[:n]]
    return CopyChainOutcome(variants, MisprintTally(hits.size, np.count_nonzero(variants), n))


@dataclass(frozen=True)
class RoundtripSummary:
    """Ensemble statistics from repeated chain + estimator runs."""

    trials: int
    degenerate: int  # runs with zero misprints, excluded from the means
    naive_mean: float
    naive_std: float
    corrected_mean: float
    corrected_std: float
    # estimates from the pooled tally over all trials; much less affected
    # by the skew of per-trial ratio estimates
    pooled_naive: float
    pooled_corrected: float
    # D, T and N summed over all trials, degenerate ones included
    pooled: MisprintTally


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """One 64-bit seed per trial, from the base seed alone, shared by the
    library and the CLI; for j <= k, `trial_seeds(s, k)[:j]` is `trial_seeds(s, j)`."""
    seed = require_count("seed", seed, 0)
    trials = require_count("trials", trials, 0)
    ss = np.random.SeedSequence(seed)
    return ss.generate_state(trials, dtype=np.uint64)


def estimator_roundtrip(config: CopyChainConfig, trials: int) -> RoundtripSummary:
    """Run `trials` independent chains and apply both estimators to each
    outcome that produced at least one misprint."""
    trials = require_count("trials", trials, 1)
    seeds = trial_seeds(config.seed, trials)
    tallies = [simulate_copy_chain(replace(config, seed=s)).tally for s in seeds]
    estimates = [corrected_read_fraction(t) for t in tallies if t.total]
    if not estimates:
        raise InsufficientStatisticsError("every trial produced zero misprints")
    naive = np.array([e.naive_r for e in estimates])
    corrected = np.array([e.corrected_r for e in estimates])
    # the pooled tally is the sum of the trial tallies
    pooled = MisprintTally(
        sum(t.distinct for t in tallies), sum(t.total for t in tallies), config.n_citations * trials
    )
    pooled_estimate = corrected_read_fraction(pooled)
    return RoundtripSummary(
        trials=trials,
        degenerate=trials - len(estimates),
        naive_mean=float(naive.mean()),
        naive_std=float(naive.std(ddof=1)) if naive.size > 1 else 0.0,
        corrected_mean=float(corrected.mean()),
        corrected_std=float(corrected.std(ddof=1)) if corrected.size > 1 else 0.0,
        pooled_naive=pooled_estimate.naive_r,
        pooled_corrected=pooled_estimate.corrected_r,
        pooled=pooled,
    )
