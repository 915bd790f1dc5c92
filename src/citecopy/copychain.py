"""Generative simulation of citation copying with misprint corruption.

Each citer either reads the original paper or copies a uniformly random
earlier citation's rendering; every transcription is corrupted into a
brand-new variant with a fixed probability.  Running the chain with a
known read fraction and corruption rate gives a brute-force check of the
misprint estimator.  The estimator is consistent: it approaches the true
read fraction as the number of citations grows, but slowly.  At the
paper's N = 4300 (R = 0.22, M = 0.0105) it reads about 0.25 on the
expected tally and about 0.31 averaged over single chains.

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

from .errors import InsufficientStatisticsError, InvalidTallyError
from .estimator import MisprintTally, corrected_read_fraction


@dataclass(frozen=True)
class CopyChainConfig:
    """Parameters of one copy-chain run.

    n_citations : number of citers
    read_prob   : probability a citer reads the original (true R)
    misprint_prob: per-transcription corruption probability (M)
    seed        : RNG seed (>= 0); identical configs give bit-identical outcomes
    """

    n_citations: int
    read_prob: float
    misprint_prob: float
    seed: int

    def __post_init__(self) -> None:
        # written as `not in range`, so that NaN is out of range too
        if not self.n_citations >= 1:
            raise InvalidTallyError("n_citations must be >= 1")
        if not 0.0 <= self.read_prob <= 1.0:
            raise InvalidTallyError("read_prob must be in [0, 1]")
        if not 0.0 <= self.misprint_prob < 1.0:
            raise InvalidTallyError("misprint_prob must be in [0, 1)")
        if not self.seed >= 0:
            raise InvalidTallyError("seed must be >= 0")


@dataclass(frozen=True)
class CopyChainOutcome:
    """Result of one chain: variant id per citation (0 = correct, each
    positive id is one distinct misprint class), the derived tally, and
    the multiset of per-class multiplicities."""

    variants: tuple[int, ...]
    tally: MisprintTally
    class_sizes: tuple[int, ...]


def _resolve_variants(parent: np.ndarray, corrupt: np.ndarray) -> np.ndarray:
    """Variant id of each citation in the copy forest.

    parent[i] is -1 (citation i read the original) or an index below i;
    corrupt[i] says whether its transcription was corrupted.  The variant
    is the ordinal (1-based, in index order) of the nearest corrupted
    ancestor, itself included, or 0 when there is none.
    """
    n = parent.size
    # slot n stands for the original: parent -1 indexes it, and it points
    # at itself, as every corrupted citation does
    ptr = np.append(np.where(corrupt, np.arange(n), parent), -1)
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
    hits = np.flatnonzero(corrupt)
    ordinal[hits] = np.arange(1, hits.size + 1)
    return ordinal[ptr[:n]]


def _draw_forest(config: CopyChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Parents and corruption flags of one chain, from one (3, N) block of
    PCG64 uniforms: read or copy, which earlier citation, corrupted."""
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    reads, picks, corrupts = rng.random((3, config.n_citations))
    idx = np.arange(config.n_citations)
    copies = reads >= config.read_prob
    copies[0] = False
    # floor(u * i) lies in [0, i) for every double u < 1
    parent = np.where(copies, (picks * idx).astype(np.intp), -1)
    return parent, corrupts < config.misprint_prob


def simulate_copy_chain(config: CopyChainConfig) -> CopyChainOutcome:
    """Run one chain.  Uses PCG64 seeded from config.seed.

    Citation i reads the original (source variant 0) with probability
    read_prob, otherwise copies a uniformly random earlier citation's
    variant.  The transcription is then corrupted into a globally unique
    new variant with probability misprint_prob.  The first citation
    always sources the original.  Variant ids are 1..D in order of first
    appearance.
    """
    variants = _resolve_variants(*_draw_forest(config))
    sizes = np.bincount(variants)[1:]
    tally = MisprintTally(
        distinct=sizes.size,
        total=int(sizes.sum()),
        citations=config.n_citations,
    )
    return CopyChainOutcome(
        variants=tuple(variants.tolist()),
        tally=tally,
        class_sizes=tuple(sizes.tolist()),
    )


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
    """Derive one 64-bit seed per trial, deterministically from the base
    seed.  Shared by the library and the CLI so both agree."""
    ss = np.random.SeedSequence(seed)
    return ss.generate_state(trials, dtype=np.uint64)


def estimator_roundtrip(config: CopyChainConfig, trials: int) -> RoundtripSummary:
    """Run `trials` independent chains and apply both estimators to each
    outcome that produced at least one misprint."""
    if trials < 1:
        raise InvalidTallyError("trials must be >= 1")
    n = config.n_citations
    distinct = np.empty(trials, dtype=np.int64)
    total = np.empty(trials, dtype=np.int64)
    for k, s in enumerate(trial_seeds(config.seed, trials)):
        variants = _resolve_variants(*_draw_forest(replace(config, seed=int(s))))
        # variant ids run 1..D, so the largest is D
        distinct[k] = variants.max()
        total[k] = np.count_nonzero(variants)
    tallies = (MisprintTally(int(d), int(t), n) for d, t in zip(distinct, total) if t)
    estimates = [corrected_read_fraction(t) for t in tallies]
    if not estimates:
        raise InsufficientStatisticsError("every trial produced zero misprints")
    naive = np.array([e.naive_r for e in estimates])
    corrected = np.array([e.corrected_r for e in estimates])
    pooled = MisprintTally(int(distinct.sum()), int(total.sum()), n * trials)
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
