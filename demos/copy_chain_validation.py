"""Brute-force validation of the misprint estimator.

Simulate the very process the estimator assumes: each citer either reads
the original or copies a random earlier citation, and every transcription
is corrupted into a fresh misprint with a small probability.  Since the
true read fraction is an input here, we can check how well the estimator
recovers it.
"""

import numpy as np

from citecopy import CopyChainConfig, estimator_roundtrip, simulate_copy_chain

config = CopyChainConfig(
    n_citations=4300,
    read_prob=0.22,
    misprint_prob=0.0105,
    seed=2024,
)

one = simulate_copy_chain(config)
print(f"one chain: D={one.tally.distinct}, T={one.tally.total}, N={one.tally.citations}")
print(f"largest misprint class: {np.bincount(one.variants)[1:].max()} copies")
print()

summary = estimator_roundtrip(config, trials=200)
print(f"200 independent chains at true R = {config.read_prob}:")
print(f"  per-trial naive mean     {summary.naive_mean:.4f} ± {summary.naive_std:.4f}")
print(f"  per-trial corrected mean {summary.corrected_mean:.4f} ± {summary.corrected_std:.4f}")
print(f"  pooled naive             {summary.pooled_naive:.4f}")
print(f"  pooled corrected         {summary.pooled_corrected:.4f}")
print()
print("Per-trial ratio estimates scatter widely (a misprint born early can")
print("be copied enormously, one born late not at all), and their mean sits")
print("above the true value.  Pooling D, T, N over all chains before")
print("estimating removes most of that skew, but not the estimator's own")
print("finite-N bias: the estimator is consistent, yet at N = 4300 it reads")
print("about 0.25 even on the exact expected tally, and the offset shrinks")
print("only slowly as N grows (0.238 at N = 43 000, 0.230 at 430 000).")
