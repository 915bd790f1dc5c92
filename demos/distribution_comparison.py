"""Comparing citation-count distributions.

Grows two independent citation networks with the same parameters,
builds their in-degree CCDFs and log-binned histograms, and measures
the Kolmogorov-Smirnov style distance between them.  The same machinery
compares model output against an empirical counts file (one count per
line) via the `citecopy dist` command.
"""

from citecopy import (
    CountSample,
    RcsConfig,
    ccdf,
    ks_distance,
    log_bin_histogram,
    simulate_rcs,
)

nets = [
    simulate_rcs(RcsConfig(n_papers=24000, m=3, p=0.25, seed=seed))
    for seed in (1, 2)
]
samples = [CountSample(net.in_degree) for net in nets]

curves = [ccdf(s) for s in samples]
print("in-degree CCDF of run 1 (first and last few points):")
for x, frac in curves[0].points[:4]:
    print(f"  >= {x:5d}: {frac:.4f}")
print("  ...")
for x, frac in curves[0].points[-3:]:
    print(f"  >= {x:5d}: {frac:.2e}")
print()

hist = log_bin_histogram(samples[0], bins_per_decade=2)
print("log-binned density of run 1 (straight-ish line on log-log axes):")
for center, density in hist.points:
    if density > 0:
        print(f"  x ~ {center:8.1f}: {density:.3e}")
print()

d = ks_distance(curves[0], curves[1])
print(f"KS distance between the two same-parameter runs: {d:.4f}")
print("Two runs of the same growth process are statistically close even")
print("though individual papers fare completely differently in each.")
