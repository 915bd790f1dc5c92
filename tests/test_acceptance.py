"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure).  Criterion 3 checks the copy-chain round trip at the paper's
operating point (N = 4300, R = 0.22, M = 0.0105) against what the
estimator actually promises there:

- corrected = naive * (N-T)/(N-D) <= naive for every tally, since D <= T,
  so the correction can only lower the estimate, per trial and pooled;
- the simulated chains match the model's exact E[D] and E[T];
- the estimator is consistent but converges slowly in N.  Applied to the
  expected tally, rounded to counts, it gives 0.2523 at N = 4300, 0.2385
  at 43 000 and 0.2304 at 430 000.  The per-trial mean (about 0.32, a
  finite-N bias of about +0.10) is higher still because D/T is a skewed
  ratio.
"""

import json

import mpmath as mp
import numpy as np
import pytest

from citecopy import (
    BinomialTailQuery,
    CopyChainConfig,
    CountSample,
    MisprintTally,
    RcsConfig,
    binomial_log10_tail,
    ccdf,
    corrected_read_fraction,
    estimator_roundtrip,
    ks_distance,
    renowned_fraction,
    simulate_rcs,
    streak_probability,
)
from citecopy.cli import main

from chain_moments import Z, expected_tally, pooled_moments
from test_rcs import check_network_invariants


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def rcs_ensemble():
    """20 independent 24,000-paper networks at m=3, p=1/4."""
    return [simulate_rcs(RcsConfig(24000, 3, 0.25, seed)) for seed in range(20)]


def test_criterion_01_estimator_golden_numbers():
    tally = MisprintTally(45, 196, 4300)
    est = corrected_read_fraction(tally)
    naive, corrected = est.naive_r, est.corrected_r
    ok = abs(naive - 0.2296) < 1e-4 and abs(corrected - 0.2214) < 1e-4
    report(1, ok, f"naive={naive:.6f} (0.2296), corrected={corrected:.6f} (0.2214)")


def test_criterion_02_equation_chain_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 500))
        t = int(rng.integers(d, d + 2000))
        n = int(rng.integers(t + 1, t + 200000))
        est = corrected_read_fraction(MisprintTally(d, t, n))
        n_p, m, n_c = est.propagation_factor, est.misprint_prob, est.copy_factor
        residual = abs(n_c - (n_p + n_p * (m / (1 - m)) * (1 + n_c)))
        worst = max(worst, residual / max(1.0, abs(n_c)))
        worst = max(
            worst,
            abs(1 / (1 + n_c) - est.corrected_r) / max(est.corrected_r, 1e-300),
        )
    report(2, worst < 1e-10, f"worst relative error {worst:.2e} over 1000 tallies")


def test_criterion_03_oracle_roundtrip():
    n, r, m, trials = 4300, 0.22, 0.0105, 200
    summary = estimator_roundtrip(CopyChainConfig(n, r, m, 12345), trials)
    ordering = (
        summary.corrected_mean <= summary.naive_mean
        and summary.pooled_corrected <= summary.pooled_naive
    )
    d, t = summary.pooled.distinct, summary.pooled.total
    mean_d, sd_d, mean_t, sd_t = pooled_moments(n, r, m, trials)
    z_d, z_t = (d - mean_d) / sd_d, (t - mean_t) / sd_t
    moments = max(abs(z_d), abs(z_t)) <= Z
    biases = [
        corrected_read_fraction(expected_tally(size, r, m)).corrected_r - r
        for size in (4300, 43000, 430000)
    ]
    b1, b2, b3 = (abs(b) for b in biases)
    converges = b1 > b2 > b3 and b2 <= 0.03
    report(
        3,
        ordering and moments and converges,
        f"corrected <= naive per trial and pooled: {'yes' if ordering else 'no'}; "
        f"pooled D={d}, T={t} at {z_d:+.2f}, {z_t:+.2f} sd of exact E[D], E[T] "
        f"(limit {Z:g}); expected-tally bias "
        + "/".join(f"{b:+.4f}" for b in biases)
        + f" at N=4300/43000/430000 (falling, <= 0.03 from 43000: "
        f"{'yes' if converges else 'no'}); per-trial finite-N bias "
        f"{summary.corrected_mean - r:+.4f}",
    )


def test_criterion_04_renowned_paper_claim(rcs_ensemble):
    counts = [renowned_fraction(net, 500)[0] for net in rcs_ensemble]
    mean = float(np.mean(counts))
    report(4, 28 <= mean <= 52, f"mean renowned count {mean:.1f} over 20 seeds (band [28, 52])")


def test_criterion_05_null_model_claim():
    got = binomial_log10_tail(BinomialTailQuery(350000, 1 / 24000, 500))
    with mp.workdps(60):
        p = mp.mpf(1) / 24000
        q = 1 - p
        term = mp.binomial(350000, 500) * p**500 * q ** (350000 - 500)
        total = mp.mpf(0)
        j = 500
        while j <= 350000:
            total += term
            if term < total * mp.mpf("1e-40"):
                break
            term = term * (350000 - j) * p / ((j + 1) * q)
            j += 1
        oracle = float(mp.log10(total))
    ok = got <= -500 and abs(got - oracle) / abs(oracle) < 1e-3
    report(5, ok, f"log10 tail {got:.4f} <= -500, oracle {oracle:.4f}")


def test_criterion_06_fermi_streak():
    got = streak_probability(0.5, 5)
    report(6, got == 0.03125, f"streak_probability(0.5, 5) = {got}")


def test_criterion_07_network_invariants():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cfg = RcsConfig(
            n_papers=int(rng.integers(20, 1500)),
            m=int(rng.integers(1, 6)),
            p=float(rng.random() * 0.5),
            seed=int(rng.integers(0, 2**63)),
        )
        check_network_invariants(simulate_rcs(cfg))
    report(7, True, "edge conservation, acyclicity, no-duplicates over 50 runs")


def test_criterion_08_parser_to_estimator_pipeline(capsys, data_dir):
    canonical = "J.Phys.C,6,1181,1973"
    code = main(
        ["parse", "--input", str(data_dir / "kt60.csv"),
         "--canonical", canonical, "--estimate"]
    )
    # strict JSON: NaN or Infinity in stdout fails the test
    payload = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    direct = corrected_read_fraction(MisprintTally(5, 16, 60))
    ok = (
        code == 0
        and (payload["D"], payload["T"], payload["N"]) == (5, 16, 60)
        and payload["estimate"]["corrected_r"] == direct.corrected_r
        and payload["estimate"]["naive_r"] == direct.naive_r
        and payload["estimate"]["n_p"] == direct.propagation_factor
        and payload["estimate"]["n_c"] == direct.copy_factor
        and payload["estimate"]["M"] == direct.misprint_prob
    )
    with capsys.disabled():
        report(8, ok, f"fixture D/T/N = {payload['D']}/{payload['T']}/{payload['N']}, "
                      "chained estimate bit-identical to direct call")


def test_criterion_09_determinism(capsys, tmp_path, data_dir):
    commands = [
        ["estimate", "--distinct", "45", "--total", "196", "--citations", "4300"],
        ["simulate-rcs", "--papers", "500", "--m", "3", "--p", "0.25",
         "--seed", "17", "--runs", "3"],
        ["oracle", "--citations", "800", "--read-prob", "0.4",
         "--misprint-prob", "0.02", "--seed", "23", "--trials", "20"],
        ["tail", "--trials", "1000", "--one-in", "50", "--threshold", "40"],
        ["parse", "--input", str(data_dir / "kt60.csv"),
         "--canonical", "J.Phys.C,6,1181,1973", "--estimate"],
    ]
    ok = True
    for argv in commands:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second
    with capsys.disabled():
        report(9, ok, "re-runs with identical flags are byte-identical")


def test_criterion_10_heavy_tail_and_seed_stability(rcs_ensemble):
    heavy = sum(
        1
        for net in rcs_ensemble
        if net.in_degree.max() > 50 * net.in_degree.mean()
    )
    curves = [
        ccdf(CountSample(tuple(int(d) for d in net.in_degree)))
        for net in rcs_ensemble[:2]
    ]
    ks = ks_distance(curves[0], curves[1])
    ok = heavy >= 18 and ks < 0.05
    report(10, ok, f"heavy-tailed in {heavy}/20 runs (need >= 18), "
                   f"same-config KS distance {ks:.4f} < 0.05")
