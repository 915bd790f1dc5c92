"""Output checks for every benchmarked command.

Each check returns a list of problems (empty when the output is right).
A check is an invariant of the output, or a comparison with an
independent computation; none depends on the simulation's RNG stream,
so a change that draws random numbers differently still passes.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def parse_stdout(text: str) -> dict:
    """Strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _read_summary(lines: list[str]) -> dict:
    return parse_stdout(lines[-1]) if lines else {}


def check_estimate(payload: dict) -> list[str]:
    """The paper's worked example: D=45, T=196, N=4300."""
    problems = []
    if round(payload.get("naive_r", -1.0), 4) != 0.2296:
        problems.append(f"estimate naive_r {payload.get('naive_r')} != 0.2296")
    if round(payload.get("corrected_r", -1.0), 4) != 0.2214:
        problems.append(f"estimate corrected_r {payload.get('corrected_r')} != 0.2214")
    return problems


def check_parse(payload: dict, planted) -> list[str]:
    """D, T, N, class sizes and rejected lines equal what was planted; the
    estimate is the closed form of that tally."""
    problems = []
    got = (payload.get("D"), payload.get("T"), payload.get("N"))
    want = (planted.distinct, planted.total, planted.citations)
    if got != want:
        problems.append(f"parse (D, T, N) {got} != planted {want}")
    sizes = tuple(sorted((c["multiplicity"] for c in payload.get("classes", [])), reverse=True))
    if sizes != planted.multiplicities:
        problems.append("parse class multiplicities differ from planted")
    lines = tuple(r["line"] for r in payload.get("rejected", []))
    if lines != planted.rejected_lines:
        problems.append(f"parse rejected {len(lines)} lines, planted {len(planted.rejected_lines)}")
    est = payload.get("estimate", {})
    d, t, n = want
    if not (
        math.isclose(est.get("naive_r", -1.0), d / t, rel_tol=1e-12)
        and math.isclose(est.get("corrected_r", -1.0), (d / t) * (n - t) / (n - d), rel_tol=1e-12)
    ):
        problems.append("parse estimate does not match the planted tally")
    return problems


def check_oracle(payload: dict, citations: int, trials: int, dump: str | None) -> list[str]:
    """Ensemble summary invariants, and a dump whose {D, T, N} summary
    matches its own lines."""
    problems = []
    if payload.get("trials") != trials:
        problems.append(f"oracle trials {payload.get('trials')} != {trials}")
    if not 0 <= payload.get("degenerate", -1) < trials:
        problems.append(f"oracle degenerate {payload.get('degenerate')} out of range")
    for key in ("naive_mean", "corrected_mean", "pooled_naive", "pooled_corrected"):
        if not 0.0 <= payload.get(key, -1.0) <= 1.0:
            problems.append(f"oracle {key} {payload.get(key)} not in [0, 1]")
    # corrected = naive * (N-T)/(N-D) <= naive for every tally
    if payload.get("corrected_mean", 2.0) > payload.get("naive_mean", -1.0) + 1e-12:
        problems.append("oracle corrected_mean > naive_mean")
    if payload.get("pooled_corrected", 2.0) > payload.get("pooled_naive", -1.0) + 1e-12:
        problems.append("oracle pooled_corrected > pooled_naive")
    if dump is not None:
        problems += check_chain_dump(dump, citations)
    return problems


def check_chain_dump(path: str, citations: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        summary = _read_summary(lines)
        rows = [line.split(",") for line in lines[:-1]]
        index = [int(i) for i, _ in rows]
        variants = np.array([int(v) for _, v in rows], dtype=np.int64)
    except ValueError as exc:
        return [f"oracle dump unreadable: {exc}"]
    problems = []
    if index != list(range(citations)):
        problems.append(f"oracle dump has {len(index)} citation lines, expected {citations}")
    misprinted = variants[variants > 0]
    own = {"D": int(np.unique(misprinted).size), "T": int(misprinted.size), "N": len(rows)}
    if summary != own:
        problems.append(f"oracle dump summary {summary} != its lines {own}")
    return problems


def check_rcs(
    payload: dict, papers: int, m: int, runs: int, threshold: int, dump: str | None
) -> list[str]:
    """Per-run degree invariants (mean_in_degree * papers = total_edges),
    ensemble means of the runs, and a dump that agrees with run 0."""
    problems = []
    per_run = payload.get("runs", [])
    if [r.get("run") for r in per_run] != list(range(runs)):
        return [f"simulate-rcs reported {len(per_run)} runs, expected {runs}"]
    # papers m.. each cite m distinct picks; papers 1..m-1 cite all before them
    least_edges = m * (papers - m) + m * (m - 1) // 2
    for r in per_run:
        edges = r["total_edges"]
        if not math.isclose(r["mean_in_degree"] * papers, edges, rel_tol=1e-12):
            problems.append(f"run {r['run']}: mean_in_degree * papers != total_edges {edges}")
        if edges < least_edges:
            problems.append(f"run {r['run']}: {edges} edges, at least {least_edges} expected")
        if not 0 <= r["renowned_count"] <= papers or r["max_in_degree"] >= papers:
            problems.append(f"run {r['run']}: counts out of range")
        if not math.isclose(r["renowned_fraction"], r["renowned_count"] / papers, rel_tol=1e-12):
            problems.append(f"run {r['run']}: renowned_fraction != renowned_count / papers")
        if (r["renowned_count"] > 0) != (r["max_in_degree"] >= threshold):
            problems.append(f"run {r['run']}: renowned_count disagrees with max_in_degree")
    ensemble = payload.get("ensemble", {})
    for key, field in (("mean_total_edges", "total_edges"), ("mean_renowned_count", "renowned_count")):
        want = float(np.mean([r[field] for r in per_run]))
        if not math.isclose(ensemble.get(key, -1.0), want, rel_tol=1e-12):
            problems.append(f"simulate-rcs ensemble {key} is not the mean of the runs")
    if dump is not None:
        problems += check_network_dump(dump, papers, threshold, per_run[0])
    return problems


def check_network_dump(path: str, papers: int, threshold: int, run0: dict) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    in_degree = np.zeros(papers, dtype=np.int64)
    problems = []
    try:
        summary = _read_summary(lines)
        if len(lines) - 1 != papers:
            return [f"network dump has {len(lines) - 1} paper lines, expected {papers}"]
        for t, line in enumerate(lines[:-1]):
            head, _, tail = line.partition(":")
            refs = [int(r) for r in tail.split()]
            if int(head) != t or len(set(refs)) != len(refs) or any(not 0 <= r < t for r in refs):
                problems.append(f"network dump line {t + 1} breaks the arrival order")
                break
            in_degree[refs] += 1
    except ValueError as exc:
        return [f"network dump unreadable: {exc}"]
    own = {
        "n_papers": papers,
        "total_edges": int(in_degree.sum()),
        "max_in_degree": int(in_degree.max()),
        "renowned_threshold": threshold,
        "renowned_count": int((in_degree >= threshold).sum()),
    }
    mean = summary.pop("mean_in_degree", -1.0)
    if summary != own or not math.isclose(mean, own["total_edges"] / papers, rel_tol=1e-12):
        problems.append(f"network dump summary {summary} != its lines {own}")
    if own["total_edges"] != run0["total_edges"] or own["renowned_count"] != run0["renowned_count"]:
        problems.append("network dump disagrees with run 0 on stdout")
    return problems


def _ccdf_at(sorted_counts: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # fraction of items >= x
    return 1.0 - np.searchsorted(sorted_counts, thresholds, side="left") / sorted_counts.size


def reference_ks(a: np.ndarray, b: np.ndarray) -> float:
    """KS distance between the CCDFs of two samples over the union of
    their values, by one searchsorted per sample."""
    a, b = np.sort(a), np.sort(b)
    thresholds = np.union1d(a, b)
    return float(np.max(np.abs(_ccdf_at(a, thresholds) - _ccdf_at(b, thresholds))))


def check_dist(payload: dict, samples: dict[str, np.ndarray]) -> list[str]:
    """KS distance against an independent computation to 1e-12, and CCDF
    files that are step curves of the inputs."""
    problems = []
    outputs = payload.get("outputs", [])
    if [o.get("label") for o in outputs] != list(samples):
        return [f"dist outputs {[o.get('label') for o in outputs]} != inputs {list(samples)}"]
    for entry in outputs:
        counts = samples[entry["label"]]
        try:
            with open(entry["ccdf_csv"], encoding="utf-8") as fh:
                rows = np.array([line.split(",") for line in fh.read().splitlines()], dtype=float)
        except (OSError, ValueError) as exc:
            problems.append(f"dist ccdf file unreadable: {exc}")
            continue
        xs = np.unique(counts)
        if rows.shape != (xs.size, 2) or not np.array_equal(rows[:, 0], xs):
            problems.append(f"dist {entry['label']}: ccdf thresholds are not the distinct counts")
        elif not np.allclose(rows[:, 1], _ccdf_at(np.sort(counts), xs), rtol=0, atol=1e-12):
            problems.append(f"dist {entry['label']}: ccdf values are wrong")
        if not math.isclose(entry.get("zero_mass", -1.0), float(np.mean(counts == 0)), abs_tol=1e-12):
            problems.append(f"dist {entry['label']}: zero_mass is wrong")
    if len(samples) == 2:
        a, b = samples.values()
        want = reference_ks(a, b)
        if not abs(payload.get("ks_distance", -1.0) - want) <= 1e-12:
            problems.append(f"dist ks_distance {payload.get('ks_distance')} != reference {want}")
    return problems


@lru_cache(maxsize=None)
def reference_log10_tail(n: int, p: float, k: int) -> float:
    """log10 P(X >= k), X ~ binomial(n, p), in 60-digit mpmath.

    Above the mode the upper tail is summed term by term until a term is
    1e-40 of the sum; at or below it, the tail is one minus the lower
    sum."""
    import mpmath as mp

    with mp.workdps(60):
        p_, q = mp.mpf(p), 1 - mp.mpf(p)
        if k == 0:
            return 0.0
        if k <= n * p:
            term, lower = q**n, mp.mpf(0)
            for j in range(k):
                lower += term
                term = term * (n - j) * p_ / ((j + 1) * q)
            return float(mp.log10(1 - lower))
        term = mp.binomial(n, k) * p_**k * q ** (n - k)
        total, j = mp.mpf(0), k
        while j <= n:
            total += term
            if term < total * mp.mpf("1e-40"):
                break
            term = term * (n - j) * p_ / ((j + 1) * q)
            j += 1
        return float(mp.log10(total))


def check_tail(payload: dict, n: int, p: float, k: int, population: int | None) -> list[str]:
    """log10 tail within the relative 1e-3 of the null-model acceptance
    criterion, taken against max(1, |reference|) so that a reference of 0
    (a tail of 1) is well defined."""
    problems = []
    got = payload.get("log10_tail")
    want = reference_log10_tail(n, p, k)
    if not isinstance(got, (int, float)) or abs(got - want) > 1e-3 * max(1.0, abs(want)):
        return [f"tail({n}, {p}, {k}) log10 {got} != reference {want}"]
    if population is not None and not math.isclose(
        payload.get("expected_count", -1.0), population * 10.0**got, rel_tol=1e-12
    ):
        problems.append(f"tail expected_count {payload.get('expected_count')} != population * 10**log10_tail")
    return problems
