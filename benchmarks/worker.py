"""Runs one benchmark workload in this process and prints its raw
results as one JSON line.

`run.py` starts this script in its own process, so that the workload's
peak memory is that process's and nothing else's.  One caller runs the
workload's command list through `citecopy.cli.main(argv)` in a closed
loop: each command starts when the previous one has returned.

The inputs are generated from the seed before timing starts.  The first
pass is a warm-up whose outputs get every check; each later pass must
reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("oracle-ensemble", "rcs-ensemble", "study-large")
MIN_PASSES = 3  # timed passes per run, however long each takes

# the paper's operating point for the copy chain, and RCS growth parameters
ORACLE_ARGS = ["--read-prob", "0.22", "--misprint-prob", "0.0105"]
RCS_M, RCS_THRESHOLD = 3, 500
RCS_ARGS = ["--m", str(RCS_M), "--p", "0.25", "--threshold", str(RCS_THRESHOLD)]


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[dict], list[str]]
    outputs: tuple[str, ...] = ()  # files the command writes


@dataclass(frozen=True)
class Outcome:
    stdout: str
    code: object  # the exit code, or the exception the command raised


def build(workload: str, seed: int, smoke: bool) -> list[Command]:
    """The workload's command list; writes its input files into the
    current directory.  File names are relative, so stdout, which echoes
    them, is the same in every run with the same seed.  `smoke` shrinks
    every size so that the benchmark's own tests are fast."""
    rng = np.random.default_rng(seed)

    def sim_seed() -> str:
        return str(int(rng.integers(2**31)))

    if workload == "oracle-ensemble":
        n, trials = (430, 10) if smoke else (4300, 200)
        dump = "chain.txt"
        argv = ["oracle", "--citations", str(n), *ORACLE_ARGS, "--seed", sim_seed(), "--trials", str(trials)]
        return [Command(argv + ["--dump", dump], lambda p: checks.check_oracle(p, n, trials, dump), (dump,))]

    if workload == "rcs-ensemble":
        papers, runs = (2400 if smoke else 24000), 4
        argv = ["simulate-rcs", "--papers", str(papers), *RCS_ARGS, "--seed", sim_seed(), "--runs", str(runs)]
        return [Command(argv, lambda p: checks.check_rcs(p, papers, RCS_M, runs, RCS_THRESHOLD, None))]

    if workload != "study-large":
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        records, papers, citations, counts, below_mode_trials = 2000, 2000, 5000, 5000, 10**4
    else:
        records, papers, citations, counts, below_mode_trials = 100_000, 40_000, 100_000, 200_000, 10**6
    csv = "citations.csv"
    planted = inputs.write_citations(csv, rng, records)
    samples = {}
    for label, exponent in zip(("counts_a", "counts_b"), inputs.COUNT_EXPONENTS):
        samples[label] = inputs.write_counts(label + ".txt", rng, counts, exponent)
    net, chain, prefix = "net.txt", "chain.txt", "dist"
    curves = tuple(f"{prefix}_{label}_{kind}.csv" for label in samples for kind in ("ccdf", "hist"))
    return [
        Command(
            ["parse", "--input", csv, "--canonical", inputs.CANONICAL_ARG, "--estimate"],
            lambda p: checks.check_parse(p, planted),
        ),
        Command(
            ["simulate-rcs", "--papers", str(papers), *RCS_ARGS, "--seed", sim_seed(), "--runs", "1", "--dump", net],
            lambda p: checks.check_rcs(p, papers, RCS_M, 1, RCS_THRESHOLD, net),
            (net,),
        ),
        Command(
            ["oracle", "--citations", str(citations), *ORACLE_ARGS, "--seed", sim_seed(), "--trials", "1",
             "--dump", chain],
            lambda p: checks.check_oracle(p, citations, 1, chain),
            (chain,),
        ),
        Command(
            ["dist", "--counts", *(label + ".txt" for label in samples), "--out-prefix", prefix],
            lambda p: checks.check_dist(p, samples),
            curves,
        ),
        # the paper's point, and a query below the mode
        Command(
            ["tail", "--trials", "350000", "--one-in", "24000", "--threshold", "500", "--population", "24000"],
            lambda p: checks.check_tail(p, 350000, 1 / 24000, 500, 24000),
        ),
        Command(
            ["tail", "--trials", str(below_mode_trials), "--prob", "0.3", "--threshold", "1"],
            lambda p: checks.check_tail(p, below_mode_trials, 0.3, 1, None),
        ),
        Command(["estimate", "--distinct", "45", "--total", "196", "--citations", "4300"], checks.check_estimate),
    ]


def run_pass(commands: list[Command], cli) -> list[Outcome]:
    """Run every command once, in order, capturing its stdout."""
    outcomes = []
    for cmd in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(cmd.argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
            except Exception as exc:  # a crash counts as a failed command
                code = repr(exc)
        outcomes.append(Outcome(out.getvalue(), code))
    return outcomes


def _digest(cmd: Command, outcome: Outcome) -> str:
    h = hashlib.sha256(outcome.stdout.encode())
    for path in cmd.outputs:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_pass(
    commands: list[Command], outcomes: list[Outcome], reference: list[str] | None
) -> tuple[list[str], list[str]]:
    """Problems of the failed commands (one entry each) and the digest of
    every command's outputs.  Without `reference` every output is checked
    in full; with it, each must reproduce its reference digest."""
    problems, digests = [], []
    for i, (cmd, outcome) in enumerate(zip(commands, outcomes)):
        try:
            digest = _digest(cmd, outcome)
        except OSError as exc:
            digest = ""
            found = [f"output file missing: {exc}"]
        else:
            found = []
        if outcome.code != 0:
            found.append(f"exit {outcome.code}")
        elif reference is not None:
            if digest != reference[i]:
                found.append("outputs differ from the first pass with the same seed")
        elif not found:
            try:
                found = cmd.check(checks.parse_stdout(outcome.stdout))
            except Exception as exc:  # a malformed output fails its check
                found = [f"check raised {exc!r}"]
        if found:
            problems.append(f"{cmd.argv[0]}: " + "; ".join(found))
        digests.append(digest)
    return problems, digests


def bytes_out(commands: list[Command], outcomes: list[Outcome]) -> int:
    """Bytes the commands wrote: stdout plus their output files."""
    return sum(
        len(o.stdout.encode()) + sum(os.path.getsize(p) for p in c.outputs if os.path.exists(p))
        for c, o in zip(commands, outcomes)
    )


class Run:
    """Passes of one workload, with the checks and counts of all of them."""

    def __init__(self, commands: list[Command], cli, deadline: float) -> None:
        self.commands, self.cli, self.deadline = commands, cli, deadline
        self.attempted, self.problems = 0, []
        self.reference: list[str] | None = None  # output digests of the first pass
        self.first_bytes_out = 0

    def one_pass(self, wrap=None) -> float:
        gc.collect()
        start = time.perf_counter()
        if wrap is None:
            outcomes = run_pass(self.commands, self.cli)
        else:
            outcomes = wrap(lambda: run_pass(self.commands, self.cli))
        wall = time.perf_counter() - start
        problems, digests = check_pass(self.commands, outcomes, self.reference)
        if self.reference is None:
            self.reference, self.first_bytes_out = digests, bytes_out(self.commands, outcomes)
        self.attempted += len(self.commands)
        self.problems += problems
        return wall

    def timed(self, seconds: float, least: int, wrap=None) -> list[float]:
        """Passes while the next one is likely to end within `seconds`, at
        least `least` of them, but after the first none that is likely to
        end past the deadline.  The last pass's wall is the estimate."""
        walls: list[float] = []
        end = time.perf_counter() + seconds
        while len(walls) < least or time.perf_counter() + walls[-1] <= end:
            if walls and time.perf_counter() + walls[-1] > self.deadline:
                break
            walls.append(self.one_pass(wrap))
        return walls


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, cli, deadline: float) -> dict:
    commands = build(workload, seed, smoke)
    run = Run(commands, cli, deadline)
    run.one_pass()  # warm-up, checked in full
    result: dict = {}
    if not trace:
        result["walls"] = run.timed(seconds, MIN_PASSES)
    else:
        untraced = run.timed(seconds / 2, 1)
        tracer = tracing.Tracer()
        patched = tracer.install()
        try:
            run.timed(seconds / 2, 1, tracer.run_pass)
        finally:
            tracer.uninstall(patched)
        per_pass = [tracing.pass_metrics(tracer.spans, r, checks.reference_log10_tail) for r in tracer.roots]
        for m in per_pass:
            if abs(tracing.self_time_sum(m) - m["trace.wall_s"]) > 1e-6:
                run.problems.append(f"self times of a traced pass sum to {tracing.self_time_sum(m)}, not its wall")
        walls = [m["trace.wall_s"] for m in per_pass]
        layers = per_pass[walls.index(statistics.median_low(walls))]
        layers["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
        layers["cli.bytes_out"] = run.first_bytes_out
        result["walls"], result["layers"] = untraced, layers
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.jsonl"))
    result.update(
        attempted=run.attempted,
        failed=len(run.problems),
        problems=run.problems[:20],
        maxrss_kb=[resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)],
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--budget", type=float, default=math.inf, help="seconds this process may take")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.budget

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from citecopy import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"citecopy imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    os.chdir(workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, cli, deadline)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
