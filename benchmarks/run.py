"""Benchmark of the citecopy command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It measures set-up time in fresh
interpreters, then runs the workload in one worker process (see
`worker.py`) while sampling the memory of that process and any it
starts.  Human-readable lines come first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json, with
`--trace 1` the `per_layer` ones, from a separate traced run.

Exits 1 without a result when the library is not in the checkout or the
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5  # fresh interpreters per run, after one untimed warm-up
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _import_s(stderr: str) -> dict[str, float]:
    """Import seconds charged to numpy, scipy and citecopy, from the
    `-X importtime` tree.  Each module's self time goes to the outermost
    numpy or scipy module among itself and its importers, else to
    citecopy if citecopy imported it; so all that `import scipy.special`
    pulls in is scipy's, and nothing is counted twice.  Interpreter
    start-up is charged to none of them."""
    totals = dict.fromkeys(("numpy", "scipy", "citecopy"), 0.0)
    lines = [line[len("import time:"):].split("|") for line in stderr.splitlines()
             if line.startswith("import time:")]
    importers: list[tuple[int, str]] = []
    # the tree is printed children first, so read it backwards
    for self_us, _, field in reversed(lines):
        if not self_us.strip().isdigit():
            continue  # the header
        name = field.strip()
        depth = len(field) - len(field.lstrip(" "))
        while importers and importers[-1][0] >= depth:
            importers.pop()
        chain = [name] + [n for _, n in reversed(importers)]
        importers.append((depth, name))
        packages = [n.split(".")[0] for n in chain]
        owner = next((p for p in reversed(packages) if p in ("numpy", "scipy")), None)
        if owner is None and "citecopy" in packages:
            owner = "citecopy"
        if owner is not None:
            totals[owner] += int(self_us) / 1e6
    return totals


def measure_setup(repeats: int) -> dict[str, float]:
    """Median over fresh interpreters of the wall time to `import
    citecopy.cli`, and of each package's share of it."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import citecopy.cli"]
    walls, shares = [], []
    for i in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError("import citecopy.cli failed:\n" + proc.stderr[-2000:])
        if i:  # the first run compiles bytecode
            walls.append(wall)
            shares.append(_import_s(proc.stderr))
    out = {"setup_s": statistics.median(walls)}
    for package in shares[0]:
        out[f"setup.{package}_s"] = statistics.median(s[package] for s in shares)
    return out


PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") else 4


def _descendants(pid: int) -> set[int]:
    """`pid` and every process below it, from the parent ids in /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    # the parent id follows the parenthesised command name
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we looked
            children.setdefault(ppid, []).append(int(entry))
    found, stack = set(), [pid]
    while stack:
        p = stack.pop()
        found.add(p)
        stack.extend(children.get(p, ()))
    return found


def _rss_kb(pids: set[int]) -> int:
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except (OSError, IndexError, ValueError):
            continue
    return total


class RssSampler(threading.Thread):
    """Peak summed resident memory of a process and its descendants,
    sampled every 20 ms; the set of descendants is refreshed every 0.5 s,
    which is cheap enough not to slow the workload."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid, self.peak_kb = pid, 0
        self.done = threading.Event()
        self.enabled = os.path.exists(f"/proc/{pid}/statm")

    def run(self) -> None:
        pids, samples = {self.pid}, 0
        while self.enabled and not self.done.wait(0.02):
            if samples % 25 == 0:
                pids = _descendants(self.pid)
            samples += 1
            self.peak_kb = max(self.peak_kb, _rss_kb(pids))


def run_worker(args: argparse.Namespace, timeout: float) -> tuple[dict, int]:
    """Run the workload in a worker process; its result and peak memory.
    The worker stops timing early rather than run past `timeout`."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--budget", str(timeout - 10)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sampler = RssSampler(proc.pid)
    sampler.start()
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    finally:
        sampler.done.set()
        sampler.join()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    # the kernel's own peaks catch what sampling misses: the worker's, and
    # that of its largest child process
    return result, max(sampler.peak_kb, *result["maxrss_kb"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "citecopy", "cli.py")):
            raise BenchError(f"no citecopy sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        values = measure_setup(2 if args.smoke else SETUP_REPEATS)
        result, peak_kb = run_worker(args, DEADLINE_S - (time.perf_counter() - started))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    walls = result["walls"]
    values["wall_s"] = statistics.median(walls)
    values["peak_rss_mb"] = peak_kb / 1024
    values["fail_frac"] = result["failed"] / result["attempted"]
    values.update(result.get("layers", {}))
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"{args.workload} seed {args.seed}: wall_s median {values['wall_s']:.4f} s over {len(walls)} "
          f"{'untraced ' if args.trace else ''}passes (quartiles {quartiles[0]:.4f}..{quartiles[2]:.4f}), "
          f"setup_s {values['setup_s']:.4f} s, peak_rss_mb {values['peak_rss_mb']:.1f}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
