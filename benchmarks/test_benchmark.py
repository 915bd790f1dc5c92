"""Tests of the benchmark itself:

    python -m pytest benchmarks

The library's own suite (testpaths = tests) does not collect them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
from citecopy import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert tracing.self_time_sum(values) == pytest.approx(values["trace.wall_s"], abs=1e-6)
    else:
        assert all(v > 0 for v in values.values())


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture()
def study(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = worker.build("study-large", 5, smoke=True)
    outcomes = worker.run_pass(commands, cli)
    return commands, outcomes


def _argv0(commands, name):
    return next(i for i, c in enumerate(commands) if c.argv[0] == name)


def _fail_frac(commands, outcomes, reference=None) -> float:
    problems, _ = worker.check_pass(commands, outcomes, reference)
    return len(problems) / len(commands)


def test_untampered_outputs_pass(study):
    assert worker.check_pass(*study, None)[0] == []


def test_wrong_distinct_count_raises_fail_frac(study):
    commands, outcomes = study
    i = _argv0(commands, "parse")
    payload = json.loads(outcomes[i].stdout)
    payload["D"] += 1
    outcomes[i] = worker.Outcome(json.dumps(payload), 0)
    assert _fail_frac(commands, outcomes) > 0


def test_truncated_dump_raises_fail_frac(study):
    commands, outcomes = study
    for name in ("oracle", "simulate-rcs"):
        dump = commands[_argv0(commands, name)].outputs[0]
        with open(dump, "r+", encoding="utf-8") as fh:
            fh.truncate(len(fh.read()) // 2)
        problems, _ = worker.check_pass(commands, outcomes, None)
        assert any(p.startswith(name) for p in problems)


def test_wrong_ks_distance_raises_fail_frac(study):
    commands, outcomes = study
    i = _argv0(commands, "dist")
    payload = json.loads(outcomes[i].stdout)
    payload["ks_distance"] += 1e-9
    outcomes[i] = worker.Outcome(json.dumps(payload), 0)
    assert _fail_frac(commands, outcomes) > 0


def test_non_json_constant_and_exit_code_raise_fail_frac(study):
    commands, outcomes = study
    i = _argv0(commands, "tail")
    outcomes[i] = worker.Outcome(outcomes[i].stdout.replace('"log10_tail": ', '"log10_tail": -Infinity, "x": '), 0)
    outcomes[0] = worker.Outcome(outcomes[0].stdout, 2)
    assert _fail_frac(commands, outcomes) == pytest.approx(2 / len(commands))


def test_output_that_differs_between_passes_raises_fail_frac(study):
    commands, outcomes = study
    _, reference = worker.check_pass(commands, outcomes, None)
    i = _argv0(commands, "estimate")
    outcomes[i] = worker.Outcome(outcomes[i].stdout + " ", 0)
    assert _fail_frac(commands, outcomes, reference) == pytest.approx(1 / len(commands))


def test_traced_pass_counts_and_self_times(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = worker.build("oracle-ensemble", 5, smoke=True)
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        tracer.run_pass(lambda: worker.run_pass(commands, cli))
    finally:
        tracer.uninstall(patched)
    m = tracing.pass_metrics(tracer.spans, tracer.roots[0], lambda n, p, k: 0.0)
    # smoke size: 10 trials of 430 citations, plus trial 0 again for --dump
    assert m["copychain.citations"] == 10 * 430 + 430
    assert m["copychain.chain_calls"] == 11
    assert m["cli.calls"] == 1
    assert tracing.self_time_sum(m) == pytest.approx(m["trace.wall_s"], abs=1e-9)
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_same_seed_gives_identical_outputs_in_another_directory(tmp_path, monkeypatch):
    digests = []
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        commands = worker.build("study-large", 7, smoke=True)
        problems, found = worker.check_pass(commands, worker.run_pass(commands, cli), None)
        assert problems == []
        digests.append(found)
    assert digests[0] == digests[1]


def test_timing_stops_at_the_deadline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run = worker.Run(worker.build("oracle-ensemble", 5, smoke=True), cli, deadline=0.0)
    assert len(run.timed(seconds=60, least=3)) == 1
