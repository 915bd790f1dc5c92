import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import citecopy
from citecopy import (
    InvalidTallyError, MisprintTally, RcsConfig, cli, corrected_read_fraction, degree_stats,
    renowned_fraction, simulate_rcs,
)
from citecopy.cli import main
from citecopy.copychain import CopyChainConfig, simulate_copy_chain, trial_seeds


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_strict_json(capsys, *argv):
    """Like run_json, but NaN and Infinity in stdout fail the parse."""
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_reject_constant)


def test_import_does_not_load_scipy():
    # every CLI call pays the import; scipy alone used to be most of it
    src = str(pathlib.Path(citecopy.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, citecopy.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


class TestEstimate:
    def test_golden_numbers(self, capsys):
        code, payload = run_json(
            capsys, "estimate", "--distinct", "45", "--total", "196",
            "--citations", "4300",
        )
        assert code == 0
        assert payload["corrected_r"] == pytest.approx(0.2214, abs=1e-4)
        assert payload["naive_r"] == pytest.approx(0.2296, abs=1e-4)
        assert payload["manifest"]["subcommand"] == "estimate"

    def test_all_distinct(self, capsys):
        code, payload = run_json(
            capsys, "estimate", "--distinct", "10", "--total", "10",
            "--citations", "100",
        )
        assert code == 0
        assert payload["corrected_r"] == 1.0

    def test_infinite_copy_factor_is_inf_string(self, capsys):
        code, payload = run_strict_json(
            capsys, "estimate", "--distinct", "5", "--total", "100",
            "--citations", "100",
        )
        assert code == 0
        assert payload["n_c"] == "inf"

    def test_insufficient_statistics(self, capsys):
        code, payload = run_json(
            capsys, "estimate", "--distinct", "0", "--total", "0",
            "--citations", "50",
        )
        assert code == 2
        assert payload["error"]["type"] == "InsufficientStatisticsError"

    def test_invalid_tally(self, capsys):
        code, payload = run_strict_json(
            capsys, "estimate", "--distinct", "5", "--total", "3",
            "--citations", "10",
        )
        assert code == 2
        assert payload["error"] == {"type": "InvalidTallyError", "message": "total must be >= distinct"}
        parameters = payload["manifest"]["parameters"]
        assert (parameters["distinct"], parameters["total"], parameters["citations"]) == (5, 3, 10)


class TestSimulateRcs:
    def test_no_copying_out_degree(self, capsys, tmp_path):
        dump = tmp_path / "net.txt"
        code, payload = run_json(
            capsys, "simulate-rcs", "--papers", "100", "--m", "3", "--p", "0",
            "--seed", "7", "--dump", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 101  # 100 papers + summary JSON
        for line in lines[3:100]:
            _, refs = line.split(":")
            assert len(refs.split()) == 3
        summary = json.loads(lines[-1])
        assert summary["n_papers"] == 100
        assert summary["total_edges"] == payload["runs"][0]["total_edges"]

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate-rcs", "--papers", "300", "--m", "2", "--p", "0.2",
                "--seed", "5", "--runs", "3"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_invalid_config(self, capsys):
        code, payload = run_json(
            capsys, "simulate-rcs", "--papers", "2", "--m", "3", "--p", "0",
            "--seed", "1",
        )
        assert code == 2
        assert "error" in payload

    def test_negative_seed(self, capsys):
        code, payload = run_strict_json(
            capsys, "simulate-rcs", "--papers", "100", "--m", "3", "--p", "0.2",
            "--seed", "-1",
        )
        assert code == 2
        assert payload["error"]["type"] == "InvalidTallyError"

    def test_zero_threshold_fails_before_growing(self, capsys, monkeypatch):
        grown = []
        monkeypatch.setattr(cli, "simulate_rcs", grown.append)
        code, payload = run_strict_json(
            capsys, "simulate-rcs", "--papers", "100", "--m", "3", "--p", "0.2",
            "--seed", "1", "--threshold", "0",
        )
        assert code == 2
        assert payload["error"]["type"] == "InvalidTallyError"
        assert grown == []

    def test_dump_equals_per_row_rendering(self, capsys, tmp_path):
        # 12 000 papers make several of the writer's blocks
        for papers in (700, 12000):
            dump = tmp_path / f"net{papers}.txt"
            code, _ = run_json(
                capsys, "simulate-rcs", "--papers", str(papers), "--m", "2", "--p", "0.3",
                "--seed", "19", "--dump", str(dump),
            )
            assert code == 0
            net = simulate_rcs(RcsConfig(papers, 2, 0.3, int(trial_seeds(19, 1)[0])))
            assert papers < cli.DUMP_BLOCK or net.total_edges > 2 * cli.DUMP_BLOCK
            rows = "".join(
                f"{idx}: {' '.join(str(r) for r in refs)}\n"
                for idx, refs in enumerate(net.out_lists)
            )
            lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
            assert "".join(lines[:-1]) == rows  # the last line is the summary

    RUNS_ARGV = ["simulate-rcs", "--papers", "400", "--m", "2", "--p", "0.3", "--seed", "23"]

    def test_runs_equal_serial_reference(self, capsys):
        config = RcsConfig(400, 2, 0.3, 23)
        reference = []
        for i, s in enumerate(trial_seeds(23, 5)):
            net = simulate_rcs(replace(config, seed=int(s)))
            count, fraction = renowned_fraction(net, 5)
            reference.append({"run": i, **asdict(degree_stats(net)), "renowned_count": count,
                              "renowned_fraction": fraction})
        # frequent thread switches, so that the two threads interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code, payload = run_strict_json(capsys, *self.RUNS_ARGV, "--runs", "5", "--threshold", "5")
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        assert payload["runs"] == reference
        assert payload["ensemble"]["mean_renowned_count"] == np.mean(
            [r["renowned_count"] for r in reference])

    def record_growth_threads(self, monkeypatch, wait_for=1):
        """Threads that grow a network, in the order of their first growth.
        Each waits at its first growth until `wait_for` threads are there."""
        threads, barrier = [], threading.Barrier(wait_for, timeout=10)

        def grow(config):
            if threading.get_ident() not in threads:
                threads.append(threading.get_ident())
                barrier.wait()
            return simulate_rcs(config)

        monkeypatch.setattr(cli, "simulate_rcs", grow)
        return threads

    @pytest.mark.parametrize("runs, cpus", [("1", None), ("1", 64), ("4", 1)])
    def test_grows_on_the_calling_thread_alone(self, capsys, monkeypatch, runs, cpus):
        threads = self.record_growth_threads(monkeypatch)
        if cpus is not None:
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        code, _ = run_strict_json(capsys, *self.RUNS_ARGV, "--runs", runs)
        assert code == 0
        assert threads == [threading.get_ident()]

    @pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
    def test_cpus_without_affinity_masks(self, monkeypatch, cpu_count, cpus):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert cli._cpus() == cpus

    def test_at_most_two_runs_are_in_flight(self, capsys, monkeypatch):
        threads = self.record_growth_threads(monkeypatch)
        monkeypatch.setattr(cli, "_cpus", lambda: 64)
        code, _ = run_strict_json(capsys, *self.RUNS_ARGV, "--runs", "8")
        assert code == 0
        assert threading.get_ident() in threads and len(threads) <= 2

    def test_two_runs_grow_at_once_given_two_cpus(self, capsys, monkeypatch):
        # each thread waits at its first growth for the other one
        threads = self.record_growth_threads(monkeypatch, wait_for=2)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        code, _ = run_strict_json(capsys, *self.RUNS_ARGV, "--runs", "4")
        assert code == 0
        assert len(threads) == 2 and threading.get_ident() in threads

    def test_failing_run_reports_the_lowest_failing_index(self, capsys, monkeypatch):
        seeds = [int(s) for s in trial_seeds(23, 6)]
        started = []

        def grow(config):
            run = seeds.index(config.seed)
            started.append(run)
            if run == 2:
                time.sleep(0.2)  # run 3, if it runs beside it, fails first
                raise MemoryError("run 2")
            if run == 3:
                raise InvalidTallyError("run 3")
            return simulate_rcs(config)

        monkeypatch.setattr(cli, "simulate_rcs", grow)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        before = threading.active_count()
        code, payload = run_strict_json(capsys, *self.RUNS_ARGV, "--runs", "6")
        assert code == 1
        assert payload["error"] == {"type": "MemoryError", "message": "run 2"}
        # no run starts after a failure, and the helper has been joined
        assert max(started) <= 3
        assert threading.active_count() == before


class TestOracle:
    def test_negative_seed(self, capsys):
        code, payload = run_strict_json(
            capsys, "oracle", "--citations", "100", "--read-prob", "0.3",
            "--misprint-prob", "0.1", "--seed", "-3", "--trials", "2",
        )
        assert code == 2
        assert payload["error"]["type"] == "InvalidTallyError"

    def test_all_readers_estimate_is_one(self, capsys):
        code, payload = run_json(
            capsys, "oracle", "--citations", "1000", "--read-prob", "1",
            "--misprint-prob", "0.1", "--seed", "3", "--trials", "50",
        )
        assert code == 0
        assert payload["corrected_mean"] == 1.0
        assert payload["degenerate"] == 0

    def test_no_misprints_ever(self, capsys):
        code, payload = run_json(
            capsys, "oracle", "--citations", "100", "--read-prob", "1",
            "--misprint-prob", "0", "--seed", "3", "--trials", "10",
        )
        assert code == 2
        assert payload["error"]["type"] == "InsufficientStatisticsError"

    def test_dump_format(self, capsys, tmp_path):
        dump = tmp_path / "chain.txt"
        code, _ = run_json(
            capsys, "oracle", "--citations", "50", "--read-prob", "0.5",
            "--misprint-prob", "0.2", "--seed", "3", "--trials", "5",
            "--dump", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 51
        for i, line in enumerate(lines[:50]):
            idx, variant = line.split(",")
            assert int(idx) == i and int(variant) >= 0
        summary = json.loads(lines[-1])
        assert summary["N"] == 50
        assert 0 <= summary["D"] <= summary["T"] <= summary["N"]

    def test_dump_equals_per_row_rendering(self, capsys, tmp_path):
        dump = tmp_path / "chain.txt"
        code, _ = run_json(
            capsys, "oracle", "--citations", "100000", "--read-prob", "0.22",
            "--misprint-prob", "0.0105", "--seed", "11", "--trials", "1", "--dump", str(dump),
        )
        assert code == 0
        assert 100000 > 2 * cli.DUMP_BLOCK  # several of the writer's blocks
        outcome = simulate_copy_chain(CopyChainConfig(100000, 0.22, 0.0105, int(trial_seeds(11, 1)[0])))
        rows = "".join(f"{idx},{variant}\n" for idx, variant in enumerate(outcome.variants))
        summary = json.dumps(dict(zip("DTN", astuple(outcome.tally))))
        assert dump.read_bytes() == f"{rows}{summary}\n".encode()


INT64_MAX = int(np.iinfo(np.int64).max)
# any int64 >= 0, with weight on the ends of each digit count
DUMP_NUMBERS = st.one_of(
    st.integers(0, INT64_MAX),
    st.integers(0, 18).flatmap(lambda k: st.sampled_from([10**k - 1, 10**k])),
    st.just(INT64_MAX),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(DUMP_NUMBERS, max_size=6), max_size=14),
    sep=st.sampled_from([b": ", b","]),
    block=st.sampled_from([1, 2, 5, cli.DUMP_BLOCK]),
)
# a short number after a long one: its leading zeros fall on the long one's digits
@example(rows=[[], [123, 4], [INT64_MAX, 0]], sep=b",", block=cli.DUMP_BLOCK)
def test_write_rows_equals_per_row_rendering(rows, sep, block):
    indptr = np.cumsum([0] + [len(row) for row in rows])
    values = np.array([v for row in rows for v in row], dtype=np.int64)
    fh = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "DUMP_BLOCK", block)
        cli._write_rows(fh, indptr, values, sep)
    text = "".join(f"{i}{sep.decode()}{' '.join(map(str, row))}\n" for i, row in enumerate(rows))
    assert fh.getvalue() == text.encode()


class TestTail:
    def test_fermi_case(self, capsys):
        code, payload = run_json(
            capsys, "tail", "--trials", "5", "--prob", "0.5", "--threshold", "5",
        )
        assert code == 0
        assert payload["log10_tail"] == pytest.approx(-1.50515, abs=1e-5)

    def test_threshold_zero(self, capsys):
        code, payload = run_json(
            capsys, "tail", "--trials", "10", "--prob", "0.3", "--threshold", "0",
        )
        assert code == 0
        assert payload["log10_tail"] == 0.0

    def test_one_in_with_population(self, capsys):
        code, payload = run_json(
            capsys, "tail", "--trials", "350000", "--one-in", "24000",
            "--threshold", "500", "--population", "24000",
        )
        assert code == 0
        assert payload["log10_tail"] <= -500
        assert payload["expected_count"] == 0.0

    def test_invalid_query(self, capsys):
        code, payload = run_json(
            capsys, "tail", "--trials", "5", "--prob", "0.5", "--threshold", "6",
        )
        assert code == 2
        assert payload["error"] == {"type": "InvalidTallyError", "message": "trials must be >= threshold"}

    def test_one_in_zero(self, capsys):
        code, payload = run_strict_json(
            capsys, "tail", "--trials", "100", "--one-in", "0", "--threshold", "5",
        )
        assert code == 2
        assert payload["error"]["type"] == "InvalidTallyError"

    def test_zero_prob_tail_is_minus_inf_string(self, capsys):
        # 1e-400 underflows to 0.0, whose upper tail is log10(0) = -inf
        code, payload = run_strict_json(
            capsys, "tail", "--trials", "100", "--prob", "1e-400", "--threshold", "5",
            "--population", "10",
        )
        assert code == 0
        assert payload["log10_tail"] == "-inf"
        assert payload["expected_count"] == 0.0


class TestParse:
    CANONICAL = "J.Phys.C,6,1181,1973"

    def test_fixture_classification(self, capsys, data_dir):
        code, payload = run_json(
            capsys, "parse", "--input", str(data_dir / "kt60.csv"),
            "--canonical", self.CANONICAL,
        )
        assert code == 0
        assert (payload["D"], payload["T"], payload["N"]) == (5, 16, 60)
        assert [c["multiplicity"] for c in payload["classes"]] == [8, 4, 2, 1, 1]

    def test_chained_estimate_matches_library(self, capsys, data_dir):
        code, payload = run_json(
            capsys, "parse", "--input", str(data_dir / "kt60.csv"),
            "--canonical", self.CANONICAL, "--estimate",
        )
        assert code == 0
        direct = corrected_read_fraction(MisprintTally(5, 16, 60))
        assert payload["estimate"]["corrected_r"] == direct.corrected_r
        assert payload["estimate"]["naive_r"] == direct.naive_r

    def test_all_canonical_estimate_fails(self, capsys, tmp_path):
        path = tmp_path / "clean.csv"
        path.write_text("p1,J.Phys.C,6,1181,1973\np2,J.Phys.C,6,1181,1973\n")
        code, payload = run_json(
            capsys, "parse", "--input", str(path),
            "--canonical", self.CANONICAL, "--estimate",
        )
        assert code == 2
        assert payload["error"]["type"] == "InsufficientStatisticsError"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, payload = run_json(
            capsys, "parse", "--input", str(path), "--canonical", self.CANONICAL,
        )
        assert code == 0
        assert (payload["D"], payload["T"], payload["N"]) == (0, 0, 0)

    def test_unreadable_input(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "parse", "--input", str(tmp_path / "missing.csv"),
            "--canonical", self.CANONICAL,
        )
        assert code == 1

    def test_non_utf8_input_is_an_io_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"p2,J\xe9.Phys.C,6,1181,1973\n")
        code, payload = run_strict_json(
            capsys, "parse", "--input", str(path), "--canonical", self.CANONICAL,
        )
        assert code == 1
        assert payload["error"]["type"] == "UnicodeDecodeError"
        assert str(path) in payload["error"]["message"]

    def test_decode_error_gives_the_offset_in_the_file(self, capsys, tmp_path):
        # past text mode's first read block
        path = tmp_path / "late.csv"
        path.write_bytes(b"p1,J.Phys.C,6,1181,1973\n" * 500 + b"\xff\n")
        code, payload = run_strict_json(
            capsys, "parse", "--input", str(path), "--canonical", self.CANONICAL,
        )
        assert code == 1
        assert "position 12000: invalid start byte" in payload["error"]["message"]

    def test_leading_byte_order_mark_is_dropped(self, capsys, tmp_path):
        lines = "p1,J.Phys.C,6,1118,1973\np2,J.Phys.C,6,1181,1973\n"
        payloads = []
        for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
            path = tmp_path / name
            path.write_text(prefix + lines, encoding="utf-8")
            code, payload = run_json(
                capsys, "parse", "--input", str(path), "--canonical", self.CANONICAL,
            )
            assert code == 0
            payloads.append({k: v for k, v in payload.items() if k != "manifest"})
        assert payloads[1] == payloads[0]
        assert payloads[1]["classes"][0]["members"] == ["p1"]

    def test_classification_json_shape(self, capsys, data_dir):
        code, payload = run_json(
            capsys, "parse", "--input", str(data_dir / "kt60.csv"),
            "--canonical", self.CANONICAL,
        )
        assert code == 0
        assert payload["D"] == 5 and payload["T"] == 16 and payload["N"] == 60
        mults = [c["multiplicity"] for c in payload["classes"]]
        assert mults == sorted(mults, reverse=True)
        for c in payload["classes"]:
            assert list(c["variant"]) == ["journal", "volume", "page", "year"]
            assert len(c["members"]) == c["multiplicity"]

    def test_malformed_canonical(self, capsys, data_dir):
        code, payload = run_json(
            capsys, "parse", "--input", str(data_dir / "kt60.csv"),
            "--canonical", "J.Phys.C,6,1181",
        )
        assert code == 2

    def test_canonical_is_checked_before_the_input_is_read(self, capsys, tmp_path):
        # the page normalizes to empty, and the input does not exist
        code, payload = run_json(
            capsys, "parse", "--input", str(tmp_path / "missing.csv"),
            "--canonical", "J. Phys. C,6,-1181,1973",
        )
        assert code == 2
        assert payload["error"]["type"] == "InvalidTallyError"


class TestDist:
    def test_identical_files_ks_zero(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        content = "# counts\n0\n0\n1\n2\n"
        a.write_text(content)
        b.write_text(content)
        code, payload = run_json(
            capsys, "dist", "--counts", str(a), str(b),
            "--out-prefix", str(tmp_path / "out"),
        )
        assert code == 0
        assert payload["ks_distance"] == 0.0

    def test_ccdf_rows(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("0\n0\n1\n2\n")
        code, payload = run_json(
            capsys, "dist", "--counts", str(a), "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 0
        rows = (tmp_path / "o_a_ccdf.csv").read_text().splitlines()
        assert rows == ["0,1.0", "1,0.5", "2,0.25"]

    def test_empty_counts_file(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("# nothing\n")
        code, payload = run_json(
            capsys, "dist", "--counts", str(a), "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 2

    def test_missing_counts_file(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "dist", "--counts", str(tmp_path / "nope.txt"),
            "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 1

    def test_negative_count_names_the_first(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("3\n-2\n5\n-7\n")
        code, payload = run_strict_json(
            capsys, "dist", "--counts", str(a), "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 2
        assert payload["error"]["message"] == f"bad counts file: negative count -2 in {a}"

    def test_count_beyond_int64_is_rejected(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text(f"1\n{2**63}\n")
        code, payload = run_strict_json(
            capsys, "dist", "--counts", str(a), "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 2
        assert payload["error"]["message"] == f"bad counts file: count beyond the int64 range in {a}"

    def test_non_utf8_counts_file_is_an_io_error(self, capsys, tmp_path):
        good, bad = tmp_path / "a.txt", tmp_path / "b.txt"
        good.write_text("1\n2\n")
        bad.write_bytes(b"1\n\xff2\n")
        code, payload = run_strict_json(
            capsys, "dist", "--counts", str(good), str(bad),
            "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 1
        assert payload["error"]["type"] == "UnicodeDecodeError"
        assert str(bad) in payload["error"]["message"]

    @pytest.mark.parametrize(
        "inputs, flags, message",
        [
            (["a.txt"], ["--bins-per-decade", "0"], "bins_per_decade must be >= 1"),
            (["a.txt", "empty.txt"], [], "empty sample"),
            # both would write o_a_ccdf.csv and o_a_hist.csv
            (["x/a.txt", "y/a.txt"], [], "both counts files have the label 'a'; their outputs would collide"),
        ],
        ids=["no-bins", "empty-second-file", "same-label"],
    )
    def test_failure_leaves_no_files(self, capsys, tmp_path, inputs, flags, message):
        paths = []
        for name in inputs:
            path = tmp_path / "in" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("# nothing\n" if name == "empty.txt" else "0\n1\n2\n5\n")
            paths.append(str(path))
        out = tmp_path / "out"
        out.mkdir()
        code, payload = run_strict_json(
            capsys, "dist", "--counts", *paths, *flags, "--out-prefix", str(out / "o")
        )
        assert code == 2
        assert payload["error"] == {"type": "InvalidTallyError", "message": message}
        assert list(out.iterdir()) == []

    def test_bin_count_numpy_refuses_is_a_value_error(self, capsys, tmp_path):
        # about 8.1e18 bins: too many bytes for numpy to try to allocate
        a = tmp_path / "a.txt"
        a.write_text("123456789\n")
        code, payload = run_strict_json(
            capsys, "dist", "--counts", str(a), "--bins-per-decade", str(10**18),
            "--out-prefix", str(tmp_path / "o"),
        )
        assert (code, payload["error"]["type"]) == (2, "ValueError")
        assert list(tmp_path.iterdir()) == [a]

    def test_failed_write_leaves_no_files(self, capsys, tmp_path):
        # a directory where the second file's CCDF goes: the first file's
        # CSVs are written and then removed again
        paths = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / "in" / name
            path.parent.mkdir(exist_ok=True)
            path.write_text("0\n1\n2\n5\n")
            paths.append(str(path))
        out = tmp_path / "out"
        (out / "o_b_ccdf.csv").mkdir(parents=True)
        code, payload = run_strict_json(
            capsys, "dist", "--counts", *paths, "--out-prefix", str(out / "o")
        )
        assert code == 1
        assert payload["error"] == {
            "type": "IOError",
            "message": f"[Errno 21] Is a directory: '{out / 'o_b_ccdf.csv'}'",
        }
        assert list(out.iterdir()) == [out / "o_b_ccdf.csv"]
        assert list((out / "o_b_ccdf.csv").iterdir()) == []

    def test_failed_write_keeps_a_replaced_file(self, capsys, tmp_path):
        # o_a_ccdf.csv holds an earlier result and is replaced before the
        # rename onto the directory o_b_ccdf.csv fails: it keeps the new
        # rows, since the old ones are gone
        paths = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / "in" / name
            path.parent.mkdir(exist_ok=True)
            path.write_text("0\n1\n2\n5\n")
            paths.append(str(path))
        out = tmp_path / "out"
        (out / "o_b_ccdf.csv").mkdir(parents=True)
        (out / "o_a_ccdf.csv").write_text("old\n")
        code, payload = run_strict_json(
            capsys, "dist", "--counts", *paths, "--out-prefix", str(out / "o")
        )
        assert code == 1
        assert payload["error"] == {
            "type": "IOError",
            "message": f"[Errno 21] Is a directory: '{out / 'o_b_ccdf.csv'}'",
        }
        assert sorted(out.iterdir()) == [out / "o_a_ccdf.csv", out / "o_b_ccdf.csv"]
        assert (out / "o_a_ccdf.csv").read_text() == "0,1.0\n1,0.75\n2,0.5\n5,0.25\n"

    def test_leftover_temporary_file_is_named(self, capsys, tmp_path):
        # a temporary file of this process's name, left by an earlier
        # process with the same pid: the error names it, not the output
        counts = tmp_path / "a.txt"
        counts.write_text("0\n1\n2\n5\n")
        out = tmp_path / "out"
        out.mkdir()
        leftover = out / f"o_a_hist.csv.{os.getpid()}.tmp"
        leftover.write_text("left behind\n")
        code, payload = run_strict_json(
            capsys, "dist", "--counts", str(counts), "--out-prefix", str(out / "o")
        )
        assert code == 1
        assert payload["error"] == {
            "type": "IOError",
            "message": f"[Errno 17] File exists: '{leftover}'",
        }
        assert list(out.iterdir()) == [leftover]
        assert leftover.read_text() == "left behind\n"

    def test_rcs_dump_ccdf_matches_renowned_fraction(self, capsys, tmp_path):
        # pipe a network dump through dist: the CCDF value at the
        # threshold must equal simulate-rcs's renowned fraction
        dump = tmp_path / "net.txt"
        threshold = 5
        code, rcs_payload = run_json(
            capsys, "simulate-rcs", "--papers", "2000", "--m", "3", "--p", "0.25",
            "--seed", "77", "--threshold", str(threshold), "--dump", str(dump),
        )
        assert code == 0
        in_degree = [0] * 2000
        for line in dump.read_text().splitlines()[:-1]:
            _, refs = line.split(":")
            for r in refs.split():
                in_degree[int(r)] += 1
        counts = tmp_path / "indeg.txt"
        counts.write_text("\n".join(str(d) for d in in_degree) + "\n")
        code, _ = run_json(
            capsys, "dist", "--counts", str(counts),
            "--out-prefix", str(tmp_path / "o"),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "o_indeg_ccdf.csv").read_text().splitlines()
        ]
        # first row with x >= threshold carries the fraction >= threshold
        frac = next(float(y) for x, y in rows if int(x) >= threshold)
        assert frac == rcs_payload["runs"][0]["renowned_fraction"]


INVALID_LITERAL = "bad counts file: invalid literal for int() with base 10: "
BAD_UTF8 = "{path}: 'utf-8' codec can't decode byte 0xff in position "

# counts files and what `dist` makes of them: (bytes, the counts) or
# (bytes, (exit code, error type, message with the file at {path}))
COUNTS_EDGE_CASES = {
    "underscore": (b"1_000\n", [1000]),
    "plus-sign": (b"+5\n", [5]),
    "arabic-indic-digit": ("٣\n".encode(), [3]),
    "padded": (b"  7 \t\n", [7]),
    "nbsp-line": ("\xa0\n5\n".encode(), [5]),
    "form-feed-and-vertical-tab-padding": (b"\x0c\n5\x0b\n", [5]),
    "indented-comment": (b"  # c\n8\n", [8]),
    # text mode takes a lone "\r" as a line break, so it ends the comment
    "comment-then-lone-cr": (b"#c\r5\n", [5]),
    "lone-cr-endings": (b"5\r6\r", [5, 6]),
    "blank-lines-between-lone-crs": (b"\r\r5\r\r", [5]),
    "crlf-with-blank-lines": (b"5\r\n\r\n6\r\n", [5, 6]),
    "last-line-blank-no-newline": (b"5\n  ", [5]),
    "last-line-comment-no-newline": (b"5\n#end", [5]),
    "two-on-a-line": (b"1 2\n", (2, "ValueError", INVALID_LITERAL + "'1 2'")),
    "trailing-comment": (b"5 # x\n", (2, "ValueError", INVALID_LITERAL + "'5 # x'")),
    "bom": (b"\xef\xbb\xbf5\n", [5]),
    "bom-then-comment": (b"\xef\xbb\xbf# h\n5\n", [5]),
    # only "\n", "\r" and "\r\n" end a line; str.splitlines() breaks at more
    "nel-inside-a-line": ("5\x856\n".encode(), (2, "ValueError", INVALID_LITERAL + "'5\\x856'")),
    "line-separator-inside-a-line": ("5\u20286\n".encode(), (2, "ValueError", INVALID_LITERAL + "'5\\u20286'")),
    "negative": (b"3\n-1\n", (2, "ValueError", "bad counts file: negative count -1 in {path}")),
    "beyond-int64": (b"%d\n" % 2**64, (2, "ValueError", "bad counts file: count beyond the int64 range in {path}")),
    # the first line that fails is reported
    "beyond-int64-then-malformed": (b"%d\nx\n" % 2**64, (2, "ValueError", "bad counts file: count beyond the int64 range in {path}")),
    "malformed-then-beyond-int64": (b"x\n%d\n" % 2**64, (2, "ValueError", INVALID_LITERAL + "'x'")),
    # repeated lines are converted once, in order of first appearance
    "repeated-malformed-after-beyond-int64": (b"5\nx\n%d\nx\n" % 2**64, (2, "ValueError", INVALID_LITERAL + "'x'")),
    "repeated-beyond-int64-then-malformed": (b"%d\n5\nx\n%d\n" % (2**64, 2**64), (2, "ValueError", "bad counts file: count beyond the int64 range in {path}")),
    "not-utf8": (b"1\n\xff2\n", (1, "UnicodeDecodeError", BAD_UTF8 + "2: invalid start byte")),
    "not-utf8-in-comment": (b"#\xff\n1\n", (1, "UnicodeDecodeError", BAD_UTF8 + "1: invalid start byte")),
    # the position is the bad byte's offset in the file
    "not-utf8-past-8k": (b"1\n" * 5000 + b"\xff\n", (1, "UnicodeDecodeError", BAD_UTF8 + "10000: invalid start byte")),
}


@pytest.mark.parametrize("data, expected", COUNTS_EDGE_CASES.values(), ids=COUNTS_EDGE_CASES)
def test_counts_reader_edge_cases(capsys, tmp_path, data, expected):
    path = tmp_path / "c.txt"
    path.write_bytes(data)
    if isinstance(expected, list):
        counts = cli._read_counts(str(path))
        assert counts.dtype == np.int64 and counts.tolist() == expected
    else:
        code, payload = run_strict_json(
            capsys, "dist", "--counts", str(path), "--out-prefix", str(tmp_path / "o")
        )
        assert (code, payload["error"]) == (
            expected[0], {"type": expected[1], "message": expected[2].format(path=path)}
        )


def read_counts_per_line(path):
    """The reference for `cli._read_counts`: the file's lines as Python's
    text-mode iterator yields them, each `int(line)` made an int64 in turn,
    so that the first line that fails is the one reported."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            values = [np.int64(int(line)) for line in map(str.strip, fh) if line and line[0] != "#"]
        counts = np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"bad counts file: count beyond the int64 range in {path}") from exc
    except ValueError as exc:
        raise ValueError(f"bad counts file: {exc}") from exc
    negative = counts[counts < 0]
    if negative.size:
        raise ValueError(f"bad counts file: negative count {negative[0]} in {path}")
    return counts


COUNTS_PIECES = st.sampled_from([
    *"0123456789", "+", "-", "_", "٣", "18446744073709551616",
    " ", "\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\ufeff",
    "#", "# c\n", "\n", "\r", "\r\n",
])


def _read_or_error(read, path):
    try:
        return read(path).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


@given(text=st.lists(COUNTS_PIECES, max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_counts_reader_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        assert _read_or_error(cli._read_counts, path) == _read_or_error(read_counts_per_line, path)


@given(lines=st.lists(st.sampled_from(["x", "18446744073709551616", "-3", "٣", " 7 ", "# c", "", "5"]), max_size=12))
@settings(max_examples=200, deadline=None)
def test_counts_reader_matches_per_line_reference_on_repeated_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.txt")
        with open(path, "wb") as fh:
            fh.write("\n".join(lines).encode())
        assert _read_or_error(cli._read_counts, path) == _read_or_error(read_counts_per_line, path)


NULL_MANIFEST = {
    "subcommand": None, "parameters": {}, "seed": None, "tool_version": citecopy.__version__,
}


class TestErrorTable:
    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--distinct", "x", "--total", "1", "--citations", "2"],
         "citecopy estimate: argument --distinct: invalid int value: 'x'"),
        ([], "citecopy: the following arguments are required: subcommand"),
        (["tail", "--trials", "3"],
         "citecopy tail: the following arguments are required: --threshold"),
    ])
    def test_usage_error_is_json(self, capsys, argv, message):
        code, payload = run_strict_json(capsys, *argv)
        assert code == 2
        assert payload == {
            "manifest": NULL_MANIFEST,
            "error": {"type": "UsageError", "message": message},
        }

    @pytest.mark.parametrize("argv", [["--help"], ["tail", "-h"]])
    def test_help_is_plain_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: citecopy")

    @pytest.mark.parametrize("argv", [
        ["simulate-rcs", "--papers", "50", "--m", "2", "--p", "0.2", "--seed", "1"],
        ["oracle", "--citations", "50", "--read-prob", "0.5", "--misprint-prob", "0.2",
         "--seed", "3", "--trials", "2"],
    ])
    def test_dump_to_a_directory_is_io_error(self, capsys, tmp_path, argv):
        code, payload = run_strict_json(capsys, *argv, "--dump", str(tmp_path))
        assert code == 1
        assert payload["error"] == {
            "type": "IOError", "message": f"[Errno 21] Is a directory: '{tmp_path}'",
        }

    BIG = str(10**30)

    @pytest.mark.parametrize("argv, code, kind", [
        (["estimate", "--distinct", "1" * 400, "--total", "2" * 400,
          "--citations", "3" * 400], 2, "OverflowError"),
        (["tail", "--trials", "10", "--prob", "0.5", "--threshold", "3",
          "--population", str(10**400)], 2, "OverflowError"),
        (["tail", "--trials", "10", "--one-in", str(10**400), "--threshold", "3"],
         2, "OverflowError"),
        (["oracle", "--citations", BIG, "--read-prob", "0.3", "--misprint-prob", "0.1",
          "--seed", "3", "--trials", "2"], 2, "ValueError"),
        (["oracle", "--citations", "100", "--read-prob", "0.3", "--misprint-prob", "0.1",
          "--seed", "3", "--trials", BIG], 2, "ValueError"),
        (["simulate-rcs", "--papers", BIG, "--m", "3", "--p", "0.2", "--seed", "1"],
         2, "ValueError"),
        (["simulate-rcs", "--papers", "100", "--m", "3", "--p", "0.2", "--seed", "1",
          "--runs", BIG], 2, "ValueError"),
        # a (3, 10**16) float64 block is 2.4e17 bytes, more than a 64-bit
        # process can map, so the allocation fails before touching memory
        # whatever the kernel's overcommit policy
        (["oracle", "--citations", str(10**16), "--read-prob", "0.3",
          "--misprint-prob", "0.1", "--seed", "3", "--trials", "2"], 1, "MemoryError"),
    ])
    def test_resource_and_overflow_rows(self, capsys, argv, code, kind):
        got, payload = run_strict_json(capsys, *argv)
        assert got == code
        assert payload["error"]["type"] == kind
        # argparse turns --one-in N into 1/N, so that overflow has no parsed argv
        assert payload["manifest"]["subcommand"] == (None if "--one-in" in argv else argv[0])


GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden"
KT_CANONICAL = "J.Phys.C,6,1181,1973"


@pytest.mark.parametrize("name, argv, code", [
    ("estimate", ["estimate", "--distinct", "45", "--total", "196", "--citations", "4300"], 0),
    ("tail", ["tail", "--trials", "350000", "--one-in", "24000", "--threshold", "500",
              "--population", "24000"], 0),
    ("parse_estimate", ["parse", "--input", "kt60.csv", "--canonical", KT_CANONICAL,
                        "--estimate"], 0),
    ("dist", ["dist", "--counts", "counts_a.txt", "counts_b.txt", "--out-prefix", "dist"], 0),
    ("parse_missing", ["parse", "--input", "missing.csv", "--canonical", KT_CANONICAL], 1),
    ("dist_negative", ["dist", "--counts", "negative.txt", "--out-prefix", "dist"], 2),
    # dump goldens are not named *.txt, which are copied in as inputs
    ("rcs_dump", ["simulate-rcs", "--papers", "300", "--m", "2", "--p", "0.3", "--seed", "7",
                  "--dump", "rcs_dump.net"], 0),
    ("oracle_dump", ["oracle", "--citations", "500", "--read-prob", "0.3", "--misprint-prob",
                     "0.05", "--seed", "7", "--trials", "3", "--dump", "oracle_dump.chain"], 0),
])
def test_golden_bytes(capsys, tmp_path, monkeypatch, data_dir, name, argv, code):
    # inputs are named relative to the working directory, so stdout does
    # not depend on where the test runs
    for path in [data_dir / "kt60.csv", *GOLDEN.glob("*.txt")]:
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    got, out = run(capsys, *argv)
    assert got == code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if name == "dist":
        for golden in GOLDEN.glob("dist_*.csv"):
            assert (tmp_path / golden.name).read_bytes() == golden.read_bytes()
    if "--dump" in argv:
        dump = argv[argv.index("--dump") + 1]
        assert (tmp_path / dump).read_bytes() == (GOLDEN / dump).read_bytes()


@pytest.mark.parametrize("argv, keys", [
    (["simulate-rcs", "--seed", "4", "--runs", "2", "--p", "0.2", "--m", "2", "--papers", "50"],
     ["papers", "m", "p", "threshold", "runs", "dump"]),
    (["oracle", "--trials", "3", "--seed", "4", "--misprint-prob", "0.1", "--read-prob", "0.5",
      "--citations", "50"],
     ["citations", "read_prob", "misprint_prob", "trials", "dump"]),
])
def test_manifest_parameters_follow_the_parser(capsys, argv, keys):
    code, payload = run_strict_json(capsys, *argv)
    assert code == 0
    assert list(payload["manifest"]["parameters"]) == keys
    assert payload["manifest"]["seed"] == 4


# argv fuzzing: the six subcommands with their real flags, small values
# and strays.  File flags name files in the working directory, which the
# test makes a fresh temporary one, so nothing is written elsewhere.
# Hypothesis favours the ends of an integer range, so "rare" is a middle
# value of one.
RARE = st.integers(0, 9).map(lambda i: i == 4)


def mostly(common, rare):
    """`common`, or now and then `rare`."""
    return RARE.flatmap(lambda r: rare if r else common)


SMALL_INTS = mostly(
    st.integers(-3, 200).map(str), st.sampled_from(["nan", "inf", "-inf", "x", "1e3", "-0"])
)
SMALL_FLOATS = mostly(
    st.one_of(st.floats(-1.5, 1.5).map(repr), st.integers(-3, 3).map(str)),
    st.sampled_from(["nan", "inf", "-inf", "1e-400", "x"]),
)
ANY_INPUT = st.sampled_from(["cites.csv", "counts.txt", "latin1.txt", "missing.txt", "adir"])
OUTPUTS = mostly(st.just("out"), st.sampled_from(["adir", "adir/out", "nodir/out"]))
FLAGS = {
    "estimate": {"--distinct": SMALL_INTS, "--total": SMALL_INTS, "--citations": SMALL_INTS},
    "simulate-rcs": {
        "--papers": SMALL_INTS, "--m": SMALL_INTS, "--p": SMALL_FLOATS, "--seed": SMALL_INTS,
        "--threshold": SMALL_INTS, "--runs": SMALL_INTS, "--dump": OUTPUTS,
    },
    "oracle": {
        "--citations": SMALL_INTS, "--read-prob": SMALL_FLOATS, "--misprint-prob": SMALL_FLOATS,
        "--seed": SMALL_INTS, "--trials": SMALL_INTS, "--dump": OUTPUTS,
    },
    "tail": {
        "--trials": SMALL_INTS, "--prob": SMALL_FLOATS, "--one-in": SMALL_INTS,
        "--threshold": SMALL_INTS, "--population": SMALL_INTS,
    },
    "parse": {
        "--input": ANY_INPUT,
        "--canonical": mostly(
            st.just(KT_CANONICAL), st.sampled_from(["a,b", "J,6,-5,1973", ",,,", "x"])
        ),
        "--estimate": st.just([]),
    },
    "dist": {
        "--counts": st.lists(ANY_INPUT, min_size=1, max_size=3),
        "--bins-per-decade": SMALL_INTS, "--out-prefix": OUTPUTS,
    },
}
STRAYS = st.sampled_from(["x", "--bogus", "-1", "--", "estimate", "0.5", ""])


@st.composite
def fuzz_argv(draw):
    command = draw(mostly(st.sampled_from(list(FLAGS)), st.sampled_from([None, "bogus"])))
    argv = [command] if command else []
    flags = dict(FLAGS.get(command, {}))
    if command == "tail":  # --prob and --one-in exclude each other
        del flags[draw(st.sampled_from(["--prob", "--one-in"]))]
    for flag in draw(st.permutations(list(flags))):
        if not draw(RARE):
            value = draw(flags[flag])
            argv += [flag, value] if isinstance(value, str) else [flag, *value]
    if draw(RARE):
        argv.insert(draw(st.integers(0, len(argv))), draw(STRAYS))
    return argv


def _make_fuzz_inputs():
    with open("cites.csv", "w", encoding="utf-8") as fh:
        fh.write("p1,J.Phys.C,6,1181,1973\np2,J.Phys.B,6,1181,1973\np3,J.Phys.B,6,1181,1973\n"
                 "p4,J.Phys.C,7,1181,1973\nbad line\n")
    with open("counts.txt", "w", encoding="utf-8") as fh:
        fh.write("# counts\n0\n1\n1\n2\n3\n8\n40\n")
    with open("latin1.txt", "wb") as fh:
        fh.write(b"1\np,J\xe9.Phys.C,6,1181,1973\n")
    os.mkdir("adir")


@given(argv=fuzz_argv())
@settings(max_examples=300, deadline=None)
def test_every_argv_gets_an_exit_code_and_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _make_fuzz_inputs()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert "Traceback" not in err.getvalue()
