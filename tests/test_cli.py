import json
import os
import pathlib
import subprocess
import sys

import pytest

import citecopy
from citecopy import MisprintTally, RcsConfig, cli, corrected_read_fraction, simulate_rcs
from citecopy.cli import main
from citecopy.copychain import trial_seeds


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
        dump = tmp_path / "net.txt"
        code, _ = run_json(
            capsys, "simulate-rcs", "--papers", "700", "--m", "2", "--p", "0.3",
            "--seed", "19", "--dump", str(dump),
        )
        assert code == 0
        net = simulate_rcs(RcsConfig(700, 2, 0.3, int(trial_seeds(19, 1)[0])))
        rows = "".join(
            f"{idx}: {' '.join(str(r) for r in refs)}\n"
            for idx, refs in enumerate(net.out_lists)
        )
        lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
        assert "".join(lines[:-1]) == rows  # the last line is the summary


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
        assert "error" in payload

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

    def test_malformed_canonical(self, capsys, data_dir):
        code, payload = run_json(
            capsys, "parse", "--input", str(data_dir / "kt60.csv"),
            "--canonical", "J.Phys.C,6,1181",
        )
        assert code == 2


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
