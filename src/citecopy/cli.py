"""Command-line entry point.

Subcommands cover the whole library: `estimate` (misprint tally to read
fraction), `simulate-rcs` (citation network growth), `oracle` (copy-chain
round-trip validation), `tail` (equal-papers binomial null), `parse`
(citation records to tally), and `dist` (CCDF / histogram / KS).

Every argv gets JSON on stdout with the run manifest under "manifest";
exit 0 is success.  Each `cmd_*` function returns its payload and
raises on error, which `main` reports under "error" as {"type",
"message"}, with the type and exit code from one table, `ERRORS`:

    exit 2  a CitecopyError, typed by its class name; UsageError (argv
            that argparse rejects; the manifest's subcommand is null);
            OverflowError; ValueError (a bad counts file, or an array
            size past numpy's limits)
    exit 1  IOError; UnicodeDecodeError (an input file that is not
            UTF-8); MemoryError

The one exception is `-h`/`--help`: human-readable usage, exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple, replace

import numpy as np

from . import __version__
from .copychain import CopyChainConfig, estimator_roundtrip, simulate_copy_chain, trial_seeds
from .distributions import CountSample, ccdf, ks_distance, log_bin_histogram
from .errors import CitecopyError, InvalidTallyError
from .estimator import MisprintTally, corrected_read_fraction
from .nullmodel import BinomialTailQuery, binomial_log10_tail, expected_count
from .parsing import CanonicalRef, classify, parse_records, top_misprints
from .rcs import RcsConfig, degree_stats, renowned_fraction, simulate_rcs

EXIT_OK, EXIT_IO, EXIT_DOMAIN = 0, 1, 2


class UsageError(CitecopyError):
    """argv that the argument parser rejects."""


class NotUtf8Error(Exception):
    """An input file that is not UTF-8 text; the message names the file."""


# The first row whose class an exception is an instance of gives its exit
# code and reported type (None: the exception's class name).  NotUtf8Error
# stands for a UnicodeDecodeError, a ValueError, so it precedes that row.
ERRORS = (
    (CitecopyError, EXIT_DOMAIN, None),
    (OSError, EXIT_IO, "IOError"),
    (NotUtf8Error, EXIT_IO, "UnicodeDecodeError"),
    (MemoryError, EXIT_IO, "MemoryError"),
    (OverflowError, EXIT_DOMAIN, "OverflowError"),
    (ValueError, EXIT_DOMAIN, "ValueError"),
)


def _strict(value):
    """`value` with every non-finite float spelled as a string, since JSON
    has no Infinity or NaN (the copy factor can diverge, a tail can be 0)."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


@contextlib.contextmanager
def _utf8(path: str):
    """The UTF-8 file at `path`, open as text without a leading byte-order
    mark.  A decode error names the file and the bad byte's offset in
    it, past any byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # text mode decodes block by block, so a reader that streams
            # gets a position within a block: decode the whole file again
            error = exc
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8-sig")
                except UnicodeDecodeError as whole:
                    error = whole
            raise NotUtf8Error(f"{path}: {error}") from exc


def _estimate_dict(tally: MisprintTally) -> dict:
    est = corrected_read_fraction(tally)
    return {
        "naive_r": est.naive_r,
        "corrected_r": est.corrected_r,
        "n_p": est.propagation_factor,
        "n_c": est.copy_factor,
        "M": est.misprint_prob,
    }


def cmd_estimate(args: argparse.Namespace) -> dict:
    return _estimate_dict(MisprintTally(args.distinct, args.total, args.citations))


def cmd_simulate_rcs(args: argparse.Namespace) -> dict:
    # every argument is checked before the first network is grown
    if args.runs < 1:
        raise InvalidTallyError("runs must be >= 1")
    config = RcsConfig(args.papers, args.m, args.p, args.seed)
    if args.threshold < 1:
        raise InvalidTallyError("threshold must be >= 1")
    runs = []
    for i, s in enumerate(trial_seeds(args.seed, args.runs)):
        net = simulate_rcs(replace(config, seed=int(s)))
        count, fraction = renowned_fraction(net, args.threshold)
        stats = asdict(degree_stats(net))
        runs.append({"run": i, **stats, "renowned_count": count, "renowned_fraction": fraction})
        if i == 0 and args.dump:
            _dump_network(args.dump, net, stats, args.threshold, count)

    def mean(key: str) -> float:
        return float(np.mean([r[key] for r in runs]))

    return {
        "runs": runs,
        "ensemble": {
            "mean_total_edges": mean("total_edges"),
            "mean_in_degree": mean("mean_in_degree"),
            "mean_renowned_count": mean("renowned_count"),
            "mean_renowned_fraction": mean("renowned_fraction"),
        },
    }


def _dump_network(path: str, net, stats: dict, threshold: int, renowned_count: int) -> None:
    # one CSR row at a time, so that no list of all references is built
    bounds = net.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (a, b) in enumerate(zip(bounds, bounds[1:])):
            fh.write(f"{idx}: {' '.join(map(str, net.indices[a:b].tolist()))}\n")
        summary = {"n_papers": net.n_papers, **stats, "renowned_threshold": threshold}
        fh.write(json.dumps({**summary, "renowned_count": renowned_count}) + "\n")


def cmd_oracle(args: argparse.Namespace) -> dict:
    config = CopyChainConfig(args.citations, args.read_prob, args.misprint_prob, args.seed)
    summary = estimator_roundtrip(config, args.trials)
    if args.dump:
        # trial 0 of the round trip, run again for its variants
        first = replace(config, seed=int(trial_seeds(args.seed, 1)[0]))
        _dump_outcome(args.dump, simulate_copy_chain(first))
    # every field but the pooled tally, in field order
    return {k: v for k, v in asdict(summary).items() if k != "pooled"}


def _dump_outcome(path: str, outcome) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{idx},{variant}\n" for idx, variant in enumerate(outcome.variants))
        fh.write(json.dumps(dict(zip("DTN", astuple(outcome.tally)))) + "\n")


class _OneIn(argparse.Action):
    """Stores `--one-in N` as prob = 1/N (None for N < 1), as the manifest records it."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.prob = 1.0 / values if values >= 1 else None


def cmd_tail(args: argparse.Namespace) -> dict:
    if args.prob is None:
        raise InvalidTallyError("one_in must be >= 1")
    log10_tail = binomial_log10_tail(BinomialTailQuery(args.trials, args.prob, args.threshold))
    payload = {"log10_tail": log10_tail}
    if args.population is not None:
        payload["expected_count"] = expected_count(args.population, log10_tail)
    return payload


def cmd_parse(args: argparse.Namespace) -> dict:
    fields = [f.strip() for f in args.canonical.split(",")]
    if len(fields) != 4 or not all(fields):
        raise InvalidTallyError("canonical must be 'journal,volume,page,year' with nonempty fields")
    # every argument is checked before the input is read
    canonical = CanonicalRef(*fields)
    with _utf8(args.input) as fh:
        table, report = parse_records(fh)
    tally, classes = classify(table, canonical)
    payload = {
        "D": tally.distinct,
        "T": tally.total,
        "N": tally.citations,
        # by multiplicity, descending, then first appearance
        "classes": [
            {
                "variant": dict(zip(("journal", "volume", "page", "year"), c.variant)),
                "multiplicity": c.multiplicity,
                "members": list(c.members),
            }
            for c in top_misprints(classes, len(classes))
        ],
        "rejected": [{"line": lineno, "reason": reason} for lineno, reason in report.rejected],
    }
    if args.estimate:
        payload["estimate"] = _estimate_dict(tally)
    return payload


def _read_counts(path: str) -> np.ndarray:
    """The counts in the UTF-8 file at `path`: one integer per line, as
    `int` reads it, with blank lines and `#` comment lines skipped."""
    with _utf8(path) as fh:
        # text mode has made every line break "\n"; splitlines() would also
        # break at characters such as "\x0c" and "\x85" that end no line
        lines = fh.read().split("\n")
    kept = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    try:
        counts = np.array(kept, dtype=np.int64)  # int() on each line, in C
    except OverflowError as exc:
        raise ValueError(f"bad counts file: count beyond the int64 range in {path}") from exc
    except ValueError as exc:
        raise ValueError(f"bad counts file: {exc}") from exc
    negative = counts[counts < 0]
    if negative.size:
        raise ValueError(f"bad counts file: negative count {negative[0]} in {path}")
    return counts


def _write_csvs(csvs: list) -> None:
    """Write every (path, rows) CSV file or none: each goes to a temporary
    name beside its path, and all are renamed into place once every write
    has succeeded.  On a failure all that was written is removed, and an
    OSError names the output path, as a direct write would."""
    created, placed = [], []
    try:
        for path, rows in csvs:
            temp = f"{path}.{os.getpid()}.tmp"
            # "x": never write over a file this call did not create
            with open(temp, "x", encoding="utf-8") as fh:
                created.append(temp)
                fh.writelines(f"{x},{y}\n" for x, y in rows)
        for temp, (path, _) in zip(created, csvs):
            os.replace(temp, path)
            placed.append(path)
    except BaseException as exc:
        for name in created + placed:
            try:
                os.remove(name)
            except FileNotFoundError:
                pass  # a temporary already renamed
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def cmd_dist(args: argparse.Namespace) -> dict:
    if len(args.counts) > 2:
        raise InvalidTallyError("at most two counts files")
    labels = [os.path.splitext(os.path.basename(path))[0] for path in args.counts]
    counts = [_read_counts(path) for path in args.counts]
    # every curve and histogram is computed before the first file is
    # written, so that a failing command leaves no files behind
    outputs, curves, csvs = [], [], []
    for values, label in zip(counts, labels):
        sample = CountSample(values, label)
        curves.append(ccdf(sample))
        entry = {"label": label, "ccdf_csv": f"{args.out_prefix}_{label}_ccdf.csv"}
        csvs.append((entry["ccdf_csv"], curves[-1].points))
        if (values > 0).any():
            hist = log_bin_histogram(sample, args.bins_per_decade)
            entry.update(hist_csv=f"{args.out_prefix}_{label}_hist.csv", zero_mass=hist.zero_mass)
            csvs.append((entry["hist_csv"], hist.points))
        outputs.append(entry)
    if len(set(labels)) < len(labels):
        raise InvalidTallyError(f"both counts files have the label {labels[0]!r}; their outputs would collide")
    _write_csvs(csvs)
    payload = {"outputs": outputs}
    if len(curves) == 2:
        payload["ks_distance"] = ks_distance(*curves)
    return payload


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit, so that
    a bad argv is JSON like every other error; subparsers share the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citecopy",
        description="Misprint-based reader-fraction estimation and "
        "citation-copying simulation tools",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("estimate", help="read fraction from a misprint tally")
    p.add_argument("--distinct", type=int, required=True)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--citations", type=int, required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate-rcs", help="grow random-citing-scientist networks")
    p.add_argument("--papers", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threshold", type=int, default=500)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--dump", type=str, default=None, help="write first run's network here")
    p.set_defaults(func=cmd_simulate_rcs)

    p = sub.add_parser("oracle", help="copy-chain round-trip validation")
    p.add_argument("--citations", type=int, required=True)
    p.add_argument("--read-prob", type=float, required=True)
    p.add_argument("--misprint-prob", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--dump", type=str, default=None, help="write first trial's outcome here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tail", help="equal-papers binomial tail probability")
    p.add_argument("--trials", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prob", type=float, default=None)
    group.add_argument("--one-in", type=int, action=_OneIn, default=argparse.SUPPRESS)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--population", type=int, default=None)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("parse", help="classify citation records against a canonical reference")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--canonical", type=str, required=True, help="'journal,volume,page,year'")
    p.add_argument("--estimate", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("dist", help="CCDF / log-binned histogram / KS distance")
    p.add_argument("--counts", type=str, nargs="+", required=True)
    p.add_argument("--bins-per-decade", type=int, default=5)
    p.add_argument("--out-prefix", type=str, default="dist")
    p.set_defaults(func=cmd_dist)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace()  # stays empty when argparse rejects argv
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args), EXIT_OK
    except tuple(row[0] for row in ERRORS) as exc:
        code, kind = next((c, k) for cls, c, k in ERRORS if isinstance(exc, cls))
        payload = {"error": {"type": kind or type(exc).__name__, "message": str(exc)}}
    params = vars(args)
    manifest = {
        "subcommand": params.get("subcommand"),
        "parameters": {k: v for k, v in params.items() if k not in ("func", "subcommand", "seed")},
        "seed": params.get("seed"),
        "tool_version": __version__,
    }
    json.dump(_strict({"manifest": manifest, **payload}), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
