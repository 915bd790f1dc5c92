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
            OverflowError; ValueError (a bad counts file, a path that
            cannot be encoded, or an array size past numpy's limits)
    exit 1  IOError; UnicodeDecodeError (an input file that is not
            UTF-8); MemoryError

The one exception is `-h`/`--help`: human-readable usage, exit 0.
"""

from __future__ import annotations

import argparse
import collections
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
from .errors import CitecopyError, InvalidTallyError, require_count
from .estimator import MisprintTally, corrected_read_fraction
from .nullmodel import BinomialTailQuery, binomial_log10_tail, expected_count
from .parsing import CanonicalRef, classify, parse_records, top_misprints
from .rcs import RcsConfig, degree_stats, renowned_fraction, simulate_rcs

EXIT_OK, EXIT_IO, EXIT_DOMAIN = 0, 1, 2

# values that `_write_rows` renders into one buffer at a time
DUMP_BLOCK = 1 << 13


class UsageError(CitecopyError):
    """argv that the argument parser rejects."""


# The first row whose class an exception is an instance of gives its exit
# code and reported type (None: the exception's class name).  A
# UnicodeDecodeError is a ValueError, so it precedes that row.
ERRORS = (
    (CitecopyError, EXIT_DOMAIN, None),
    (OSError, EXIT_IO, "IOError"),
    (UnicodeDecodeError, EXIT_IO, None),
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
            raise UnicodeDecodeError(
                error.encoding, error.object, error.start, error.end, f"{error.reason} in {path}"
            ) from exc


def _estimate_dict(tally: MisprintTally) -> dict:
    return dict(zip(("naive_r", "corrected_r", "n_p", "n_c", "M"), astuple(corrected_read_fraction(tally))))


def cmd_estimate(args: argparse.Namespace) -> dict:
    return _estimate_dict(MisprintTally(args.distinct, args.total, args.citations))


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def cmd_simulate_rcs(args: argparse.Namespace) -> dict:
    # every argument is checked before the first network is grown
    require_count("runs", args.runs, 1)
    config = RcsConfig(args.papers, args.m, args.p, args.seed)
    require_count("threshold", args.threshold, 1)
    seeds = trial_seeds(args.seed, args.runs)

    def run(i: int) -> dict:
        """Row of run i; its network is freed on return."""
        net = simulate_rcs(replace(config, seed=seeds[i]))
        count, fraction = renowned_fraction(net, args.threshold)
        stats = asdict(degree_stats(net))
        if i == 0 and args.dump:
            summary = {"n_papers": net.n_papers, **stats, "renowned_threshold": args.threshold,
                       "renowned_count": count}
            _dump(args.dump, net.indptr, net.indices, b": ", summary)
        return {"run": i, **stats, "renowned_count": count, "renowned_fraction": fraction}

    # Much of growth is numpy work that releases the GIL, so given more than
    # one CPU the runs grow in pairs, run i on the calling thread and run
    # i + 1 on one helper: at most two networks are alive.  The runs of one
    # command are the same size, so pairs lose little to a work queue.
    if args.runs >= 2 and _cpus() > 1:
        # imported here: it loads logging, which no other command needs
        from concurrent.futures import ThreadPoolExecutor

        runs = []
        with ThreadPoolExecutor(1, thread_name_prefix="simulate-rcs") as helper:
            for i in range(0, args.runs, 2):
                odd = helper.submit(run, i + 1) if i + 1 < args.runs else None
                runs.append(run(i))
                if odd is not None:
                    runs.append(odd.result())
    else:
        runs = [run(i) for i in range(args.runs)]

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


def cmd_oracle(args: argparse.Namespace) -> dict:
    config = CopyChainConfig(args.citations, args.read_prob, args.misprint_prob, args.seed)
    summary = estimator_roundtrip(config, args.trials)
    if args.dump:
        # trial 0 of the round trip, run again for its variants
        first = simulate_copy_chain(replace(config, seed=trial_seeds(args.seed, 1)[0]))
        rows = np.arange(first.variants.size + 1)
        _dump(args.dump, rows, first.variants, b",", dict(zip("DTN", astuple(first.tally))))
    # every field but the pooled tally, in field order
    return {k: v for k, v in asdict(summary).items() if k != "pooled"}


def _dump(path: str, indptr: np.ndarray, values: np.ndarray, sep: bytes, summary: dict) -> None:
    """Write the CSR rows (`indptr`, `values`) to the file at `path` as
    `_write_rows` renders them, then `summary` as one line of JSON."""
    with open(path, "wb") as fh:
        _write_rows(fh, indptr, values, sep)
        fh.write(json.dumps(summary).encode() + b"\n")


def _write_rows(fh, indptr: np.ndarray, values: np.ndarray, sep: bytes) -> None:
    """Write row i of the CSR rows (`indptr`, `values`) of nonnegative
    int64 to the binary file `fh` as one line: `i` in decimal, `sep`, the
    row's values in decimal joined by spaces, and a newline.  The text is
    built in numpy, DUMP_BLOCK values (or one longer row) at a time, so
    that no Python object is made per number; that bounds the rows too,
    since every row of both dumps but the RCS dump's first is nonempty."""
    a, n = 0, indptr.size - 1
    while a < n:
        lo = indptr[a]
        # a row longer than a block is a block of its own
        b = max(int(np.searchsorted(indptr, lo + DUMP_BLOCK, "right")) - 1, a + 1)
        fh.write(_render_rows(np.arange(a, b), indptr[a:b + 1] - lo, values[lo:indptr[b]], sep))
        a = b


def _render_rows(heads: np.ndarray, bounds: np.ndarray, values: np.ndarray, sep: bytes) -> np.ndarray:
    """The text, as uint8, of rows headed `heads` with the values
    `values[bounds[r]:bounds[r + 1]]`."""
    counts = np.diff(bounds)
    first = bounds[:-1] + np.arange(heads.size)  # each head's place among the numbers
    nums = np.insert(values, bounds[:-1], heads)
    # bytes after each number: the separator after a head, and the newline
    # too if its row is empty; one after a value, a space or the newline
    trail = np.ones(nums.size, dtype=np.int64)
    trail[first] += len(sep) - 1 + (counts == 0)
    width = len(str(nums.max()))
    digits = np.empty((width, nums.size), dtype=np.uint8)
    ndigits = np.ones(nums.size, dtype=np.int64)  # 1 + the passes that leave a quotient
    rest = nums
    for j in range(width):
        quotient = rest // 10
        digits[j] = rest - 10 * quotient
        ndigits += quotient > 0
        rest = quotient
    digits += ord("0")
    # a pad of `width` bytes in front takes the first number's leading zeros
    end = np.cumsum(ndigits + trail) + width  # just past each number's trailer
    stop = end - trail  # just past each number's last digit
    buf = np.empty(end[-1], dtype=np.uint8)
    # most significant digit first: a short number's leading zeros land on
    # bytes before it, which a later, less significant pass or one of the
    # trailer writes below overwrites
    for j in range(width - 1, -1, -1):
        buf[stop - 1 - j] = digits[j]
    buf[stop] = ord(" ")
    for k, byte in enumerate(sep):
        buf[stop[first] + k] = byte
    buf[end[first + counts] - 1] = ord("\n")
    return buf[width:]


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
    fields = args.canonical.split(",")
    if len(fields) != 4:
        raise InvalidTallyError("canonical must be 'journal,volume,page,year' with nonempty fields")
    # every argument is checked before the input is read; CanonicalRef checks the fields
    canonical = CanonicalRef(*fields)
    with _utf8(args.input) as fh:
        table, report = parse_records(fh)
    tally, classes = classify(table, canonical)
    payload = {
        **dict(zip("DTN", astuple(tally))),
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
    `int` reads it, with blank lines and `#` comment lines skipped.

    Counts repeat, so the file is read as a tally of its distinct lines,
    each stripped and converted once, in order of first appearance: the
    first line that fails is still the one reported.  The counts come
    back grouped by line text (line ending excluded), the groups in that
    order, since no use of a sample depends on the order of its counts."""
    with _utf8(path) as fh:
        # text mode has made every line break "\n"; splitlines() would also
        # break at characters such as "\x0c" and "\x85" that end no line
        tally = collections.Counter(fh.read().split("\n"))
    kept = [(text, n) for line, n in tally.items() if (text := line.strip()) and text[0] != "#"]
    try:
        # int() on each kept distinct line, in C
        values = np.array([text for text, _ in kept], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"bad counts file: count beyond the int64 range in {path}") from exc
    except ValueError as exc:
        raise ValueError(f"bad counts file: {exc} in {path}") from exc
    if (values < 0).any():
        raise ValueError(f"bad counts file: negative count {values[values < 0][0]} in {path}")
    return values.repeat([n for _, n in kept])


def _write_csvs(csvs: list) -> None:
    """Write every (path, rows) CSV file or none: each goes to a temporary
    name beside its path, and all are renamed into place once every write
    has succeeded.  On a failure every file this call created is removed;
    a file it replaced before the failure keeps the new output, since the
    old one is gone.  An OSError names the output path, as a direct write
    would; only a FileExistsError, from a temporary file left by an
    earlier process, names that file."""
    created, placed = [], []
    try:
        for path, rows in csvs:
            temp = f"{path}.{os.getpid()}.tmp"
            # "x": never write over a file this call did not create
            with open(temp, "x", encoding="utf-8") as fh:
                created.append(temp)
                fh.writelines(f"{x},{y}\n" for x, y in rows)
        for temp, (path, _) in zip(created, csvs):
            existed = os.path.lexists(path)
            os.replace(temp, path)
            if not existed:
                placed.append(path)
    except BaseException as exc:
        for name in created + placed:
            try:
                os.remove(name)
            except FileNotFoundError:
                pass  # a temporary already renamed
        if isinstance(exc, OSError) and not isinstance(exc, FileExistsError):
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def cmd_dist(args: argparse.Namespace) -> dict:
    if len(args.counts) > 2:
        raise InvalidTallyError("at most two counts files")
    require_count("bins_per_decade", args.bins_per_decade, 1)
    labels = [os.path.splitext(os.path.basename(path))[0] for path in args.counts]
    if len(set(labels)) < len(labels):
        raise InvalidTallyError(f"both counts files have the label {labels[0]!r}; their outputs would collide")
    counts = [_read_counts(path) for path in args.counts]
    # every curve and histogram is computed before the first file is
    # written, so that a failing command leaves no files behind
    outputs, curves, csvs = [], [], []
    for values, label in zip(counts, labels):
        sample = CountSample(values)
        curves.append(ccdf(sample))
        entry = {"label": label, "ccdf_csv": f"{args.out_prefix}_{label}_ccdf.csv"}
        csvs.append((entry["ccdf_csv"], curves[-1].points.tolist()))
        if (values > 0).any():
            hist = log_bin_histogram(sample, args.bins_per_decade)
            entry.update(hist_csv=f"{args.out_prefix}_{label}_hist.csv", zero_mass=hist.zero_mass)
            csvs.append((entry["hist_csv"], hist.points.tolist()))
        outputs.append(entry)
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
    sys.stdout.write(json.dumps(_strict({"manifest": manifest, **payload}), indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
