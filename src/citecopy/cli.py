"""Command-line entry point.

Subcommands cover the whole library: `estimate` (misprint tally to read
fraction), `simulate-rcs` (citation network growth), `oracle` (copy-chain
round-trip validation), `tail` (equal-papers binomial null), `parse`
(citation records to tally), and `dist` (CCDF / histogram / KS).

All machine output is JSON on stdout, with the run manifest embedded
under the "manifest" key.  Exit codes: 0 success, 1 I/O failure,
2 domain or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .copychain import CopyChainConfig, estimator_roundtrip, simulate_copy_chain, trial_seeds
from .distributions import CountSample, ccdf, ks_distance, log_bin_histogram
from .errors import CitecopyError, InvalidTallyError
from .estimator import MisprintTally, corrected_read_fraction
from .nullmodel import BinomialTailQuery, binomial_log10_tail, expected_count
from .parsing import CanonicalRef, classification_dict, classify, parse_records
from .rcs import RcsConfig, degree_stats, renowned_fraction, simulate_rcs

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _manifest(subcommand: str, params: dict, seed: int | None) -> dict:
    return {
        "subcommand": subcommand,
        "parameters": {k: v for k, v in params.items()},
        "seed": seed,
        "tool_version": __version__,
    }


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


def _emit(payload: dict) -> None:
    json.dump(_strict(payload), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_error(manifest: dict, kind: str, message: str) -> None:
    _emit({"manifest": manifest, "error": {"type": kind, "message": message}})


def cmd_estimate(args: argparse.Namespace) -> int:
    manifest = _manifest(
        "estimate",
        {"distinct": args.distinct, "total": args.total, "citations": args.citations},
        None,
    )
    try:
        est = corrected_read_fraction(
            MisprintTally(args.distinct, args.total, args.citations)
        )
    except CitecopyError as exc:
        _emit_error(manifest, type(exc).__name__, str(exc))
        return EXIT_DOMAIN
    _emit(
        {
            "manifest": manifest,
            "naive_r": est.naive_r,
            "corrected_r": est.corrected_r,
            "n_p": est.propagation_factor,
            "n_c": est.copy_factor,
            "M": est.misprint_prob,
        }
    )
    return EXIT_OK


def cmd_simulate_rcs(args: argparse.Namespace) -> int:
    manifest = _manifest(
        "simulate-rcs",
        {
            "papers": args.papers,
            "m": args.m,
            "p": args.p,
            "threshold": args.threshold,
            "runs": args.runs,
            "dump": args.dump,
        },
        args.seed,
    )
    per_run = []
    try:
        # every argument is checked before the first network is grown
        if args.runs < 1:
            raise InvalidTallyError("runs must be >= 1")
        RcsConfig(args.papers, args.m, args.p, args.seed).validate()
        if args.threshold < 1:
            raise InvalidTallyError("threshold must be >= 1")
        for i, s in enumerate(trial_seeds(args.seed, args.runs)):
            net = simulate_rcs(RcsConfig(args.papers, args.m, args.p, int(s)))
            count, fraction = renowned_fraction(net, args.threshold)
            stats = degree_stats(net)
            per_run.append(
                {
                    "run": i,
                    "total_edges": stats.total_edges,
                    "mean_in_degree": stats.mean_in_degree,
                    "max_in_degree": stats.max_in_degree,
                    "renowned_count": count,
                    "renowned_fraction": fraction,
                }
            )
            if i == 0 and args.dump:
                try:
                    _dump_network(args.dump, net, args.threshold, count)
                except OSError as exc:
                    _emit_error(manifest, "IOError", str(exc))
                    return EXIT_IO
    except CitecopyError as exc:
        _emit_error(manifest, type(exc).__name__, str(exc))
        return EXIT_DOMAIN
    _emit(
        {
            "manifest": manifest,
            "runs": per_run,
            "ensemble": {
                "mean_total_edges": float(np.mean([r["total_edges"] for r in per_run])),
                "mean_in_degree": float(np.mean([r["mean_in_degree"] for r in per_run])),
                "mean_renowned_count": float(
                    np.mean([r["renowned_count"] for r in per_run])
                ),
                "mean_renowned_fraction": float(
                    np.mean([r["renowned_fraction"] for r in per_run])
                ),
            },
        }
    )
    return EXIT_OK


def _dump_network(path: str, net, threshold: int, renowned_count: int) -> None:
    # one CSR row at a time, so that no list of all references is built
    bounds = net.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (a, b) in enumerate(zip(bounds, bounds[1:])):
            fh.write(f"{idx}: {' '.join(map(str, net.indices[a:b].tolist()))}\n")
        fh.write(
            json.dumps(
                {
                    "n_papers": net.n_papers,
                    "total_edges": net.total_edges,
                    "mean_in_degree": float(net.in_degree.mean()),
                    "max_in_degree": int(net.in_degree.max()),
                    "renowned_threshold": threshold,
                    "renowned_count": renowned_count,
                }
            )
            + "\n"
        )


def cmd_oracle(args: argparse.Namespace) -> int:
    manifest = _manifest(
        "oracle",
        {
            "citations": args.citations,
            "read_prob": args.read_prob,
            "misprint_prob": args.misprint_prob,
            "trials": args.trials,
            "dump": args.dump,
        },
        args.seed,
    )
    config = CopyChainConfig(
        n_citations=args.citations,
        read_prob=args.read_prob,
        misprint_prob=args.misprint_prob,
        seed=args.seed,
    )
    try:
        summary = estimator_roundtrip(config, args.trials)
        if args.dump:
            first = CopyChainConfig(
                n_citations=args.citations,
                read_prob=args.read_prob,
                misprint_prob=args.misprint_prob,
                seed=int(trial_seeds(args.seed, 1)[0]),
            )
            outcome = simulate_copy_chain(first)
            try:
                _dump_outcome(args.dump, outcome)
            except OSError as exc:
                _emit_error(manifest, "IOError", str(exc))
                return EXIT_IO
    except CitecopyError as exc:
        _emit_error(manifest, type(exc).__name__, str(exc))
        return EXIT_DOMAIN
    _emit(
        {
            "manifest": manifest,
            "trials": summary.trials,
            "degenerate": summary.degenerate,
            "naive_mean": summary.naive_mean,
            "naive_std": summary.naive_std,
            "corrected_mean": summary.corrected_mean,
            "corrected_std": summary.corrected_std,
            "pooled_naive": summary.pooled_naive,
            "pooled_corrected": summary.pooled_corrected,
        }
    )
    return EXIT_OK


def _dump_outcome(path: str, outcome) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx, variant in enumerate(outcome.variants):
            fh.write(f"{idx},{variant}\n")
        fh.write(
            json.dumps(
                {
                    "D": outcome.tally.distinct,
                    "T": outcome.tally.total,
                    "N": outcome.tally.citations,
                }
            )
            + "\n"
        )


def cmd_tail(args: argparse.Namespace) -> int:
    if args.prob is not None:
        prob = args.prob
    elif args.one_in >= 1:
        prob = 1.0 / args.one_in
    else:
        prob = None
    manifest = _manifest(
        "tail",
        {
            "trials": args.trials,
            "prob": prob,
            "threshold": args.threshold,
            "population": args.population,
        },
        None,
    )
    try:
        if prob is None:
            raise InvalidTallyError("one_in must be >= 1")
        log10_tail = binomial_log10_tail(
            BinomialTailQuery(args.trials, prob, args.threshold)
        )
        payload = {"manifest": manifest, "log10_tail": log10_tail}
        if args.population is not None:
            payload["expected_count"] = expected_count(args.population, log10_tail)
    except CitecopyError as exc:
        _emit_error(manifest, type(exc).__name__, str(exc))
        return EXIT_DOMAIN
    _emit(payload)
    return EXIT_OK


def cmd_parse(args: argparse.Namespace) -> int:
    manifest = _manifest(
        "parse",
        {"input": args.input, "canonical": args.canonical, "estimate": args.estimate},
        None,
    )
    fields = [f.strip() for f in args.canonical.split(",")]
    if len(fields) != 4 or not all(fields):
        _emit_error(
            manifest,
            "InvalidTallyError",
            "canonical must be 'journal,volume,page,year' with nonempty fields",
        )
        return EXIT_DOMAIN
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            records, report = parse_records(fh)
    except OSError as exc:
        _emit_error(manifest, "IOError", str(exc))
        return EXIT_IO
    except UnicodeDecodeError as exc:
        _emit_error(manifest, "UnicodeDecodeError", f"{args.input}: {exc}")
        return EXIT_IO
    try:
        canonical = CanonicalRef(*fields)
        tally, classes = classify(records, canonical)
        payload = {"manifest": manifest, **classification_dict(tally, classes)}
        payload["rejected"] = [
            {"line": lineno, "reason": reason} for lineno, reason in report.rejected
        ]
        if args.estimate:
            est = corrected_read_fraction(tally)
            payload["estimate"] = {
                "naive_r": est.naive_r,
                "corrected_r": est.corrected_r,
                "n_p": est.propagation_factor,
                "n_c": est.copy_factor,
                "M": est.misprint_prob,
            }
    except CitecopyError as exc:
        _emit_error(manifest, type(exc).__name__, str(exc))
        return EXIT_DOMAIN
    _emit(payload)
    return EXIT_OK


def _read_counts(path: str) -> CountSample:
    with open(path, "r", encoding="utf-8") as fh:
        values = [int(line) for line in map(str.strip, fh) if line and line[0] != "#"]
    try:
        counts = np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"count beyond the int64 range in {path}") from exc
    negative = counts[counts < 0]
    if negative.size:
        raise ValueError(f"negative count {negative[0]} in {path}")
    label = os.path.splitext(os.path.basename(path))[0]
    return CountSample(counts=counts, label=label)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in rows:
            fh.write(f"{x},{y}\n")


def cmd_dist(args: argparse.Namespace) -> int:
    manifest = _manifest(
        "dist",
        {
            "counts": args.counts,
            "bins_per_decade": args.bins_per_decade,
            "out_prefix": args.out_prefix,
        },
        None,
    )
    if len(args.counts) > 2:
        _emit_error(manifest, "InvalidTallyError", "at most two counts files")
        return EXIT_DOMAIN
    samples = []
    for path in args.counts:
        try:
            samples.append(_read_counts(path))
        except OSError as exc:
            _emit_error(manifest, "IOError", str(exc))
            return EXIT_IO
        except UnicodeDecodeError as exc:
            _emit_error(manifest, "UnicodeDecodeError", f"{path}: {exc}")
            return EXIT_IO
        except ValueError as exc:
            _emit_error(manifest, "ValueError", f"bad counts file: {exc}")
            return EXIT_DOMAIN
    outputs = []
    curves = []
    try:
        for sample in samples:
            curve = ccdf(sample)
            curves.append(curve)
            ccdf_path = f"{args.out_prefix}_{sample.label}_ccdf.csv"
            _write_csv(ccdf_path, curve.points)
            entry = {"label": sample.label, "ccdf_csv": ccdf_path}
            if (sample.counts > 0).any():
                hist = log_bin_histogram(sample, args.bins_per_decade)
                hist_path = f"{args.out_prefix}_{sample.label}_hist.csv"
                _write_csv(hist_path, hist.points)
                entry["hist_csv"] = hist_path
                entry["zero_mass"] = hist.zero_mass
            outputs.append(entry)
    except CitecopyError as exc:
        _emit_error(manifest, type(exc).__name__, str(exc))
        return EXIT_DOMAIN
    except OSError as exc:
        _emit_error(manifest, "IOError", str(exc))
        return EXIT_IO
    payload = {"manifest": manifest, "outputs": outputs}
    if len(curves) == 2:
        payload["ks_distance"] = ks_distance(curves[0], curves[1])
    _emit(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    group.add_argument("--one-in", type=int, default=None)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
