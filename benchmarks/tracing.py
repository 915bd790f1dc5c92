"""Spans around the calls into each layer, and the per-layer metrics
computed from them.

A layer is a module of the library.  `install` wraps the layer's public
functions in every module that binds them (so `simulate_rcs` is wrapped
both as `citecopy.cli` and as `citecopy.rcs` see it), and `uninstall`
puts the originals back.  Spans are kept in memory and written out when
the benchmark ends.  A span's self time is its duration minus the time
its child spans cover, so the self times of one pass add up to the
pass's wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# (layer, function) -> the self-time metric its spans add to, and the
# counters read from its arguments and return value.
LAYER_FUNCTIONS = {
    ("cli", "main"): ("cli.self_s", None),
    ("copychain", "estimator_roundtrip"): (
        "copychain.roundtrip_s",
        lambda a, k, r: {"citations": _first(a, k).n_citations * r.trials, "degenerate": r.degenerate},
    ),
    ("copychain", "simulate_copy_chain"): (
        "copychain.chain_s",
        lambda a, k, r: {"citations": _first(a, k).n_citations, "degenerate": int(r.tally.total == 0)},
    ),
    ("rcs", "simulate_rcs"): (
        "rcs.grow_s",
        lambda a, k, r: {"papers": _first(a, k).n_papers, "edges": r.total_edges},
    ),
    ("rcs", "renowned_fraction"): ("rcs.stats_s", None),
    ("rcs", "degree_stats"): ("rcs.stats_s", None),
    ("distributions", "ccdf"): (
        "distributions.ccdf_s",
        lambda a, k, r: {"items": len(_first(a, k).counts)},
    ),
    ("distributions", "log_bin_histogram"): ("distributions.hist_s", None),
    ("distributions", "ks_distance"): (
        "distributions.ks_s",
        lambda a, k, r: {"thresholds": len({x for x, _ in a[0].points} | {x for x, _ in a[1].points})},
    ),
    ("nullmodel", "binomial_log10_tail"): (
        "nullmodel.tail_s",
        lambda a, k, r: {"query": (_first(a, k).trials, _first(a, k).success_prob, _first(a, k).threshold), "value": r},
    ),
    ("nullmodel", "expected_count"): ("nullmodel.tail_s", None),
    ("nullmodel", "streak_probability"): ("nullmodel.tail_s", None),
    ("parsing", "parse_records"): (
        "parsing.parse_s",
        lambda a, k, r: {"records": len(r[0]), "rejected": len(r[1].rejected)},
    ),
    ("parsing", "classify"): ("parsing.classify_s", lambda a, k, r: {"classes": len(r[1])}),
    ("parsing", "top_misprints"): ("parsing.classify_s", None),
    ("parsing", "classification_dict"): ("parsing.classify_s", None),
    ("estimator", "naive_read_fraction"): ("estimator.s", None),
    ("estimator", "propagation_factor"): ("estimator.s", None),
    ("estimator", "misprint_probability"): ("estimator.s", None),
    ("estimator", "copy_factor"): ("estimator.s", None),
    ("estimator", "corrected_read_fraction"): ("estimator.s", None),
}
PASS = "pass"
SELF_METRIC = {f"{layer}.{fn}": metric for (layer, fn), (metric, _) in LAYER_FUNCTIONS.items()}
SELF_METRIC[PASS] = "trace.harness_s"


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.roots: list[int] = []  # the root span of each pass
        self.pass_id = 0

    def _begin(self, name: str) -> Span:
        span = Span(name, self.pass_id, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if counters is not None:
                span.counts = counters(args, kwargs, result)
            return result

        return traced

    def run_pass(self, body):
        """Run `body()` as one pass under a new root span, whose index is
        appended to `roots`; returns what `body` returned."""
        self.pass_id += 1
        self.roots.append(len(self.spans))
        span = self._begin(PASS)
        try:
            return body()
        finally:
            self._finish(span)

    def install(self) -> list:
        """Wrap every layer function in every citecopy module that binds
        it; returns what `uninstall` needs to undo that."""
        modules = [m for name, m in sys.modules.items() if name == "citecopy" or name.startswith("citecopy.")]
        patched = []
        for (layer, fn), (_, counters) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules.get(f"citecopy.{layer}"), fn, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{layer}.{fn}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        return patched

    @staticmethod
    def uninstall(patched: list) -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "pass": s.pass_id, "parent": s.parent,
                         "start": s.start, "end": s.end, "counts": s.counts}
                    )
                    + "\n"
                )


def self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    """Self time of each span: its duration minus its children's."""
    own = {i: spans[i].end - spans[i].start for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent is not None:
            own[parent] -= spans[i].end - spans[i].start
    return own


def _inside(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# span name -> {counter read at the span: metric it is summed into}
SUMMED_COUNTS = {
    "copychain.estimator_roundtrip": {"citations": "copychain.citations", "degenerate": "copychain.degenerate"},
    "copychain.simulate_copy_chain": {"citations": "copychain.citations", "degenerate": "copychain.degenerate"},
    "rcs.simulate_rcs": {"papers": "rcs.papers", "edges": "rcs.edges"},
    "distributions.ccdf": {"items": "distributions.ccdf_items"},
    "distributions.ks_distance": {"thresholds": "distributions.ks_thresholds"},
    "parsing.parse_records": {"records": "parsing.records", "rejected": "parsing.rejected"},
    "parsing.classify": {"classes": "parsing.classes"},
}
# metric -> the spans it counts
CALL_COUNTS = {
    "copychain.chain_calls": ("copychain.simulate_copy_chain",),
    "rcs.grow_calls": ("rcs.simulate_rcs",),
    "nullmodel.tail_calls": ("nullmodel.binomial_log10_tail",),
    "estimator.calls": tuple(n for n, metric in SELF_METRIC.items() if metric == "estimator.s"),
    "cli.calls": ("cli.main",),
}


def pass_metrics(spans: list[Span], root: int, tail_reference) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the spans under `root`.

    `tail_reference(n, p, k)` gives the reference log10 tail against which
    `nullmodel.tail_abs_err` is measured."""
    indices = [i for i, s in enumerate(spans) if s.pass_id == spans[root].pass_id]
    own = self_times(spans, indices)
    out: dict[str, float] = dict.fromkeys(SELF_METRIC.values(), 0.0)
    out.update(dict.fromkeys([m for counts in SUMMED_COUNTS.values() for m in counts.values()], 0))
    out.update(dict.fromkeys(CALL_COUNTS, 0))
    out["nullmodel.tail_abs_err"] = 0.0
    for i in indices:
        s = spans[i]
        out[SELF_METRIC[s.name]] += own[i]
        for metric, names in CALL_COUNTS.items():
            out[metric] += s.name in names
        if s.name == "copychain.simulate_copy_chain" and _inside(spans, i, "copychain.estimator_roundtrip"):
            continue  # the roundtrip counts its own chains
        for key, metric in SUMMED_COUNTS.get(s.name, {}).items():
            out[metric] += s.counts.get(key, 0)
        if s.name == "nullmodel.binomial_log10_tail" and s.counts:
            err = abs(s.counts["value"] - tail_reference(*s.counts["query"]))
            out["nullmodel.tail_abs_err"] = max(out["nullmodel.tail_abs_err"], err)
    copychain_s = out["copychain.chain_s"] + out["copychain.roundtrip_s"]
    out["copychain.citations_per_s"] = out["copychain.citations"] / copychain_s if copychain_s else 0.0
    out["rcs.papers_per_s"] = out["rcs.papers"] / out["rcs.grow_s"] if out["rcs.grow_s"] else 0.0
    out["trace.wall_s"] = spans[root].end - spans[root].start
    return out


def self_time_sum(metrics: dict[str, float]) -> float:
    """Sum of a pass's self-time metrics; equals its `trace.wall_s`."""
    return sum(metrics[m] for m in set(SELF_METRIC.values()))
