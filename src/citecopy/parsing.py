"""Citation-record ingestion and misprint classification.

Input is one citation per line, comma-separated:

    source_id,journal,volume,page,year

Lines starting with `#` are comments.  Records are normalized, compared
against a canonical reference, and erroneous renderings are clustered by
exact normalized-tuple equality into misprint classes, yielding the
(distinct, total, citations) tally the estimator consumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidTallyError
from .estimator import MisprintTally

_WS = re.compile(r"\s+")
_RANGE_SPLIT = re.compile(r"[-–—]")


def _norm_field(value: str) -> str:
    v = _WS.sub(" ", value.strip()).casefold()
    if v.isdigit():
        v = v.lstrip("0") or "0"
    return v


def _norm_page(value: str) -> str:
    # only the starting page of a range is compared: "1181-1203" -> "1181"
    first = _RANGE_SPLIT.split(value.strip(), maxsplit=1)[0]
    return _norm_field(first)


def normalize_tuple(journal: str, volume: str, page: str, year: str) -> tuple[str, str, str, str]:
    return (_norm_field(journal), _norm_field(volume), _norm_page(page), _norm_field(year))


@dataclass(frozen=True)
class CanonicalRef:
    """The correct rendering of the cited paper's bibliographic fields."""

    journal: str
    volume: str
    page: str
    year: str

    def __post_init__(self) -> None:
        if not all(self.normalized()):
            raise InvalidTallyError("canonical reference fields must be nonempty")

    def normalized(self) -> tuple[str, str, str, str]:
        return normalize_tuple(self.journal, self.volume, self.page, self.year)


@dataclass(frozen=True)
class CitationTable:
    """Kept citation records as a table of their distinct renderings:
    record i, cited by `source_ids[i]`, renders the reference as
    `renderings[rendering[i]]`, its stripped (journal, volume, page, year).
    `renderings` has no duplicates and is in order of first appearance.
    Two tables are equal when their fields are; like their arrays, tables
    are unhashable."""

    source_ids: list[str]
    rendering: np.ndarray
    renderings: list[tuple[str, str, str, str]]

    def __len__(self) -> int:
        return len(self.source_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationTable):
            return NotImplemented
        return (
            self.source_ids == other.source_ids
            and self.renderings == other.renderings
            and np.array_equal(self.rendering, other.rendering)
        )

    __hash__ = None


@dataclass(frozen=True)
class MisprintClass:
    """A cluster of identical erroneous renderings."""

    variant: tuple[str, str, str, str]
    multiplicity: int
    members: tuple[str, ...]


@dataclass(frozen=True)
class ParseReport:
    """Rejected lines with reasons, as (line_number, reason) pairs."""

    rejected: tuple[tuple[int, str], ...]


def parse_records(lines: Iterable[str]) -> tuple[CitationTable, ParseReport]:
    """Parse the line format above.  Malformed lines are collected in the
    report rather than raising; empty input yields an empty table.

    Copied citations repeat a few renderings verbatim, so the text after
    the first comma is split and stripped once per distinct text."""
    source_ids: list[str] = []
    rendering: list[int] = []
    renderings: list[tuple[str, str, str, str]] = []
    rejected: list[tuple[int, str]] = []
    # text after the first comma -> its rendering's index, or the reason
    # its lines are rejected
    tails: dict[str, int | str] = {}
    # stripped fields -> their index in renderings; two texts can strip
    # to the same fields
    index: dict[tuple[str, ...], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        source_id, comma, tail = line.partition(",")
        found = tails.get(tail) if comma else "wrong field count: expected 5, got 1"
        if found is None:
            fields = tuple(f.strip() for f in tail.split(","))
            if len(fields) != 4:
                found = tails[tail] = f"wrong field count: expected 5, got {len(fields) + 1}"
        if type(found) is str:
            rejected.append((lineno, found))
            continue
        source_id = source_id.strip()
        if not source_id:
            rejected.append((lineno, "empty source_id"))
            continue
        if found is None:
            # the text's first kept record: a rendering enters the table
            # only with a record, so that its index is first appearance
            found = index.get(fields)
            if found is None:
                found = index[fields] = len(renderings)
                renderings.append(fields)
            tails[tail] = found
        source_ids.append(source_id)
        rendering.append(found)
    table = CitationTable(source_ids, np.array(rendering, dtype=np.intp), renderings)
    return table, ParseReport(rejected=tuple(rejected))


def classify(table: CitationTable, canonical: CanonicalRef) -> tuple[MisprintTally, list[MisprintClass]]:
    """Group erroneous renderings into classes by exact normalized-tuple
    equality and derive the misprint tally.  Classes are in order of
    first appearance, and so are the members of each.

    Each distinct rendering is normalized once; records are grouped by
    their rendering's class in numpy."""
    target = canonical.normalized()
    variants: dict[tuple[str, str, str, str], int] = {}
    # class of each rendering, numbered in order of rendering index; the
    # canonical class is -1
    of_rendering = np.empty(len(table.renderings), dtype=np.intp)
    for i, raw in enumerate(table.renderings):
        t = normalize_tuple(*raw)
        of_rendering[i] = -1 if t == target else variants.setdefault(t, len(variants))
    of_record = of_rendering[table.rendering]
    sizes = np.bincount(of_record + 1, minlength=len(variants) + 1).tolist()
    # the canonical records sort first, then each class's in record order
    order = np.argsort(of_record, kind="stable")[sizes[0] :].tolist()
    ids = table.source_ids
    classes = []
    start = 0
    for variant, size in zip(variants, sizes[1:]):
        members = tuple([ids[j] for j in order[start : start + size]])
        classes.append(MisprintClass(variant=variant, multiplicity=size, members=members))
        start += size
    tally = MisprintTally(distinct=len(classes), total=len(order), citations=len(table))
    return tally, classes


def top_misprints(classes: list[MisprintClass], k: int) -> list[MisprintClass]:
    """The k largest classes, ties broken by first appearance order."""
    if k < 0:
        raise InvalidTallyError("k must be >= 0")
    # sorted is stable, so equal multiplicities keep their order
    return sorted(classes, key=lambda c: -c.multiplicity)[:k]
