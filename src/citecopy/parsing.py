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

from .errors import InvalidTallyError, require_count
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


# how each of (journal, volume, page, year) is normalized
_NORMS = (_norm_field, _norm_field, _norm_page, _norm_field)


def normalize_tuple(journal: str, volume: str, page: str, year: str) -> tuple[str, str, str, str]:
    return tuple(norm(text) for norm, text in zip(_NORMS, (journal, volume, page, year)))


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
    `renderings` has no duplicates and is in order of first appearance."""

    source_ids: list[str]
    rendering: list[int]
    renderings: list[tuple[str, str, str, str]]

    def __len__(self) -> int:
        return len(self.source_ids)


@dataclass(frozen=True)
class MisprintClass:
    """A cluster of identical erroneous renderings."""

    variant: tuple[str, str, str, str]
    members: tuple[str, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ParseReport:
    """Rejected lines with reasons, as (line_number, reason) pairs."""

    rejected: tuple[tuple[int, str], ...]


def parse_records(lines: Iterable[str]) -> tuple[CitationTable, ParseReport]:
    """Parse the line format above.  Malformed lines are collected in the
    report rather than raising; empty input yields an empty table.

    Copied citations repeat a few renderings verbatim, so each distinct
    text after the first comma of a kept record is split once."""
    source_ids: list[str] = []
    rendering: list[int] = []
    rejected: list[tuple[int, str]] = []
    # text after the first comma -> its rendering's index; a rejected
    # text is split again on each of its lines
    tails: dict[str, int] = {}
    # stripped fields -> their index in the table's renderings, in order
    # of first appearance; two texts can strip to the same fields
    index: dict[tuple[str, ...], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        # the raw line's first comma is the stripped line's, and the last
        # field's strip removes the tail's trailing whitespace
        source_id, comma, tail = raw.partition(",")
        source_id = source_id.strip()
        if source_id.startswith("#") or not (comma or source_id):
            continue  # a comment or a blank line
        found = tails.get(tail)
        if found is None:
            fields = tuple(f.strip() for f in tail.split(",")) if comma else ()
            if len(fields) != 4:
                rejected.append((lineno, f"wrong field count: expected 5, got {len(fields) + 1}"))
                continue
        if not source_id:
            rejected.append((lineno, "empty source_id"))
            continue
        if found is None:
            # the text's first kept record: a rendering enters the table
            # only with a record, so that its index is first appearance
            found = tails[tail] = index.setdefault(fields, len(index))
        source_ids.append(source_id)
        rendering.append(found)
    table = CitationTable(source_ids, rendering, list(index))
    return table, ParseReport(rejected=tuple(rejected))


def classify(table: CitationTable, canonical: CanonicalRef) -> tuple[MisprintTally, list[MisprintClass]]:
    """Group erroneous renderings into classes by exact normalized-tuple
    equality and derive the misprint tally.  Classes are in order of
    first appearance, and so are the members of each.

    Each distinct field text is normalized once per column (the page
    column normalizes differently, so no memo spans two columns); records
    are grouped in one pass through their rendering's class."""
    target = canonical.normalized()
    normalized = [map({text: norm(text) for text in set(column)}.__getitem__, column)
                  for column, norm in zip(zip(*table.renderings), _NORMS)]
    # members of each erroneous variant, in order of first appearance
    variants: dict[tuple[str, str, str, str], list[str]] = {}
    # the member list of each rendering's class; None for the canonical class
    of_rendering = [None if t == target else variants.setdefault(t, []) for t in zip(*normalized)]
    for source_id, i in zip(table.source_ids, table.rendering):
        members = of_rendering[i]
        if members is not None:
            members.append(source_id)
    classes = [MisprintClass(variant, tuple(members)) for variant, members in variants.items()]
    tally = MisprintTally(distinct=len(classes), total=sum(c.multiplicity for c in classes), citations=len(table))
    return tally, classes


def top_misprints(classes: list[MisprintClass], k: int) -> list[MisprintClass]:
    """The k largest classes, ties broken by first appearance order."""
    k = require_count("k", k, 0)
    # sorted is stable, so equal multiplicities keep their order
    return sorted(classes, key=lambda c: -c.multiplicity)[:k]
