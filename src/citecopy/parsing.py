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
class CitationRecord:
    """One citing paper's rendering of the reference."""

    source_id: str
    journal: str
    volume: str
    page: str
    year: str


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


def parse_records(lines: Iterable[str]) -> tuple[list[CitationRecord], ParseReport]:
    """Parse the line format above.  Malformed lines are collected in the
    report rather than raising; empty input yields an empty list."""
    records: list[CitationRecord] = []
    rejected: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            rejected.append((lineno, f"wrong field count: expected 5, got {len(fields)}"))
            continue
        if not fields[0]:
            rejected.append((lineno, "empty source_id"))
            continue
        records.append(CitationRecord(*fields))
    return records, ParseReport(rejected=tuple(rejected))


def classify(
    records: list[CitationRecord], canonical: CanonicalRef
) -> tuple[MisprintTally, list[MisprintClass]]:
    """Group erroneous renderings into classes by exact normalized-tuple
    equality and derive the misprint tally.

    Copied citations repeat a few renderings verbatim, so each distinct
    raw rendering is normalized once."""
    target = canonical.normalized()
    groups: dict[tuple[str, str, str, str], list[str]] = {}
    normalized: dict[tuple[str, str, str, str], tuple[str, str, str, str]] = {}
    for rec in records:
        raw = (rec.journal, rec.volume, rec.page, rec.year)
        t = normalized.get(raw)
        if t is None:
            t = normalized[raw] = normalize_tuple(*raw)
        if t == target:
            continue
        groups.setdefault(t, []).append(rec.source_id)
    classes = [
        MisprintClass(variant=v, multiplicity=len(members), members=tuple(members))
        for v, members in groups.items()
    ]
    tally = MisprintTally(
        distinct=len(classes),
        total=sum(c.multiplicity for c in classes),
        citations=len(records),
    )
    return tally, classes


def top_misprints(classes: list[MisprintClass], k: int) -> list[MisprintClass]:
    """The k largest classes, ties broken by first appearance order."""
    if k < 0:
        raise InvalidTallyError("k must be >= 0")
    # sorted is stable, so equal multiplicities keep their order
    return sorted(classes, key=lambda c: -c.multiplicity)[:k]
