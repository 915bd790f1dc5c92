"""Seeded input files for the benchmark workloads.

Everything here runs before timing starts.  The same seed always gives
byte-identical files, and the generator returns what it planted so the
checks can compare the program's output against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The canonical reference that `parse --canonical` is given.  The journal
# has inner spaces so that whitespace variants are possible.
CANONICAL = ("J. Phys. C", "6", "1181", "1973")
CANONICAL_ARG = ",".join(CANONICAL)

# Share of the paper's operating point: D/N = 45/4300 misprint classes per
# citation, so that `parse --estimate` sees a realistic tally.
CLASSES_PER_RECORD = 45 / 4300
MALFORMED_SHARE = 0.01
COMMENT_SHARE = 0.002

_JOURNALS = ("J. Phys. A", "J. Phys. B", "J. Phys. D", "Phys. Rev. C", "J. Phys. Chem", "Z. Phys. C")


@dataclass(frozen=True)
class PlantedCitations:
    """What a generated citation file holds after normalization."""

    distinct: int
    total: int
    citations: int
    multiplicities: tuple[int, ...]  # sorted descending
    rejected_lines: tuple[int, ...]  # 1-based line numbers of malformed lines


def _normalized(journal: str, volume: str, page: str, year: str) -> tuple[str, str, str, str]:
    # mirror of the documented normalization, used only to keep planted
    # variants distinct from each other and from the canonical reference
    def num(v: str) -> str:
        return v.lstrip("0") or "0"

    return (" ".join(journal.split()).casefold(), num(volume), num(page), num(year))


def _variant_tuples(rng: np.random.Generator, count: int) -> list[tuple[str, str, str, str]]:
    """`count` distinct misprinted renderings, each differing from the
    canonical reference in one or two fields."""
    canonical = _normalized(*CANONICAL)
    seen = {canonical}
    out = []
    while len(out) < count:
        fields = list(CANONICAL)
        for which in rng.choice(4, size=int(rng.integers(1, 3)), replace=False):
            if which == 0:
                fields[0] = _JOURNALS[int(rng.integers(len(_JOURNALS)))]
            elif which == 1:
                fields[1] = str(int(rng.integers(1, 100)))
            elif which == 2:
                fields[2] = str(int(rng.integers(1, 10000)))
            else:
                fields[3] = str(int(rng.integers(1950, 2006)))
        key = _normalized(*fields)
        if key not in seen:
            seen.add(key)
            out.append(tuple(fields))
    return out


def _render(rng: np.random.Generator, fields: tuple[str, str, str, str]) -> list[str]:
    """A surface variant of `fields` that normalizes back to them:
    case, whitespace, leading zeros and page ranges."""
    journal, volume, page, year = fields
    case = int(rng.integers(4))
    if case == 1:
        journal = journal.upper()
    elif case == 2:
        journal = journal.lower()
    if rng.random() < 0.3:
        journal = journal.replace(" ", " " * int(rng.integers(2, 4)))
    if rng.random() < 0.2:
        volume = "0" * int(rng.integers(1, 3)) + volume
    if rng.random() < 0.1:
        year = "0" + year
    r = rng.random()
    if r < 0.15:
        page = f"{page}-{int(page) + int(rng.integers(1, 30))}"
    elif r < 0.2:
        page = f"{page}–{int(page) + int(rng.integers(1, 30))}"
    elif r < 0.25:
        page = "0" + page
    out = [journal, volume, page, year]
    if rng.random() < 0.2:
        i = int(rng.integers(4))
        out[i] = " " + out[i] + "  "
    return out


def write_citations(path: str, rng: np.random.Generator, n_records: int) -> PlantedCitations:
    """Write a `parse` input of `n_records` valid records plus about 1%
    malformed lines and a few comment and blank lines.

    Misprint classes have heavy-tailed (copied) multiplicities; every
    record is rendered with its own surface noise."""
    n_classes = max(1, round(n_records * CLASSES_PER_RECORD))
    mult = np.minimum(rng.zipf(2.2, size=n_classes), max(1, n_records // 100))
    while mult.sum() > n_records // 2:
        mult = np.maximum(mult // 2, 1)
    variants = _variant_tuples(rng, n_classes)
    targets = [CANONICAL] * (n_records - int(mult.sum()))
    for v, k in zip(variants, mult):
        targets.extend([v] * int(k))
    order = rng.permutation(len(targets))

    n_malformed = max(1, round(n_records * MALFORMED_SHARE))
    n_comments = max(1, round(n_records * COMMENT_SHARE))
    kinds = np.zeros(n_records + n_malformed + n_comments, dtype=np.int8)
    slots = rng.permutation(kinds.size)
    kinds[slots[:n_malformed]] = 1
    kinds[slots[n_malformed : n_malformed + n_comments]] = 2

    lines = ["# citing_id,journal,volume,page,year"]
    rejected = []
    record = 0
    for kind in kinds:
        if kind == 2:
            lines.append("" if rng.random() < 0.5 else f"# batch {int(rng.integers(1000))}")
            continue
        if kind == 1:
            fields = _render(rng, CANONICAL)
            shape = int(rng.integers(3))
            if shape == 0:
                row = [f"X{len(lines):07d}"] + fields[:3]
            elif shape == 1:
                row = [f"X{len(lines):07d}"] + fields + ["extra"]
            else:
                row = [" "] + fields
            rejected.append(len(lines) + 1)
        else:
            row = [f"S{record:07d}"] + _render(rng, targets[order[record]])
            record += 1
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return PlantedCitations(
        distinct=n_classes,
        total=int(mult.sum()),
        citations=n_records,
        multiplicities=tuple(sorted((int(k) for k in mult), reverse=True)),
        rejected_lines=tuple(rejected),
    )


# Zipf exponents of the two count files.  With 200 000 counts each they
# share about 4 700 distinct values, the size at which `ks_distance` is
# quadratic enough to matter.
COUNT_EXPONENTS = (1.57, 1.6)


def write_counts(path: str, rng: np.random.Generator, size: int, exponent: float) -> np.ndarray:
    """Heavy-tailed nonnegative counts (zipf minus one, so zeros occur),
    one per line after a comment header.  Returns the counts."""
    counts = rng.zipf(exponent, size=size) - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# zipf({exponent}) - 1, {size} papers\n")
        fh.write("\n".join(str(int(c)) for c in counts) + "\n")
    return counts

