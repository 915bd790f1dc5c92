import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from citecopy import (
    CanonicalRef,
    CitationTable,
    CopyChainConfig,
    InvalidTallyError,
    ParseReport,
    classify,
    parse_records,
    simulate_copy_chain,
    top_misprints,
)
from citecopy.parsing import normalize_tuple

KT_CANONICAL = CanonicalRef("J.Phys.C", "6", "1181", "1973")

# raw field values: surface variants of the canonical fields (whitespace,
# case, leading zeros, page ranges) next to genuine misprints
RAW_RENDERINGS = st.tuples(
    st.sampled_from(["J.Phys.C", " j.phys.c", "J.PHYS.C ", "J.Phys.  C", "J.Phys.B"]),
    st.sampled_from(["6", "06", "006 ", "7", "0", "00"]),
    st.sampled_from(["1181", "01181", "1181-1203", "1181–90", "1118", "181"]),
    st.sampled_from(["1973", " 1973", "1937", "1973\t"]),
)


def reference_classify(records, canonical):
    """classify's contract, written out with one normalization per record
    of (source_id, journal, volume, page, year) rows: (variant, members)
    in first-appearance order, and N."""
    target = canonical.normalized()
    groups = {}
    for source_id, *raw in records:
        t = normalize_tuple(*raw)
        if t != target:
            groups.setdefault(t, []).append(source_id)
    return [(v, tuple(m)) for v, m in groups.items()], len(records)


def reference_parse(lines):
    """parse_records's contract as a plain loop: every line is split and
    stripped on its own into a (source_id, journal, volume, page, year)
    row."""
    records, rejected = [], []
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
        records.append(tuple(fields))
    return records, ParseReport(rejected=tuple(rejected))


def rows(table):
    """The table's records as (source_id, journal, volume, page, year) rows."""
    return [(sid, *table.renderings[i]) for sid, i in zip(table.source_ids, table.rendering)]


def make_table(records):
    """The CitationTable of (source_id, journal, volume, page, year) rows."""
    renderings = list(dict.fromkeys(r[1:] for r in records))
    index = {r: i for i, r in enumerate(renderings)}
    rendering = [index[r[1:]] for r in records]
    return CitationTable([r[0] for r in records], rendering, renderings)


# field text with empty fields, ASCII and Unicode padding, and text that
# looks like a comment
RAW_FIELDS = st.sampled_from(
    ["", " ", "p1", " p2\t", "J.Phys.C", "\u3000J.Phys.C", "6\xa0", " 1181 ", "\u20031973", "#x", "a b"]
)
# a line is a field, or a field and a comma before one of a few tails of
# 1 to 7 fields, so tails repeat as copied citations do
LINES = st.lists(st.lists(RAW_FIELDS, min_size=1, max_size=7).map(",".join), min_size=1, max_size=4).flatmap(
    lambda tails: st.lists(
        st.tuples(
            st.one_of(
                RAW_FIELDS,
                st.tuples(RAW_FIELDS, st.sampled_from(tails)).map(",".join),
                st.sampled_from(["#", "# a,b,c,d,e", "  #p,J,6,1181,1973", "\xa0"]),
            ),
            st.sampled_from(["", "\n", "\r\n"]),
        ).map("".join),
        max_size=40,
    )
)


def row(i, journal="J.Phys.C", volume="6", page="1181", year="1973"):
    return (f"p{i}", journal, volume, page, year)


# copied citations repeat a few raw renderings verbatim
REPEATED_RENDERINGS = st.lists(RAW_RENDERINGS, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=80)
)


class TestParseRecords:
    def test_single_line(self):
        table, report = parse_records(["p1,J.Phys.C,6,1181,1973"])
        assert table == make_table([("p1", "J.Phys.C", "6", "1181", "1973")])
        assert type(table.rendering) is list and all(type(i) is int for i in table.rendering)
        assert report.rejected == ()

    def test_wrong_field_count(self):
        table, report = parse_records(["p1,J.Phys.C,6,1181"])
        assert len(table) == 0
        assert len(report.rejected) == 1
        assert "wrong field count" in report.rejected[0][1]

    def test_messy_fixture(self, data_dir):
        with open(data_dir / "messy10.csv") as fh:
            table, report = parse_records(fh)
        assert len(table) == 8
        assert len(report.rejected) == 2
        assert [lineno for lineno, _ in report.rejected] == [4, 7]

    def test_comments_and_blanks_skipped(self):
        table, report = parse_records(["# header", "", "  ", "p1,a,b,c,d"])
        assert len(table) == 1
        assert report.rejected == ()

    def test_empty_input(self):
        table, report = parse_records([])
        assert table == make_table([]) and report.rejected == ()

    @given(LINES)
    def test_matches_per_line_splitting(self, lines):
        table, report = parse_records(lines)
        expected, expected_report = reference_parse(lines)
        assert rows(table) == expected
        assert report == expected_report

    def test_equal_stripped_renderings_share_one_index(self):
        table, _ = parse_records([
            " ,J.Phys.C,6,1181-1203,1973",
            "p1, J.Phys.C ,6,1181,1973",
            "p2,J.Phys.C,6,1181,1973",
            "p3,J.Phys.C,6,1181-1203,1973",
            "p4, J.Phys.C ,6,1181,1973",
        ])
        assert table.renderings == [("J.Phys.C", "6", "1181", "1973"), ("J.Phys.C", "6", "1181-1203", "1973")]
        assert table.rendering == [0, 0, 1, 0]
        assert table.source_ids == ["p1", "p2", "p3", "p4"]

    @given(
        st.tuples(LINES, REPEATED_RENDERINGS).flatmap(
            lambda pair: st.permutations(pair[0] + [f"c{i},{','.join(raw)}" for i, raw in enumerate(pair[1])])
        )
    )
    def test_parse_and_classify_match_per_line_references(self, lines):
        table, report = parse_records(lines)
        tally, classes = classify(table, KT_CANONICAL)
        records, expected_report = reference_parse(lines)
        expected, n = reference_classify(records, KT_CANONICAL)
        assert rows(table) == records
        assert report == expected_report
        # every rendering is used, and they come in order of first appearance
        assert list(dict.fromkeys(table.rendering)) == list(range(len(table.renderings)))
        assert len(set(table.renderings)) == len(table.renderings)
        assert [(c.variant, c.members) for c in classes] == expected
        assert all(c.multiplicity == len(c.members) for c in classes)
        assert (tally.distinct, tally.total, tally.citations) == (
            len(expected),
            sum(len(m) for _, m in expected),
            n,
        )


class TestNormalization:
    def test_page_range_keeps_first_page(self):
        assert normalize_tuple("J.Phys.C", "6", "1181-1203", "1973") == (
            "j.phys.c", "6", "1181", "1973",
        )

    def test_whitespace_case_and_zeros(self):
        assert normalize_tuple("  J. Phys.  C ", "06", " 01181 ", "1973") == (
            "j. phys. c", "6", "1181", "1973",
        )

    def test_idempotent(self):
        once = normalize_tuple(" J.Phys.C ", "06", "1181-1203", "1973")
        assert normalize_tuple(*once) == once

    def test_all_zero_field_survives(self):
        assert normalize_tuple("j", "000", "1", "1973")[1] == "0"


class TestClassify:
    def test_all_canonical(self):
        tally, classes = classify(make_table([row(i) for i in range(10)]), KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (0, 0, 10)
        assert classes == []

    def test_single_cluster(self):
        records = [row(i) for i in range(7)]
        records += [row(i, page="1191") for i in range(7, 10)]
        tally, classes = classify(make_table(records), KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (1, 3, 10)
        assert classes[0].multiplicity == 3

    def test_hand_counted_fixture(self, data_dir):
        with open(data_dir / "kt60.csv") as fh:
            table, _ = parse_records(fh)
        tally, classes = classify(table, KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (5, 16, 60)
        assert sorted((c.multiplicity for c in classes), reverse=True) == [8, 4, 2, 1, 1]

    def test_empty_records(self):
        tally, classes = classify(make_table([]), KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (0, 0, 0)
        assert classes == []

    def test_equivalent_renderings_are_canonical(self):
        records = [
            row(1, journal=" j.phys.c ", volume="06", page="1181-1203"),
        ]
        tally, _ = classify(make_table(records), KT_CANONICAL)
        assert tally.total == 0

    def test_one_text_in_two_columns_is_normalized_per_column(self):
        # a page keeps only the first page of a range; a volume stays whole
        records = [("p1", "J.Phys.C", "12-14", "12-14", "1973")]
        _, classes = classify(make_table(records), KT_CANONICAL)
        assert [c.variant for c in classes] == [("j.phys.c", "12-14", "12", "1973")]

    def test_permutation_stability(self, data_dir):
        with open(data_dir / "kt60.csv") as fh:
            records = rows(parse_records(fh)[0])
        base_tally, base_classes = classify(make_table(records), KT_CANONICAL)
        base_sizes = sorted(c.multiplicity for c in base_classes)
        rng = random.Random(17)
        for _ in range(10):
            shuffled = records[:]
            rng.shuffle(shuffled)
            tally, classes = classify(make_table(shuffled), KT_CANONICAL)
            assert tally == base_tally
            assert sorted(c.multiplicity for c in classes) == base_sizes

    def test_invalid_canonical(self):
        with pytest.raises(InvalidTallyError):
            classify(make_table([]), CanonicalRef("", "6", "1181", "1973"))

    @given(REPEATED_RENDERINGS)
    def test_repeated_renderings_match_per_record_normalization(self, renderings):
        records = [(f"p{i}", *raw) for i, raw in enumerate(renderings)]
        tally, classes = classify(make_table(records), KT_CANONICAL)
        expected, n = reference_classify(records, KT_CANONICAL)
        assert [(c.variant, c.members) for c in classes] == expected
        assert all(c.multiplicity == len(c.members) for c in classes)
        assert (tally.distinct, tally.total, tally.citations) == (
            len(expected),
            sum(len(m) for _, m in expected),
            n,
        )


class TestTopMisprints:
    def test_empty(self):
        assert top_misprints([], 3) == []

    def test_largest_first(self, data_dir):
        with open(data_dir / "kt60.csv") as fh:
            table, _ = parse_records(fh)
        _, classes = classify(table, KT_CANONICAL)
        top = top_misprints(classes, 2)
        assert [c.multiplicity for c in top] == [8, 4]

    def test_tie_broken_by_first_appearance(self, data_dir):
        # the two singleton classes: wrong page "181" appears before
        # wrong journal "j.phys.b" in the fixture
        with open(data_dir / "kt60.csv") as fh:
            table, _ = parse_records(fh)
        _, classes = classify(table, KT_CANONICAL)
        singles = top_misprints(classes, 5)[3:]
        assert singles[0].variant[2] == "181"
        assert singles[1].variant[0] == "j.phys.b"

    def test_negative_k(self):
        with pytest.raises(InvalidTallyError):
            top_misprints([], -1)


class TestCopyChainRoundTrip:
    def test_rendered_outcome_reclassifies_exactly(self):
        outcome = simulate_copy_chain(CopyChainConfig(800, 0.3, 0.05, 31))
        records = []
        for i, variant in enumerate(outcome.variants):
            page = "1181" if variant == 0 else str(100000 + variant)
            records.append(row(i, page=page))
        tally, classes = classify(make_table(records), KT_CANONICAL)
        assert tally == outcome.tally
        assert sorted(c.multiplicity for c in classes) == sorted(np.bincount(outcome.variants)[1:])
