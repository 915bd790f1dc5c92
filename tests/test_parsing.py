import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from citecopy import (
    CanonicalRef,
    CitationRecord,
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
    """classify's contract, written out with one normalization per record:
    (variant, members) in first-appearance order, and N."""
    target = canonical.normalized()
    groups = {}
    for rec in records:
        t = normalize_tuple(rec.journal, rec.volume, rec.page, rec.year)
        if t != target:
            groups.setdefault(t, []).append(rec.source_id)
    return [(v, tuple(m)) for v, m in groups.items()], len(records)


def reference_parse(lines):
    """parse_records's contract as a plain loop: every line is split and
    stripped on its own."""
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
        records.append(CitationRecord(*fields))
    return records, ParseReport(rejected=tuple(rejected))


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


def make_record(i, journal="J.Phys.C", volume="6", page="1181", year="1973"):
    return CitationRecord(f"p{i}", journal, volume, page, year)


class TestParseRecords:
    def test_single_line(self):
        records, report = parse_records(["p1,J.Phys.C,6,1181,1973"])
        assert records == [CitationRecord("p1", "J.Phys.C", "6", "1181", "1973")]
        assert report.rejected == ()

    def test_wrong_field_count(self):
        records, report = parse_records(["p1,J.Phys.C,6,1181"])
        assert records == []
        assert len(report.rejected) == 1
        assert "wrong field count" in report.rejected[0][1]

    def test_messy_fixture(self, data_dir):
        with open(data_dir / "messy10.csv") as fh:
            records, report = parse_records(fh)
        assert len(records) == 8
        assert len(report.rejected) == 2
        assert [lineno for lineno, _ in report.rejected] == [4, 7]

    def test_comments_and_blanks_skipped(self):
        records, report = parse_records(["# header", "", "  ", "p1,a,b,c,d"])
        assert len(records) == 1
        assert report.rejected == ()

    def test_empty_input(self):
        records, report = parse_records([])
        assert records == [] and report.rejected == ()

    @given(LINES)
    def test_matches_per_line_splitting(self, lines):
        records, report = parse_records(lines)
        expected, expected_report = reference_parse(lines)
        assert records == expected
        assert report == expected_report

    def test_one_rendering_shares_its_field_strings(self):
        a, b = parse_records(["p1, J.Phys.C ,6,1181,1973", "p2, J.Phys.C ,6,1181,1973"])[0]
        assert a.journal == "J.Phys.C"
        assert all(getattr(a, f) is getattr(b, f) for f in ("journal", "volume", "page", "year"))

    def test_records_are_slotted_and_frozen(self):
        rec = parse_records(["p1,J.Phys.C,6,1181,1973"])[0][0]
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.page = "1182"
        assert [f.name for f in dataclasses.fields(rec)] == ["source_id", "journal", "volume", "page", "year"]


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
        tally, classes = classify([make_record(i) for i in range(10)], KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (0, 0, 10)
        assert classes == []

    def test_single_cluster(self):
        records = [make_record(i) for i in range(7)]
        records += [make_record(i, page="1191") for i in range(7, 10)]
        tally, classes = classify(records, KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (1, 3, 10)
        assert classes[0].multiplicity == 3

    def test_hand_counted_fixture(self, data_dir):
        with open(data_dir / "kt60.csv") as fh:
            records, _ = parse_records(fh)
        tally, classes = classify(records, KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (5, 16, 60)
        assert sorted((c.multiplicity for c in classes), reverse=True) == [8, 4, 2, 1, 1]

    def test_empty_records(self):
        tally, classes = classify([], KT_CANONICAL)
        assert (tally.distinct, tally.total, tally.citations) == (0, 0, 0)
        assert classes == []

    def test_equivalent_renderings_are_canonical(self):
        records = [
            make_record(1, journal=" j.phys.c ", volume="06", page="1181-1203"),
        ]
        tally, _ = classify(records, KT_CANONICAL)
        assert tally.total == 0

    def test_permutation_stability(self, data_dir):
        with open(data_dir / "kt60.csv") as fh:
            records, _ = parse_records(fh)
        base_tally, base_classes = classify(records, KT_CANONICAL)
        base_sizes = sorted(c.multiplicity for c in base_classes)
        rng = random.Random(17)
        for _ in range(10):
            shuffled = records[:]
            rng.shuffle(shuffled)
            tally, classes = classify(shuffled, KT_CANONICAL)
            assert tally == base_tally
            assert sorted(c.multiplicity for c in classes) == base_sizes

    def test_invalid_canonical(self):
        with pytest.raises(InvalidTallyError):
            classify([], CanonicalRef("", "6", "1181", "1973"))

    @given(
        st.lists(RAW_RENDERINGS, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=80)
        )
    )
    def test_repeated_renderings_match_per_record_normalization(self, renderings):
        # copied citations repeat a few raw renderings verbatim
        records = [CitationRecord(f"p{i}", *raw) for i, raw in enumerate(renderings)]
        tally, classes = classify(records, KT_CANONICAL)
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
            records, _ = parse_records(fh)
        _, classes = classify(records, KT_CANONICAL)
        top = top_misprints(classes, 2)
        assert [c.multiplicity for c in top] == [8, 4]

    def test_tie_broken_by_first_appearance(self, data_dir):
        # the two singleton classes: wrong page "181" appears before
        # wrong journal "j.phys.b" in the fixture
        with open(data_dir / "kt60.csv") as fh:
            records, _ = parse_records(fh)
        _, classes = classify(records, KT_CANONICAL)
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
            records.append(make_record(i, page=page))
        tally, classes = classify(records, KT_CANONICAL)
        assert tally == outcome.tally
        assert sorted(c.multiplicity for c in classes) == sorted(outcome.class_sizes)
