"""Every input type checks its own fields when it is constructed.

Each test draws field values around the type's bounds, NaN and huge
values included, and asserts that construction and `dataclasses.replace`
raise InvalidTallyError exactly when the range rule written out in the
test says a field is out of range.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from citecopy import (
    BinomialTailQuery,
    CanonicalRef,
    CopyChainConfig,
    CountSample,
    InvalidTallyError,
    MisprintTally,
    RcsConfig,
)

# integer fields: every value near the bounds, huge values and NaN
INTS = st.one_of(st.integers(-3, 12), st.sampled_from([10**30, -(10**30), math.nan]))
# probabilities: any float, NaN and the infinities included, plus the
# bounds and their neighbours
PROBS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), -5e-324]),
)


def assert_checked(in_range, base, messages, **fields):
    """type(base)(**fields) and replace(base, **fields) succeed when
    in_range(**fields) and otherwise raise InvalidTallyError with a
    message that starts with one of `messages`."""
    builds = (lambda: type(base)(**fields), lambda: dataclasses.replace(base, **fields))
    for build in builds:
        if in_range(**fields):
            build()
        else:
            with pytest.raises(InvalidTallyError) as info:
                build()
            assert str(info.value).startswith(messages)


def tally_in_range(distinct, total, citations):
    return 0 <= distinct <= total <= citations and (distinct > 0) == (total > 0)


@given(distinct=INTS, total=INTS, citations=INTS)
def test_misprint_tally(distinct, total, citations):
    assert_checked(
        tally_in_range,
        MisprintTally(45, 196, 4300),
        ("need 0 <= distinct <= total <= citations, got ", "distinct and total must be zero together, got "),
        distinct=distinct, total=total, citations=citations,
    )


def chain_config_in_range(n_citations, read_prob, misprint_prob, seed):
    return n_citations >= 1 and 0 <= read_prob <= 1 and 0 <= misprint_prob < 1 and seed >= 0


@given(n_citations=INTS, read_prob=PROBS, misprint_prob=PROBS, seed=INTS)
def test_copy_chain_config(n_citations, read_prob, misprint_prob, seed):
    assert_checked(
        chain_config_in_range,
        CopyChainConfig(4300, 0.22, 0.0105, 1),
        ("n_citations must be >= 1", "read_prob must be in [0, 1]",
         "misprint_prob must be in [0, 1)", "seed must be >= 0"),
        n_citations=n_citations, read_prob=read_prob, misprint_prob=misprint_prob, seed=seed,
    )


def rcs_config_in_range(n_papers, m, p, seed):
    return m >= 1 and n_papers >= m + 1 and 0 <= p <= 1 and seed >= 0


@given(n_papers=INTS, m=INTS, p=PROBS, seed=INTS)
def test_rcs_config(n_papers, m, p, seed):
    assert_checked(
        rcs_config_in_range,
        RcsConfig(100, 3, 0.25, 1),
        ("m must be >= 1", "n_papers must be >= m + 1", "p must be in [0, 1]", "seed must be >= 0"),
        n_papers=n_papers, m=m, p=p, seed=seed,
    )


def tail_query_in_range(trials, success_prob, threshold):
    return 0 <= threshold <= trials and 0 <= success_prob <= 1


@given(trials=INTS, success_prob=PROBS, threshold=INTS)
def test_binomial_tail_query(trials, success_prob, threshold):
    assert_checked(
        tail_query_in_range,
        BinomialTailQuery(350_000, 1 / 24_000, 500),
        ("need 0 <= threshold <= trials", "success_prob must be in [0, 1]"),
        trials=trials, success_prob=success_prob, threshold=threshold,
    )


COUNT_LISTS = st.lists(st.integers(0, 50), max_size=4)


@given(
    counts=st.one_of(
        COUNT_LISTS, COUNT_LISTS.map(tuple), COUNT_LISTS.map(lambda c: np.array(c, dtype=np.int64))
    ),
    label=st.text(max_size=4),
)
def test_count_sample(counts, label):
    assert_checked(
        lambda counts, label: len(counts) > 0,
        CountSample((1, 2, 3), "x"),
        ("empty sample",),
        counts=counts, label=label,
    )


def canonical_in_range(journal, volume, page, year):
    # a page is compared by its first page, the part before any dash
    first_page = re.split("[-–—]", page)[0]
    return all(field.strip() for field in (journal, volume, first_page, year))


FIELDS = st.text(alphabet=" \t -–—0a1.J", max_size=4)


@given(journal=FIELDS, volume=FIELDS, page=FIELDS, year=FIELDS)
def test_canonical_ref(journal, volume, page, year):
    assert_checked(
        canonical_in_range,
        CanonicalRef("J.Phys.C", "6", "1181", "1973"),
        ("canonical reference fields must be nonempty",),
        journal=journal, volume=volume, page=page, year=year,
    )
