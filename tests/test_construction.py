"""Every input type checks its own fields when it is constructed.

Each test draws field values around the type's bounds, NaN and huge
values included, and asserts that construction and `dataclasses.replace`
raise InvalidTallyError exactly when the range rule written out in the
test says a field is out of range.  Count fields must also be integers,
and function arguments with a bound reject NaN as fields do; a numpy
integer count of any width gives what the equal Python int gives.  The
records that hold numpy arrays share one equality over all their fields.
"""

import copy
import dataclasses
import math
import re
from numbers import Integral

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import citecopy
from citecopy import (
    BinomialTailQuery,
    CanonicalRef,
    CcdfCurve,
    CitecopyError,
    CopyChainConfig,
    CountSample,
    InvalidTallyError,
    MisprintClass,
    MisprintTally,
    RcsConfig,
    binomial_log10_tail,
    ccdf,
    corrected_read_fraction,
    estimator_roundtrip,
    expected_count,
    log_bin_histogram,
    parse_records,
    renowned_fraction,
    simulate_copy_chain,
    simulate_rcs,
    streak_probability,
    top_misprints,
)
from citecopy.copychain import trial_seeds
from citecopy.errors import ArrayRecord

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
        ("distinct must be >= 0", "total must be >= distinct", "citations must be >= total",
         "distinct and total must be zero together, got "),
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
        ("threshold must be >= 0", "trials must be >= threshold", "success_prob must be in [0, 1]"),
        trials=trials, success_prob=success_prob, threshold=threshold,
    )


COUNT_LISTS = st.lists(st.integers(-3, 50), max_size=4)
# uint64 counts at and past the int64 bound
UINT64_ARRAYS = st.lists(st.sampled_from([0, 2**63 - 1, 2**63, 2**64 - 1]), max_size=4).map(
    lambda c: np.array(c, dtype=np.uint64)
)


@given(
    counts=st.one_of(
        COUNT_LISTS, COUNT_LISTS.map(tuple), COUNT_LISTS.map(lambda c: np.array(c, dtype=np.int64)), UINT64_ARRAYS
    ),
)
def test_count_sample(counts):
    assert_checked(
        lambda counts: len(counts) > 0 and min(counts) >= 0 and max(counts) < 2**63,
        CountSample((1, 2, 3)),
        ("empty sample", "counts must be nonnegative", "counts must be within the int64 range"),
        counts=counts,
    )


def ccdf_curve_in_range(points):
    xs = [x for x, _ in points]
    return (
        len(points) > 0
        and all(isinstance(x, Integral) and -(2**63) <= x < 2**63 for x in xs)
        and all(a < b for a, b in zip(xs, xs[1:]))
        and all(0 <= f <= 1 for _, f in points)
    )


# thresholds: small integers, the int64 bounds and their outer
# neighbours, far beyond them, and non-integers
XS = st.one_of(
    st.integers(-3, 12), st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30, 1.5, math.nan])
)
# fractions in [0, 1], and NaN, infinity and the neighbours of the bounds
FRACTIONS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf, -5e-324, math.nextafter(1.0, 2.0)]))


def point_lists(xs):
    """Lists of up to four (x, fraction) pairs, half of them sorted by x."""
    pairs = st.lists(st.tuples(xs, FRACTIONS), max_size=4)
    return st.one_of(pairs, pairs.map(lambda points: sorted(points, key=lambda point: point[0])))


# structured arrays whose x column is unsigned or float
STRUCTURED = st.tuples(
    point_lists(st.sampled_from([0, 1, 2, 12, 2**63 - 1, 2**63])), st.sampled_from([np.uint64, np.float64])
).map(lambda args: np.array(args[0], dtype=[("x", args[1]), ("fraction", np.float64)]))


@given(points=st.one_of(point_lists(XS), point_lists(XS).map(tuple), STRUCTURED))
def test_ccdf_curve(points):
    assert_checked(
        ccdf_curve_in_range,
        CcdfCurve(((0, 1.0), (2, 0.5))),
        ("a CCDF needs a 1-D sequence of at least one point", "every x must be an integer within the int64 range",
         "x must be strictly increasing", "every fraction must be in [0, 1]"),
        points=points,
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


NET = simulate_rcs(RcsConfig(50, 2, 0.25, 1))
CHAIN = CopyChainConfig(100, 0.5, 0.05, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: renowned_fraction(NET, math.nan), "threshold must be >= 1"),
        (lambda: streak_probability(0.5, math.nan), "streak must be >= 0"),
        (lambda: expected_count(math.nan, -3.0), "population must be >= 0"),
        (lambda: log_bin_histogram(CountSample((1, 2)), math.nan), "bins_per_decade must be >= 1"),
        (lambda: top_misprints([], math.nan), "k must be >= 0"),
        (lambda: estimator_roundtrip(CHAIN, math.nan), "trials must be >= 1"),
        (lambda: CountSample(np.array([math.nan, 1.0])), "counts must be integers"),
        (lambda: trial_seeds(1, -1), "trials must be >= 0"),
        (lambda: trial_seeds(-1, 2), "seed must be >= 0"),
    ],
    ids=["renowned_fraction", "streak_probability", "expected_count",
         "log_bin_histogram", "top_misprints", "estimator_roundtrip", "CountSample",
         "trial_seeds-trials", "trial_seeds-seed"],
)
def test_nan_argument_is_rejected(call, message):
    with pytest.raises(InvalidTallyError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CountSample([1.5, 2]), "counts must be integers"),
        (lambda: CountSample([math.nan]), "counts must be integers"),
        (lambda: CountSample("123"), "counts must be a 1-D sequence of integers"),
        (lambda: CountSample([[1, 2], [3, 4]]), "counts must be a 1-D sequence of integers"),
        (lambda: CountSample([True, False]), "counts must be integers"),
        (lambda: MisprintTally(1.5, 2, 3), "distinct must be an integer, got 1.5"),
        (lambda: MisprintTally(1, 2, 3.0), "citations must be an integer, got 3.0"),
        (lambda: BinomialTailQuery(10.5, 0.5, 3), "trials must be an integer, got 10.5"),
        (lambda: BinomialTailQuery(10, 0.5, 3.0), "threshold must be an integer, got 3.0"),
        (lambda: estimator_roundtrip(CHAIN, 2.0), "trials must be an integer"),
        (lambda: renowned_fraction(NET, 1.5), "threshold must be an integer"),
        (lambda: CopyChainConfig(10.5, 0.5, 0.1, 1), "n_citations must be an integer"),
        (lambda: CopyChainConfig(10, 0.5, 0.1, 1.5), "seed must be an integer"),
        (lambda: RcsConfig(100.5, 3, 0.25, 1), "n_papers must be an integer"),
        (lambda: RcsConfig(100, 2.5, 0.25, 1), "m must be an integer"),
        (lambda: top_misprints([], 1.5), "k must be an integer"),
        (lambda: streak_probability(0.5, 2.5), "streak must be an integer"),
        (lambda: expected_count(10.5, 0.0), "population must be an integer"),
        (lambda: log_bin_histogram(CountSample((1, 2)), 2.5), "bins_per_decade must be an integer"),
        (lambda: trial_seeds(1, 2.5), "trials must be an integer, got 2.5"),
        (lambda: trial_seeds(1.5, 2), "seed must be an integer, got 1.5"),
    ],
    ids=["CountSample-float", "CountSample-nan", "CountSample-str", "CountSample-2d", "CountSample-bool",
         "MisprintTally-distinct", "MisprintTally-citations", "BinomialTailQuery-trials",
         "BinomialTailQuery-threshold", "estimator_roundtrip-trials", "renowned_fraction-threshold",
         "CopyChainConfig-n_citations", "CopyChainConfig-seed", "RcsConfig-n_papers", "RcsConfig-m",
         "top_misprints-k", "streak_probability-streak", "expected_count-population",
         "log_bin_histogram-bins_per_decade", "trial_seeds-trials", "trial_seeds-seed"],
)
def test_non_integer_count_is_rejected(call, message):
    with pytest.raises(InvalidTallyError, match=message):
        call()


def tally_and_estimate(distinct, total, citations):
    tally = MisprintTally(distinct, total, citations)
    return tally, corrected_read_fraction(tally)


def chain_roundtrip(n_citations, seed, trials):
    config = CopyChainConfig(n_citations, 0.22, 0.0105, seed)
    return config, estimator_roundtrip(config, trials)


def rcs_network(n_papers, m, seed):
    config = RcsConfig(n_papers, m, 0.25, seed)
    return config, simulate_rcs(config)


def binomial_tail(trials, threshold):
    query = BinomialTailQuery(trials, 0.5, threshold)
    return query, binomial_log10_tail(query)


CLASSES = [MisprintClass(("a",) * 4, ("x",)), MisprintClass(("b",) * 4, ("y", "z"))]
U64 = 2**64 - 1


def counts(*highs):
    return st.tuples(*(st.integers(0, high) for high in highs))


# every count field and count argument: a call of its counts, and valid
# counts, small where the call's cost grows with them
COUNT_CALLS = [
    (tally_and_estimate, counts(U64, U64, U64).map(sorted).filter(lambda dtn: (dtn[0] == 0) == (dtn[1] == 0))),
    (chain_roundtrip, counts(300, U64, 10).map(lambda nst: (nst[0] + 1, nst[1], nst[2] + 1))),
    (rcs_network, counts(300, 4, U64).map(lambda nms: (nms[0] + nms[1] + 2, nms[1] + 1, nms[2]))),
    (binomial_tail, counts(2000, 2000).map(lambda c: sorted(c, reverse=True))),
    (trial_seeds, counts(U64, 1000)),
    (lambda bins_per_decade: log_bin_histogram(CountSample((3, 0, 5, 40)), bins_per_decade),
     counts(1000).map(lambda b: (b[0] + 1,))),
    (lambda threshold: renowned_fraction(NET, threshold), counts(U64 - 1).map(lambda t: (t[0] + 1,))),
    (lambda streak: streak_probability(0.5, streak), counts(U64)),
    (lambda population: expected_count(population, -3.0), counts(U64)),
    (lambda k: top_misprints(CLASSES, k), counts(U64)),
]
INTEGER_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def numpy_count_calls(draw):
    """A call, its counts as Python ints, and the same counts each as a
    numpy integer of a type that holds it."""
    call, valid = draw(st.sampled_from(COUNT_CALLS))
    ints = draw(valid)
    holders = [[t for t in INTEGER_TYPES if np.iinfo(t).min <= v <= np.iinfo(t).max] for v in ints]
    return call, ints, tuple(draw(st.sampled_from(types))(v) for types, v in zip(holders, ints))


def outcome(call, args):
    """What call(*args) returns, or the type and message of the
    CitecopyError it raises."""
    try:
        return call(*args)
    except CitecopyError as error:
        return type(error), str(error)


def assert_same(a, b):
    """a and b are of one type and equal, and so are their fields and items."""
    assert type(a) is type(b), (a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


# numpy integers that wrapped in a narrow dtype: one hung RCS growth, one
# broke the pooled N of a round trip, one broke the binomial tail's lgamma
# and one indexed past its range
@example((rcs_network, (250, 3, 1), (np.uint8(250), np.uint8(3), np.uint8(1))))
@example((chain_roundtrip, (4300, 1, 200), (np.uint16(4300), 1, np.uint8(200))))
@example((binomial_tail, (255, 3), (np.uint8(255), np.uint8(3))))
@example((binomial_tail, (255, 200), (np.uint8(255), np.uint8(200))))
@given(numpy_count_calls())
def test_numpy_integers_are_integers(case):
    # the Python ints' result, in type and value, down to every field of
    # every record: so each count field the numpy call stored is an int
    call, ints, numpy_ints = case
    assert_same(outcome(call, numpy_ints), outcome(call, ints))


def test_count_sample_keeps_an_integer_array():
    sample = CountSample((3, 0, 5))
    assert isinstance(sample.counts, np.ndarray) and sample.counts.tolist() == [3, 0, 5]
    assert sample == CountSample(np.array([3, 0, 5])) == CountSample(np.array([3, 0, 5], dtype=np.uint8))
    assert sample != CountSample((3, 0, 6))
    with pytest.raises(TypeError):
        hash(sample)


# one valid instance of every input type
INPUTS = [
    MisprintTally(45, 196, 4300),
    CopyChainConfig(4300, 0.22, 0.0105, 1),
    RcsConfig(100, 3, 0.25, 1),
    BinomialTailQuery(350_000, 1 / 24_000, 500),
    CountSample((1, 2, 3)),
    CanonicalRef("J.Phys.C", "6", "1181", "1973"),
    CcdfCurve(((0, 1.0), (2, 0.5))),
]


def test_inputs_are_every_checked_type():
    checked = {
        obj for obj in vars(citecopy).values()
        if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__")
    }
    assert checked == {type(base) for base in INPUTS}


@pytest.mark.parametrize(
    "base, name",
    [(base, f.name) for base in INPUTS for f in dataclasses.fields(base) if f.type in ("int", int)],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_every_int_field_must_be_an_integer(base, name):
    with pytest.raises(InvalidTallyError, match="integer"):
        dataclasses.replace(base, **{name: getattr(base, name) + 0.5})


# one record of each type that holds numpy arrays, and a citation table,
# whose fields are lists
RECORDS = [
    simulate_copy_chain(CHAIN),
    NET,
    parse_records(["a,J,1,2,3", "b, J ,1,2,4", "c,J,1,2,3"])[0],
    CountSample((3, 0, 5)),
    ccdf(CountSample((3, 0, 5))),
    log_bin_histogram(CountSample((3, 0, 5, 40)), 2),
]


def changed(value):
    """A value unequal to `value`, of the same kind."""
    if isinstance(value, np.ndarray) and value.dtype.names:
        value = value.copy()
        value[value.dtype.names[0]] += 1  # the first field of every row
        return value
    if isinstance(value, (np.ndarray, float)):
        return value + 1
    if isinstance(value, MisprintTally):
        return dataclasses.replace(value, citations=value.citations + 1)
    return value + value[:1]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_array_record_equality(record):
    cls = type(record)
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    assert (cls.__eq__ is ArrayRecord.__eq__) == any(isinstance(v, np.ndarray) for v in fields.values())
    assert record == cls(**{name: copy.deepcopy(value) for name, value in fields.items()})
    for name, value in fields.items():
        other = dataclasses.replace(record, **{name: changed(value)})
        assert record != other and not record == other, name
    for other in RECORDS:
        assert (record == other) == (other is record)
    assert record != object()
    with pytest.raises(TypeError):
        hash(record)
