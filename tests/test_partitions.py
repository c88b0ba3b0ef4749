"""Overpartition model, parsers, membership, enumeration, and statistics."""

import time
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overgap.partitions import (
    Bipartition,
    InvalidPartition,
    Overpartition,
    Stats,
    _mark_histograms,
    _shapes,
    enumerated_bounded_gap_gf,
    gf_from_enumeration,
    is_bounded_gap,
    is_bounded_parts,
    iter_bipartitions,
    iter_bounded_gap,
    iter_bounded_parts,
    iter_overpartitions,
    parse_bipartition,
    parse_overpartition,
    stats,
)
from overgap.qseries import QSeries, ZLaurentPoly, pochhammer, qs_invert, qs_mul, QMonomial

from helpers import (
    brute_bounded_gap,
    brute_overpartitions,
    mask_order_overpartitions,
    overpartition_counts,
)


def op(text):
    return parse_overpartition(text)


# -- the data model ------------------------------------------------------


def test_canonical_run_validation():
    pi = Overpartition(((3, 2, True), (1, 1, False)))
    assert pi.weight == 7 and pi.num_parts == 3 and pi.num_marked == 1
    with pytest.raises(InvalidPartition):
        Overpartition(())                       # nonempty only
    with pytest.raises(InvalidPartition):
        Overpartition(((1, 1, False), (3, 1, False)))  # increasing sizes
    with pytest.raises(InvalidPartition):
        Overpartition(((3, 0, False),))         # empty run
    with pytest.raises(InvalidPartition):
        Overpartition(((0, 1, False),))         # nonpositive part


def test_constructor_converts_runs():
    pi = Overpartition([[3, 2, 1], [1, 1, 0]])
    assert pi.runs == ((3, 2, True), (1, 1, False))
    assert [tuple(map(type, run)) for run in pi.runs] == [(int, int, bool)] * 2
    canonical = Overpartition(((3, 2, True), (1, 1, False)))
    assert pi == canonical and hash(pi) == hash(canonical)
    assert Overpartition._checked([(3, 2, True), (1, 1, False)]) == canonical


@pytest.mark.parametrize(
    "runs",
    [
        (),
        ((1, 1, False), (3, 1, False)),
        ((3, 0, False),),
        ((0, 1, False),),
    ],
)
def test_checked_runs_raise_the_constructor_message(runs):
    with pytest.raises(InvalidPartition) as public:
        Overpartition(runs)
    with pytest.raises(InvalidPartition) as checked:
        Overpartition._checked(runs)
    assert str(checked.value) == str(public.value)


def test_constructors_refuse_non_integral_numbers():
    # parts, multiplicities, t and t_count are read as integers, never
    # truncated; marks are read as truth values
    for runs in ([(2.5, 1, False)], [(2, 1.9, True)], [("3", 1, False)]):
        with pytest.raises(TypeError):
            Overpartition(runs)
    for pairs in ([(2.5, False)], [("3", True)]):
        with pytest.raises(TypeError):
            Overpartition.from_parts(pairs)
    with pytest.raises(TypeError):
        Bipartition(3.7, 1, op("3"))
    with pytest.raises(TypeError):
        Bipartition(3, 1.2, op("3"))
    assert Overpartition([(2, 1, 1), (1, 2, "")]).runs == ((2, 1, True), (1, 2, False))
    assert Overpartition.from_parts([(True, 0)]).runs == ((1, 1, False),)


def test_from_parts_normalizes_mark_position():
    a = Overpartition.from_parts([(3, False), (3, True), (1, False)])
    b = Overpartition.from_parts([(3, True), (3, False), (1, False)])
    assert a == b
    assert str(a) == "3~,3,1"
    with pytest.raises(InvalidPartition):
        Overpartition.from_parts([(3, True), (3, True)])
    with pytest.raises(InvalidPartition):
        Overpartition.from_parts([])


def test_accessors():
    pi = op("5,3~,3,1")
    assert pi.largest == 5 and pi.smallest == 1
    assert not pi.largest_marked
    assert pi.multiplicity(3) == 2 and pi.multiplicity(2) == 0
    assert pi.parts() == [(5, False), (3, True), (3, False), (1, False)]
    assert op("5~,2").largest_marked


def test_equality_and_hashing():
    seen = {op("3,3~,1"), op("3~,3,1"), op("3,3,1")}
    assert len(seen) == 2


# -- parsing -------------------------------------------------------------


def test_parse_round_trip():
    for text in ("3,3,3,1~,1", "7,4~", "1", "2~,2,2", "10,10,9~"):
        assert str(op(text)) == text


def test_parse_accepts_mark_anywhere_in_a_size_block():
    assert op("3,3~,1") == op("3~,3,1")


def test_parse_rejections():
    for bad in ("", "1,2", "0", "-3", "3~,3~", "3,,1", "a,b", "3 3", "~3"):
        with pytest.raises(InvalidPartition):
            op(bad)


def test_parse_bipartition():
    beta = parse_bipartition("[3^1 | 3,3,1~,1]")
    assert beta.t == 3 and beta.t_count == 1
    assert str(beta.second) == "3,3,1~,1"
    assert beta.weight == 11 and beta.num_marked == 1
    assert str(beta) == "[3^1 | 3,3,1~,1]"
    empty_first = parse_bipartition("[2^0 | 1~]")
    assert empty_first.t_count == 0 and empty_first.weight == 1


def test_parse_bipartition_rejections():
    for bad in ("[3^1 | ]", "3^1 | 3", "[3^-1 | 3]", "[3^1 | 4]", "[3 | 3]"):
        with pytest.raises(InvalidPartition):
            parse_bipartition(bad)


def test_bipartition_allows_marked_bound_in_second():
    beta = parse_bipartition("[3^2 | 3~,2]")
    assert beta.second.largest_marked
    with pytest.raises(InvalidPartition):
        Bipartition(3, -1, op("1"))
    with pytest.raises(InvalidPartition):
        Bipartition(3, 0, op("4"))


def test_bipartition_replace_keeps_the_checks():
    beta = Bipartition(3, 1, op("3,1"))
    with pytest.raises(InvalidPartition, match="second component has part 3 above the bound 1"):
        beta._replace(t=1)
    with pytest.raises(InvalidPartition, match="t_count must be nonnegative"):
        Bipartition._make((3, -1, op("1")))
    wider = beta._replace(t_count=2)
    assert type(wider) is Bipartition and wider == Bipartition(3, 2, op("3,1"))


# -- membership ----------------------------------------------------------


def test_bounded_gap_membership():
    assert is_bounded_gap(op("7,4~"), 3)       # gap == t, largest unmarked
    assert not is_bounded_gap(op("7~,4"), 3)   # gap == t, largest marked
    assert is_bounded_gap(op("7~,4"), 4)
    assert not is_bounded_gap(op("8,4"), 3)
    assert is_bounded_gap(op("6~"), 1)
    assert is_bounded_gap(op("5,5,5"), 2)


def test_bounded_parts_membership():
    assert is_bounded_parts(op("3,3,1~"), 3)
    assert not is_bounded_parts(op("3~,3,1"), 3)   # marked bound part
    assert not is_bounded_parts(op("4,1"), 3)
    assert is_bounded_parts(op("2~,1"), 3)


# -- statistics ----------------------------------------------------------


def test_stats_worked_examples():
    assert stats(op("7,4~"), 3) == Stats(2, 1, 0, 1, 1)
    assert stats(op("4~,4,3"), 3) == Stats(3, 1, 1, 1, 0)
    assert stats(op("3,3,3"), 3) == Stats(3, 0, 3, 1, 0)
    assert stats(op("9"), 3) == Stats(1, 0, 0, 3, 0)
    assert stats(op("3,3,3,1~,1"), 3) == Stats(5, 1, 3, 0, 3)


# -- enumeration ---------------------------------------------------------


def test_the_eight_overpartitions_of_three_in_order():
    listed = [str(pi) for pi in iter_overpartitions(3)]
    assert listed == ["3", "3~", "2,1", "2~,1", "2,1~", "2~,1~", "1,1,1", "1~,1,1"]


def test_weight_one():
    assert [str(pi) for pi in iter_overpartitions(1)] == ["1", "1~"]


def test_enumeration_matches_standalone_recursion():
    for n in range(1, 11):
        mine = {tuple(pi.parts()) for pi in iter_overpartitions(n)}
        reference = set(brute_overpartitions(n))
        assert mine == reference


def test_enumeration_counts_match_product_formula():
    # prod (1 + q^k) / (1 - q^k) computed with the series module
    order = 26
    gf = qs_mul(
        pochhammer(QMonomial(-1, 0, 1), order, order),
        qs_invert(pochhammer(QMonomial.q_power(1), order, order), order),
    )
    counts = overpartition_counts(order - 1)
    for n in range(1, order):
        observed = sum(1 for _ in iter_overpartitions(n)) if n <= 14 else counts[n]
        assert gf.zq_coeff(n, 0) == counts[n] == observed


def test_enumerated_objects_are_canonical():
    for n in range(1, 9):
        for pi in iter_overpartitions(n):
            assert Overpartition(pi.runs) == pi
            assert pi.weight == n
    # enumerated bipartitions skip the constructor: they must be exactly
    # what it builds, in the order built through it
    for t in (1, 3, 5):
        for n in range(1, 9):
            listed = list(iter_bipartitions(t, n))
            for beta in listed:
                assert type(beta) is Bipartition
                assert type(beta.t) is type(beta.t_count) is int
                assert Bipartition(*beta) == beta
                assert beta.weight == n
            checked = [
                str(Bipartition(t, count, second))
                for count in range((n - 1) // t + 1)
                for second in iter_overpartitions(n - t * count, max_part=t)
            ]
            assert [str(beta) for beta in listed] == checked


def test_max_part_restriction():
    for n in range(1, 10):
        capped = {tuple(pi.parts()) for pi in iter_overpartitions(n, max_part=3)}
        full = {
            tuple(pi.parts())
            for pi in iter_overpartitions(n)
            if pi.largest <= 3
        }
        assert capped == full


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=10))
def test_family_enumerators_equal_filtering(t, n):
    by_filter = {
        tuple(pi.parts()) for pi in iter_overpartitions(n) if is_bounded_gap(pi, t)
    }
    assert {tuple(pi.parts()) for pi in iter_bounded_gap(t, n)} == by_filter
    parts_filter = {
        tuple(pi.parts()) for pi in iter_overpartitions(n) if is_bounded_parts(pi, t)
    }
    assert {tuple(pi.parts()) for pi in iter_bounded_parts(t, n)} == parts_filter


def test_enumeration_keeps_mask_order():
    for n in range(1, 15):
        for max_part in (None, 1, 2, 3, 5, n + 1):
            listed = [pi.runs for pi in iter_overpartitions(n, max_part)]
            assert listed == mask_order_overpartitions(n, max_part)


def test_bounded_gap_is_filtering_in_order():
    for n in range(1, 17):
        every = list(iter_overpartitions(n))
        for t in list(range(9)) + [n - 1, n, n + 4]:
            kept = [pi for pi in every if is_bounded_gap(pi, t)]
            assert list(iter_bounded_gap(t, n)) == kept


def test_bounded_gap_at_nonpositive_bounds():
    # gap 0 means a single size, and it must stay unmarked; below 0
    # nothing qualifies
    assert [str(pi) for pi in iter_bounded_gap(0, 4)] == ["4", "2,2", "1,1,1,1"]
    for n in range(1, 13):
        assert list(iter_bounded_gap(-1, n)) == []
        assert list(iter_bounded_gap(-7, n)) == []
        every = list(iter_overpartitions(n))
        assert list(iter_bounded_gap(0, n)) == [pi for pi in every if is_bounded_gap(pi, 0)]
    assert list(iter_bounded_gap(3, 0)) == []


def test_bounded_gap_against_standalone_oracle():
    for t in (1, 2, 3):
        for n in range(1, 10):
            mine = {tuple(pi.parts()) for pi in iter_bounded_gap(t, n)}
            assert mine == set(brute_bounded_gap(n, t))


def test_bipartition_enumeration():
    found = {str(beta) for beta in iter_bipartitions(2, 2)}
    assert found == {"[2^0 | 2]", "[2^0 | 2~]", "[2^0 | 1,1]", "[2^0 | 1~,1]"}
    for beta in iter_bipartitions(3, 9):
        assert beta.weight == 9
        assert beta.second.num_parts >= 1
    counts = [beta.t_count for beta in iter_bipartitions(3, 9)]
    assert counts == sorted(counts)


def test_bipartition_enumeration_below_bound_one_is_empty():
    # as for the bounded-parts family, a bound below 1 has no members
    for t in (0, -1):
        assert list(iter_bipartitions(t, 3)) == []
        assert list(iter_bounded_parts(t, 3)) == []


# -- enumeration generating functions -------------------------------------


def test_gf_from_enumeration_families():
    gt = gf_from_enumeration("bounded_gap", 3, 5)
    assert gt.coeff(3) == ZLaurentPoly({0: 3, 1: 4, 2: 1})
    bt = gf_from_enumeration("bipartition", 2, 4)
    assert bt.coeff(2) == ZLaurentPoly({0: 2, 1: 2})
    pt = gf_from_enumeration("bounded_parts", 2, 4)
    # weight 2 members with parts <= 2, no marked 2: (2), (1,1), (1~,1)
    assert pt.coeff(2) == ZLaurentPoly({0: 2, 1: 1})
    with pytest.raises(ValueError):
        gf_from_enumeration("nonsense", 2, 4)


def test_census_matches_per_family_enumeration():
    census = enumerated_bounded_gap_gf(range(1, 5), 14)
    for t in range(1, 5):
        direct = gf_from_enumeration("bounded_gap", t, 14)
        assert census[t] == direct


@pytest.mark.parametrize(
    "ts",
    [[1, 2, 3], [5], [12, 13, 14], [40, 41], [3, 1, 3, 1], [41, 40, 41], []],
)
def test_census_on_pruning_bound_sets(ts):
    census = enumerated_bounded_gap_gf(ts, 20)
    assert sorted(census) == sorted(set(ts))
    for t in set(ts):
        assert census[t] == gf_from_enumeration("bounded_gap", t, 20)


def test_census_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        enumerated_bounded_gap_gf([0, 3], 5)


def walked_census(ts, max_n):
    """The census by visiting every shape with gap at most the largest bound.

    A shape with d distinct sizes has comb(d, o) mark patterns with o
    marks, and comb(d - 1, o) of them leave its largest size unmarked.
    """
    ts = sorted(set(ts))
    tables = {t: {} for t in ts}
    for n in range(1, max_n + 1):
        for shape in _shapes(n, n, gap=ts[-1]):
            d, gap = len(shape), shape[0][0] - shape[-1][0]
            for t in ts:
                if gap > t:
                    continue
                free = d if gap < t else d - 1
                row = tables[t].setdefault(n, {})
                for o in range(free + 1):
                    row[o] = row.get(o, 0) + comb(free, o)
    return {
        t: QSeries.from_terms({n: ZLaurentPoly(row) for n, row in table.items()}, max_n + 1)
        for t, table in tables.items()
    }


@pytest.mark.parametrize(
    "ts, max_n",
    [
        (range(1, 7), 30),
        (range(12, 15), 30),
        (range(40, 43), 30),
        ([4, 2, 4, 2, 4], 18),     # repeated bounds
        ([1, 3], 0),
        ([1, 3], 1),
        ([50, 60], 12),            # bounds above max_n
        ([3, 40], 25),             # gaps between the bounds
    ],
)
def test_census_matches_a_walk_over_the_shapes(ts, max_n):
    census = enumerated_bounded_gap_gf(ts, max_n)
    walked = walked_census(ts, max_n)
    assert sorted(census) == sorted(walked)
    for t, series in walked.items():
        assert census[t] == series
        assert census[t].order == max_n + 1


def test_census_edge_inputs():
    assert enumerated_bounded_gap_gf([], 10) == {}
    assert enumerated_bounded_gap_gf([], 0) == {}
    for ts in ([0], [-2, 4], [5, 0, 5]):
        with pytest.raises(ValueError):
            enumerated_bounded_gap_gf(ts, 5)


@pytest.mark.parametrize("ts", [range(1, 101), [100]])
def test_census_memory_stays_near_its_result(ts):
    # the census holds a few columns per bound, not one per (d, gap)
    # pair, and nothing it builds outlives the call
    tracemalloc.start()
    try:
        began = time.perf_counter()
        census = enumerated_bounded_gap_gf(ts, 150)
        took = time.perf_counter() - began
        held, peak = tracemalloc.get_traced_memory()
        del census
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * held
    assert left < 64 * 1024
    assert took < 10


# -- randomized model checks ----------------------------------------------


@st.composite
def overpartitions(draw):
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5, unique=True)
    )
    pairs = []
    for size in sizes:
        mult = draw(st.integers(min_value=1, max_value=3))
        marked = draw(st.booleans())
        pairs.extend([(size, marked)] + [(size, False)] * (mult - 1))
    return Overpartition.from_parts(pairs)


@given(overpartitions())
def test_text_round_trip(pi):
    assert parse_overpartition(str(pi)) == pi


@given(overpartitions())
def test_parts_round_trip(pi):
    assert Overpartition.from_parts(pi.parts()) == pi
    assert sum(part for part, _ in pi.parts()) == pi.weight


@given(overpartitions(), st.integers(min_value=1, max_value=5))
def test_stats_internal_consistency(pi, t):
    measured = stats(pi, t)
    assert measured.parts == pi.num_parts
    assert measured.marked == pi.num_marked
    assert measured.t_multiplicity == pi.multiplicity(t)
    assert measured.quotient == pi.smallest // t
    threshold = (measured.quotient + 1) * t
    assert measured.raised == sum(1 for part, _ in pi.parts() if part >= threshold)
    assert 0 <= measured.raised <= measured.parts


@pytest.mark.parametrize("d", range(0, 15))
def test_mark_histograms_match_the_pattern_walk(d):
    # bit 0 of a mask marks the largest of the d sizes
    every = [0] * (d + 1)
    top_unmarked = [0] * (d + 1)
    for mask in range(1 << d):
        every[mask.bit_count()] += 1
        if not mask & 1:
            top_unmarked[mask.bit_count()] += 1
    assert _mark_histograms(d) == (every, top_unmarked)
