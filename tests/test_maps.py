"""The two weight-preserving maps, their fibers, and the counting identity."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overgap.maps as maps
import overgap.partitions as partitions
from overgap.cli import main
from overgap.maps import (
    NotInDomain,
    PreimageReport,
    SplitSolution,
    fold,
    fold_preimages,
    merge,
    merge_preimages,
    solve_split,
    verify_fiber_identity,
)
from overgap.partitions import (
    Bipartition,
    Overpartition,
    enumerated_bounded_gap_gf,
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
from overgap.qseries import QSeries, ZLaurentPoly


def op(text):
    return parse_overpartition(text)


def bp(text):
    return parse_bipartition(text)


# -- the unique split of a part count ------------------------------------


def test_solve_split_worked_triples():
    # (parts, multiples) -> (base, raised, quotient), matching the fiber
    # constructions for (3,3,3) and (3,3,3,1~,1)
    assert solve_split(1, 3) == SplitSolution(1, 0, 3)
    assert solve_split(2, 3) == SplitSolution(1, 1, 1)
    assert solve_split(3, 3) == SplitSolution(3, 0, 1)
    assert solve_split(4, 3) == SplitSolution(1, 3, 0)
    assert solve_split(5, 3) == SplitSolution(2, 3, 0)
    assert solve_split(1, 0) == SplitSolution(1, 0, 0)


def test_solve_split_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_split(0, 3)
    with pytest.raises(ValueError):
        solve_split(2, -1)


def test_solve_split_solves_and_is_unique():
    for parts in range(1, 41):
        for multiples in range(0, 41):
            base, raised, quotient = solve_split(parts, multiples)
            assert base >= 1 and raised >= 0 and base + raised == parts
            assert quotient * base + (quotient + 1) * raised == multiples
            alternatives = [
                (x, parts - x, s)
                for s in range(multiples + 1)
                for x in range(1, parts + 1)
                if s * x + (s + 1) * (parts - x) == multiples
            ]
            assert alternatives == [(base, raised, quotient)]


# -- the gap-reducing map -------------------------------------------------


def test_fold_worked_examples():
    assert fold(op("7,4~"), 3) == op("3,3,3,1~,1")
    assert fold(op("4~,4,3"), 3) == op("3,3,3,1~,1")
    assert fold(op("9"), 3) == op("3,3,3")
    assert fold(op("5,2~"), 3) == op("3,2~,2")


def test_fold_mark_survives_on_nonzero_residue():
    # 4~ has residue 1 under t=3, so its mark lands on the 1
    assert fold(op("4~"), 3) == op("3,1~")
    # 6~ and 3~ have residue 0: the mark is dropped with the residue
    assert fold(op("6~"), 3) == op("3,3")
    assert fold(op("6,3~"), 3) == op("3,3,3")


def test_fold_rejects_non_members():
    with pytest.raises(NotInDomain, match="largest"):
        fold(op("7~,4"), 3)
    with pytest.raises(NotInDomain, match="gap"):
        fold(op("8,4"), 3)
    with pytest.raises(ValueError):
        fold(op("3"), 0)


def test_fold_fixes_bounded_parts_members():
    for t in (1, 2, 3):
        for n in range(1, 9):
            for mu in iter_bounded_parts(t, n):
                assert fold(mu, t) == mu


def test_fold_image_properties():
    for t in (1, 2, 3):
        for n in range(1, 11):
            for pi in iter_bounded_gap(t, n):
                image = fold(pi, t)
                assert image.weight == pi.weight
                assert is_bounded_parts(image, t)
                info = stats(pi, t)
                flat = pi.parts()
                dropped = sum(
                    1
                    for i, (size, marked) in enumerate(flat)
                    if marked
                    and size
                    == (info.quotient + (1 if i < info.raised else 0)) * t
                )
                assert dropped <= 1
                assert image.num_marked == pi.num_marked - dropped


# -- fold fibers -----------------------------------------------------------


def test_fold_fiber_all_bound_parts():
    report = fold_preimages(op("3,3,3"), 3)
    assert [str(pi) for pi in report.fiber] == [
        "9", "9~", "6,3", "6,3~", "3,3,3", "3~,3,3",
    ]
    assert report.expected_size == 6
    assert report.same_marks == 3 and report.one_more_mark == 3


def test_fold_fiber_mixed_parts():
    report = fold_preimages(op("3,3,3,1~,1"), 3)
    assert [str(pi) for pi in report.fiber] == [
        "7,4~",
        "4~,4,3", "4~,4,3~",
        "4,3,3,1~", "4,3~,3,1~",
        "3,3,3,1~,1", "3~,3,3,1~,1",
    ]
    assert report.expected_size == 7
    assert report.same_marks == 4 and report.one_more_mark == 3


def test_preimage_report_repr():
    assert repr(fold_preimages(op("3,1"), 3)) == (
        "PreimageReport(mu=Overpartition('3,1'), t=3, fiber=(Overpartition('4'), "
        "Overpartition('3,1'), Overpartition('3~,1')))"
    )


def test_preimage_report_copy_reads_its_census_off_its_fiber():
    report = fold_preimages(op("3,3,3"), 3)
    copy = report._replace(fiber=report.fiber[:1])
    assert PreimageReport._fields == ("mu", "t", "fiber")
    assert (report.same_marks, report.one_more_mark) == (3, 3)
    assert (copy.same_marks, copy.one_more_mark) == (1, 0)


def test_fold_fiber_without_bound_parts_is_trivial():
    report = fold_preimages(op("2,1~"), 3)
    assert [str(pi) for pi in report.fiber] == ["2,1~"]
    assert report.expected_size == 1


def test_fold_preimages_requires_bounded_parts():
    with pytest.raises(NotInDomain):
        fold_preimages(op("4,1"), 3)
    with pytest.raises(NotInDomain):
        fold_preimages(op("3~"), 3)


def test_fold_fibers_exhaustive():
    for t in (1, 2, 3):
        for n in range(1, 13):
            targets = list(iter_bounded_parts(t, n))
            brute = {}
            for pi in iter_bounded_gap(t, n):
                brute.setdefault(fold(pi, t), []).append(pi)
            for mu in targets:
                report = fold_preimages(mu, t)
                assert len(set(report.fiber)) == len(report.fiber)
                assert len(report.fiber) == report.expected_size
                assert set(report.fiber) == set(brute[mu])
                for member in report.fiber:
                    assert is_bounded_gap(member, t)
                    assert fold(member, t) == mu
                extra = sum(
                    1 for member in report.fiber
                    if member.num_marked == mu.num_marked + 1
                )
                same = sum(
                    1 for member in report.fiber
                    if member.num_marked == mu.num_marked
                )
                assert (extra, same) == (report.one_more_mark, report.same_marks)
                assert extra + same == len(report.fiber)
            # every bounded-gap member is in exactly one fiber
            assert sum(len(v) for v in brute.values()) == sum(
                len(fold_preimages(mu, t).fiber) for mu in targets
            )


# -- the absorbing map ------------------------------------------------------


def test_merge_worked_examples():
    target = op("3,3,3,1~,1")
    assert merge(bp("[3^1 | 3,3,1~,1]"), 3) == target
    assert merge(bp("[3^1 | 3~,3,1~,1]"), 3) == target
    assert merge(bp("[2^3 | 1~]"), 2) == op("2,2,2,1~")
    assert merge(bp("[2^0 | 2~]"), 2) == op("2")


def test_merge_requires_matching_bound():
    with pytest.raises(NotInDomain) as raised:
        merge(bp("[3^1 | 2]"), 2)
    assert str(raised.value) == "[3^1 | 2] is a bipartition at t=3, but t=2 was given"


def test_merge_image_properties():
    for t in (1, 2, 3):
        for n in range(1, 11):
            for beta in iter_bipartitions(t, n):
                image = merge(beta, t)
                assert image.weight == beta.weight
                assert is_bounded_parts(image, t)


def test_merge_fiber_all_bound_parts():
    report = merge_preimages(op("3,3,3"), 3)
    assert [str(beta) for beta in report.fiber] == [
        "[3^2 | 3]", "[3^2 | 3~]",
        "[3^1 | 3,3]", "[3^1 | 3~,3]",
        "[3^0 | 3,3,3]", "[3^0 | 3~,3,3]",
    ]
    assert report.expected_size == 6


def test_merge_fiber_mixed_parts():
    report = merge_preimages(op("3,3,3,1~,1"), 3)
    assert len(report.fiber) == report.expected_size == 7
    assert report.same_marks == 4 and report.one_more_mark == 3


def test_merge_fiber_trivial():
    report = merge_preimages(op("1~"), 2)
    assert [str(beta) for beta in report.fiber] == ["[2^0 | 1~]"]
    assert report.expected_size == 1


def test_merge_fibers_exhaustive():
    for t in (1, 2, 3):
        for n in range(1, 13):
            brute = {}
            for beta in iter_bipartitions(t, n):
                brute.setdefault(merge(beta, t), []).append(beta)
            for mu in iter_bounded_parts(t, n):
                report = merge_preimages(mu, t)
                assert len(set(report.fiber)) == len(report.fiber)
                assert len(report.fiber) == report.expected_size
                assert set(report.fiber) == set(brute[mu])
                for beta in report.fiber:
                    assert merge(beta, t) == mu


# -- reports ----------------------------------------------------------------


def test_preimage_report_json(capsys):
    assert main(["preimages", "--t", "3", "--map", "fold", "3,3,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "mu": "3,3,3",
        "t": 3,
        "fiber": ["9", "9~", "6,3", "6,3~", "3,3,3", "3~,3,3"],
        "same_overlines": 3,
        "one_more_overline": 3,
        "expected_size": 6,
    }


def test_fiber_identity_checker(capsys):
    for which in ("fold", "merge"):
        check = verify_fiber_identity(2, 10, which)
        assert check.passed
        assert check.images_checked > 0
    with pytest.raises(ValueError):
        verify_fiber_identity(2, 10, "unknown")
    assert main(["verify", "--suite", "fibers", "--t", "2", "--max-n", "10"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [entry["details"]["which"] for entry in entries] == ["fold", "merge"]
    assert all(entry["details"]["pass"] is True for entry in entries)


def test_fiber_identity_refuses_bounds_below_one():
    # as fold does; at t = 0 merge's fibers used to divide by zero and at
    # t = -1 the check passed over no images
    for t in (0, -1):
        for which in ("fold", "merge"):
            with pytest.raises(ValueError, match="the bound t must be positive"):
                verify_fiber_identity(t, 3, which)


@pytest.mark.parametrize(
    "fiber, failure",
    [
        (["7", "4,3", "4,3~", "3,3,1", "5~"], "5~ does not map onto 3,3,1"),
        (
            ["7", "4,3", "4,3~", "3,3,1", "3~,3,1", "7"],
            "fiber census over 3,3,1 is 2*z + 4, expected 2*z + 3",
        ),
        (["7", "7", "4,3~", "3,3,1", "3~,3,1"], "fiber over 3,3,1 has repeated members"),
        (
            ["7", "4,3", "4,3~", "3,3,1", "3~,3,1", "9,1"],
            "fiber over 3,3,1 holds a member outside the domain: 9,1 is not in the "
            "bounded-gap family for t=3: gap 8 exceeds 3",
        ),
    ],
)
def test_fiber_failure_over_one_image_is_named(monkeypatch, fiber, failure):
    real = maps.fold_preimages
    image = parse_overpartition("3,3,1")
    assert [str(member) for member in real(image, 3).fiber] == [
        "7", "4,3", "4,3~", "3,3,1", "3~,3,1"
    ]

    def altered(mu, t):
        report = real(mu, t)
        if mu != image:
            return report
        return report._replace(fiber=tuple(map(parse_overpartition, fiber)))

    monkeypatch.setattr(maps, "fold_preimages", altered)
    check = verify_fiber_identity(3, 8, "fold")
    assert not check.passed
    assert check.first_failure == failure
    assert check.first_difference is None


MERGE_FIBER_331 = ["[3^2 | 1]", "[3^1 | 3,1]", "[3^1 | 3~,1]", "[3^0 | 3,3,1]", "[3^0 | 3~,3,1]"]


@pytest.mark.parametrize(
    "fiber, failure",
    [
        (
            MERGE_FIBER_331[:2] + ["[3^1 | 3~,2]"] + MERGE_FIBER_331[3:],
            "[3^1 | 3~,2] does not map onto 3,3,1",
        ),
        (
            MERGE_FIBER_331 + ["[3^2 | 1]"],
            "fiber census over 3,3,1 is 2*z + 4, expected 2*z + 3",
        ),
        (
            MERGE_FIBER_331[:1] * 2 + MERGE_FIBER_331[2:],
            "fiber over 3,3,1 has repeated members",
        ),
        (
            MERGE_FIBER_331[:4] + ["[2^0 | 2~,2,2,1]"],
            "fiber over 3,3,1 holds a member outside the domain: [2^0 | 2~,2,2,1] is a "
            "bipartition at t=2, but t=3 was given",
        ),
    ],
)
def test_merge_fiber_failure_over_one_image_is_named(monkeypatch, fiber, failure):
    real = maps.merge_preimages
    image = parse_overpartition("3,3,1")
    assert [str(member) for member in real(image, 3).fiber] == MERGE_FIBER_331

    def altered(mu, t):
        report = real(mu, t)
        if mu != image:
            return report
        return report._replace(fiber=tuple(map(parse_bipartition, fiber)))

    monkeypatch.setattr(maps, "merge_preimages", altered)
    check = verify_fiber_identity(3, 8, "merge")
    assert not check.passed
    assert check.first_failure == failure
    assert check.first_difference is None


def _exact_runs(pi):
    return type(pi.runs) is tuple and all(
        tuple(map(type, run)) == (int, int, bool) for run in pi.runs
    )


@pytest.mark.parametrize("t", [1, 3, 5])
def test_maps_and_fibers_build_exact_runs(t):
    # the maps build runs through Overpartition._checked, which checks but
    # does not convert: every run they return must already be (int, int, bool)
    for n in range(1, 13):
        for mu in iter_bounded_parts(t, n):
            for member in fold_preimages(mu, t).fiber:
                assert _exact_runs(member) and _exact_runs(fold(member, t))
            for member in merge_preimages(mu, t).fiber:
                assert _exact_runs(member.second) and _exact_runs(merge(member, t))


def test_a_float_bound_raises_at_the_call():
    # t is read through operator.index, as range reads its bounds: a float
    # t must not leak into the runs, and an index-like t becomes an int
    gap, beta = op("5,5,3~,2"), Bipartition(3, 2, op("2~,1"))
    calls = [
        lambda t: fold(gap, t),
        lambda t: merge(beta, t),
        lambda t: fold_preimages(op("3,3,1"), t),
        lambda t: merge_preimages(op("3,3,1"), t),
        lambda t: verify_fiber_identity(t, 8),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            call(3.0)

    class Three:
        def __index__(self):
            return 3

    assert _exact_runs(fold(gap, Three())) and _exact_runs(merge(beta, Three()))
    assert fold(gap, Three()) == fold(gap, 3)
    assert verify_fiber_identity(Three(), 8).t == 3


def test_fiber_aggregate_failure_names_the_coefficient(monkeypatch, capsys):
    real = maps.gf_from_enumeration

    def bumped(family, t, max_n):
        # one extra bipartition of 5 with one mark, at t = 3 only
        series = real(family, t, max_n)
        if family == "bipartition" and t == 3:
            series = series + QSeries.from_terms({5: ZLaurentPoly({1: 1})}, max_n + 1)
        return series

    monkeypatch.setattr(maps, "gf_from_enumeration", bumped)
    counted = real("bipartition", 3, 8).zq_coeff(5, 1)
    check = verify_fiber_identity(3, 8, "merge")
    assert not check.passed
    assert check.first_difference == (5, 1, counted, counted + 1)
    assert check.first_failure == (
        "aggregated fiber census disagrees with the bipartition enumeration for t=3 "
        f"up to weight 8: at q^5 z^1 the fibers give {counted}, enumeration {counted + 1}"
    )
    assert verify_fiber_identity(3, 8, "fold").first_difference is None

    assert main(["verify", "--suite", "fibers", "--t", "2..3", "--max-n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "verify failed: fibers at t=3, order 8, map merge; first difference at q^5 z^1: "
        f"fibers {counted}, enumeration {counted + 1}\n"
    )
    entries = json.loads(captured.out)
    for entry in entries:
        failed = entry["t"] == 3 and entry["details"]["which"] == "merge"
        assert entry["pass"] is not failed
        assert ("first_difference" in entry["details"]) is failed
    (merged,) = [e["details"] for e in entries if not e["pass"]]
    assert merged["first_difference"] == {
        "q": 5, "z": 1, "fibers": str(counted), "enumeration": str(counted + 1)
    }


# -- randomized round trips --------------------------------------------------


@st.composite
def bounded_parts_members(draw):
    t = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=t), min_size=1, max_size=4, unique=True
        )
    )
    pairs = []
    for size in sizes:
        mult = draw(st.integers(min_value=1, max_value=4))
        marked = draw(st.booleans()) and size != t
        pairs.extend([(size, marked)] + [(size, False)] * (mult - 1))
    from overgap.partitions import Overpartition

    return t, Overpartition.from_parts(pairs)


@settings(deadline=None)
@given(bounded_parts_members())
def test_fold_fiber_round_trip_random(case):
    t, mu = case
    report = fold_preimages(mu, t)
    assert len(report.fiber) == report.expected_size
    for member in report.fiber:
        assert is_bounded_gap(member, t)
        assert fold(member, t) == mu


@settings(deadline=None)
@given(bounded_parts_members())
def test_merge_fiber_round_trip_random(case):
    t, mu = case
    report = merge_preimages(mu, t)
    assert len(report.fiber) == report.expected_size
    for beta in report.fiber:
        assert merge(beta, t) == mu


FAR_WEIGHT = 2000


def random_bounded_parts(rng, t):
    """A bounded-parts member of weight FAR_WEIGHT: parts drawn at random
    up to t, and each size below t marked at random."""
    counts, left = Counter(), FAR_WEIGHT
    while left:
        part = rng.randint(1, min(t, left))
        counts[part] += 1
        left -= part
    return Overpartition(
        (size, counts[size], size < t and rng.random() < 0.5)
        for size in sorted(counts, reverse=True)
    )


@pytest.mark.parametrize("t, draws", [(3, 20), (10, 50)])
def test_fibers_of_random_members_far_past_enumeration(t, draws):
    """Both fibers over seeded members of weight 2,000, where enumeration
    stops near weight 25.  Every check holds over each image on its own,
    so the draws need not be uniform over the family."""
    rng = random.Random(t)
    maps_and_domains = [
        (fold_preimages, fold, lambda pi: is_bounded_gap(pi, t)),
        (merge_preimages, merge, lambda beta: beta.t == t and beta.second.largest <= t),
    ]
    for _ in range(draws):
        mu = random_bounded_parts(rng, t)
        m = mu.multiplicity(t)
        for preimages, apply_map, in_domain in maps_and_domains:
            fiber = preimages(mu, t).fiber
            assert len(fiber) == (2 * m if mu.num_parts == m else 2 * m + 1)
            assert len(set(fiber)) == len(fiber)
            marks = Counter(member.num_marked for member in fiber)
            assert marks == {mu.num_marked: len(fiber) - m, mu.num_marked + 1: m}
            for member in fiber:
                assert in_domain(member)
                assert member.weight == FAR_WEIGHT
                assert apply_map(member, t) == mu


# -- the maps on runs against their part-list definitions ---------------------


def part_list_fold(pi, t):
    info = stats(pi, t)
    s, k = info.quotient, info.raised
    flat = pi.parts()
    emitted = [(t, False)] * (s * (info.parts - k) + (s + 1) * k)
    residues = [(part - s * t, flag) for part, flag in flat[k:]]
    residues += [(part - (s + 1) * t, flag) for part, flag in flat[:k]]
    emitted.extend((value, flag) for value, flag in residues if value > 0)
    return Overpartition.from_parts(emitted)


def part_list_merge(beta, t):
    total_t = beta.t_count + beta.second.multiplicity(t)
    pairs = [(t, False)] * total_t
    pairs.extend((part, flag) for part, flag in beta.second.parts() if part != t)
    return Overpartition.from_parts(pairs)


def part_list_fold_fiber(mu, t):
    m = mu.multiplicity(t)
    residue_pool = [(part, flag) for part, flag in mu.parts() if part != t]
    r = len(residue_pool)
    fiber = []
    for length in range(r + (1 if r == 0 else 0), r + m + 1):
        _, raised, quotient = solve_split(length, m)
        padded = residue_pool + [(0, False)] * (length - r)
        placed = [(v + quotient * t, f) for v, f in padded[: length - raised]]
        placed += [(v + (quotient + 1) * t, f) for v, f in padded[length - raised:]]
        fiber.append(Overpartition.from_parts(placed))
        if length > r:
            target = min(part for part, _ in placed if part % t == 0)
            at = [part for part, _ in placed].index(target)
            variant = placed[:at] + [(target, True)] + placed[at + 1:]
            fiber.append(Overpartition.from_parts(variant))
    return fiber


def part_list_merge_fiber(mu, t):
    m = mu.multiplicity(t)
    remainder = [(part, flag) for part, flag in mu.parts() if part != t]
    fiber = []
    for in_second in range(0 if remainder else 1, m + 1):
        plain = [(t, False)] * in_second + remainder
        fiber.append(Bipartition(t, m - in_second, Overpartition.from_parts(plain)))
        if in_second >= 1:
            marked = [(t, True)] + plain[1:]
            fiber.append(Bipartition(t, m - in_second, Overpartition.from_parts(marked)))
    return fiber


def test_run_length_maps_equal_part_list_maps():
    for t in range(1, 8):
        for n in range(1, 17):
            for pi in iter_bounded_gap(t, n):
                assert fold(pi, t) == part_list_fold(pi, t)
            for beta in iter_bipartitions(t, n):
                assert merge(beta, t) == part_list_merge(beta, t)
            for mu in iter_bounded_parts(t, n):
                assert list(fold_preimages(mu, t).fiber) == part_list_fold_fiber(mu, t)
                assert list(merge_preimages(mu, t).fiber) == part_list_merge_fiber(mu, t)


def test_maps_take_huge_parts():
    big = 10**12
    image = fold(op(str(big + 5)), 7)
    assert image.runs == ((7, (big + 5) // 7, False), ((big + 5) % 7, 1, False))
    # gap exactly t: both residues are 1 and share one run, marked from below
    s = (big - 3) // 3
    assert fold(op(f"{big},{big - 3}~"), 3).runs == ((3, 2 * s + 1, False), (1, 2, True))
    assert fold(op(f"{big}"), 1).runs == ((1, big, False),)
    assert merge(bp(f"[3^{big} | 1]"), 3).runs == ((3, big, False), (1, 1, False))
    mu = Overpartition(((big, 2, False), (1, 1, True)))
    report = fold_preimages(mu, big)
    assert len(report.fiber) == report.expected_size == 5
    assert all(fold(member, big) == mu for member in report.fiber)


def test_maps_and_enumerators_stay_on_runs(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("part lists or full enumeration requested")

    monkeypatch.setattr(Overpartition, "parts", refuse)
    monkeypatch.setattr(partitions, "iter_overpartitions", refuse)
    mu = op("3,3,3,1~,1")
    assert fold(op("7,4~"), 3) == mu
    assert merge(bp("[3^1 | 3,3,1~,1]"), 3) == mu
    assert len(fold_preimages(mu, 3).fiber) == 7
    assert len(merge_preimages(mu, 3).fiber) == 7
    assert len(list(iter_bounded_gap(3, 12))) > 0
    assert enumerated_bounded_gap_gf([1, 2, 3], 14)[3].zq_coeff(3, 1) == 4
    assert main(["preimages", "--t", "3", "--map", "fold", "--check", "3,3,3,1~,1"]) == 0
    assert capsys.readouterr().err == ""
