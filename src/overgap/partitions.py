"""Overpartitions, the bounded-difference families, and literal enumeration.

An overpartition is a weakly decreasing sequence of positive parts in
which the first occurrence of each distinct part size may carry an
overline mark.  The canonical representation here is a tuple of runs
``(part, multiplicity, marked)`` with strictly decreasing part sizes, so
"at most one mark per size, on the first occurrence" holds structurally.

Three families recur throughout, all relative to a positive bound t:

* bounded gap: nonempty overpartitions whose largest and smallest parts
  differ by at most t, where the largest part is unmarked whenever the
  difference is exactly t;
* bounded parts: nonempty overpartitions with every part at most t and
  no marked part equal to t;
* bipartitions: pairs of a multiset of unmarked t's (possibly empty) and
  a nonempty overpartition with parts at most t (a marked t is allowed).

Generating functions produced by this module come from enumeration,
never from a closed form, so they can serve as independent cross-checks
for the series builders in :mod:`qseries`.  :func:`gf_from_enumeration`
builds and counts every member object.  :func:`enumerated_bounded_gap_gf`
counts the partition shapes (the parts without their marks) whose gap
is at most the largest bound by smallest part, largest part and number
of distinct sizes, without visiting them, and weighs each count by the
mark histogram of its number of distinct sizes, a row of binomial
coefficients, since it depends on nothing else; its cost is polynomial
in the weight.  The enumerators only enter shapes that belong to the
family, so no member is built and then thrown away.  The CLI's ``table
--check`` and ``gf`` suite use the shape count; the member count is the
tests' oracle of the shape count and the fiber check's.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from itertools import product
from math import ceil, comb, log, pi, sqrt
from typing import Iterator, NamedTuple

from .qseries import QSeries, ZLaurentPoly

__all__ = [
    "InvalidPartition",
    "Overpartition",
    "Bipartition",
    "parse_overpartition",
    "parse_bipartition",
    "is_bounded_gap",
    "is_bounded_parts",
    "Stats",
    "stats",
    "iter_overpartitions",
    "iter_bounded_gap",
    "iter_bounded_parts",
    "iter_bipartitions",
    "gf_from_enumeration",
    "enumerated_bounded_gap_gf",
]


class InvalidPartition(ValueError):
    """Raised for text or constructor input that is not a valid overpartition."""


def _check_runs(runs: tuple[tuple[int, int, bool], ...]) -> None:
    """Raise unless the runs are nonempty, every part and multiplicity is
    at least 1 and the part sizes strictly decrease."""
    if not runs:
        raise InvalidPartition("overpartitions here are nonempty")
    previous = None
    for part, mult, _ in runs:
        if part < 1 or mult < 1:
            raise InvalidPartition(f"bad run ({part}, {mult}): need part, mult >= 1")
        if previous is not None and part >= previous:
            raise InvalidPartition("run part sizes must strictly decrease")
        previous = part


class Overpartition:
    """Canonical overpartition stored as runs of equal parts.

    ``runs`` is a tuple of ``(part, multiplicity, marked)`` triples with
    strictly decreasing positive parts and positive multiplicities; the
    mark flag says whether the first part of the run is overlined.

    The constructor converts each run to ``(int, int, bool)`` and then
    checks it: part and multiplicity are read through ``operator.index``,
    so a float or a string raises ``TypeError``, and the mark through
    ``bool``.  ``_checked`` only checks, for runs that are already ints
    and bools (the maps build theirs from checked runs), and ``_trusted``
    does neither, for enumeration, which builds canonical runs only.
    """

    __slots__ = ("runs",)

    def __init__(self, runs):
        runs = tuple((operator.index(p), operator.index(m), bool(o)) for p, m, o in runs)
        _check_runs(runs)
        self.runs = runs

    @classmethod
    def _checked(cls, runs) -> "Overpartition":
        # the constructor's checks without its conversion: the caller
        # guarantees every run is an (int, int, bool) triple
        runs = tuple(runs)
        _check_runs(runs)
        return cls._trusted(runs)

    @classmethod
    def _trusted(cls, runs: tuple[tuple[int, int, bool], ...]) -> "Overpartition":
        # enumeration fast path: caller guarantees canonical runs
        obj = object.__new__(cls)
        obj.runs = runs
        return obj

    @classmethod
    def from_parts(cls, parts) -> "Overpartition":
        """Build from (part, marked) pairs in any order.

        At most one occurrence of each size may be marked; the mark is
        normalised onto the first occurrence of that size.  Parts are
        read through ``operator.index``, as the constructor reads them.
        """
        counts: dict[int, int] = {}
        marked: dict[int, int] = {}
        for part, flag in parts:
            part = operator.index(part)
            counts[part] = counts.get(part, 0) + 1
            if flag:
                marked[part] = marked.get(part, 0) + 1
        for part, n_marked in marked.items():
            if n_marked > 1:
                raise InvalidPartition(f"part {part} marked more than once")
        return cls(
            (part, counts[part], part in marked)
            for part in sorted(counts, reverse=True)
        )

    # -- statistics ----------------------------------------------------

    @property
    def weight(self) -> int:
        return sum(p * m for p, m, _ in self.runs)

    @property
    def num_parts(self) -> int:
        return sum(m for _, m, _ in self.runs)

    @property
    def num_marked(self) -> int:
        return [o for _, _, o in self.runs].count(True)

    @property
    def largest(self) -> int:
        return self.runs[0][0]

    @property
    def smallest(self) -> int:
        return self.runs[-1][0]

    @property
    def largest_marked(self) -> bool:
        return self.runs[0][2]

    def multiplicity(self, part: int) -> int:
        for p, m, _ in self.runs:
            if p == part:
                return m
            if p < part:
                return 0
        return 0

    def parts(self) -> list[tuple[int, bool]]:
        """Expanded (part, marked) list, marks on first occurrences."""
        out = []
        for part, mult, flag in self.runs:
            out.append((part, flag))
            out.extend((part, False) for _ in range(mult - 1))
        return out

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Overpartition):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __str__(self) -> str:
        bits = []
        for part, mult, flag in self.runs:
            bits.append(f"{part}~" if flag else str(part))
            bits.extend(str(part) for _ in range(mult - 1))
        return ",".join(bits)

    def __repr__(self) -> str:
        return f"Overpartition({str(self)!r})"


class Bipartition(
    NamedTuple("Bipartition", [("t", int), ("t_count", int), ("second", Overpartition)])
):
    """A block of unmarked t's together with an overpartition into parts <= t.

    The first component records only how many copies of t it holds; the
    second is nonempty and may mark any of its sizes, including t.

    The constructor reads ``t`` and ``t_count`` through ``operator.index``
    (a float or a string raises ``TypeError``) and then checks all three
    fields; ``_make``, which ``_replace`` calls, goes through it too.
    ``_trusted`` does neither, for enumeration, which builds valid
    bipartitions only.
    """

    __slots__ = ()

    def __new__(cls, t: int, t_count: int, second: Overpartition):
        t = operator.index(t)
        t_count = operator.index(t_count)
        if t < 1:
            raise InvalidPartition("the part bound t must be positive")
        if t_count < 0:
            raise InvalidPartition("t_count must be nonnegative")
        if second.largest > t:
            raise InvalidPartition(
                f"second component has part {second.largest} above the bound {t}"
            )
        return super().__new__(cls, t, t_count, second)

    @classmethod
    def _make(cls, iterable) -> "Bipartition":  # _replace calls it: keep the checks
        return cls(*iterable)

    @classmethod
    def _trusted(cls, t: int, t_count: int, second: Overpartition) -> "Bipartition":
        # enumeration fast path: caller guarantees ints and a valid member
        return tuple.__new__(cls, (t, t_count, second))

    @property
    def weight(self) -> int:
        return self.t * self.t_count + self.second.weight

    @property
    def num_marked(self) -> int:
        return self.second.num_marked

    def __str__(self) -> str:
        return f"[{self.t}^{self.t_count} | {self.second}]"

    def __repr__(self) -> str:
        return f"Bipartition({str(self)!r})"


_PART_TOKEN = re.compile(r"^(\d+)(~?)$")
_BIPART_SHAPE = re.compile(r"^\[\s*(\d+)\^(\d+)\s*\|\s*(.*?)\s*\]$")


def parse_overpartition(text: str) -> Overpartition:
    """Parse comma-separated parts where a ``~`` suffix marks a part.

    Parts must be weakly decreasing.  A mark may sit on any one
    occurrence of a size and is normalised to the first; two marks on
    the same size are rejected.
    """
    tokens = [tok.strip() for tok in text.strip().split(",")]
    if tokens == [""]:
        raise InvalidPartition("empty overpartition text")
    pairs = []
    previous = None
    for token in tokens:
        match = _PART_TOKEN.match(token)
        if not match:
            raise InvalidPartition(f"bad part token {token!r}")
        part = int(match.group(1))
        if part < 1:
            raise InvalidPartition("parts must be positive")
        if previous is not None and part > previous:
            raise InvalidPartition("parts must be weakly decreasing")
        previous = part
        pairs.append((part, match.group(2) == "~"))
    return Overpartition.from_parts(pairs)


def parse_bipartition(text: str) -> Bipartition:
    """Parse the ``[t^count | parts]`` form, e.g. ``[3^1 | 3,3,1~,1]``."""
    match = _BIPART_SHAPE.match(text.strip())
    if not match:
        raise InvalidPartition(f"bad bipartition text {text!r}")
    t = int(match.group(1))
    count = int(match.group(2))
    return Bipartition(t, count, parse_overpartition(match.group(3)))


# -- membership predicates ---------------------------------------------------


def is_bounded_gap(pi: Overpartition, t: int) -> bool:
    """Largest minus smallest part at most t; largest unmarked at exactly t."""
    gap = pi.largest - pi.smallest
    if gap > t:
        return False
    if gap == t and pi.largest_marked:
        return False
    return True


def is_bounded_parts(pi: Overpartition, t: int) -> bool:
    """Every part at most t and no marked part equal to t."""
    if pi.largest > t:
        return False
    return not (pi.largest == t and pi.largest_marked)


class Stats(NamedTuple):
    """Shape statistics controlling the fold construction in :mod:`maps`.

    quotient is the smallest part divided by t, rounded down; raised
    counts the parts of size at least (quotient + 1) * t.
    """

    parts: int
    marked: int
    t_multiplicity: int
    quotient: int
    raised: int


def stats(pi: Overpartition, t: int) -> Stats:
    quotient = pi.smallest // t
    threshold = (quotient + 1) * t
    raised = sum(m for p, m, _ in pi.runs if p >= threshold)
    return Stats(pi.num_parts, pi.num_marked, pi.multiplicity(t), quotient, raised)


# -- enumeration --------------------------------------------------------------


def _shapes(remaining: int, cap: int, floor: int = 1, gap: int | None = None):
    """Partition shapes of ``remaining`` with parts in ``[floor, cap]``.

    Yields tuples of (part, multiplicity) runs, largest part first, in
    decreasing lexicographic order of the expanded part lists.  With a
    ``gap`` (at least 0), the floor below each largest part is raised to
    ``part - gap``, so exactly the shapes whose largest and smallest
    parts differ by at most ``gap`` come out, in the same order.  A
    branch is entered only if it can be completed: what is left after a
    run is zero or a sum of k parts in ``[low, part - 1]`` for some k,
    ``low`` being the floor in force below ``part``, which holds exactly
    when ``(rest // low) * (part - 1) >= rest``.
    """
    if remaining == 0:
        yield ()
        return
    for part in range(min(cap, remaining), floor - 1, -1):
        low = floor if gap is None else max(floor, part - gap)
        for mult in range(remaining // part, 0, -1):
            rest = remaining - part * mult
            if rest == 0:
                yield ((part, mult),)
            elif (rest // low) * (part - 1) >= rest:
                for tail in _shapes(rest, part - 1, low):
                    yield ((part, mult),) + tail


def _restore_order(runs):
    return Overpartition._trusted(runs[::-1])


def _members(shape, top_unmarked: bool = False):
    """The overpartitions of one shape, in mark-pattern order.

    The patterns are counted in binary with the largest size as the
    least significant bit, so the unmarked copy precedes its marked
    variants.  ``product`` varies its last factor fastest, so the runs
    are fed smallest first and each result is turned back around.  With
    ``top_unmarked`` only the patterns leaving the largest size unmarked
    are produced.
    """
    variants = [((p, m, False), (p, m, True)) for p, m in reversed(shape)]
    if top_unmarked:
        variants[-1] = variants[-1][:1]
    return map(_restore_order, product(*variants))


def iter_overpartitions(n: int, max_part: int | None = None) -> Iterator[Overpartition]:
    """All overpartitions of weight n, every member constructed explicitly.

    Order is deterministic: shapes in decreasing lexicographic order,
    and for each shape the 2^d mark patterns (d distinct sizes) counted
    in binary with the largest size as the least significant bit, so the
    unmarked copy always precedes its marked variants.
    """
    if n < 1:
        return
    cap = n if max_part is None else min(max_part, n)
    for shape in _shapes(n, cap):
        yield from _members(shape)


def iter_bounded_gap(t: int, n: int) -> Iterator[Overpartition]:
    """Members of the bounded-gap family of weight n.

    Equal to filtering :func:`iter_overpartitions` by
    :func:`is_bounded_gap`, in the same order, but only shapes with gap
    at most t are generated, and a shape with gap exactly t only gets
    the mark patterns leaving its largest size unmarked.
    """
    if n < 1 or t < 0:
        return
    for shape in _shapes(n, n, gap=t):
        yield from _members(shape, shape[0][0] - shape[-1][0] == t)


def iter_bounded_parts(t: int, n: int) -> Iterator[Overpartition]:
    """Members of the bounded-parts family of weight n.

    Equal to filtering :func:`iter_overpartitions` by
    :func:`is_bounded_parts`, in the same order; implemented by bounding
    the shapes directly and leaving a largest size t unmarked, which
    preserves that order.
    """
    if n < 1:
        return
    for shape in _shapes(n, min(t, n)):
        yield from _members(shape, shape[0][0] == t)


def iter_bipartitions(t: int, n: int) -> Iterator[Bipartition]:
    """All bipartitions of weight n for the bound t, t_count ascending.

    For each t_count the second components come in
    :func:`iter_overpartitions` order.  Every member is valid by
    construction, so it is built through ``Bipartition._trusted``
    without the constructor's conversion and checks; ``t`` must be an
    int.  A bound below 1 has no bipartitions, as it has no bounded-parts
    members.
    """
    if n < 1 or t < 1:
        return
    for count in range((n - 1) // t + 1):
        for second in iter_overpartitions(n - t * count, max_part=t):
            yield Bipartition._trusted(t, count, second)


_FAMILIES = ("bounded_gap", "bounded_parts", "bipartition")


def gf_from_enumeration(family: str, t: int, max_n: int) -> QSeries:
    """Sum of z^(marks) * q^(weight) over one family, weights 1..max_n.

    The result has order ``max_n + 1``.  Every coefficient is obtained
    by literally iterating the family members.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    terms: dict[int, dict[int, int]] = {}
    for n in range(1, max_n + 1):
        row: dict[int, int] = {}
        if family == "bounded_gap":
            members = iter_bounded_gap(t, n)
        elif family == "bounded_parts":
            members = iter_bounded_parts(t, n)
        else:
            members = iter_bipartitions(t, n)
        for member in members:
            o = member.num_marked
            row[o] = row.get(o, 0) + 1
        if row:
            terms[n] = row
    return QSeries.from_terms(
        {n: ZLaurentPoly(row) for n, row in terms.items()}, max_n + 1
    )


def _mark_histograms(d: int) -> tuple[list[int], list[int]]:
    """Mark counts over the 2^d patterns of a shape with d distinct sizes.

    Returns the histogram by number of marks over all patterns, C(d, o)
    with o marks, and over those leaving the largest size unmarked,
    C(d - 1, o).
    """
    # o marks among d sizes, or among the d - 1 below the largest; with no
    # size at all the one empty pattern leaves the (absent) largest unmarked
    every = [comb(d, o) for o in range(d + 1)]
    top_unmarked = [comb(max(d - 1, 0), o) for o in range(d + 1)]
    return every, top_unmarked


# The census holds each column of counts by weight 0..max_n as one int,
# weight n in the n-th slot of ``8 * slot_bytes`` bits (Kronecker
# substitution), so adding two columns or moving one up k weights is one
# int operation.  No count it forms exceeds the number of overpartitions
# of max_n, at most 2^sizes * p(max_n) < 2^sizes * exp(pi * sqrt(2 *
# max_n / 3)) (Apostol, Introduction to Analytic Number Theory, Thm.
# 14.5), so a slot sized for that never carries into the next.


def _pile(column: int, k: int, span: int, slot: int, mask: int) -> int:
    """Put one or more parts k on top of every shape ``column`` counts.

    Weight n of the result is the column's weight n - k plus n - 2k and
    so on: its running sum along each residue class mod k.  The column
    is 0 below its lightest shape and ``mask`` cuts weights more than
    ``span`` above that, so copies 1..j with jk <= span are all that
    count; each round doubles j.
    """
    out = (column << (k * slot)) & mask
    reach = k
    while reach + k <= span:
        out = (out + (out << (reach * slot))) & mask
        reach *= 2
    return out


def _unpack(column: int, slot_bytes: int, width: int) -> list[int]:
    raw = column.to_bytes(width * slot_bytes, "little")
    return [
        int.from_bytes(raw[i : i + slot_bytes], "little")
        for i in range(0, len(raw), slot_bytes)
    ]


def enumerated_bounded_gap_gf(ts, max_n: int) -> dict[int, QSeries]:
    """Bounded-gap generating functions for several bounds in one count.

    Counts the partition shapes of weight up to ``max_n`` whose gap is at
    most the largest bound T by smallest part s, largest part k and
    number d of distinct sizes, without visiting them.  For each s, a
    column per d counts by weight the shapes with parts in [s, k] that
    use s.  k = s gives the multiples of s, and raising k by one puts one
    or more parts k on top of the shapes with d - 1 sizes
    (:func:`_pile`), which gives those of gap exactly k - s.  Each such
    column is added to the totals of the first gap at or above its own
    among the bounds and the gaps just under them; running sums over
    those gaps then give, per bound t and d, the shapes of gap below t
    and those of gap t.  The mark histogram of a shape depends only on d
    (binomial coefficients, see :func:`_mark_histograms`), so t's row is
    the first count times the histogram of every pattern plus the second
    times that of the patterns leaving the largest size unmarked, one
    pass per d.  Nothing is held per (d, gap) pair, and nothing outlives
    the call.  Returns, per bound, the same series
    :func:`gf_from_enumeration` would produce.
    """
    ts = sorted(set(int(t) for t in ts))
    if ts and ts[0] < 1:
        raise ValueError("bounds must be positive")
    if not ts:
        return {}
    width = max(max_n + 1, 0)
    sizes = 0  # the most distinct sizes a weight up to max_n has room for
    while (sizes + 1) * (sizes + 2) // 2 <= max_n:
        sizes += 1
    slot_bytes = ceil((pi * sqrt(2 * max(max_n, 1) / 3) / log(2) + sizes + 1) / 8)
    slot = 8 * slot_bytes
    mask = (1 << (width * slot)) - 1
    gaps = sorted(set(ts).union(t - 1 for t in ts))
    # fresh[j][d]: shapes with d distinct sizes, gap in (gaps[j - 1], gaps[j]]
    fresh = [[0] * (sizes + 1) for _ in gaps]
    for s in range(1, max_n + 1):
        # uses[d]: shapes with parts in [s, k] that use s, d distinct sizes;
        # for k = s, parts s piled on the empty shape
        uses = [0, _pile(1, s, max_n, slot, mask)]
        fresh[0][1] += uses[1]
        for k in range(s + 1, min(s + ts[-1], max_n - s) + 1):
            into = fresh[bisect_left(gaps, k - s)]
            # descending, so uses[d - 1] still stops below k
            for d in range(len(uses), 1, -1):
                # the lightest shape in uses[d - 1]: s, s + 1, ..., s + d - 2
                lightest = (d - 1) * s + (d - 2) * (d - 1) // 2
                if lightest + k > max_n:
                    continue
                exact = _pile(uses[d - 1], k, max_n - lightest, slot, mask)
                into[d] += exact
                if d == len(uses):
                    uses.append(exact)
                else:
                    uses[d] += exact
    series = {}
    totals = [0] * (sizes + 1)
    for gap, added in zip(gaps, fresh):
        below = totals
        totals = [column + extra for column, extra in zip(below, added)]
        if gap not in ts:
            continue
        # by[o]: the column of o marks; below[d] counts the gaps under t
        # and totals[d] - below[d] the gap t
        by = [0] * (sizes + 1)
        for d in range(1, sizes + 1):
            every, top_unmarked = _mark_histograms(d)
            exact = totals[d] - below[d]
            for o in range(d + 1):
                by[o] += every[o] * below[d] + top_unmarked[o] * exact
        terms = {}
        cells = zip(*(_unpack(column, slot_bytes, width) for column in by))
        for n, counts in enumerate(cells):
            row = {o: count for o, count in enumerate(counts) if count}
            if row:
                terms[n] = ZLaurentPoly._make(row)
        series[gap] = QSeries.from_terms(terms, max_n + 1)
    return series
