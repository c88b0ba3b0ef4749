"""Weight-preserving folds onto bounded-parts overpartitions and their fibers.

Two surjections land in the bounded-parts family (parts at most t, no
marked t):

* ``fold`` sends a bounded-gap overpartition there by splitting every
  part into copies of t plus a residue below t.  Writing s for the
  smallest part divided by t (rounded down) and k for the number of
  parts of size at least (s+1)*t, each of the k largest parts donates
  s+1 copies of t and the rest donate s; the leftover residues, marks
  attached, become the small parts of the image.  Residue zero parts
  disappear, dropping their mark.

* ``merge`` sends a bipartition there by pooling every t (from either
  component, marked or not) into unmarked t's and keeping the remaining
  parts of the second component as they are.

Both maps and both fiber builders work on the runs of an overpartition
(size, multiplicity, mark) and never expand them into part lists, so an
image or a fiber member costs time in the number of distinct sizes, not
in the part values.

Both maps admit an explicit description of every preimage fiber.  A
bounded-parts overpartition with m copies of t has exactly 2m preimages
when all of its parts equal t and 2m + 1 otherwise, and in both cases
exactly m of the preimages carry one extra mark.  ``fold_preimages`` and
``merge_preimages`` construct the fibers directly from that description,
and :func:`verify_fiber_identity` checks the resulting weighted census
against literal enumeration.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import NamedTuple

from .partitions import (
    Bipartition,
    Overpartition,
    gf_from_enumeration,
    is_bounded_gap,
    is_bounded_parts,
    iter_bounded_parts,
)
from .qseries import QSeries, ZLaurentPoly

__all__ = [
    "NotInDomain",
    "SplitSolution",
    "solve_split",
    "fold",
    "merge",
    "PreimageReport",
    "fold_preimages",
    "merge_preimages",
    "FiberCheck",
    "verify_fiber_identity",
]


class NotInDomain(ValueError):
    """The argument is outside the map's domain family."""


class SplitSolution(NamedTuple):
    """Unique way to split ``parts`` part slots into two quotient classes.

    ``base_count`` slots get quotient ``quotient`` and ``raised_count``
    slots get ``quotient + 1`` so that the total number of donated t's
    comes out to the requested multiple count:
    base_count + raised_count = parts and
    quotient * base_count + (quotient + 1) * raised_count = multiples.
    """

    base_count: int
    raised_count: int
    quotient: int


def solve_split(parts: int, multiples: int) -> SplitSolution:
    """Solve x + y = parts, q*x + (q+1)*y = multiples with x >= 1, y >= 0.

    The solution exists and is unique for every parts >= 1 and
    multiples >= 0: take q = multiples // parts and give the remainder
    out as raised slots.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    if multiples < 0:
        raise ValueError("multiples must be nonnegative")
    quotient = multiples // parts
    raised = multiples - quotient * parts
    return SplitSolution(parts - raised, raised, quotient)


def fold(pi: Overpartition, t: int) -> Overpartition:
    """Fold a bounded-gap overpartition into parts of size at most t."""
    t = operator.index(t)
    if t < 1:
        raise ValueError("the bound t must be positive")
    if not is_bounded_gap(pi, t):
        gap = pi.largest - pi.smallest
        reason = (
            f"gap {gap} exceeds {t}"
            if gap > t
            else f"largest part is marked while the gap equals {t}"
        )
        raise NotInDomain(f"{pi} is not in the bounded-gap family for t={t}: {reason}")
    # Runs of size at least (s+1)*t are the raised ones.  Every residue
    # is below t; raised residues are at most base residues and equal
    # only when the gap is t, where the largest (raised) run is unmarked.
    s = pi.smallest // t
    threshold = (s + 1) * t
    t_count = 0
    base, raised = [], []
    for part, mult, flag in pi.runs:
        quotient, into = (s + 1, raised) if part >= threshold else (s, base)
        t_count += quotient * mult
        residue = part - quotient * t
        if residue:
            into.append((residue, mult, flag))
    if base and raised and base[-1][0] == raised[0][0]:
        residue, mult, flag = base.pop()
        raised[0] = (residue, mult + raised[0][1], flag)
    head = [(t, t_count, False)] if t_count else []
    return Overpartition._checked(head + base + raised)


def merge(beta: Bipartition, t: int) -> Overpartition:
    """Merge a bipartition into a single bounded-parts overpartition."""
    t = operator.index(t)
    if beta.t != t:
        raise NotInDomain(f"{beta} is a bipartition at t={beta.t}, but t={t} was given")
    # parts of the second component are at most t, so its t's (if any)
    # are its leading run
    runs = beta.second.runs
    total = beta.t_count
    if runs[0][0] == t:
        total += runs[0][1]
        runs = runs[1:]
    return Overpartition._checked(((t, total, False),) + runs if total else runs)


def _without_t(pi: Overpartition, t: int) -> list[tuple[int, int, bool]]:
    """The runs of an overpartition with parts at most t, minus its t's."""
    runs = pi.runs
    return list(runs[1:] if runs[0][0] == t else runs)


class PreimageReport(NamedTuple):
    """A complete fiber over one bounded-parts overpartition.

    The census is read off the members: ``same_marks`` counts those with
    exactly the image's number of marks and ``one_more_mark`` those with
    one extra, so a copy made with ``_replace(fiber=...)`` reports the
    census of its own fiber.  For a complete fiber the two cover it.
    """

    mu: Overpartition
    t: int
    fiber: tuple

    @property
    def same_marks(self) -> int:
        base = self.mu.num_marked
        return sum(member.num_marked == base for member in self.fiber)

    @property
    def one_more_mark(self) -> int:
        base = self.mu.num_marked + 1
        return sum(member.num_marked == base for member in self.fiber)

    @property
    def expected_size(self) -> int:
        m = self.mu.multiplicity(self.t)
        return 2 * m if self.mu.num_parts == m else 2 * m + 1


def _require_bounded_parts(mu: Overpartition, t: int) -> None:
    if t < 1:
        raise ValueError("the bound t must be positive")
    if not is_bounded_parts(mu, t):
        reason = (
            f"part {mu.largest} exceeds {t}"
            if mu.largest > t
            else f"the part {t} is marked"
        )
        raise NotInDomain(f"{mu} is not in the bounded-parts family for t={t}: {reason}")


def fold_preimages(mu: Overpartition, t: int) -> PreimageReport:
    """Every bounded-gap overpartition folding onto ``mu``.

    For each admissible preimage length the t's of ``mu`` are split into
    quotient classes by :func:`solve_split`, the non-t parts of ``mu``
    (padded with zero residues) are laid out so the raised class holds
    the smallest residues, and each slot becomes residue plus quotient
    times t.  Whenever a zero residue was used, some part of the result
    is a multiple of t and marking the first occurrence of the smallest
    such multiple gives one further preimage.  Fiber order: length
    ascending, the unmarked variant before the marked one.  With no part
    t in ``mu`` (m = 0, as for every image when t exceeds its weight)
    the only length is that of ``mu``, with quotient 0 and every run
    copied, so the fiber is ``mu`` itself and is returned as such.
    """
    t = operator.index(t)
    _require_bounded_parts(mu, t)
    m = mu.multiplicity(t)
    if m == 0:
        return PreimageReport(mu, t, (mu,))
    pool = _without_t(mu, t)
    r = sum(mult for _, mult, _ in pool)
    fiber = []
    for length in range(max(r, 1), r + m + 1):
        _, raised, quotient = solve_split(length, m)
        padded = pool + [(0, length - r, False)] if length > r else pool
        # The first length - raised slots take the quotient, the rest one
        # more; residues are below t, so every raised part is larger than
        # every base part and a run split between the classes keeps its
        # mark on its first, base, slot.
        base_slots = length - raised
        upper, lower = [], []
        for value, mult, flag in padded:
            below = min(max(base_slots, 0), mult)
            base_slots -= mult
            if below:
                lower.append((value + quotient * t, below, flag))
            if below < mult:
                upper.append(
                    (value + (quotient + 1) * t, mult - below, flag and not below)
                )
        runs = upper + lower
        if any(part < 1 for part, _, _ in runs):
            raise AssertionError("fold preimage produced a nonpositive part")
        fiber.append(Overpartition._checked(runs))
        if length > r:
            # the smallest multiple of t is the last run made of zero residues
            last = max(i for i, (part, _, _) in enumerate(runs) if part % t == 0)
            part, mult, _ = runs[last]
            runs[last] = (part, mult, True)
            fiber.append(Overpartition._checked(runs))
    return PreimageReport(mu, t, tuple(fiber))


def merge_preimages(mu: Overpartition, t: int) -> PreimageReport:
    """Every bipartition merging onto ``mu``.

    The t's of ``mu`` are distributed between the two components; the
    second component must stay nonempty, and marking its leading t (when
    it has one) gives the extra-mark variants.  Fiber order: second
    component's t-count ascending, unmarked variant first.
    """
    t = operator.index(t)
    _require_bounded_parts(mu, t)
    m = mu.multiplicity(t)
    rest = _without_t(mu, t)
    fiber = [Bipartition(t, m, Overpartition._checked(rest))] if rest else []
    for in_second in range(1, m + 1):
        for marked in (False, True):
            second = Overpartition._checked([(t, in_second, marked)] + rest)
            fiber.append(Bipartition(t, m - in_second, second))
    return PreimageReport(mu, t, tuple(fiber))


class FiberCheck(NamedTuple):
    """Outcome of :func:`verify_fiber_identity`."""

    which: str
    t: int
    max_n: int
    passed: bool
    images_checked: int
    first_failure: str | None
    # (q_exp, z_exp, aggregated fibers' coefficient, enumeration's) at the
    # first coefficient where the aggregate census and enumeration differ
    first_difference: tuple[int, int, int, int] | None = None


def verify_fiber_identity(t: int, max_n: int, which: str = "fold") -> FiberCheck:
    """Check the constructed fibers against literal enumeration.

    Per image mu with m copies of t, the fiber's mark census, counted
    from its members' marks, must equal
    (delta + (1 + z) * m) * z^(marks of mu) where delta is 0 when mu
    consists of t's only and 1 otherwise, which also fixes the fiber's
    size at delta + 2m; every fiber member must lie in the map's domain
    and map back onto mu, and no member may repeat; and the aggregate
    census over all images up to weight ``max_n`` must reproduce the
    generating function of the map's domain family computed by
    enumeration.  The census is kept as integer counts per weight and
    number of marks; polynomials are built only for the final
    comparison and for a failure message.  The bound t must be
    positive, as for :func:`fold`.
    """
    t = operator.index(t)
    if t < 1:
        raise ValueError("the bound t must be positive")
    if which not in ("fold", "merge"):
        raise ValueError("which must be 'fold' or 'merge'")
    preimages = fold_preimages if which == "fold" else merge_preimages
    apply_map = fold if which == "fold" else merge
    aggregate: dict[int, dict[int, int]] = {}
    checked = 0
    failure = diff = None
    for n in range(1, max_n + 1):
        for mu in iter_bounded_parts(t, n):
            checked += 1
            fiber = preimages(mu, t).fiber
            for member in fiber:
                try:
                    image = apply_map(member, t)
                except NotInDomain as exc:
                    failure = f"fiber over {mu} holds a member outside the domain: {exc}"
                    break
                if image != mu:
                    failure = f"{member} does not map onto {mu}"
                    break
            if failure:
                break
            m = mu.multiplicity(t)
            delta = 0 if mu.num_parts == m else 1
            base = mu.num_marked
            marks = [member.num_marked for member in fiber]
            if (marks.count(base), marks.count(base + 1), len(marks)) != (
                delta + m, m, delta + 2 * m
            ):
                census = ZLaurentPoly(Counter(marks))
                expected = ZLaurentPoly({base: delta + m, base + 1: m})
                failure = f"fiber census over {mu} is {census}, expected {expected}"
                break
            if len(set(fiber)) != len(fiber):
                failure = f"fiber over {mu} has repeated members"
                break
            counts = aggregate.setdefault(n, {})
            counts[base] = counts.get(base, 0) + delta + m
            counts[base + 1] = counts.get(base + 1, 0) + m
        if failure:
            break
    if failure is None:
        domain_family = "bounded_gap" if which == "fold" else "bipartition"
        lhs = QSeries.from_terms(
            {n: ZLaurentPoly(counts) for n, counts in aggregate.items()}, max_n + 1
        )
        rhs = gf_from_enumeration(domain_family, t, max_n)
        diff = lhs.first_difference(rhs, max_n + 1)
        if diff is not None:
            q_exp, z_exp, fibers, counted = diff
            failure = (
                f"aggregated fiber census disagrees with the {domain_family} "
                f"enumeration for t={t} up to weight {max_n}: at q^{q_exp} z^{z_exp} "
                f"the fibers give {fibers}, enumeration {counted}"
            )
    return FiberCheck(which, t, max_n, failure is None, checked, failure, diff)
