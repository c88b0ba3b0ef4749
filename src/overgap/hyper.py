"""Terminating and convergent basic hypergeometric series, evaluated exactly.

A series spec holds monomial parameters (a_1, ..., a_{r+1}; b_1, ..., b_s)
and a monomial argument w; the value is

    sum_{n >= 0} [prod_i (a_i; q)_n / ((q; q)_n prod_j (b_j; q)_n)]
                 * ((-1)^n q^(n(n-1)/2))^(s - r) * w^n.

Evaluation takes the nested form 1 + r_1 (1 + r_2 (1 + ... r_N)), r_n
the ratio of term n to term n-1, from the last term inward: the tail
U_(n-1) = 1 + r_n U_n multiplies by the numerator factors
(1 - a q^(n-1)) and divides out the denominator factors, then takes a
monomial shift, a truncation and a ``+ 1``.  The tails live in one
:class:`~overgap.qseries.ZColumns` buffer for the whole walk, dense
integer z-columns over the tail's window, so each factor of a step is
one slice pass per column where
:func:`~overgap.qseries.qs_pochhammer_ratio` would merge every z-term of
every row; the columns become a window-true
:class:`~overgap.qseries.QSeries` once, at the end.  Term n starts at
q^drift_n, the sum of its ratios' lowest exponents, so U_n is needed
only to the order less drift_n, and each step moves the window by
exactly that much.  The walk starts at the last term to start below the
order: every term after it is zero on the window.  A tail holds only the
factors of the steps after it, so it is narrower in z than the term it
multiplies: at the chain's transformation parameters a term carries all
of 1/(-zq^2; q)_n, a tail only the factors past n, and over its window
a tail is dense enough in z for the columns to win.  A parameter shared
by numerator and denominator (q included, for the (q; q)_n factor)
contributes the same factor to both and is skipped once for the whole
series.  A numerator parameter q^(-k) (sign +1, no z) terminates the
series after k + 1 terms; without one, the argument must carry a
positive q-exponent so that later terms fall below the order.

The module also packages three verification routines: the classical
q-Chu-Vandermonde summation, a three-parameter series transformation,
and a chain of displayed forms connecting the smallest-part expansion of
the bounded-gap generating function to its closed form.  Chain lines 3-4
are the two sides of the transformation at (q, q, -zq^(t+1); -zq^2,
q^(t+2)) and lines 5-6 the two sides of q-Chu-Vandermonde at (-z, -zq,
t), each times its prefactor; the chain and the two checks compute those
sides with the same code.  The q-Chu-Vandermonde sum is two calls to
the row kernel, (c/a; q)_n and then its quotient by (c; q)_n, so chain
lines 5 = 6 and the ``chu`` suite check the column walk of the series
against the row kernel.  Chain line 2 walks forward from its first
term, keeping the running term only to the order, as no later term
reads it further; a nested walk of it was slower.  Chain
lines 1 and 2 stream their terms into :func:`~overgap.qseries.qs_sum`,
which merges each row into the sum in place, so no list of terms is
kept.  Every Pochhammer quotient, finite or infinite, is divided out in
place, by the row kernel or by the column walk; no general inverse is
taken.  Each prefactor of lines 3-6 is c q^p times a Pochhammer
quotient, applied to each side by kernel passes: the side is cut to the
window a general product with the prefactor would have, the kernel
divides the quotient in, and c q^p scales and shifts the result.  So no
prefactor series is built for lines 3-6, and the one general product in
the chain is the transformation's: its prefactor
(e/a)_inf (de/(bc))_inf / ((e)_inf (de/(abc))_inf), one kernel call that
takes all four infinite families on the one series, times the partner
series.  The kernel cancels the factors the families share, so at the
chain's parameters the prefactor telescopes to (1 - q^(t+1)) / (1 - q)
and costs two passes.  Chain line 7, the closed form, is the one line
built by neither the kernel's passes nor the column walk's (from the
q-binomial z-columns, in :func:`qseries.bounded_gap_overpartition_gf`);
it shares only the column-to-row conversion,
:meth:`~overgap.qseries.ZColumns.to_series`, with the walk, so the last
link of the chain checks the kernel against another method.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

from .qseries import (
    DivergentProduct,
    QMonomial,
    QSeries,
    ZColumns,
    ZLaurentPoly,
    bounded_gap_overpartition_gf,
    pochhammer,
    qs_mul,
    qs_mul_finite,
    qs_pochhammer_ratio,
    qs_sum,
)

__all__ = [
    "NonUnitDenominator",
    "NonTerminatingWithoutConvergence",
    "HypergeometricSpec",
    "eval_phi",
    "check_q_chu_vandermonde",
    "check_3phi2_transform",
    "chain_lines",
    "LineCheck",
    "ChainReport",
    "compare_lines",
    "verify_identity_chain",
]

_ONE = ZLaurentPoly.one()
_MINUS_ONE = ZLaurentPoly.const(-1)
_ONE_PLUS_Z = ZLaurentPoly({0: 1, 1: 1})


class NonUnitDenominator(ValueError):
    """A denominator parameter would produce a non-invertible factor."""


class NonTerminatingWithoutConvergence(ValueError):
    """Terms cannot be bounded: no terminating parameter and no decay."""


class HypergeometricSpec(NamedTuple):
    """Parameters of a basic hypergeometric series, all signed monomials."""

    numerator: tuple[QMonomial, ...]
    denominator: tuple[QMonomial, ...]
    argument: QMonomial

    @property
    def exponent_shift(self) -> int:
        """The power s - r applied to the (-1)^n q^(n(n-1)/2) factor."""
        return len(self.denominator) - (len(self.numerator) - 1)

    def termination_index(self) -> int | None:
        """Smallest k with a numerator parameter exactly q^(-k), else None."""
        best = None
        for param in self.numerator:
            if param.sign == 1 and param.z_exp == 0 and param.q_exp <= 0:
                k = -param.q_exp
                if best is None or k < best:
                    best = k
        return best


def _auto_terms(spec: HypergeometricSpec, target_order: int) -> int:
    index = spec.termination_index()
    if index is not None:
        return index + 1
    if spec.argument.q_exp < 1 or spec.exponent_shift < 0:
        raise NonTerminatingWithoutConvergence(
            "series does not terminate and its terms do not gain q-order"
        )
    slack = 0
    for param in spec.numerator:
        if param.q_exp < 0:
            depth = -param.q_exp
            slack += depth * (depth + 1) // 2
    return max(0, target_order + slack)


def _drifts(spec: HypergeometricSpec, terms: int) -> list[int]:
    """The lowest q-exponent of each of the first ``terms`` terms: term n
    moves from term n-1 by its numerator factors' negative q-exponents,
    the argument's and (n-1) times the exponent shift."""
    steps = (
        sum(min(0, p.q_exp + n - 1) for p in spec.numerator)
        + spec.argument.q_exp
        + (n - 1) * spec.exponent_shift
        for n in range(1, terms)
    )
    return list(accumulate(steps, initial=0))


def eval_phi(
    spec: HypergeometricSpec, terms: int | None, target_order: int
) -> QSeries:
    """Exact partial sum of the series, valid up to ``target_order``.

    With ``terms`` None the count is chosen automatically: the
    termination index plus one when the series terminates, otherwise
    enough terms that the rest vanish below the order.
    """
    for param in spec.denominator:
        if param.q_exp < 1:
            raise NonUnitDenominator(
                f"denominator parameter {param} needs q_exp >= 1 to stay invertible"
            )
    if terms is None:
        terms = _auto_terms(spec, target_order)
    index = spec.termination_index()
    if index is not None:
        # the terms past the termination index are zero: no window follows them
        terms = min(terms, index + 1)
    if terms <= 0:
        return QSeries.zero(target_order)
    drifts = _drifts(spec, terms)
    # the terms after the last one to start below the order are zero on the
    # window: the walk starts there, with that term's tail 1
    last = max((n for n, drift in enumerate(drifts) if drift < target_order), default=-1)
    if last < 0:
        return QSeries.zero(target_order)
    shift = spec.exponent_shift
    arg = spec.argument
    # step n multiplies by a factor (1 - p q^(n-1)) for each numerator
    # parameter p and divides by one for each denominator parameter, q
    # included for (q; q)_n; a parameter on both sides cancels for every n,
    # so it is dropped once here, as the column walk cancels nothing;
    # denominator factors keep the window, so dropping a pair leaves every
    # tail unchanged
    numerator = list(spec.numerator)
    denominator = [QMonomial.q_power(1), *spec.denominator]
    for param in spec.numerator:
        if param in denominator:
            numerator.remove(param)
            denominator.remove(param)
    num = [(p, 1) for p in numerator]
    den = [(p, 1) for p in denominator]
    tail = ZColumns.from_series(QSeries.one(target_order - drifts[last]))
    for n in range(last, 0, -1):
        # tail n-1 = 1 + (term n / term n-1) * tail n, needed to the order
        # less term n-1's drift; the step moves the window by exactly that
        tail.pochhammer_ratio(num, den, n - 1)
        tail.times_monomial(arg)
        if shift:
            tail.times_monomial(QMonomial(-1 if shift % 2 else 1, 0, (n - 1) * shift))
        tail.truncate(target_order - drifts[n - 1])
        tail.add_one()
    return tail.to_series()


def _chu_sides(
    a: QMonomial, c: QMonomial, n: int, target_order: int
) -> tuple[QSeries, QSeries]:
    """Both sides of :func:`check_q_chu_vandermonde`, series first."""
    if n < 0:
        raise ValueError("the termination depth n must be nonnegative")
    spec = HypergeometricSpec(
        (a, QMonomial.q_power(-n)), (c,), (c * QMonomial.q_power(n)) / a
    )
    lhs = eval_phi(spec, n + 1, target_order)
    # eval_phi has already rejected c.q_exp < 1, so every factor divides
    rhs = qs_pochhammer_ratio(pochhammer(c / a, n, target_order), (), [(c, n)])
    return lhs, rhs


def check_q_chu_vandermonde(
    a: QMonomial, c: QMonomial, n: int, target_order: int, *, locate: bool = False
) -> bool | tuple[int, int, int, int] | None:
    """The q-Chu-Vandermonde summation, both sides computed independently.

    The terminating series with numerator parameters (a, q^(-n)),
    denominator parameter c and argument c q^n / a must equal
    (c/a; q)_n / (c; q)_n to the requested order.  With ``locate`` the
    result is the first coefficient where they differ instead, as
    ``(q_exp, z_exp, series, sum)``, or None when they agree.
    """
    lhs, rhs = _chu_sides(a, c, n, target_order)
    diff = lhs.first_difference(rhs, target_order)
    return diff if locate else diff is None


def _transform_sides(
    a: QMonomial,
    b: QMonomial,
    c: QMonomial,
    d: QMonomial,
    e: QMonomial,
    target_order: int,
) -> tuple[QSeries, QSeries]:
    """Both sides of :func:`check_3phi2_transform`, prefactor included."""
    lhs_spec = HypergeometricSpec((a, b, c), (d, e), (d * e) / (a * b * c))
    lhs = eval_phi(lhs_spec, None, target_order)
    rhs_spec = HypergeometricSpec(
        (a, d / b, d / c), (d, (d * e) / (b * c)), e / a
    )
    series = eval_phi(rhs_spec, None, target_order)
    # a Laurent partner series needs the prefactor known that much further
    width = target_order - min(0, series.min_exp)
    if (e / a).q_exp < 1:
        raise DivergentProduct(
            f"(e/a; q)_inf needs e/a's q-exponent >= 1 for coefficientwise "
            f"convergence, got {(e / a).q_exp}"
        )
    # eval_phi has already rejected de/(bc) as a denominator of the partner
    # series, and the kernel checks the two quotient families.  It skips
    # the factors past the window and cancels those the families share: at
    # the chain's parameters the prefactor is (1 - q^(t+1)) / (1 - q)
    prefactor = qs_pochhammer_ratio(
        QSeries.one(width) if width > 0 else QSeries.zero(width),
        [(e / a, width), ((d * e) / (b * c), width)],
        [(e, width), ((d * e) / (a * b * c), width)],
    )
    return lhs, qs_mul(prefactor, series)


def check_3phi2_transform(
    a: QMonomial,
    b: QMonomial,
    c: QMonomial,
    d: QMonomial,
    e: QMonomial,
    target_order: int,
    *,
    locate: bool = False,
) -> bool | tuple[int, int, int, int] | None:
    """A transformation between two series with three numerator parameters.

    The series with parameters (a, b, c; d, e) and argument de/(abc) must
    equal the series with parameters (a, d/b, d/c; d, de/(bc)) and
    argument e/a, multiplied by the infinite-product prefactor
    (e/a)_inf (de/(bc))_inf / ((e)_inf (de/(abc))_inf).  With ``locate``
    the result is the first coefficient where they differ instead, as
    ``(q_exp, z_exp, series, transformed)``, or None when they agree.
    """
    lhs, rhs = _transform_sides(a, b, c, d, e, target_order)
    diff = lhs.first_difference(rhs, target_order)
    return diff if locate else diff is None


# -- the derivation chain ----------------------------------------------------


def _quotient_terms(term: QSeries, t: int, order: int) -> Iterator[QSeries]:
    """Chain line 2's terms from its first, r = 1, up to the first zero one:
    term r+1 is term r times q (1 - q^r) (1 + zq^(r+t)) / ((1 - q^(r+t+1))
    (1 + zq^(r+1)))."""
    r = 1
    while not term.is_zero():
        yield term
        # q (1 - q^r) lifts the window by one, and nothing reads past the
        # order; cut there, the term is zero after order - 1 steps
        term = qs_mul_finite(term, [(1, _ONE), (r + 1, _MINUS_ONE)]).truncate(order)
        term = qs_pochhammer_ratio(
            term,
            [(QMonomial(-1, 1, r + t), 1)],
            [(QMonomial.q_power(r + t + 1), 1), (QMonomial(-1, 1, r + 1), 1)],
        )
        r += 1


def chain_lines(t: int, target_order: int) -> list[tuple[str, QSeries]]:
    """Each displayed closed form of the derivation, computed on its own.

    The chain starts from the sum over the smallest part r of the
    bounded-gap members (z marking overlined parts), passes through a
    Pochhammer-quotient rewriting, a series with three numerator
    parameters, its transformed partner, a terminating series with two
    numerator parameters, the q-Chu-Vandermonde evaluation of that
    series, and ends at the closed product form.  Consecutive lines are
    equal as series; :func:`verify_identity_chain` checks exactly that.
    """
    if t < 1:
        raise ValueError("the bound t must be positive")
    if target_order < 1:
        raise ValueError("target_order must be positive")
    order = target_order
    q1 = QMonomial.q_power(1)
    neg_zq = QMonomial(-1, 1, 1)
    # q + O(q^order), which is 0 + O(q) at order 1
    q_term = (QSeries.one(order) * q1).truncate(order)
    lines: list[tuple[str, QSeries]] = []

    # 1: members grouped by smallest part r; the r-th summand is
    #    (1+z) q^r prod_{j=1}^{t-1} (1 + z q^{r+j}) / prod_{j=0}^{t} (1 - q^{r+j})
    summands = (
        qs_pochhammer_ratio(
            QSeries.from_terms({r: _ONE_PLUS_Z}, order),
            [(QMonomial(-1, 1, r + 1), t - 1)],
            [(QMonomial.q_power(r), t + 1)],
        )
        for r in range(1, order)
    )
    lines.append(("smallest_part_sum", qs_sum(summands, order)))

    # 2: the same sum with the factors bundled into Pochhammer quotients:
    #    (1+z) sum_{r>=1} q^r (q)_{r-1} (-zq)_{r+t-1} / ((q)_{r+t} (-zq)_r)
    neg_zq_t, den_3 = [(neg_zq, t)], [(q1, t + 1), (neg_zq, 1)]
    first = qs_pochhammer_ratio(q_term, neg_zq_t, den_3)
    total = qs_sum(_quotient_terms(first, t, order), order)
    lines.append(("pochhammer_quotient_sum", total * _ONE_PLUS_Z))

    # 3, 4: (1+z) q (-zq)_t / ((q)_{t+1} (1+zq)), line 2's first term times
    #    (1+z), times each side of the transformation at
    #    (q, q, -zq^{t+1}; -zq^2, q^{t+2}): the series with argument q, and
    #    its terminating partner (q, -zq, q^{1-t}; -zq^2, q^2) with argument
    #    q^{t+1} times (q^{t+1})_inf (q^2)_inf / ((q^{t+2})_inf (q)_inf)
    series_3, transformed = _transform_sides(
        q1, q1, QMonomial(-1, 1, t + 1), QMonomial(-1, 1, 2), QMonomial.q_power(t + 2), order
    )
    # 5, 6: -(-zq)_t / ((q)_t (1-q^t)) times (side - 1) for each side of
    #    q-Chu-Vandermonde at (-z, -zq, t): the terminating series with
    #    numerator (-z, q^{-t}), denominator (-zq), argument q^{t+1}, and
    #    its sum (q)_t / (-zq)_t
    series_5, summed = _chu_sides(QMonomial(-1, 1, 0), neg_zq, t, order)
    den_5 = [(q1, t), (QMonomial.q_power(t), 1)]
    # each prefactor c q^p R runs as kernel passes on its side.  c q^p R is
    #    known to order, so its product with a side on [m, o) is known to
    #    min(order + m, o + p), qs_mul's window: cut the side there less p
    for label, side, p, den, c in (
        ("series_3phi2", series_3, 1, den_3, _ONE_PLUS_Z),
        ("transformed_3phi2", transformed, 1, den_3, _ONE_PLUS_Z),
        ("series_2phi1", series_5 - 1, 0, den_5, _MINUS_ONE),
        ("chu_closed_form", summed - 1, 0, den_5, _MINUS_ONE),
    ):
        cut = side.truncate(min(order + side.min_exp - p, side.order))
        ratio = qs_pochhammer_ratio(cut, neg_zq_t, den)  # keeps the width
        lines.append((label, ratio * c * QMonomial.q_power(p)))  # q^p shifts it

    # 7: the closed product form
    lines.append(("closed_form", bounded_gap_overpartition_gf(t, order, True)))
    return lines


class LineCheck(NamedTuple):
    label: str
    equal_to_previous: bool
    # (q_exp, z_exp, this line's coefficient, the previous line's) at the
    # first coefficient where the two differ
    first_difference: tuple[int, int, int, int] | None = None


class ChainReport(NamedTuple):
    """Pairwise comparison results along the derivation chain."""

    t: int
    order: int
    lines: tuple[LineCheck, ...]
    passed: bool


def compare_lines(t: int, lines: list[tuple[str, QSeries]], order: int) -> ChainReport:
    """Pairwise equality of consecutive chain lines up to ``order``, as
    series in q and z; the first line is vacuously true.  A line that
    differs from the previous one carries the first coefficient where
    they differ.
    """
    checks = [LineCheck(lines[0][0], True)]
    for (_, previous), (label, series) in zip(lines, lines[1:]):
        diff = series.first_difference(previous, order)
        checks.append(LineCheck(label, diff is None, diff))
    passed = all(check.equal_to_previous for check in checks)
    return ChainReport(t, order, tuple(checks), passed)


def verify_identity_chain(t: int, target_order: int) -> ChainReport:
    """Compute the chain at bound t and compare consecutive lines."""
    return compare_lines(t, chain_lines(t, target_order), target_order)
