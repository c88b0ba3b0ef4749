"""Terminating and convergent basic hypergeometric series, evaluated exactly.

A series spec holds monomial parameters (a_1, ..., a_{r+1}; b_1, ..., b_s)
and a monomial argument w; the value is

    sum_{n >= 0} [prod_i (a_i; q)_n / ((q; q)_n prod_j (b_j; q)_n)]
                 * ((-1)^n q^(n(n-1)/2))^(s - r) * w^n.

Evaluation walks the terms with exact ratio updates: each step is one
call to :func:`~overgap.qseries.qs_pochhammer_ratio`, which multiplies
by the new numerator factors (1 - a q^(n-1)) and divides out the new
denominator factors, so every term is a window-true
:class:`~overgap.qseries.QSeries` and the partial sum is exact to the
requested order.  Each term is kept past the order only as far as the
lowest window of the terms after it falls below its own, so no pass
computes a coefficient that no later term reads, and the walk stops at
the first term that is zero on its window.  A parameter shared by
numerator and denominator (q included, for the (q; q)_n factor)
contributes the same factor to both and is skipped.  A numerator
parameter q^(-k) (sign +1, no z) terminates the series after k + 1
terms; without one, the argument must carry a positive q-exponent so
that later terms fall below the order.

The module also packages three verification routines: the classical
q-Chu-Vandermonde summation, a three-parameter series transformation,
and a chain of displayed forms connecting the smallest-part expansion of
the bounded-gap generating function to its closed form.  Chain lines 3-4
are the two sides of the transformation at (q, q, -zq^(t+1); -zq^2,
q^(t+2)) and lines 5-6 the two sides of q-Chu-Vandermonde at (-z, -zq,
t), each times its prefactor; the chain and the two checks compute those
sides with the same code.  Chain line 2 walks its running term by the
same rule: no later term reads it past the order.  Every Pochhammer
quotient, finite or infinite, is divided out in place by the same
kernel; no general inverse is taken.  Each prefactor of lines 3-6 is
c q^p times a Pochhammer quotient, applied to each side by kernel passes:
the side is cut to the window a general product with the prefactor would
have, the kernel divides the quotient in, and c q^p scales and shifts the
result.  So no prefactor series is built, and the one general product in
the chain is the transformation's own infinite-product prefactor.  Chain
line 7, the closed form, is the one line built apart from that kernel
(from z-columns, in :func:`qseries.bounded_gap_overpartition_gf`), so the
last link of the chain checks the kernel against another method.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .qseries import (
    QMonomial,
    QSeries,
    ZLaurentPoly,
    bounded_gap_overpartition_gf,
    pochhammer_infinite,
    pochhammer_min_exp,
    qs_mul,
    qs_mul_finite,
    qs_pochhammer_ratio,
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


@dataclass(frozen=True)
class HypergeometricSpec:
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


def _term_reach(spec: HypergeometricSpec, terms: int) -> list[int]:
    """How far past the order each term is kept.  Term n's window moves
    from term n-1's by its numerator factors' negative q-exponents, the
    argument's and (n-1) times the exponent shift; the terms after n read
    it only as far as the lowest of their windows falls below its own."""
    steps = (
        sum(min(0, p.q_exp + n - 1) for p in spec.numerator)
        + spec.argument.q_exp
        + (n - 1) * spec.exponent_shift
        for n in range(1, terms)
    )
    drifts = list(accumulate(steps, initial=0))
    lows = list(accumulate(reversed(drifts), min))[::-1]
    return [drift - low for drift, low in zip(drifts, lows)]


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
    reach = _term_reach(spec, terms)
    term = QSeries.one(max(1, target_order + reach[0]))
    shift = spec.exponent_shift
    arg = spec.argument
    total = term.truncate(target_order)
    # term n gains a factor (1 - p q^(n-1)) for each numerator parameter p
    # and loses one for each denominator parameter, q included for (q; q)_n;
    # a parameter on both sides cancels for every n.  Denominator factors
    # keep the window, so skipping a pair leaves every term unchanged.
    numerator = list(spec.numerator)
    denominator = [QMonomial.q_power(1), *spec.denominator]
    for param in spec.numerator:
        if param in denominator:
            numerator.remove(param)
            denominator.remove(param)
    for n in range(1, terms):
        lift = QMonomial.q_power(n - 1)
        term = qs_pochhammer_ratio(
            term,
            [(p * lift, 1) for p in numerator],
            [(p * lift, 1) for p in denominator],
        )
        term = term * (arg * QMonomial(-1 if shift % 2 else 1, 0, (n - 1) * shift))
        if term.order < target_order + reach[n]:
            raise AssertionError("hypergeometric window accounting failed")
        term = term.truncate(target_order + reach[n])
        if term.is_zero():
            break
        total = total + term
    return total


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
    start = QSeries.one(target_order - pochhammer_min_exp(c / a, n))
    rhs = qs_pochhammer_ratio(start, [(c / a, n)], [(c, n)])
    return lhs, rhs


def check_q_chu_vandermonde(
    a: QMonomial, c: QMonomial, n: int, target_order: int
) -> bool:
    """The q-Chu-Vandermonde summation, both sides computed independently.

    The terminating series with numerator parameters (a, q^(-n)),
    denominator parameter c and argument c q^n / a must equal
    (c/a; q)_n / (c; q)_n to the requested order.
    """
    lhs, rhs = _chu_sides(a, c, n, target_order)
    return lhs.eq_up_to(rhs, target_order)


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
    prefactor = qs_mul(
        pochhammer_infinite(e / a, width),
        pochhammer_infinite((d * e) / (b * c), width),
    )
    # divide out each (p; q)_inf one factor at a time, below the window
    prefactor = qs_pochhammer_ratio(
        prefactor, (), [(e, width), ((d * e) / (a * b * c), width)]
    )
    return lhs, qs_mul(prefactor, series)


def check_3phi2_transform(
    a: QMonomial,
    b: QMonomial,
    c: QMonomial,
    d: QMonomial,
    e: QMonomial,
    target_order: int,
) -> bool:
    """A transformation between two series with three numerator parameters.

    The series with parameters (a, b, c; d, e) and argument de/(abc) must
    equal the series with parameters (a, d/b, d/c; d, de/(bc)) and
    argument e/a, multiplied by the infinite-product prefactor
    (e/a)_inf (de/(bc))_inf / ((e)_inf (de/(abc))_inf).
    """
    lhs, rhs = _transform_sides(a, b, c, d, e, target_order)
    return lhs.eq_up_to(rhs, target_order)


# -- the derivation chain ----------------------------------------------------


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
    acc = QSeries.zero(order)
    for r in range(1, order):
        summand = QSeries.from_terms({r: _ONE_PLUS_Z}, order)
        acc = acc + qs_pochhammer_ratio(
            summand, [(QMonomial(-1, 1, r + 1), t - 1)], [(QMonomial.q_power(r), t + 1)]
        )
    lines.append(("smallest_part_sum", acc))

    # 2: the same sum with the factors bundled into Pochhammer quotients:
    #    (1+z) sum_{r>=1} q^r (q)_{r-1} (-zq)_{r+t-1} / ((q)_{r+t} (-zq)_r)
    neg_zq_t, den_3 = [(neg_zq, t)], [(q1, t + 1), (neg_zq, 1)]
    term = qs_pochhammer_ratio(q_term, neg_zq_t, den_3)
    total = QSeries.zero(order)
    r = 1
    while not term.is_zero():
        total = total + term
        # q (1 - q^r) lifts the window by one, and nothing reads past the
        # order; cut there, the term is zero after order - 1 steps
        term = qs_mul_finite(term, [(1, _ONE), (r + 1, _MINUS_ONE)]).truncate(order)
        term = qs_pochhammer_ratio(
            term,
            [(QMonomial(-1, 1, r + t), 1)],
            [(QMonomial.q_power(r + t + 1), 1), (QMonomial(-1, 1, r + 1), 1)],
        )
        r += 1
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

    def to_json_dict(self) -> dict:
        entry = {"label": self.label, "equal_to_previous": self.equal_to_previous}
        if self.first_difference is not None:
            q_exp, z_exp, value, previous = self.first_difference
            entry["first_difference"] = {
                "q": q_exp, "z": z_exp, "line": str(value), "previous": str(previous)
            }
        return entry


@dataclass(frozen=True)
class ChainReport:
    """Pairwise comparison results along the derivation chain."""

    t: int
    order: int
    z_mode: str
    lines: tuple[LineCheck, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "order": self.order,
            "lines": [line.to_json_dict() for line in self.lines],
            "pass": self.passed,
        }


_Z_MODES = ("tracked", "zero", "one")


def compare_lines(
    t: int, lines: list[tuple[str, QSeries]], order: int, z_mode: str = "tracked"
) -> ChainReport:
    """Pairwise equality of consecutive chain lines up to ``order``.

    With ``z_mode`` "zero" or "one" the marking variable is specialised
    in every line before comparing; the first line is vacuously true.  A
    line that differs from the previous one carries the first coefficient
    where they differ.
    """
    if z_mode not in _Z_MODES:
        raise ValueError(f"z_mode must be one of {_Z_MODES}")
    if z_mode == "tracked":
        values = [series for _, series in lines]
    else:
        z_value = 0 if z_mode == "zero" else 1
        values = [series.subs_z(z_value) for _, series in lines]
    checks = [LineCheck(lines[0][0], True)]
    for i in range(1, len(lines)):
        diff = values[i].first_difference(values[i - 1], order)
        checks.append(LineCheck(lines[i][0], diff is None, diff))
    passed = all(check.equal_to_previous for check in checks)
    return ChainReport(t, order, z_mode, tuple(checks), passed)


def verify_identity_chain(
    t: int, target_order: int, z_mode: str = "tracked"
) -> ChainReport:
    """Compute the chain at bound t and compare consecutive lines."""
    return compare_lines(t, chain_lines(t, target_order), target_order, z_mode)
