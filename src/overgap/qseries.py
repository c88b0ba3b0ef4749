"""Exact truncated series arithmetic over the ring Z[z, z^-1][[q]][q^-1].

A :class:`QSeries` tracks, for every q-exponent in a half-open window
``[min_exp, order)``, a coefficient that is a Laurent polynomial in a
marking variable z with arbitrary-precision integer coefficients.  Below
``min_exp`` the series is identically zero; at ``order`` and above nothing
is claimed.  All operations are exact and propagate the tightest window
the operands justify, so "equal up to order N" is always a statement
about coefficients that are actually known.

Every merge of z-term maps, in sums, differences, polynomial and series
products and the kernel's Pochhammer passes alike, goes through one
loop, ``_add_into``, which adds a scaled, z-shifted term map into a row
in place and drops the coefficients that cancel.  :func:`qs_sum`
streams any number of series into one row dict per q-exponent through
it, so a running sum copies no row and keeps no term; the sums of
``hyper``'s chain lines 1 and 2 are each one such call, and ``+`` and
``-`` on series are ``qs_sum`` of two terms.

Every Pochhammer product and quotient runs through one kernel,
:func:`qs_pochhammer_ratio`: it multiplies by some (b; q)_n and divides
by some (c; q)_m, copying the rows once and making one in-place pass
over them per factor ``(1 - a*q^k)``, which adds a shifted, signed row
into each row.  :func:`pochhammer` is a single call into it.  A factor
whose q-exponent reaches the window's width changes nothing and is
skipped: the cost follows the window, not the length of the product.
A factor that a numerator and a denominator family share (same sign,
z-exponent and q-exponent) cancels before any pass, so a quotient of
infinite products costs what its telescoped form does:
(a; q)_inf / (a*q^k; q)_inf is the k passes of (a; q)_k.
:class:`ZColumns` makes the same passes on a working buffer of dense
integer z-columns, one list of ints per z-exponent over the window, so
a factor (1 - a*q^k) is one slice pass per column and merges no row.
Converting rows to columns and back costs more than the passes of a
typical kernel call, so the buffer pays only over a walk of many passes
on one series: ``hyper.eval_phi`` keeps its tail in one buffer from the
last term to the first.
The bounded-gap closed forms are the one Pochhammer quotient built
apart from that kernel: the finite q-binomial theorem splits
(-zq; q)_t / (q; q)_t into z^k columns, each a dense list of integers
over the window, and every factor (1 - q^s) is one slice pass over a
column; columns past z^(t/2) are earlier ones shifted, and one z-free
column stands for their sum.  :func:`bounded_gap_columns` returns them
as a :class:`ZColumns` buffer, which the CLI's ``table`` turns into
text column by column; :func:`bounded_gap_overpartition_gf` and
:func:`bounded_gap_partition_gf` turn it into rows through
:meth:`ZColumns.to_series`, the conversion the column walk ends with.
Neither :func:`qs_pochhammer_ratio` nor
:meth:`ZColumns.pochhammer_ratio` runs a pass on the columns, so the
closed forms are a method independent of the kernels that the
hypergeometric chain runs on.
Every other product runs through one kernel, :func:`qs_mul`, a
schoolbook product over the sparse rows: each pair of nonzero rows that
lands in the window merges its product into one output row through
``_mul_into``, the loop a ``ZLaurentPoly`` product runs, so its cost is
the number of z-term pairs merged.  :func:`qs_mul_finite` and
:func:`qs_invert` (Newton's iteration) are thin wrappers over it.  Its
library callers, and why each stays:

- ``hyper._transform_sides``, one call: the transformation's
  infinite-product prefactor times its partner series; the prefactor is
  one kernel call on all four infinite families, whose shared factors
  cancel;
- :func:`qs_mul_finite`, chain line 2's step (the benchmark's tests
  count its product pairs);
- :func:`qs_invert`, as ACCEPT-12 checks inversion;
- ``QSeries.__mul__``, the product of two series.
Multiplying by a :class:`QMonomial` is a shift of the window, and of the
z-exponents when the monomial has a z part; no product runs.
A name the CLI never reaches is deleted unless the acceptance checks or
the value types' contract need it.  ACCEPT-07 and ACCEPT-12 call
:func:`qs_add` and :func:`qs_invert`, which uses
:class:`NonUnitLeadingCoefficient`, ``is_unit_monomial`` and
``QSeries.__rsub__``; ACCEPT-03 calls :func:`bounded_gap_partition_gf`,
Breuer-Kronholm's z = 0 case; ``hyper.eval_phi`` reaches
``ZColumns._flipped``; ``eq_up_to``, ``coeff``, ``zq_coeff``,
``enumerate_terms``, the operators and string forms are the contract.

Instances of :class:`ZLaurentPoly`, :class:`QMonomial` and
:class:`QSeries` are immutable values; every operation returns a fresh
object.  A :class:`ZColumns` is a working buffer, changed in place by
each of its methods, that reads a series in and writes one out.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress
from operator import add, neg, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "QSeriesError",
    "NonUnitLeadingCoefficient",
    "DivergentProduct",
    "InsufficientOrder",
    "ZLaurentPoly",
    "QMonomial",
    "QSeries",
    "qs_add",
    "qs_sum",
    "qs_mul",
    "qs_invert",
    "qs_mul_finite",
    "pochhammer",
    "qs_pochhammer_ratio",
    "ZColumns",
    "bounded_gap_columns",
    "bounded_gap_overpartition_gf",
    "bounded_gap_partition_gf",
]


class QSeriesError(ValueError):
    """Base class for exact series arithmetic errors."""


class NonUnitLeadingCoefficient(QSeriesError):
    """Inversion requires a leading coefficient of the form +-z^i."""


class DivergentProduct(QSeriesError):
    """Dividing by (c; q)_m needs factors of the form 1 - c*q^k with c.q_exp >= 1."""


class InsufficientOrder(QSeriesError):
    """An operand does not know its coefficients far enough for the request."""


def _add_into(out: dict[int, int], terms: Mapping[int, int], z_shift: int, scale: int) -> None:
    """out += scale * z^z_shift * terms, in place, for a nonzero ``scale``.

    The one loop that merges z-term maps: a sum that cancels is deleted,
    so ``out`` keeps no zero coefficient when it started with none.
    """
    for exp, coeff in terms.items():
        key = exp + z_shift
        total = out.get(key, 0) + scale * coeff
        if total:
            out[key] = total
        else:
            del out[key]


def _mul_into(out: dict[int, int], terms_a: Mapping[int, int], terms_b: Mapping[int, int]) -> None:
    """out += terms_a * terms_b in place, the one product loop: one
    :func:`_add_into` of the larger map per term of the smaller one."""
    if len(terms_a) > len(terms_b):
        terms_a, terms_b = terms_b, terms_a
    for exp, coeff in terms_a.items():
        _add_into(out, terms_b, exp, coeff)


class ZLaurentPoly:
    """Laurent polynomial in z over the integers, stored sparsely.

    The term map never contains zero coefficients, so structural equality
    coincides with mathematical equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        kept = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    kept[int(exp)] = int(coeff)
        self._terms = kept

    @classmethod
    def _make(cls, terms: dict[int, int]) -> "ZLaurentPoly":
        # trusted constructor: caller guarantees no zero values
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "ZLaurentPoly":
        return cls._make({})

    @classmethod
    def one(cls) -> "ZLaurentPoly":
        return cls._make({0: 1})

    @classmethod
    def const(cls, value: int) -> "ZLaurentPoly":
        return cls._make({0: int(value)} if value else {})

    @classmethod
    def monomial(cls, coeff: int, z_exp: int) -> "ZLaurentPoly":
        return cls._make({int(z_exp): int(coeff)} if coeff else {})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self):
        """Term view as (z_exp, coeff) pairs.  Treat as read-only."""
        return self._terms.items()

    def coefficient(self, z_exp: int) -> int:
        return self._terms.get(z_exp, 0)

    def is_unit_monomial(self) -> bool:
        """True when the polynomial is a single term with coefficient +-1."""
        if len(self._terms) != 1:
            return False
        return abs(next(iter(self._terms.values()))) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, ZLaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def _plus(self, other, scale: int) -> "ZLaurentPoly":
        """self + scale * other, for an int or polynomial ``other``."""
        if isinstance(other, int):
            other = ZLaurentPoly.const(other)
        elif not isinstance(other, ZLaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        _add_into(out, other._terms, 0, scale)
        return ZLaurentPoly._make(out)

    def __add__(self, other) -> "ZLaurentPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ZLaurentPoly":
        return ZLaurentPoly._make({exp: -coeff for exp, coeff in self._terms.items()})

    def __sub__(self, other) -> "ZLaurentPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "ZLaurentPoly":
        return (-self)._plus(other, 1)

    def __mul__(self, other) -> "ZLaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZLaurentPoly.zero()
            return ZLaurentPoly._make(
                {exp: coeff * other for exp, coeff in self._terms.items()}
            )
        if not isinstance(other, ZLaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        _mul_into(out, self._terms, other._terms)
        return ZLaurentPoly._make(out)

    __rmul__ = __mul__

    def specialize(self, z_value: int) -> int:
        """Evaluate at an integer z.  z=0 requires no negative exponents."""
        if z_value == 0:
            if any(exp < 0 for exp in self._terms):
                raise ValueError("pole at z=0: negative z-exponent present")
            return self._terms.get(0, 0)
        if z_value == 1:
            return sum(self._terms.values())
        if z_value == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self._terms.items())
        if any(exp < 0 for exp in self._terms):
            raise ValueError("negative z-exponent needs z in {0, 1, -1}")
        return sum(coeff * z_value**exp for exp, coeff in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for exp, coeff in sorted(self._terms.items(), reverse=True):
            if exp == 0:
                body = str(abs(coeff))
            else:
                mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
                power = "z" if exp == 1 else f"z^{exp}"
                body = mag + power
            bits.append(("- " if coeff < 0 else "+ ") + body)
        head = bits[0].replace("+ ", "", 1).replace("- ", "-", 1)
        return " ".join([head] + bits[1:])

    def __repr__(self) -> str:
        return f"ZLaurentPoly({self._terms!r})"


_Z_ZERO = ZLaurentPoly.zero()
_Z_ONE = ZLaurentPoly.one()


class QMonomial(NamedTuple("QMonomial", [("sign", int), ("z_exp", int), ("q_exp", int)])):
    """A signed monomial sign * z^z_exp * q^q_exp with sign in {+1, -1}.

    Closed under multiplication and division, which is what makes the
    parameter algebra of Pochhammer symbols and hypergeometric series
    exactly representable.
    """

    __slots__ = ()

    def __new__(cls, sign: int, z_exp: int, q_exp: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, sign, z_exp, q_exp)

    @classmethod
    def _make(cls, iterable) -> "QMonomial":  # _replace calls it: keep the check
        return cls(*iterable)

    @classmethod
    def q_power(cls, q_exp: int) -> "QMonomial":
        return cls(1, 0, q_exp)

    def __mul__(self, other: "QMonomial") -> "QMonomial":
        if not isinstance(other, QMonomial):
            return NotImplemented
        return QMonomial(
            self.sign * other.sign, self.z_exp + other.z_exp, self.q_exp + other.q_exp
        )

    def __truediv__(self, other: "QMonomial") -> "QMonomial":
        if not isinstance(other, QMonomial):
            return NotImplemented
        return QMonomial(
            self.sign * other.sign, self.z_exp - other.z_exp, self.q_exp - other.q_exp
        )

    def __str__(self) -> str:
        body = []
        if self.z_exp:
            body.append("z" if self.z_exp == 1 else f"z^{self.z_exp}")
        if self.q_exp:
            body.append("q" if self.q_exp == 1 else f"q^{self.q_exp}")
        text = "*".join(body) if body else "1"
        return ("-" if self.sign < 0 else "") + text


class QSeries:
    """Truncated Laurent series in q with :class:`ZLaurentPoly` coefficients.

    ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``.  The series
    is exactly zero below ``min_exp`` and unknown at ``order`` and above.
    Stored coefficients are normalised: no leading or trailing zero
    entries, and the zero series has ``min_exp == order``.
    """

    __slots__ = ("min_exp", "order", "coeffs")

    def __init__(self, min_exp: int, coeffs: Iterable[ZLaurentPoly], order: int):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            min_exp += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            min_exp = order
        elif min_exp + len(coeffs) > order:
            raise ValueError("coefficients extend past the stated order")
        self.min_exp = min_exp
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def _make(cls, min_exp: int, coeffs: tuple[ZLaurentPoly, ...], order: int) -> "QSeries":
        # trusted constructor: caller guarantees normalised coefficients
        series = object.__new__(cls)
        series.min_exp = min_exp
        series.order = order
        series.coeffs = coeffs
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.from_terms({0: _Z_ONE}, order)

    @classmethod
    def from_terms(cls, terms: Mapping[int, ZLaurentPoly | int], order: int) -> "QSeries":
        """Build from a {q_exp: coefficient} map of exactly known terms."""
        cleaned = {}
        for exp, coeff in terms.items():
            if isinstance(coeff, int):
                coeff = ZLaurentPoly.const(coeff)
            if exp >= order:
                raise ValueError(f"term q^{exp} is at or past order {order}")
            if not coeff.is_zero():
                cleaned[exp] = coeff
        if not cleaned:
            return cls.zero(order)
        lo = min(cleaned)
        width = max(cleaned) - lo + 1
        row = [_Z_ZERO] * width
        for exp, coeff in cleaned.items():
            row[exp - lo] = coeff
        # the end rows are nonzero and every exponent is below the order
        return cls._make(lo, tuple(row), order)

    # -- access ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, q_exp: int) -> ZLaurentPoly:
        """Coefficient of q**q_exp.  Raises past the truncation order."""
        if q_exp >= self.order:
            raise InsufficientOrder(
                f"coefficient of q^{q_exp} unknown: series truncated at {self.order}"
            )
        idx = q_exp - self.min_exp
        if idx < 0 or idx >= len(self.coeffs):
            return _Z_ZERO
        return self.coeffs[idx]

    def zq_coeff(self, q_exp: int, z_exp: int) -> int:
        """Integer coefficient of z**z_exp * q**q_exp."""
        return self.coeff(q_exp).coefficient(z_exp)

    def enumerate_terms(self) -> Iterator[tuple[int, ZLaurentPoly]]:
        base = self.min_exp
        for i, coeff in enumerate(self.coeffs):
            if coeff:
                yield base + i, coeff

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.min_exp == other.min_exp
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def first_difference(
        self, other: "QSeries", order: int
    ) -> tuple[int, int, int, int] | None:
        """The first coefficient below ``order`` where the series differ.

        Returns ``(q_exp, z_exp, lhs, rhs)`` for the lowest q-exponent that
        differs and, within it, the lowest z-exponent, with ``lhs`` from
        this series and ``rhs`` from ``other``; None when they agree.  Both
        operands must know their coefficients that far out.
        """
        if self.order < order or other.order < order:
            raise InsufficientOrder(
                f"comparison to order {order} exceeds operand orders "
                f"{self.order} and {other.order}"
            )
        a = self.truncate(order)
        b = other.truncate(order)
        if a.min_exp == b.min_exp and a.coeffs == b.coeffs:
            return None
        for q_exp in range(min(a.min_exp, b.min_exp), order):
            lhs, rhs = a.coeff(q_exp), b.coeff(q_exp)
            if lhs != rhs:
                z_exp = min(
                    z for z in {*lhs._terms, *rhs._terms}
                    if lhs.coefficient(z) != rhs.coefficient(z)
                )
                return q_exp, z_exp, lhs.coefficient(z_exp), rhs.coefficient(z_exp)
        raise AssertionError("normalised series differ but no coefficient does")

    def eq_up_to(self, other: "QSeries", order: int) -> bool:
        """Compare all coefficients of q-exponent below ``order``.

        Both operands must know their coefficients that far out.
        """
        return self.first_difference(other, order) is None

    def truncate(self, order: int) -> "QSeries":
        """Forget coefficients at or past ``order``.  Never widens."""
        if order > self.order:
            raise InsufficientOrder(
                f"cannot widen a series of order {self.order} to {order}"
            )
        keep = max(0, min(len(self.coeffs), order - self.min_exp))
        return QSeries(self.min_exp, self.coeffs[:keep], order)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "QSeries | None":
        if isinstance(other, QSeries):
            return other
        if isinstance(other, int):
            other = ZLaurentPoly.const(other)
        if isinstance(other, ZLaurentPoly):
            # exact constants do not narrow the window; past it they vanish
            if self.order <= 0:
                return QSeries.zero(self.order)
            return QSeries.from_terms({0: other}, self.order)
        return None

    def __add__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return qs_sum((self, rhs), min(self.order, rhs.order))

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.min_exp, [-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + -rhs

    def __rsub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + -self

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, int):
            other = ZLaurentPoly.const(other)
        if isinstance(other, ZLaurentPoly):
            if other.is_zero():
                return QSeries.zero(self.order)
            return QSeries(
                self.min_exp, [c * other for c in self.coeffs], self.order
            )
        if isinstance(other, QMonomial):
            return self._times_monomial(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return qs_mul(self, other)

    __rmul__ = __mul__

    def _times_monomial(self, mono: QMonomial) -> "QSeries":
        """Multiply by a monomial: a shift of the window, and of each row's
        z-exponents and sign when the monomial has them."""
        coeffs = self.coeffs
        if mono.sign != 1 or mono.z_exp:
            z_shift, sign = mono.z_exp, mono.sign
            coeffs = tuple(
                ZLaurentPoly._make({z + z_shift: sign * c for z, c in row._terms.items()})
                for row in coeffs
            )
        return QSeries._make(self.min_exp + mono.q_exp, coeffs, self.order + mono.q_exp)

    def subs_z(self, z_value: int) -> "QSeries":
        """Specialise the marking variable, keeping the same window."""
        return QSeries(
            self.min_exp,
            [ZLaurentPoly.const(c.specialize(z_value)) for c in self.coeffs],
            self.order,
        )

    def __str__(self) -> str:
        if self.is_zero():
            return f"0 + O(q^{self.order})"
        text = ""
        for exp, coeff in self.enumerate_terms():
            inner = str(coeff) if len(coeff._terms) == 1 else f"({coeff})"
            sign, inner = (" - ", inner[1:]) if inner[0] == "-" else (" + ", inner)
            if exp:
                power = "q" if exp == 1 else f"q^{exp}"
                inner = power if inner == "1" else f"{inner}*{power}"
            text += sign + inner
        lead = "-" if text.startswith(" - ") else ""
        return lead + text[3:] + f" + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"QSeries(min_exp={self.min_exp}, order={self.order}, <{len(self.coeffs)} coeffs>)"


# -- ring operations -------------------------------------------------------


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficientwise sum on the intersection of the known windows."""
    return a + b


def qs_sum(terms: Iterable[QSeries], order: int) -> QSeries:
    """The sum of ``terms``, each known at least to ``order``, on the window
    [lowest min_exp, order); rows of a term at or past ``order`` are
    dropped, so the result's order is exactly ``order``.  Series ``+`` and
    ``-`` call it with two terms and the smaller of their orders.

    The terms are streamed: a row that one term alone holds is kept as
    that term's coefficient; a row that a second term lands on is copied
    once, and that term and every later one on it merge into the copy
    through :func:`_add_into`, in place.  :meth:`QSeries.from_terms` lays
    the rows out at the end, so no term is kept and no operand changes.
    """
    rows: dict[int, ZLaurentPoly] = {}
    merged: dict[int, dict[int, int]] = {}
    for term in terms:
        if term.order < order:
            raise InsufficientOrder(
                f"a term known to order {term.order} cannot be summed to order {order}"
            )
        for exp, coeff in zip(range(term.min_exp, order), term.coeffs):
            if not coeff._terms:
                continue
            first = rows.get(exp)
            if first is None:
                rows[exp] = coeff
            else:
                row = merged.get(exp)
                if row is None:
                    row = merged[exp] = dict(first._terms)
                _add_into(row, coeff._terms, 0, 1)
    rows.update((exp, ZLaurentPoly._make(row)) for exp, row in merged.items())
    return QSeries.from_terms(rows, order)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product.

    With windows [m1, o1) and [m2, o2) the product is exactly known on
    [m1 + m2, min(o1 + m2, o2 + m1)): any contribution involving an
    unknown coefficient of one factor pairs with a known zero of the
    other below that bound.

    Computed row by row: each pair of nonzero rows (i, j) with i + j inside
    the window merges its product into row i + j through :func:`_mul_into`,
    the loop ``ZLaurentPoly`` products run.  Rows that cannot reach the
    window are never read.
    """
    lo = a.min_exp + b.min_exp
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    width = order - lo
    if width <= 0 or a.is_zero() or b.is_zero():
        return QSeries.zero(order)
    rows: list[dict[int, int]] = [{} for _ in range(width)]
    rows_b = [(j, row._terms) for j, row in enumerate(b.coeffs[:width]) if row._terms]
    for i, row_a in enumerate(a.coeffs[:width]):
        if row_a._terms:
            for j, terms_b in rows_b:
                if i + j >= width:
                    break
                _mul_into(rows[i + j], row_a._terms, terms_b)
    return QSeries(lo, [ZLaurentPoly._make(r) for r in rows], order)


def qs_mul_finite(a: QSeries, factor: Iterable[tuple[int, ZLaurentPoly]]) -> QSeries:
    """Multiply by a finite, exactly known q-polynomial.

    The factor is given as (q_exp, coefficient) pairs; repeated exponents
    are summed.  Because every factor coefficient is known, the result
    window has the same width as the input window, shifted by the lowest
    exponent of a nonzero pair.
    """
    pairs = [(exp, coeff) for exp, coeff in factor if coeff]
    shift = min((exp for exp, _ in pairs), default=0)
    # the factor read to this order leaves qs_mul the window [.., a.order + shift)
    top = a.order - a.min_exp + shift
    terms: dict[int, ZLaurentPoly] = {}
    for exp, coeff in pairs:
        if exp < top:
            terms[exp] = terms[exp] + coeff if exp in terms else coeff
    return qs_mul(a, QSeries.from_terms(terms, top))


def qs_invert(a: QSeries, target_order: int) -> QSeries:
    """Multiplicative inverse b with qs_mul(a, b) == 1 up to target_order.

    Requires the leading coefficient of ``a`` to be a single signed power
    of z, and ``a`` to be known for ``target_order`` exponents past its
    leading one.  The result starts at q^(-val), val the leading exponent
    of ``a``, and is known for ``target_order`` exponents.

    Newton's iteration b <- b + b (1 - a b) doubles the number of correct
    coefficients per step, each step two calls to :func:`qs_mul`.
    """
    if target_order < 0:
        raise InsufficientOrder(
            f"cannot invert to a negative relative order ({target_order})"
        )
    if a.is_zero():
        raise NonUnitLeadingCoefficient("the zero series has no inverse")
    lead = a.coeffs[0]
    if not lead.is_unit_monomial():
        raise NonUnitLeadingCoefficient(
            f"leading coefficient {lead} is not a signed power of z"
        )
    val = a.min_exp
    if a.order - val < target_order:
        raise InsufficientOrder(
            f"inverting to relative order {target_order} needs the input known "
            f"on a window of width {target_order}, have {a.order - val}"
        )
    if target_order == 0:
        return QSeries.zero(-val)
    lead_exp, lead_sign = next(iter(lead._terms.items()))
    # scale = 1 / (lead q^val), so unit = a * scale is 1 + O(q)
    scale = QMonomial(lead_sign, -lead_exp, -val)
    unit = a * scale
    inverse = QSeries.one(1)
    known = 1
    while known < target_order:
        known = min(2 * known, target_order)
        # the current inverse is a polynomial: read it exactly to the new order
        guess = QSeries._make(0, inverse.coeffs, known)
        error = 1 - qs_mul(unit.truncate(known), guess)
        inverse = guess + qs_mul(guess, error)
    return inverse * scale


# -- Pochhammer symbols ----------------------------------------------------


def _factors(
    families: Sequence[tuple[QMonomial, int]], width: int, lift: int = 0
) -> tuple[list[tuple[int, int, int]], QMonomial | None]:
    """The factors (1 - b*q^s) of the families (b q^lift; q)_n, as
    (sign, z_exp, s) in family order, and their window shift, None when
    no s is negative.  As b = +-1, a factor with s < 0 is
    -b*z^j*q^s * (1 - b*z^-j*q^-s): it is listed as (sign, -j, -s), and
    its monomial multiplies into the shift.  A factor whose listed s
    reaches the window's width changes nothing there and is left out."""
    factors = [
        (b.sign, b.z_exp, s) if s >= 0 else (b.sign, -b.z_exp, -s)
        for b, n in families
        for s in range(max(b.q_exp + lift, 1 - width), min(b.q_exp + lift + n, width))
    ]
    sign, z_exp, q_exp = 1, 0, 0
    for b, n in families:
        low = b.q_exp + lift
        if low < 0 < n:
            turned = min(n, -low)  # s = low, ..., low + turned - 1 are negative
            sign *= (-b.sign) ** turned
            z_exp += b.z_exp * turned
            q_exp += (2 * low + turned - 1) * turned // 2
    return factors, QMonomial(sign, z_exp, q_exp) if q_exp else None


def _without(factors: list[tuple[int, int, int]], drop: Counter) -> list[tuple[int, int, int]]:
    """The factors, in order, with ``drop``'s counts of them taken out from
    the first on."""
    kept = []
    for key in factors:
        if drop[key]:
            drop[key] -= 1
        else:
            kept.append(key)
    return kept


def _check_convergent(den: Sequence[tuple[QMonomial, int]], lift: int = 0) -> None:
    """Refuse a denominator family (c q^lift; q)_m, m > 0, whose
    q-exponent is below 1: dividing by it diverges."""
    for c, m in den:
        if m > 0 and c.q_exp + lift < 1:
            c = QMonomial(c.sign, c.z_exp, c.q_exp + lift)
            raise DivergentProduct(
                f"cannot divide by ({c}; q)_{m}: its q-exponent {c.q_exp} is below 1"
            )


def qs_pochhammer_ratio(
    a: QSeries,
    num: Sequence[tuple[QMonomial, int]],
    den: Sequence[tuple[QMonomial, int]],
) -> QSeries:
    """Multiply by (b; q)_n for each (b, n) in ``num`` and divide by
    (c; q)_m for each (c, m) in ``den``, which needs every c.q_exp >= 1.

    :func:`_factors` turns the factors with a negative q-exponent into
    one window shift, applied last, and skips those past the window.  A
    factor (1 - b*q^s) that a numerator and a denominator family share
    (same sign, z-exponent and s) cancels before any pass, so
    (a; q)_inf / (a*q^k; q)_inf costs the k passes of (a; q)_k.  With no
    factor left and no shift, ``a`` is returned.

    The rows are copied once and every factor left is one in-place pass
    over them on ``a``'s window, in family order: a product pass adds
    -b * row (e - s) into row e, downward (from a snapshot for s = 0),
    then a quotient pass adds c * row (e - s), already divided, upward.
    """
    _check_convergent(den)
    width = a.order - a.min_exp
    (num, shift), (den, _) = _factors(num, width), _factors(den, width)
    if not set(num).isdisjoint(den):
        shared = Counter(num) & Counter(den)
        num, den = _without(num, shared.copy()), _without(den, shared)
    if num or den:
        rows = [dict(row._terms) for row in a.coeffs]
        rows += [{} for _ in range(width - len(rows))]
        for sign, z_shift, s in num:
            sign = -sign
            for i in range(width - 1, s - 1, -1):
                src = rows[i - s]
                if src:
                    _add_into(rows[i], dict(src) if s == 0 else src, z_shift, sign)
        for sign, z_shift, s in den:
            for i in range(s, width):
                src = rows[i - s]
                if src:
                    _add_into(rows[i], src, z_shift, sign)
        a = QSeries(a.min_exp, [ZLaurentPoly._make(r) for r in rows], a.order)
    return a._times_monomial(shift) if shift else a


def pochhammer(a: QMonomial, n: int, target_order: int) -> QSeries:
    """The finite product (a; q)_n = prod_{k=0}^{n-1} (1 - a*q^k).

    Exact up to ``target_order`` even when ``a`` has a negative
    q-exponent: the product then starts at :func:`_factors`' window shift,
    and on a window that ends at or below that it is the zero series.
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    shift = _factors([(a, n)], 0)[1]
    low = shift.q_exp if shift else 0
    if target_order <= low:
        return QSeries.zero(target_order)
    return qs_pochhammer_ratio(QSeries.one(target_order - low), [(a, n)], ())


# -- dense z-columns -------------------------------------------------------


def _times_one_minus(col: list[int], s: int) -> None:
    """col *= (1 - q^s) in place, for s >= 1, on the window of len(col)."""
    if s < len(col):
        col[s:] = map(sub, col[s:], col[:-s])


def _over_one_minus(col: list[int], s: int) -> None:
    """col /= (1 - q^s) in place, for s >= 1: col[e] += col[e - s], upward.

    Each residue class mod s is a running sum when the classes are long
    (s^2 <= len(col)); otherwise each block of s entries adds the block
    below it, already divided.
    """
    width = len(col)
    if s >= width:
        return
    if s * s <= width:
        for r in range(s):
            col[r::s] = accumulate(col[r::s])
    else:
        for at in range(s, width, s):
            col[at:at + s] = map(add, col[at:at + s], col[at - s:at])


class ZColumns:
    """A working buffer that holds a truncated series as dense integer
    z-columns, for a walk of many Pochhammer passes over one series.

    ``columns[k][i]`` times the buffer's ``sign`` (+1 or -1) is the
    coefficient of z^(z0 + k) q^(q0 + i), and every column spans the whole
    window [q0, order); :meth:`times_monomial` changes only the sign and
    the exponents.  Each factor (1 - b*z^j q^s) of :meth:`pochhammer_ratio`
    is one slice pass per column, a C-level loop over a list of ints, where
    :func:`qs_pochhammer_ratio` merges each z-term of a row in Python; the
    ratio then drops the zero columns at both ends, so the zero series has
    none.  That wins when the series is dense in z over its window and
    takes many passes between conversions: rows become columns once on the
    way in (:meth:`from_series`) and columns rows once on the way out
    (:meth:`to_series`).  Unlike the value types, a buffer is changed in
    place by each method.
    """

    __slots__ = ("q0", "order", "z0", "columns", "sign")

    def __init__(self, q0: int, order: int, z0: int, columns: list[list[int]]):
        self.q0 = q0
        self.order = order
        self.z0 = z0
        self.columns = columns
        self.sign = 1

    @classmethod
    def from_series(cls, series: QSeries) -> "ZColumns":
        z_exps = [z for row in series.coeffs for z in row._terms]
        if not z_exps:
            return cls(series.order, series.order, 0, [])
        z0 = min(z_exps)
        width = series.order - series.min_exp
        columns = [[0] * width for _ in range(max(z_exps) - z0 + 1)]
        for i, row in enumerate(series.coeffs):
            for z, coeff in row._terms.items():
                columns[z - z0][i] = coeff
        return cls(series.min_exp, series.order, z0, columns)

    def to_series(self) -> QSeries:
        z_exps = range(self.z0, self.z0 + len(self.columns))
        rows = [
            ZLaurentPoly._make(dict(compress(zip(z_exps, cells), cells)))
            for cells in zip(*self.columns)
        ]
        series = QSeries(self.q0, rows, self.order)
        return series if self.sign == 1 else -series

    def pochhammer_ratio(
        self,
        num: Sequence[tuple[QMonomial, int]],
        den: Sequence[tuple[QMonomial, int]],
        lift: int = 0,
    ) -> None:
        """Multiply by (b q^lift; q)_n for each (b, n) in ``num`` and
        divide by (c q^lift; q)_m for each (c, m) in ``den``, in place:
        ``==`` :func:`qs_pochhammer_ratio` on the lifted families, with the
        same :class:`DivergentProduct` rule.  The lift lets a walk that
        applies the same families one q-step higher each time build them
        once.

        The factors are :func:`_factors`', and their window shift is one
        :meth:`times_monomial`; factors that a numerator and a denominator
        family share are not cancelled: they cost their two passes.
        """
        _check_convergent(den, lift)
        width = self.order - self.q0
        (num, shift), (den, _) = _factors(num, width, lift), _factors(den, width, lift)
        for passes, factors in ((self._times, num), (self._over, den)):
            for sign, j, s in factors:
                if j < 0:
                    self._flipped(passes, sign, j, s)
                else:
                    passes(sign, j, s)
        if shift:
            self.times_monomial(shift)
        self._trim()

    def times_monomial(self, mono: QMonomial) -> None:
        """Multiply by a monomial: a shift of the window and of z0, and a
        change of the buffer's sign when its sign is -1."""
        self.q0 += mono.q_exp
        self.order += mono.q_exp
        self.z0 += mono.z_exp
        self.sign *= mono.sign

    def truncate(self, order: int) -> None:
        """Forget the coefficients at or past ``order``.  Never widens."""
        if order > self.order:
            raise InsufficientOrder(
                f"cannot widen a series of order {self.order} to {order}"
            )
        keep = order - self.q0
        if keep <= 0:
            self.q0, self.z0, self.columns = order, 0, []
        else:
            for col in self.columns:
                del col[keep:]
        self.order = order

    def add_one(self) -> None:
        """Add 1 at q^0 z^0, widening the window down to q^0; past the
        window (order <= 0) it vanishes."""
        if self.order <= 0:
            return
        columns = self.columns
        if not columns:
            self.q0 = self.z0 = 0
            columns.append([0] * self.order)
        elif self.q0 > 0:
            pad = [0] * self.q0
            for col in columns:
                col[:0] = pad
            self.q0 = 0
        width = self.order - self.q0
        if self.z0 > 0:
            columns[:0] = [[0] * width for _ in range(self.z0)]
            self.z0 = 0
        columns.extend([0] * width for _ in range(len(columns), 1 - self.z0))
        columns[-self.z0][-self.q0] += self.sign

    def _times(self, sign: int, j: int, s: int) -> None:
        """Multiply by (1 - sign*z^j q^s), j >= 0, 0 <= s < width: column
        k+j takes away sign times column k shifted up by s, each column
        read before it is written (downward in k)."""
        columns = self.columns
        if not columns:
            return
        width = self.order - self.q0
        op = sub if sign == 1 else add
        count = len(columns)
        columns.extend([0] * width for _ in range(j))
        for k in range(count - 1, -1, -1):
            dst = columns[k + j]
            dst[s:] = map(op, dst[s:], columns[k][:width - s])

    def _over(self, sign: int, j: int, s: int) -> None:
        """Divide by (1 - sign*z^j q^s), j >= 0, 1 <= s < width: column k
        adds sign times column k-j, already divided, shifted up by s, so
        the columns run upward in k and grow the z-range while the new
        columns are nonzero.  With no z (j = 0) each column divides on
        its own, and 1/(1 + q^s) = (1 - q^s)/(1 - q^(2s)) makes the
        sign -1 a product pass and a division by (1 - q^(2s)), both
        exact on any window."""
        columns = self.columns
        if not j:
            for col in columns:
                if sign == -1:
                    _times_one_minus(col, s)
                    _over_one_minus(col, 2 * s)
                else:
                    _over_one_minus(col, s)
            return
        width = self.order - self.q0
        op = add if sign == 1 else sub
        for k in range(j, len(columns)):
            dst = columns[k]
            dst[s:] = map(op, dst[s:], columns[k - j][:width - s])
        pad = [0] * s
        zeros = 0
        while zeros < j and columns:
            k = len(columns)
            src = columns[k - j][:width - s] if k >= j else []
            if any(src):
                columns.append(pad + (src if sign == 1 else list(map(neg, src))))
                zeros = 0
            else:
                columns.append([0] * width)
                zeros += 1
        del columns[len(columns) - zeros:]

    def _flipped(self, passes, sign: int, j: int, s: int) -> None:
        """Run ``passes`` for a negative z-exponent j on the columns in
        reverse order, where z^j becomes z^(-j)."""
        self.columns.reverse()
        self.z0 = 1 - self.z0 - len(self.columns)
        passes(sign, -j, s)
        self.columns.reverse()
        self.z0 = 1 - self.z0 - len(self.columns)

    def _trim(self) -> None:
        """Drop the zero columns at both ends; with none left the window
        is empty, [order, order), as a zero :class:`QSeries` has."""
        columns = self.columns
        while columns and not any(columns[-1]):
            columns.pop()
        lead = 0
        while lead < len(columns) and not any(columns[lead]):
            lead += 1
        if lead:
            del columns[:lead]
            self.z0 += lead
        if not columns:
            self.q0 = self.order
            self.z0 = 0


# -- closed-form generating functions --------------------------------------


def _mark_columns(t: int, order: int, z: str) -> list[list[int]]:
    """The z^k columns of (-zq; q)_t / ((q; q)_t (1 - q^t)) over
    q^0..q^(order-1), as mode ``z`` of :func:`bounded_gap_columns` needs.

    By the finite q-binomial theorem (Andrews, The Theory of Partitions,
    Thm 3.3) column k is q^(k(k+1)/2) / ((q; q)_k (q; q)_(t-k)), over
    (1 - q^t).  Column 0 is t passes for 1/(q; q)_t and one for the
    (1 - q^t), which every column derived from it inherits; ``"zero"``
    stops there.  ``"tracked"`` adds columns up to k = t, or until the
    shift k(k+1)/2 reaches the order: for k <= t/2 column k is column
    k-1 shifted up by k, times (1 - q^(t-k+1)), over (1 - q^k), two
    passes; for k > t/2, by [t choose k]_q = [t choose t-k]_q, it is
    column t-k shifted up by k(k+1)/2 - (t-k)(t-k+1)/2, with no pass.
    ``"one"`` builds no mark column: column 0 times (1 + q^s) for
    s = 1..t, one pass each, is (-q; q)_t / (q; q)_t over (1 - q^t).
    """
    col = [1] + [0] * (order - 1)
    passes = range(1, min(t, order - 1) + 1)
    for s in passes:
        _over_one_minus(col, s)
    _over_one_minus(col, t)
    columns = [col]
    if z == "one":
        for s in passes:
            col[s:] = map(add, col[s:], col[:-s])
    k = 1
    while z == "tracked" and k <= t and k * (k + 1) // 2 < order:
        if 2 * k <= t:
            col = [0] * k + col[:order - k]
            _times_one_minus(col, t - k + 1)
            _over_one_minus(col, k)
        else:
            shift = k * (k + 1) // 2 - (t - k) * (t - k + 1) // 2
            col = [0] * shift + columns[t - k][:order - shift]
        columns.append(col)
        k += 1
    return columns


def _check_gap_window(t: int, order: int) -> None:
    if t < 1:
        raise ValueError("the gap bound t must be a positive integer")
    if order < 1:
        # the constant 1 of the Pochhammer ratio lies past such a window
        raise ValueError(f"term q^0 is at or past order {order}")


def bounded_gap_columns(t: int, order: int, z: str = "tracked") -> ZColumns:
    """The bounded-gap generating function over q^0..q^(order-1) as a
    :class:`ZColumns` buffer, the z^0 column first.

    It is (1/(1 - q^t)) * ((-zq; q)_t / (q; q)_t - 1), built from the
    finite q-binomial theorem (:func:`_mark_columns`), not by Pochhammer
    passes, so it is a method independent of :func:`qs_pochhammer_ratio`.
    ``z`` is ``"tracked"`` for every z^k column, ``"one"`` for their sum
    (marks forgotten) or ``"zero"`` for column 0 alone (no marks).
    The division by (1 - q^t) is one pass on column 0, before the other
    columns come from it (:func:`_mark_columns` lists each mode's
    passes), and the -1 over (1 - q^t) is subtracted last, from column 0
    alone: 1 at q^0, q^t, q^2t, ...  Tracked, column k >= 1 starts at
    q^(k(k+1)/2), below the order, with the count 1, so no column past
    z^0 is all zero.
    """
    _check_gap_window(t, order)
    if z not in ("tracked", "one", "zero"):
        raise ValueError(f"z must be tracked, one or zero, got {z!r}")
    columns = _mark_columns(t, order, z)
    columns[0][::t] = [c - 1 for c in columns[0][::t]]
    return ZColumns(0, order, 0, columns)


def bounded_gap_overpartition_gf(t: int, order: int, z_tracked: bool = True) -> QSeries:
    """Generating function for nonempty overpartitions whose largest and
    smallest parts differ by at most t, with the largest part unmarked
    when the difference is exactly t: :func:`bounded_gap_columns` as
    rows.  The z-degree of the q^n coefficient counts overlined parts;
    with ``z_tracked`` false the overline marks are forgotten (z = 1).
    """
    return bounded_gap_columns(t, order, "tracked" if z_tracked else "one").to_series()


def bounded_gap_partition_gf(t: int, order: int) -> QSeries:
    """Generating function for nonempty ordinary partitions whose largest
    and smallest parts differ by at most t, the unmarked (z = 0) shadow
    of :func:`bounded_gap_overpartition_gf`: its z^0 column as rows.
    """
    return bounded_gap_columns(t, order, "zero").to_series()
