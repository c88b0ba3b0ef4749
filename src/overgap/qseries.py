"""Exact truncated series arithmetic over the ring Z[z, z^-1][[q]][q^-1].

A :class:`QSeries` tracks, for every q-exponent in a half-open window
``[min_exp, order)``, a coefficient that is a Laurent polynomial in a
marking variable z with arbitrary-precision integer coefficients.  Below
``min_exp`` the series is identically zero; at ``order`` and above nothing
is claimed.  All operations are exact and propagate the tightest window
the operands justify, so "equal up to order N" is always a statement
about coefficients that are actually known.

Every merge of z-term maps, in sums, differences, ``ZLaurentPoly``
products and Pochhammer passes alike, goes through one loop,
``_add_into``, which adds a scaled, z-shifted term map into a row in
place and drops the coefficients that cancel.

Every Pochhammer product and quotient runs through one kernel,
:func:`qs_pochhammer_ratio`: it multiplies by some (b; q)_n and divides
by some (c; q)_m, copying the rows once and making one in-place pass
over them per factor ``(1 - a*q^k)``, which adds a shifted, signed row
into each row.  :func:`pochhammer` and the binomial kernels
:func:`qs_mul_one_minus` and :func:`qs_div_one_minus` are single calls
into it.  A factor whose q-exponent reaches the window's width changes
nothing and is skipped: the cost follows the window, not the length of
the product.
The bounded-gap closed forms are the one Pochhammer quotient built
apart from that kernel: the finite q-binomial theorem splits
(-zq; q)_t / (q; q)_t into z^k columns, each a dense list of integers
over the window, and every factor (1 - q^s) is one slice pass over a
column.  So :func:`bounded_gap_overpartition_gf` is a method
independent of the kernel that the hypergeometric chain runs on.
Every other product runs through one kernel, :func:`qs_mul`, by Kronecker
substitution: each operand's (q, z) grid is packed into one integer with
a signed, byte-aligned digit per coefficient, and a single integer
multiply yields the whole product.  :func:`qs_mul_finite` and
:func:`qs_invert` (Newton's iteration) are thin wrappers over it.  Its
library callers, and why each stays:

- ``hyper._transform_sides``, two calls: the transformation's
  infinite-product prefactor, whose four infinite families would each
  cost ``width`` kernel passes (measured slower);
- :func:`qs_mul_finite`, chain line 2's step (the benchmark's tests
  count its product pairs);
- :func:`qs_invert`, kept for callers; no library path divides with it;
- ``QSeries.__mul__``, the product of two series.
Multiplying by a :class:`QMonomial` is a shift of the window, and of the
z-exponents when the monomial has a z part; no product runs.

Instances of :class:`ZLaurentPoly`, :class:`QMonomial` and
:class:`QSeries` are immutable values; every operation returns a fresh
object.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "QSeriesError",
    "NonUnitLeadingCoefficient",
    "DivergentProduct",
    "InsufficientOrder",
    "ZLaurentPoly",
    "QMonomial",
    "QSeries",
    "qs_add",
    "qs_mul",
    "qs_invert",
    "qs_div_one_minus",
    "qs_mul_one_minus",
    "qs_mul_finite",
    "pochhammer",
    "pochhammer_infinite",
    "qs_pochhammer_ratio",
    "bounded_gap_overpartition_gf",
    "bounded_gap_partition_gf",
]


class QSeriesError(ValueError):
    """Base class for exact series arithmetic errors."""


class NonUnitLeadingCoefficient(QSeriesError):
    """Inversion requires a leading coefficient of the form +-z^i."""


class DivergentProduct(QSeriesError):
    """Infinite products need factors of the form 1 - a*q^k with a.q_exp >= 1."""


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

    def max_z_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no support")
        return max(self._terms)

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
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        out: dict[int, int] = {}
        for exp, coeff in small.items():
            _add_into(out, big, exp, coeff)
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

    def to_json_terms(self) -> list[dict]:
        return [
            {"z": exp, "c": str(coeff)} for exp, coeff in sorted(self._terms.items())
        ]

    @classmethod
    def from_json_terms(cls, terms: Iterable[dict]) -> "ZLaurentPoly":
        return cls({int(item["z"]): int(item["c"]) for item in terms})

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


@dataclass(frozen=True, slots=True)
class QMonomial:
    """A signed monomial sign * z^z_exp * q^q_exp with sign in {+1, -1}.

    Closed under multiplication and division, which is what makes the
    parameter algebra of Pochhammer symbols and hypergeometric series
    exactly representable.
    """

    sign: int
    z_exp: int
    q_exp: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

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

    def __pow__(self, n: int) -> "QMonomial":
        if n < 0:
            raise ValueError("negative powers: divide explicitly")
        return QMonomial(self.sign if n % 2 else 1, self.z_exp * n, self.q_exp * n)

    def z_part(self) -> ZLaurentPoly:
        """The coefficient sign * z^z_exp as a Laurent polynomial."""
        return ZLaurentPoly._make({self.z_exp: self.sign})

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
        return cls(lo, row, order)

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

    def _plus(self, rhs: "QSeries", scale: int) -> "QSeries":
        """self + scale * rhs on the intersection of the known windows."""
        order = min(self.order, rhs.order)
        lo = min(self.min_exp, rhs.min_exp)
        if lo >= order:
            return QSeries.zero(order)
        width = order - lo
        rows = [_Z_ZERO] * width
        for pos, coeff in zip(range(self.min_exp - lo, width), self.coeffs):
            rows[pos] = coeff
        for pos, coeff in zip(range(rhs.min_exp - lo, width), rhs.coeffs):
            if coeff._terms:
                out = dict(rows[pos]._terms)
                _add_into(out, coeff._terms, 0, scale)
                rows[pos] = ZLaurentPoly._make(out)
        return QSeries(lo, rows, order)

    def __add__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, 1)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.min_exp, [-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, -1)

    def __rsub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._plus(self, -1)

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

    # -- serialisation -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "min_exp": self.min_exp,
            "order": self.order,
            "coeffs": [
                {"q": exp, "terms": coeff.to_json_terms()}
                for exp, coeff in self.enumerate_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        min_exp = int(data["min_exp"])
        order = int(data["order"])
        terms = {}
        for entry in data["coeffs"]:
            exp = int(entry["q"])
            if exp < min_exp or exp >= order:
                raise ValueError(f"q-exponent {exp} outside [{min_exp}, {order})")
            terms[exp] = ZLaurentPoly.from_json_terms(entry["terms"])
        return cls.from_terms(terms, order)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def loads(cls, text: str) -> "QSeries":
        return cls.from_json_dict(json.loads(text))

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


# Signed array typecodes by item size; digits this wide are written and
# read through an array instead of one int.to_bytes call each.
_ARRAY_CODES = {array(code).itemsize: code for code in "bhilq"}


def _digit_size(bound: int) -> int:
    """Bytes per digit holding any value of magnitude at most ``bound``:
    the magnitude's bits plus a sign bit, in whole bytes, rounded up to an
    array item size when one is large enough."""
    size = bound.bit_length() // 8 + 1
    return min((item for item in _ARRAY_CODES if item >= size), default=size)


def _extent(rows: tuple[ZLaurentPoly, ...]) -> tuple[int, int, int, int]:
    """(lowest z, highest z, nonzero terms, largest magnitude) of some rows,
    at least one of them nonzero."""
    maps = [row._terms for row in rows if row._terms]
    values = [terms.values() for terms in maps]
    return (
        min(map(min, maps)),
        max(map(max, maps)),
        sum(map(len, maps)),
        max(max(map(max, values)), -min(map(min, values))),
    )


def _sign_bits(size: int, count: int) -> int:
    """The top bit of each of ``count`` digits of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(rows: tuple[ZLaurentPoly, ...], z_lo: int, stride: int, size: int) -> int:
    """Rows as one integer: the z^z coefficient of row i is the signed digit
    at position i * stride + z - z_lo, each digit ``size`` bytes wide."""
    count = len(rows) * stride
    code = _ARRAY_CODES.get(size)
    if code:
        digits = array(code, bytes(count * size))
        base = -z_lo
        for row in rows:
            for z, c in row._terms.items():
                digits[base + z] = c
            base += stride
        if sys.byteorder == "big":
            digits.byteswap()
        raw = digits.tobytes()
    else:
        raw = bytearray(count * size)
        for i, row in enumerate(rows):
            base = i * stride - z_lo
            for z, c in row._terms.items():
                at = (base + z) * size
                raw[at:at + size] = c.to_bytes(size, "little", signed=True)
    # raw holds two's complement digits: each set sign bit stands for a
    # borrow of one from the digit above
    value = int.from_bytes(raw, "little")
    return value - ((value & _sign_bits(size, count)) << 1)


def _unpack(value: int, size: int, count: int) -> Sequence[int]:
    """The lowest ``count`` signed digits of a packed integer."""
    # adding 2^(8 size - 1) to every digit makes each one nonnegative and
    # carry-free; flipping that bit back leaves each digit's two's complement
    top = _sign_bits(size, count)
    low = (value + top) & ((1 << (8 * size * count)) - 1)
    raw = (low ^ top).to_bytes(size * count, "little")
    code = _ARRAY_CODES.get(size)
    if code:
        digits = array(code, raw)
        if sys.byteorder == "big":
            digits.byteswap()
        return digits
    return [
        int.from_bytes(raw[at:at + size], "little", signed=True)
        for at in range(0, len(raw), size)
    ]


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product.

    With windows [m1, o1) and [m2, o2) the product is exactly known on
    [m1 + m2, min(o1 + m2, o2 + m1)): any contribution involving an
    unknown coefficient of one factor pairs with a known zero of the
    other below that bound.

    Computed by Kronecker substitution: each factor's (q, z) grid becomes
    one integer with a signed digit per coefficient, wide enough that no
    product coefficient can overflow it, and one integer multiply gives
    every coefficient of the product.  Rows that cannot reach the window
    are left out.
    """
    lo = a.min_exp + b.min_exp
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    width = order - lo
    if width <= 0 or a.is_zero() or b.is_zero():
        return QSeries.zero(order)
    rows_a, rows_b = a.coeffs[:width], b.coeffs[:width]
    za_lo, za_hi, count_a, big_a = _extent(rows_a)
    zb_lo, zb_hi, count_b, big_b = _extent(rows_b)
    stride = za_hi - za_lo + zb_hi - zb_lo + 1
    # a product coefficient sums at most min(count_a, count_b) products
    size = _digit_size(min(count_a, count_b) * big_a * big_b)
    product = _pack(rows_a, za_lo, stride, size) * _pack(rows_b, zb_lo, stride, size)
    count = min(width, len(rows_a) + len(rows_b) - 1) * stride
    digits = _unpack(product, size, count)
    z_base = za_lo + zb_lo
    rows = [
        ZLaurentPoly._make(
            {z_base + s: c for s, c in enumerate(digits[start:start + stride]) if c}
        )
        for start in range(0, count, stride)
    ]
    return QSeries(lo, rows, order)


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


def pochhammer_min_exp(a: QMonomial, n: int) -> int:
    """Lowest possible q-exponent of (a; q)_n: its factors' negative ones."""
    return sum(a.q_exp + k for k in range(min(n, -a.q_exp)))


def qs_pochhammer_ratio(
    a: QSeries,
    num: Sequence[tuple[QMonomial, int]],
    den: Sequence[tuple[QMonomial, int]],
) -> QSeries:
    """Multiply by (b; q)_n for each (b, n) in ``num`` and divide by
    (c; q)_m for each (c, m) in ``den``, which needs every c.q_exp >= 1.

    The rows are copied once and every factor (1 - b*q^s) is one in-place
    pass over them.  A product pass adds -b * row (e - s) into row e, each
    row read before it is written: downward for s > 0, upward for s < 0,
    from a snapshot for s = 0.  A negative s lowers the window by -s and
    keeps its width, so the rows are laid once from the summed negative
    exponents and each such pass drops the top -s rows.  The quotient
    passes then run upward, adding c * row (e - s), already divided, into
    row e.  Factors whose q-exponent reaches the window's width change
    nothing and are skipped; with none left, ``a`` is returned.
    """
    for c, m in den:
        if m > 0 and c.q_exp < 1:
            raise DivergentProduct(
                f"cannot divide by ({c}; q)_{m}: its q-exponent {c.q_exp} is below 1"
            )
    width = a.order - a.min_exp
    num = [(b, min(n, width - b.q_exp)) for b, n in num]
    den = [(c, min(m, width - c.q_exp)) for c, m in den]
    if all(n <= 0 for _, n in num + den):
        return a
    # the negative factors lower the window by -low: lay a's rows that far up
    low = sum(pochhammer_min_exp(b, n) for b, n in num)
    rows: list[dict[int, int]] = [{} for _ in range(width - low)]
    rows[-low:len(a.coeffs) - low] = [dict(row._terms) for row in a.coeffs]
    known = len(rows)  # rows at and past this one lie past the window
    for b, n in num:
        z_shift, neg_sign = b.z_exp, -b.sign
        for s in range(b.q_exp, b.q_exp + n):
            if s < 0:
                known += s
            for i in range(known) if s < 0 else range(known - 1, s - 1, -1):
                src = rows[i - s]
                if src:
                    _add_into(rows[i], dict(src) if s == 0 else src, z_shift, neg_sign)
    del rows[known:]
    for c, m in den:
        z_shift, sign = c.z_exp, c.sign
        for s in range(c.q_exp, c.q_exp + m):
            for i in range(s, width):
                src = rows[i - s]
                if src:
                    _add_into(rows[i], src, z_shift, sign)
    return QSeries(a.min_exp + low, [ZLaurentPoly._make(r) for r in rows], a.order + low)


def qs_mul_one_minus(a: QSeries, mono: QMonomial) -> QSeries:
    """Multiply by (1 - mono), for a q-exponent of any sign: (mono; q)_1.

    The result window is the width of ``a``'s, shifted by min(0, mono.q_exp).
    """
    return qs_pochhammer_ratio(a, [(mono, 1)], ())


def qs_div_one_minus(a: QSeries, mono: QMonomial) -> QSeries:
    """Divide by (1 - mono), mono.q_exp >= 1: (mono; q)_1, keeping the window."""
    return qs_pochhammer_ratio(a, (), [(mono, 1)])


def pochhammer(a: QMonomial, n: int, target_order: int) -> QSeries:
    """The finite product (a; q)_n = prod_{k=0}^{n-1} (1 - a*q^k).

    Exact up to ``target_order`` even when ``a`` has a nonpositive
    q-exponent, in which case the result is a genuine Laurent series.  A
    window that ends at or below the product's lowest exponent holds
    nothing of it: the result is the zero series of that order.
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    low = pochhammer_min_exp(a, n)
    if target_order <= low:
        return QSeries.zero(target_order)
    start = QSeries.one(target_order - low)
    return qs_pochhammer_ratio(start, [(a, n)], ())


def pochhammer_infinite(a: QMonomial, target_order: int) -> QSeries:
    """The infinite product (a; q)_inf truncated at ``target_order``.

    Converges coefficientwise only when a.q_exp >= 1; factors whose
    q-exponent reaches the order contribute nothing below it, and
    :func:`qs_pochhammer_ratio` skips them.
    """
    if a.q_exp < 1:
        raise DivergentProduct(
            f"(a; q)_inf needs a.q_exp >= 1 for coefficientwise convergence, got {a.q_exp}"
        )
    return pochhammer(a, max(0, target_order), target_order)


# -- closed-form generating functions --------------------------------------


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


def _mark_columns(t: int, order: int, marks: bool) -> list[list[int]]:
    """The z^k columns of (-zq; q)_t / (q; q)_t over q^0..q^(order-1).

    By the finite q-binomial theorem (Andrews, The Theory of Partitions,
    Thm 3.3) column k is q^(k(k+1)/2) / ((q; q)_k (q; q)_(t-k)).  Column 0
    is 1/(q; q)_t, and column k+1 is column k shifted up by k+1, times
    (1 - q^(t-k)), over (1 - q^(k+1)).  The columns stop at k = t, or
    where the shift k(k+1)/2 reaches the order.  With ``marks`` false only
    column 0 is built.
    """
    col = [1] + [0] * (order - 1)
    for s in range(1, min(t, order - 1) + 1):
        _over_one_minus(col, s)
    columns = [col]
    k = 0
    while marks and k < t and (k + 1) * (k + 2) // 2 < order:
        col = [0] * (k + 1) + col[:order - k - 1]
        _times_one_minus(col, t - k)
        _over_one_minus(col, k + 1)
        columns.append(col)
        k += 1
    return columns


def _gap_series(t: int, columns: list[list[int]]) -> QSeries:
    """(sum_k z^k columns[k] - 1) / (1 - q^t), columns over q^0..q^(order-1)."""
    columns[0][0] -= 1
    for col in columns:
        _over_one_minus(col, t)
    rows = [
        ZLaurentPoly._make({k: c for k, c in enumerate(row) if c})
        for row in zip(*columns)
    ]
    return QSeries(0, rows, len(columns[0]))


def _check_gap_window(t: int, order: int) -> None:
    if t < 1:
        raise ValueError("the gap bound t must be a positive integer")
    if order < 1:
        # the constant 1 of the Pochhammer ratio lies past such a window
        raise ValueError(f"term q^0 is at or past order {order}")


def bounded_gap_overpartition_gf(t: int, order: int, z_tracked: bool = True) -> QSeries:
    """Generating function for nonempty overpartitions whose largest and
    smallest parts differ by at most t, with the largest part unmarked
    when the difference is exactly t.

    Computed as (1/(1 - q^t)) * ((-zq; q)_t / (q; q)_t - 1); the z-degree
    of the q^n coefficient counts overlined parts.  With ``z_tracked``
    false the overline marks are forgotten first (z = 1).  The ratio is
    built as dense integer z^k columns from the finite q-binomial theorem
    (:func:`_mark_columns`), not by Pochhammer passes over the rows, so
    it is a method independent of :func:`qs_pochhammer_ratio`.
    """
    _check_gap_window(t, order)
    columns = _mark_columns(t, order, True)
    if not z_tracked:
        columns = [list(map(sum, zip(*columns)))]
    return _gap_series(t, columns)


def bounded_gap_partition_gf(t: int, order: int) -> QSeries:
    """Generating function for nonempty ordinary partitions whose largest
    and smallest parts differ by at most t.

    Computed as (1/(1 - q^t)) * (1/(q; q)_t - 1), the unmarked (z = 0)
    shadow of :func:`bounded_gap_overpartition_gf`: its z^0 column.
    """
    _check_gap_window(t, order)
    return _gap_series(t, _mark_columns(t, order, False))
