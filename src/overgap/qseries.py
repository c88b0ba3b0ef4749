"""Exact truncated series arithmetic over the ring Z[z, z^-1][[q]][q^-1].

A :class:`QSeries` tracks, for every q-exponent in a half-open window
``[min_exp, order)``, a coefficient that is a Laurent polynomial in a
marking variable z with arbitrary-precision integer coefficients.  Below
``min_exp`` the series is identically zero; at ``order`` and above nothing
is claimed.  All operations are exact and propagate the tightest window
the operands justify, so "equal up to order N" is always a statement
about coefficients that are actually known.

Finite Pochhammer products and quotients are built one binomial factor
at a time: :func:`qs_mul_one_minus` multiplies by ``(1 - a*q^k)`` and
:func:`qs_div_one_minus` divides by it, each in one pass over the window
with no general convolution.  :func:`qs_mul` and :func:`qs_invert` remain
the general product and inverse, for factors that are not binomials.

Instances of :class:`ZLaurentPoly`, :class:`QMonomial` and
:class:`QSeries` are immutable values; every operation returns a fresh
object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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
    "pochhammer_min_exp",
    "pochhammer_infinite",
    "qs_mul_pochhammer",
    "qs_div_pochhammer",
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

    def min_z_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no support")
        return min(self._terms)

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

    def __add__(self, other) -> "ZLaurentPoly":
        if isinstance(other, int):
            other = ZLaurentPoly.const(other)
        elif not isinstance(other, ZLaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = out.get(exp, 0) + coeff
            if total:
                out[exp] = total
            elif exp in out:
                del out[exp]
        return ZLaurentPoly._make(out)

    __radd__ = __add__

    def __neg__(self) -> "ZLaurentPoly":
        return ZLaurentPoly._make({exp: -coeff for exp, coeff in self._terms.items()})

    def __sub__(self, other) -> "ZLaurentPoly":
        if isinstance(other, int):
            other = ZLaurentPoly.const(other)
        elif not isinstance(other, ZLaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ZLaurentPoly":
        return (-self) + other

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
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = ea + eb
                total = out.get(exp, 0) + ca * cb
                if total:
                    out[exp] = total
                elif exp in out:
                    del out[exp]
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

    @classmethod
    def from_monomial(cls, mono: QMonomial, order: int) -> "QSeries":
        return cls.from_terms({mono.q_exp: mono.z_part()}, order)

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

    def eq_up_to(self, other: "QSeries", order: int) -> bool:
        """Compare all coefficients of q-exponent below ``order``.

        Both operands must know their coefficients that far out.
        """
        if self.order < order or other.order < order:
            raise InsufficientOrder(
                f"comparison to order {order} exceeds operand orders "
                f"{self.order} and {other.order}"
            )
        a = self.truncate(order)
        b = other.truncate(order)
        return a.min_exp == b.min_exp and a.coeffs == b.coeffs

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
            # exact constants do not narrow the window
            return QSeries.from_terms({0: other}, self.order)
        return None

    def __add__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        order = min(self.order, rhs.order)
        lo = min(self.min_exp, rhs.min_exp)
        if lo >= order:
            return QSeries.zero(order)
        width = order - lo
        row = [_Z_ZERO] * width
        for src in (self, rhs):
            base = src.min_exp - lo
            for i, coeff in enumerate(src.coeffs):
                pos = base + i
                if pos >= width:
                    break
                if coeff:
                    row[pos] = row[pos] + coeff if row[pos] else coeff
        return QSeries(lo, row, order)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.min_exp, [-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

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
            return qs_mul_finite(self, [(other.q_exp, other.z_part())])
        if not isinstance(other, QSeries):
            return NotImplemented
        return qs_mul(self, other)

    __rmul__ = __mul__

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
        bits = []
        for exp, coeff in self.enumerate_terms():
            inner = str(coeff)
            if len(coeff._terms) > 1:
                inner = f"({inner})"
            if exp == 0:
                bits.append(inner)
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                bits.append(power if inner == "1" else f"{inner}*{power}")
        return " + ".join(bits) + f" + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"QSeries(min_exp={self.min_exp}, order={self.order}, <{len(self.coeffs)} coeffs>)"


# -- ring operations -------------------------------------------------------


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficientwise sum on the intersection of the known windows."""
    return a + b


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product.

    With windows [m1, o1) and [m2, o2) the product is exactly known on
    [m1 + m2, min(o1 + m2, o2 + m1)): any contribution involving an
    unknown coefficient of one factor pairs with a known zero of the
    other below that bound.
    """
    lo = a.min_exp + b.min_exp
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    width = order - lo
    if width <= 0 or a.is_zero() or b.is_zero():
        return QSeries.zero(order)
    rows: list[dict[int, int]] = [dict() for _ in range(width)]
    b_lo = b.min_exp
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        base = a.min_exp + i + b_lo - lo
        for j, cb in enumerate(b.coeffs):
            pos = base + j
            if pos >= width:
                break
            if not cb:
                continue
            row = rows[pos]
            for za, va in ca._terms.items():
                for zb, vb in cb._terms.items():
                    key = za + zb
                    total = row.get(key, 0) + va * vb
                    if total:
                        row[key] = total
                    elif key in row:
                        del row[key]
    return QSeries(lo, [ZLaurentPoly._make(r) for r in rows], order)


def qs_mul_finite(a: QSeries, factor: Iterable[tuple[int, ZLaurentPoly]]) -> QSeries:
    """Multiply by a finite, exactly known q-polynomial.

    The factor is given as (q_exp, coefficient) pairs.  Because every
    factor coefficient is known, the result window has the same width as
    the input window, shifted by the factor's lowest exponent.
    """
    pairs = [(exp, coeff) for exp, coeff in factor if coeff]
    if not pairs or a.is_zero():
        shift = min((exp for exp, _ in pairs), default=0)
        return QSeries.zero(a.order + shift)
    shift = min(exp for exp, _ in pairs)
    lo = a.min_exp + shift
    order = a.order + shift
    width = order - lo
    rows: list[dict[int, int]] = [dict() for _ in range(width)]
    for exp, coeff in pairs:
        base = exp - shift
        for i, ca in enumerate(a.coeffs):
            pos = base + i
            if pos >= width:
                break
            if not ca:
                continue
            row = rows[pos]
            for za, va in ca._terms.items():
                for zb, vb in coeff._terms.items():
                    key = za + zb
                    total = row.get(key, 0) + va * vb
                    if total:
                        row[key] = total
                    elif key in row:
                        del row[key]
    return QSeries(lo, [ZLaurentPoly._make(r) for r in rows], order)


def qs_invert(a: QSeries, target_order: int) -> QSeries:
    """Multiplicative inverse b with qs_mul(a, b) == 1 up to target_order.

    Requires the leading coefficient of ``a`` to be a single signed power
    of z, and ``a`` to be known for ``target_order`` exponents past its
    leading one.
    """
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
    lead_exp, lead_sign = next(iter(lead._terms.items()))
    # alpha[k] is the coefficient of q^(val + k) as a raw term map
    alpha: list[dict[int, int]] = []
    for k in range(min(target_order, len(a.coeffs))):
        alpha.append(a.coeffs[k]._terms)
    while len(alpha) < target_order:
        alpha.append({})
    out: list[dict[int, int]] = [{-lead_exp: lead_sign}]
    for n in range(1, target_order):
        acc: dict[int, int] = {}
        for k in range(1, n + 1):
            ak = alpha[k]
            if not ak:
                continue
            bk = out[n - k]
            for za, va in ak.items():
                for zb, vb in bk.items():
                    key = za + zb
                    total = acc.get(key, 0) + va * vb
                    if total:
                        acc[key] = total
                    elif key in acc:
                        del acc[key]
        # divide by -lead: multiply values by -lead_sign, shift z by -lead_exp
        out.append({exp - lead_exp: -lead_sign * coeff for exp, coeff in acc.items()})
    return QSeries(-val, [ZLaurentPoly._make(r) for r in out], -val + target_order)


def qs_div_one_minus(a: QSeries, mono: QMonomial) -> QSeries:
    """Divide by (1 - mono) where mono has positive q-exponent.

    Uses the recurrence y_e = a_e + mono * y_(e - q_exp), which keeps the
    full window of ``a``; this is how geometric factors are divided out
    without a general inversion.
    """
    step = mono.q_exp
    if step < 1:
        raise DivergentProduct(
            "qs_div_one_minus needs a factor with q_exp >= 1"
        )
    if a.is_zero():
        return a
    width = a.order - a.min_exp
    rows: list[dict[int, int]] = []
    z_shift, z_sign = mono.z_exp, mono.sign
    for i in range(width):
        base = dict(a.coeffs[i]._terms) if i < len(a.coeffs) else {}
        if i - step >= 0:
            for exp, coeff in rows[i - step].items():
                key = exp + z_shift
                total = base.get(key, 0) + z_sign * coeff
                if total:
                    base[key] = total
                elif key in base:
                    del base[key]
        rows.append(base)
    return QSeries(
        a.min_exp, [ZLaurentPoly._make(r) for r in rows], a.order
    )


def qs_mul_one_minus(a: QSeries, mono: QMonomial) -> QSeries:
    """Multiply by (1 - mono), for a q-exponent of any sign.

    The result window is the one :func:`qs_mul_finite` gives for the
    factor [(0, 1), (mono.q_exp, -mono)]: the width of ``a``'s window,
    shifted by min(0, mono.q_exp).  Each output row is one input row plus
    one shifted input row, so no general convolution runs.
    """
    step = mono.q_exp
    shift = min(0, step)
    if a.is_zero():
        return QSeries.zero(a.order + shift)
    coeffs = a.coeffs
    size = len(coeffs)
    # row i is coeffs[i - one_at] - mono * coeffs[i - mono_at]; one offset is 0
    one_at = -shift
    mono_at = step - shift
    z_shift, neg_sign = mono.z_exp, -mono.sign
    rows: list[ZLaurentPoly] = []
    for i in range(min(a.order - a.min_exp, size + max(one_at, mono_at))):
        j = i - one_at
        base = coeffs[j] if 0 <= j < size else _Z_ZERO
        k = i - mono_at
        if not 0 <= k < size or not coeffs[k]:
            rows.append(base)
            continue
        row = dict(base._terms)
        for exp, coeff in coeffs[k]._terms.items():
            key = exp + z_shift
            total = row.get(key, 0) + neg_sign * coeff
            if total:
                row[key] = total
            elif key in row:
                del row[key]
        rows.append(ZLaurentPoly._make(row))
    return QSeries(a.min_exp + shift, rows, a.order + shift)


# -- Pochhammer symbols ----------------------------------------------------


def pochhammer_min_exp(a: QMonomial, n: int) -> int:
    """Lowest possible q-exponent of the finite product (a; q)_n."""
    return sum(min(0, a.q_exp + k) for k in range(n))


def pochhammer(a: QMonomial, n: int, target_order: int) -> QSeries:
    """The finite product (a; q)_n = prod_{k=0}^{n-1} (1 - a*q^k).

    Exact up to ``target_order`` even when ``a`` has a nonpositive
    q-exponent, in which case the result is a genuine Laurent series.
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    result = QSeries.one(target_order - pochhammer_min_exp(a, n))
    result = qs_mul_pochhammer(result, a, n)
    if result.order < target_order:
        raise AssertionError("pochhammer window accounting failed")
    return result.truncate(target_order)


def pochhammer_infinite(a: QMonomial, target_order: int) -> QSeries:
    """The infinite product (a; q)_inf truncated at ``target_order``.

    Converges coefficientwise only when a.q_exp >= 1; factors whose
    q-exponent reaches the order contribute nothing below it, so this is
    the finite product of the factors below the order.
    """
    if a.q_exp < 1:
        raise DivergentProduct(
            f"(a; q)_inf needs a.q_exp >= 1 for coefficientwise convergence, got {a.q_exp}"
        )
    return pochhammer(a, max(0, target_order - a.q_exp), target_order)


def qs_mul_pochhammer(a: QSeries, b: QMonomial, n: int) -> QSeries:
    """Multiply by (b; q)_n one factor (1 - b*q^k) at a time.

    Each factor with a negative q-exponent lowers the window by that much,
    as in :func:`qs_mul_one_minus`.
    """
    for k in range(n):
        a = qs_mul_one_minus(a, b * QMonomial.q_power(k))
    return a


def qs_div_pochhammer(a: QSeries, b: QMonomial, n: int) -> QSeries:
    """Divide by (b; q)_n one factor (1 - b*q^k) at a time.

    Needs b.q_exp >= 1; keeps the window of ``a``.
    """
    for k in range(n):
        a = qs_div_one_minus(a, b * QMonomial.q_power(k))
    return a


# -- closed-form generating functions --------------------------------------


def bounded_gap_overpartition_gf(t: int, order: int, z_tracked: bool = True) -> QSeries:
    """Generating function for nonempty overpartitions whose largest and
    smallest parts differ by at most t, with the largest part unmarked
    when the difference is exactly t.

    Computed as (1/(1 - q^t)) * ((-zq; q)_t / (q; q)_t - 1); the z-degree
    of the q^n coefficient counts overlined parts.  With ``z_tracked``
    false the overline marks are forgotten first (z = 1).
    """
    if t < 1:
        raise ValueError("the gap bound t must be a positive integer")
    mark = QMonomial(-1, 1 if z_tracked else 0, 1)
    ratio = qs_div_pochhammer(pochhammer(mark, t, order), QMonomial.q_power(1), t) - 1
    return qs_div_one_minus(ratio, QMonomial.q_power(t))


def bounded_gap_partition_gf(t: int, order: int) -> QSeries:
    """Generating function for nonempty ordinary partitions whose largest
    and smallest parts differ by at most t.

    Computed as (1/(1 - q^t)) * (1/(q; q)_t - 1), the unmarked (z = 0)
    shadow of :func:`bounded_gap_overpartition_gf`.
    """
    if t < 1:
        raise ValueError("the gap bound t must be a positive integer")
    inv = qs_div_pochhammer(QSeries.one(order), QMonomial.q_power(1), t)
    return qs_div_one_minus(inv - 1, QMonomial.q_power(t))
