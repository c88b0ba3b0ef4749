"""Exact series arithmetic: frozen values, window rules, and ring axioms.

Expected coefficients were computed with the naive dictionary oracle in
``helpers`` (and, where noted, by well-known counting identities), then
frozen here as literals.
"""

import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import overgap.qseries as qseries
from overgap.cli import main
from overgap.qseries import (
    DivergentProduct,
    InsufficientOrder,
    NonUnitLeadingCoefficient,
    QMonomial,
    QSeries,
    ZLaurentPoly,
    bounded_gap_overpartition_gf,
    bounded_gap_partition_gf,
    pochhammer,
    qs_add,
    qs_invert,
    qs_mul,
    qs_mul_finite,
)

from helpers import (
    assert_series_matches,
    poly_add,
    poly_from_series,
    poly_mul,
)

Q = QMonomial.q_power
NEG_ZQ = QMonomial(-1, 1, 1)


def zp(terms):
    return ZLaurentPoly(terms)


# -- ZLaurentPoly --------------------------------------------------------


def test_z_poly_drops_zero_coefficients():
    poly = zp({0: 1, 2: 0, -1: 3})
    assert poly.coefficient(2) == 0
    assert dict(poly.items()) == {0: 1, -1: 3}
    assert zp({}).is_zero() and zp({1: 0}).is_zero()


def test_z_poly_arithmetic():
    a = zp({0: 1, 1: 2})
    b = zp({1: -2, 3: 5})
    assert a + b == zp({0: 1, 3: 5})
    assert a - a == zp({})
    assert a * b == zp({1: -2, 2: -4, 3: 5, 4: 10})
    assert a * zp({}) == zp({})


def test_z_poly_specialize():
    poly = zp({0: 4, 1: -1, 2: 7})
    assert poly.specialize(0) == 4
    assert poly.specialize(1) == 10
    assert poly.specialize(-1) == 12
    assert poly.specialize(2) == 30
    with pytest.raises(ValueError):
        zp({-1: 1}).specialize(0)
    with pytest.raises(ValueError):
        zp({-1: 1}).specialize(2)
    # z = 1 and z = -1 stay legal on Laurent input
    assert zp({-2: 3, 1: 1}).specialize(1) == 4
    assert zp({-1: 3, 0: 1}).specialize(-1) == -2


def test_z_poly_unit_monomial():
    assert zp({3: -1}).is_unit_monomial()
    assert zp({0: 1}).is_unit_monomial()
    assert not zp({3: 2}).is_unit_monomial()
    assert not zp({0: 1, 1: 1}).is_unit_monomial()
    assert not zp({}).is_unit_monomial()


# -- QMonomial -----------------------------------------------------------


def test_monomial_algebra():
    m = QMonomial(-1, 1, 1)
    assert str(m) == "-z*q"
    assert m * m == QMonomial(1, 2, 2)
    assert (m * m) / m == m
    assert Q(5) / Q(2) == Q(3)


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_monomial_rejects_signs_other_than_one(sign):
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        QMonomial(sign, 0, 0)


def test_monomial_replace_and_make_keep_the_sign_check():
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        QMonomial(1, 0, 0)._replace(sign=0)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        QMonomial._make((5, 0, 0))
    m = QMonomial(1, 0, 0)._replace(q_exp=3)
    assert type(m) is QMonomial and m == Q(3)
    assert type(QMonomial._make((-1, 2, 1))) is QMonomial


def test_monomial_repr_and_hash():
    m = QMonomial(-1, 1, 2)
    assert repr(m) == "QMonomial(sign=-1, z_exp=1, q_exp=2)"
    assert hash(m) == hash((-1, 1, 2))


# -- window semantics ----------------------------------------------------


def test_constructor_normalizes_window():
    s = QSeries(0, [zp({}), zp({0: 2}), zp({})], 5)
    assert (s.min_exp, s.order) == (1, 5)
    assert s.coeff(1) == zp({0: 2})
    with pytest.raises(ValueError):
        QSeries(0, [zp({0: 1})] * 4, 3)


def test_zero_series_window():
    z = QSeries.zero(4)
    assert z.is_zero() and z.min_exp == z.order == 4
    assert z.coeff(-10).is_zero()
    with pytest.raises(InsufficientOrder):
        z.coeff(4)


def test_coeff_access_contract():
    s = QSeries.from_terms({2: 3, 4: -1}, 6)
    assert s.coeff(0).is_zero()
    assert s.coeff(3).is_zero()
    assert s.coeff(4) == zp({0: -1})
    assert s.zq_coeff(2, 0) == 3
    with pytest.raises(InsufficientOrder):
        s.coeff(6)


def test_add_narrows_to_common_order():
    a = pochhammer(Q(1), 2, 5)             # 1 - q - q^2 + q^3, known to q^4
    b = QSeries.from_terms({1: 1, 2: 1, 3: -1}, 4)
    total = qs_add(a, b)
    assert (total.min_exp, total.order) == (0, 4)
    assert total.coeff(0) == zp({0: 1})
    assert all(total.coeff(n).is_zero() for n in (1, 2, 3))
    with pytest.raises(InsufficientOrder):
        total.coeff(4)


def test_mul_window_rule():
    a = QSeries.from_terms({1: 1, 3: 1}, 4)    # [1, 4)
    b = QSeries.from_terms({2: 1, 5: -2}, 6)   # [2, 6)
    prod = qs_mul(a, b)
    # starts at 1+2, trustworthy strictly below min(4+2, 6+1)
    assert (prod.min_exp, prod.order) == (3, 6)
    assert prod.coeff(3) == zp({0: 1})
    assert prod.coeff(5) == zp({0: 1})


def test_truncate_contract():
    s = QSeries.from_terms({5: 1}, 9)
    narrowed = s.truncate(3)
    assert narrowed.is_zero() and narrowed.order == 3
    assert s.truncate(6).coeff(5) == zp({0: 1})
    with pytest.raises(InsufficientOrder):
        s.truncate(12)


def test_eq_up_to_requires_knowledge():
    a = QSeries.one(3)
    b = QSeries.one(5)
    assert a.eq_up_to(b, 3)
    with pytest.raises(InsufficientOrder):
        a.eq_up_to(b, 4)


def test_first_difference_agreeing_series():
    with pytest.raises(InsufficientOrder):
        QSeries.one(3).first_difference(QSeries.one(5), 4)
    gf = bounded_gap_overpartition_gf(3, 12)
    assert gf.first_difference(gf, 12) is None
    # differences at or past the compared order do not count
    wider = gf + QSeries.from_terms({10: 1}, 12)
    assert gf.first_difference(wider, 10) is None
    assert gf.eq_up_to(wider, 10)


def test_first_difference_locates_a_q_fault():
    gf = bounded_gap_overpartition_gf(3, 12)
    faulty = gf + QSeries.from_terms({7: zp({2: 1})}, 12)
    lhs = gf.zq_coeff(7, 2)
    assert gf.first_difference(faulty, 12) == (7, 2, lhs, lhs + 1)
    assert faulty.first_difference(gf, 12) == (7, 2, lhs + 1, lhs)
    assert not gf.eq_up_to(faulty, 12)
    assert gf.eq_up_to(faulty, 7)


def test_first_difference_locates_a_z_fault():
    # same q-exponent, two z-terms off: the lowest z-exponent is reported
    a = QSeries.from_terms({2: zp({-1: 4, 0: 1, 3: 2})}, 5)
    b = QSeries.from_terms({2: zp({-1: 4, 0: 2, 3: 9})}, 5)
    assert a.first_difference(b, 5) == (2, 0, 1, 2)
    # a coefficient present on one side only reads as 0 on the other
    c = QSeries.from_terms({2: zp({-1: 4, 0: 1, 3: 2, 5: -3})}, 5)
    assert a.first_difference(c, 5) == (2, 5, 0, -3)


def test_first_difference_across_windows():
    # the series start at different exponents: the lower start differs first
    a = QSeries.from_terms({-2: 1, 1: 1}, 4)
    b = QSeries.from_terms({1: 1}, 6)
    assert a.first_difference(b, 4) == (-2, 0, 1, 0)
    assert b.first_difference(QSeries.zero(6), 6) == (1, 0, 1, 0)


def test_scalar_multiplication_keeps_window():
    s = QSeries.from_terms({0: 1, 2: -3}, 5)
    doubled = s * 2
    assert (doubled.min_exp, doubled.order) == (0, 5)
    assert doubled.coeff(2) == zp({0: -6})
    scaled = s * zp({1: 1})
    assert scaled.coeff(0) == zp({1: 1})
    assert (s * 0).is_zero()


# -- frozen products and inverses ---------------------------------------


def test_pochhammer_two_factors():
    assert_series_matches(
        pochhammer(Q(1), 2, 5),
        {(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): 1},
    )


def test_pochhammer_three_factors():
    assert_series_matches(
        pochhammer(Q(1), 3, 7),
        {(0, 0): 1, (1, 0): -1, (2, 0): -1, (4, 0): 1, (5, 0): 1, (6, 0): -1},
    )


def test_pochhammer_marked_parts():
    # (1 + z q)(1 + z q^2)
    assert_series_matches(
        pochhammer(NEG_ZQ, 2, 5),
        {(0, 0): 1, (1, 1): 1, (2, 1): 1, (3, 2): 1},
    )


def test_pochhammer_empty_product_is_one():
    assert pochhammer(NEG_ZQ, 0, 4) == QSeries.one(4)


def test_pochhammer_laurent_argument():
    # (1 + z q^-1)(1 + z): the window must extend to q^-1
    p = pochhammer(QMonomial(-1, 1, -1), 2, 4)
    assert (p.min_exp, p.order) == (-1, 4)
    assert_series_matches(p, {(-1, 1): 1, (-1, 2): 1, (0, 0): 1, (0, 1): 1})


def test_invert_two_part_partitions():
    inv = qs_invert(pochhammer(Q(1), 2, 4), 4)
    # partitions into parts of size at most 2
    assert_series_matches(inv, {(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 2})


def test_invert_five_part_partitions():
    inv = qs_invert(pochhammer(Q(1), 5, 12), 12)
    counts = [1, 1, 2, 3, 5, 7, 10, 13, 18, 23, 30, 37]
    for n, count in enumerate(counts):
        assert inv.zq_coeff(n, 0) == count


def test_invert_marked_unit():
    inv = qs_invert(pochhammer(NEG_ZQ, 1, 3), 3)
    assert_series_matches(inv, {(0, 0): 1, (1, 1): -1, (2, 2): 1})


def test_invert_errors():
    with pytest.raises(NonUnitLeadingCoefficient):
        qs_invert(QSeries.from_terms({0: 2}, 4), 4)
    with pytest.raises(NonUnitLeadingCoefficient):
        qs_invert(QSeries.from_terms({0: zp({0: 1, 1: 1})}, 4), 4)
    with pytest.raises(NonUnitLeadingCoefficient):
        qs_invert(QSeries.zero(4), 4)
    with pytest.raises(InsufficientOrder):
        qs_invert(QSeries.one(3), 4)


def test_invert_to_order_zero_knows_nothing():
    # nothing is known about the inverse, which starts at q^-val
    assert qs_invert(QSeries.from_terms({2: 1, 3: 5}, 6), 0) == QSeries.zero(-2)
    assert str(qs_invert(QSeries.one(1), 0)) == "0 + O(q^0)"
    assert qs_invert(QSeries.from_terms({-3: zp({1: -1})}, 0), 0) == QSeries.zero(3)


def test_invert_rejects_negative_order():
    with pytest.raises(InsufficientOrder, match="negative relative order"):
        qs_invert(QSeries.one(4), -1)
    with pytest.raises(InsufficientOrder, match="negative relative order"):
        qs_invert(QSeries.from_terms({1: 1}, 3), -5)


def test_invert_shifted_valuation():
    # 1/(q - q^2) = q^-1 (1 + q + q^2 + ...)
    series = QSeries.from_terms({1: 1, 2: -1}, 5)
    inv = qs_invert(series, 4)
    assert (inv.min_exp, inv.order) == (-1, 3)
    assert all(inv.zq_coeff(n, 0) == 1 for n in (-1, 0, 1, 2))


def test_div_one_minus_is_geometric():
    quotient = div_one_minus(QSeries.one(6), Q(2))
    for n in range(6):
        assert quotient.zq_coeff(n, 0) == (1 if n % 2 == 0 else 0)
    tracked = div_one_minus(QSeries.one(5), NEG_ZQ)
    assert_series_matches(
        tracked,
        {(0, 0): 1, (1, 1): -1, (2, 2): 1, (3, 3): -1, (4, 4): 1},
    )
    with pytest.raises(DivergentProduct):
        div_one_minus(QSeries.one(4), QMonomial(1, 1, 0))


def test_mul_finite_shifts_window():
    base = QSeries.one(4)
    shifted = qs_mul_finite(base, [(2, zp({0: 1})), (3, zp({0: -1}))])
    assert (shifted.min_exp, shifted.order) == (2, 6)
    assert shifted.zq_coeff(2, 0) == 1 and shifted.zq_coeff(3, 0) == -1


def test_infinite_product_euler():
    assert_series_matches(
        pochhammer(Q(1), 9, 9),
        {(0, 0): 1, (1, 0): -1, (2, 0): -1, (5, 0): 1, (7, 0): 1},
    )


def test_infinite_product_shifted():
    assert_series_matches(
        pochhammer(Q(2), 6, 6),
        {(0, 0): 1, (2, 0): -1, (3, 0): -1, (4, 0): -1},
    )


def test_infinite_product_marked():
    assert_series_matches(
        pochhammer(NEG_ZQ, 4, 4),
        {(0, 0): 1, (1, 1): 1, (2, 1): 1, (3, 1): 1, (3, 2): 1},
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: pochhammer(Q(1), 2, 0),
        lambda: pochhammer(QMonomial(1, 0, -2), 3, -3),
    ],
    ids=["finite-order-0", "laurent-at-lowest-exp"],
)
def test_pochhammer_on_an_empty_window_is_zero(build):
    # each window ends at or below the product's lowest exponent
    series = build()
    assert series.is_zero()
    assert series == QSeries.zero(series.order)


def test_pochhammer_window_just_past_the_lowest_exponent():
    # (1 - q^-2)(1 - q^-1)(1 - 1) is identically zero; (1 - q^-2)(1 - q^-1)
    # starts at q^-3 with coefficient 1
    assert pochhammer(QMonomial(1, 0, -2), 2, -2) == QSeries.from_terms({-3: 1}, -2)
    assert pochhammer(QMonomial(1, 0, -2), 3, -2) == QSeries.zero(-2)


def count_row_merges(monkeypatch):
    """Wrap the row merge ``qseries._add_into``; the list collects its calls."""
    calls, merge = [], qseries._add_into

    def counted(out, terms, z_shift, scale):
        calls.append((z_shift, scale))
        merge(out, terms, z_shift, scale)

    monkeypatch.setattr(qseries, "_add_into", counted)
    return calls


WINDOW_5 = QSeries.from_terms({2: zp({0: 1, 1: 2}), 4: -3, 6: zp({-1: 1})}, 7)


def one_factor_at_a_time(kernel, a, b, n):
    for k in range(n):
        a = kernel(a, b * QMonomial.q_power(k))
    return a


def mul_pochhammer(a, b, n):
    return qseries.qs_pochhammer_ratio(a, [(b, n)], ())


def div_pochhammer(a, b, n):
    return qseries.qs_pochhammer_ratio(a, (), [(b, n)])


def mul_one_minus(a, mono):
    return qseries.qs_pochhammer_ratio(a, [(mono, 1)], ())


def div_one_minus(a, mono):
    return qseries.qs_pochhammer_ratio(a, (), [(mono, 1)])


@pytest.mark.parametrize("q_exp", [-2, 1, 2, 3, 4, 5, 6])
def test_mul_pochhammer_stops_at_the_window(monkeypatch, q_exp):
    # the window [2, 7) is 5 wide and never widens, so only the factors
    # (1 - b q^k) with b.q_exp + k < 5 can change the series
    b = QMonomial(-1, 1, q_exp)
    needed = max(0, 5 - q_exp)
    expected = one_factor_at_a_time(mul_one_minus, WINDOW_5, b, needed)
    merges = count_row_merges(monkeypatch)
    assert mul_pochhammer(WINDOW_5, b, needed) == expected
    merged = len(merges)
    assert mul_pochhammer(WINDOW_5, b, 10**4) == expected
    assert len(merges) == 2 * merged


@pytest.mark.parametrize("q_exp", [1, 2, 3, 4, 5, 6])
def test_div_pochhammer_stops_at_the_window(monkeypatch, q_exp):
    b = QMonomial(-1, 1, q_exp)
    needed = max(0, 5 - q_exp)
    expected = one_factor_at_a_time(div_one_minus, WINDOW_5, b, needed)
    merges = count_row_merges(monkeypatch)
    assert div_pochhammer(WINDOW_5, b, needed) == expected
    merged = len(merges)
    assert div_pochhammer(WINDOW_5, b, 10**4) == expected
    assert len(merges) == 2 * merged


def test_binomial_kernels_past_the_window_return_the_input():
    for step in (5, 6, 40):
        mono = QMonomial(-1, 1, step)
        assert mul_one_minus(WINDOW_5, mono) is WINDOW_5
        assert div_one_minus(WINDOW_5, mono) is WINDOW_5
        ratio = qseries.qs_pochhammer_ratio(WINDOW_5, [(mono, 3)], [(mono, 2), (mono, 0)])
        assert ratio is WINDOW_5


@pytest.mark.parametrize("n", [10**4, 10**7])
def test_long_negative_family_lists_only_the_factors_inside_the_window(n):
    # (q^-n; q)_n is (-1)^n q^-(n(n+1)/2) (q; q)_n: on a width-5 window only
    # (1 - q)...(1 - q^4) are left, and the rest of the family is the shift
    ratio = qseries.qs_pochhammer_ratio(QSeries.one(5), [(QMonomial(1, 0, -n), n)], ())
    low = -n * (n + 1) // 2
    assert ratio == QSeries.from_terms({low: 1, low + 1: -1, low + 2: -1}, low + 5)
    factors, shift = qseries._factors([(QMonomial(1, 0, -n), n)], 5)
    assert factors == [(1, 0, 4), (1, 0, 3), (1, 0, 2), (1, 0, 1)]
    assert shift == QMonomial(1, 0, low)


def test_div_pochhammer_rejects_divergent_factor_on_empty_window():
    with pytest.raises(DivergentProduct):
        div_pochhammer(QSeries.zero(5), QMonomial(1, 0, 0), 3)
    empty = QSeries.zero(5)
    assert div_pochhammer(empty, QMonomial(1, 0, 0), 0) == empty
    # a quotient family the window would skip still fails, next to others
    with pytest.raises(DivergentProduct, match=r"divide by \(-z\*q\^-40; q\)_1: its q-exponent -40"):
        qseries.qs_pochhammer_ratio(
            WINDOW_5, [(NEG_ZQ, 2)], [(Q(1), 2), (QMonomial(-1, 1, -40), 1)]
        )


# -- the closed-form builders -------------------------------------------


def test_gf_structure():
    gf = bounded_gap_overpartition_gf(3, 6)
    assert (gf.min_exp, gf.order) == (1, 6)
    assert gf.coeff(1) == zp({0: 1, 1: 1})
    assert gf.coeff(3) == zp({0: 3, 1: 4, 2: 1})


def test_gf_untracked_matches_substitution():
    for t in (1, 2, 4):
        tracked = bounded_gap_overpartition_gf(t, 12)
        plain = bounded_gap_overpartition_gf(t, 12, z_tracked=False)
        assert tracked.subs_z(1) == plain
        assert tracked.subs_z(0) == bounded_gap_partition_gf(t, 12)


def test_gf_t1_counts():
    # t=1: all parts equal (optionally one mark), or two adjacent sizes
    # with the largest unmarked; first weights checked by hand
    gf = bounded_gap_overpartition_gf(1, 5).subs_z(1)
    assert [gf.zq_coeff(n, 0) for n in range(1, 5)] == [2, 4, 6, 8]


def _legacy_overpartition_gf(t, order, z_tracked):
    """The closed form through a general inverse and product."""
    mark = QMonomial(-1, 1 if z_tracked else 0, 1)
    inverse = qs_invert(pochhammer(Q(1), t, order), order)
    return div_one_minus(qs_mul(pochhammer(mark, t, order), inverse) - 1, Q(t))


def _legacy_partition_gf(t, order):
    inverse = qs_invert(pochhammer(Q(1), t, order), order)
    return div_one_minus(inverse - 1, Q(t))


@pytest.mark.parametrize("t", list(range(1, 13)) + [20, 40])
def test_gf_builders_match_general_kernels(t):
    for order in (1, 2, 3, 31, 120):
        for z_tracked in (True, False):
            assert bounded_gap_overpartition_gf(
                t, order, z_tracked
            ) == _legacy_overpartition_gf(t, order, z_tracked)
        assert bounded_gap_partition_gf(t, order) == _legacy_partition_gf(t, order)


def _pochhammer_route_gf(t, order, z):
    """The closed form through the Pochhammer kernel, as it was built
    before the z-column builders: one ratio, then one geometric division."""
    num = [] if z == "zero" else [(QMonomial(-1, 1 if z == "tracked" else 0, 1), t)]
    ratio = qseries.qs_pochhammer_ratio(QSeries.one(order), num, [(Q(1), t)])
    return div_one_minus(ratio - 1, Q(t))


def _column_gf(t, order, z):
    if z == "zero":
        return bounded_gap_partition_gf(t, order)
    return bounded_gap_overpartition_gf(t, order, z_tracked=z == "tracked")


@pytest.mark.parametrize("t", list(range(1, 13)) + [20, 40, 100])
def test_gf_columns_match_the_pochhammer_route(t):
    for order in (1, 2, 3, 31, 120, 301):
        for z in ("tracked", "one", "zero"):
            series = _pochhammer_route_gf(t, order, z)
            assert _column_gf(t, order, z) == series, (t, order, z)
            assert qseries.bounded_gap_columns(t, order, z).to_series() == series, (t, order, z)


def test_gf_columns_hold_no_zero_mark_column():
    # `table` prints one mark column per buffer column
    for t in (1, 2, 3, 7, 12, 40):
        for order in (2, 3, 6, 41, 401):
            columns = qseries.bounded_gap_columns(t, order).columns
            assert all(any(col[1:]) for col in columns), (t, order)
            one, zero = (qseries.bounded_gap_columns(t, order, z).columns for z in ("one", "zero"))
            assert len(one) == len(zero) == 1


def _assert_column_modes_agree(t, order):
    tracked, one, zero = (
        qseries.bounded_gap_columns(t, order, z).columns for z in ("tracked", "one", "zero")
    )
    marks = sum(1 for k in range(1, t + 1) if k * (k + 1) // 2 < order)
    assert len(tracked) == 1 + marks, (t, order)
    assert one == [list(map(sum, zip(*tracked)))], (t, order)
    assert zero == tracked[:1], (t, order)


@pytest.mark.parametrize("t", list(range(1, 9)) + [39, 40])
def test_gf_column_modes_agree(t):
    # "one" is built from column 0 alone and mark columns k > t/2 mirror
    # column t - k, so the modes are three routes that must agree; the
    # orders put each shift k(k+1)/2 at order - 1 (the last column kept)
    # and at order (the first one dropped), and orders <= t put the top
    # factors of (q; q)_t past the window
    orders = {1, 2, t, t + 1}
    for k in range(1, t + 2):
        orders |= {k * (k + 1) // 2, k * (k + 1) // 2 + 1}
    for order in sorted(orders):
        _assert_column_modes_agree(t, order)


def test_gf_column_modes_agree_at_the_table_corner():
    # `table --t 2000 --max-n 2000` builds its columns to order 2001
    _assert_column_modes_agree(2000, 2001)


def test_gf_columns_refuse_an_unknown_z():
    with pytest.raises(ValueError, match="z must be tracked, one or zero"):
        qseries.bounded_gap_columns(3, 10, "two")


@pytest.mark.parametrize("z", ["tracked", "one", "zero"])
@pytest.mark.parametrize("t, order", [(1, 0), (2, 0), (2, -4), (100, -1)])
def test_gf_empty_window_raises_as_the_pochhammer_route(t, order, z):
    with pytest.raises(ValueError) as route:
        _pochhammer_route_gf(t, order, z)
    with pytest.raises(ValueError) as columns:
        _column_gf(t, order, z)
    assert type(columns.value) is type(route.value)
    assert str(columns.value) == str(route.value) == f"term q^0 is at or past order {order}"


@pytest.mark.parametrize("z", ["tracked", "one", "zero"])
@pytest.mark.parametrize("t, order", [(0, 5), (-3, 5), (0, 0), (-1, -4)])
def test_gf_rejects_a_nonpositive_bound(t, order, z):
    with pytest.raises(ValueError) as caught:
        _column_gf(t, order, z)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "the gap bound t must be a positive integer"


def _partition_numbers(count):
    """p(0..count-1) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * (count - 1)
    for n in range(1, count):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return p


def _distinct_part_counts(count, p):
    """Partitions of 0..count-1 into distinct parts, from
    (-q; q)_inf = (q^2; q^2)_inf / (q; q)_inf: p against the doubled
    pentagonal series."""
    out = []
    for n in range(count):
        total, k = p[n], 1
        while k * (3 * k - 1) <= n:
            sign = -1 if k % 2 else 1
            total += sign * p[n - k * (3 * k - 1)]
            if k * (3 * k + 1) <= n:
                total += sign * p[n - k * (3 * k + 1)]
            k += 1
        out.append(total)
    return out


def test_gf_past_enumeration_matches_partition_oracles():
    # for n <= t every gap is below t: the closed forms count every
    # nonempty partition and overpartition of n
    t, order = 2000, 2001
    p = _partition_numbers(order)
    distinct = _distinct_part_counts(order, p)
    assert p[100] == 190569292 and distinct[100] == 444793
    overpartitions = [
        sum(map(operator.mul, p[: n + 1], reversed(distinct[: n + 1])))
        for n in range(order)
    ]
    assert overpartitions[:6] == [1, 2, 4, 8, 14, 24]
    plain = bounded_gap_partition_gf(t, order)
    assert plain == QSeries.from_terms(dict(enumerate(p[1:], 1)), order)
    expected = QSeries.from_terms(dict(enumerate(overpartitions[1:], 1)), order)
    assert bounded_gap_overpartition_gf(t, order, z_tracked=False) == expected
    assert bounded_gap_overpartition_gf(t, order).subs_z(1) == expected


def test_closed_forms_do_not_use_the_pochhammer_kernel(monkeypatch):
    # chain line 7 must not share a method with line 6
    expected = {
        (t, order, z): _pochhammer_route_gf(t, order, z)
        for t in (1, 4, 13)
        for order in (1, 9, 60)
        for z in ("tracked", "one", "zero")
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("the Pochhammer kernel ran on the closed-form path")

    monkeypatch.setattr(qseries, "qs_pochhammer_ratio", forbidden)
    for (t, order, z), series in expected.items():
        assert _column_gf(t, order, z) == series


def test_closed_form_avoids_general_kernels(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("general kernel called on the closed-form path")

    expected = bounded_gap_overpartition_gf(6, 50)
    monkeypatch.setattr(qseries, "qs_invert", forbidden)
    monkeypatch.setattr(qseries, "qs_mul", forbidden)
    assert bounded_gap_overpartition_gf(6, 50) == expected
    assert not bounded_gap_overpartition_gf(6, 50, z_tracked=False).is_zero()
    assert not bounded_gap_partition_gf(6, 50).is_zero()
    assert not pochhammer(QMonomial(-1, 1, -2), 5, 20).is_zero()
    for z in ("tracked", "zero", "one"):
        assert main(["table", "--t", "6", "--max-n", "30", "--z", z]) == 0
    assert capsys.readouterr().err == ""


def test_str_rendering():
    assert str(QSeries.from_terms({1: zp({0: 1, 1: 1})}, 2)) == "(z + 1)*q + O(q^2)"
    assert str(QSeries.zero(4)) == "0 + O(q^4)"
    assert str(QSeries.from_terms({-1: zp({2: -3})}, 2)) == "-3*z^2*q^-1 + O(q^2)"


def test_str_pulls_the_sign_out_of_single_terms():
    assert str(QSeries.one(4) - QSeries.from_terms({1: 1}, 4)) == "1 - q + O(q^4)"
    series = QSeries.from_terms({1: -1, 2: zp({1: -2}), 3: zp({0: -1, 1: 1})}, 5)
    assert str(series) == "-q - 2*z*q^2 + (z - 1)*q^3 + O(q^5)"


# -- randomized ring checks ----------------------------------------------

z_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(ZLaurentPoly)


@st.composite
def q_series(draw, min_exp_floor=-4):
    min_exp = draw(st.integers(min_value=min_exp_floor, max_value=4))
    width = draw(st.integers(min_value=0, max_value=5))
    coeffs = [draw(z_polys) for _ in range(width)]
    return QSeries(min_exp, coeffs, min_exp + width)


@given(q_series(), q_series())
def test_add_matches_oracle(a, b):
    assert_series_matches(
        qs_add(a, b), poly_add(poly_from_series(a), poly_from_series(b))
    )


@given(q_series(), q_series())
def test_mul_matches_oracle(a, b):
    assert_series_matches(
        qs_mul(a, b), poly_mul(poly_from_series(a), poly_from_series(b))
    )


@given(q_series(), q_series())
def test_add_commutes(a, b):
    assert qs_add(a, b) == qs_add(b, a)


@given(q_series(), q_series(), q_series())
def test_mul_distributes(a, b, c):
    lhs = qs_mul(a, qs_add(b, c))
    rhs = qs_add(qs_mul(a, b), qs_mul(a, c))
    order = min(lhs.order, rhs.order)
    assert lhs.truncate(order) == rhs.truncate(order)


@given(q_series(), q_series(), q_series())
def test_mul_associates(a, b, c):
    lhs = qs_mul(qs_mul(a, b), c)
    rhs = qs_mul(a, qs_mul(b, c))
    order = min(lhs.order, rhs.order)
    assert lhs.truncate(order) == rhs.truncate(order)


monomials = st.builds(
    QMonomial,
    st.sampled_from((1, -1)),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-4, max_value=4),
)


@given(q_series(), monomials)
@example(QSeries.zero(3), QMonomial(1, 0, 2))
@example(QSeries.zero(-2), QMonomial(-1, 1, -3))
@example(QSeries(-2, [zp({0: 1}), zp({1: -2})], 1), QMonomial(1, 0, 0))
@example(QSeries(-3, [zp({0: 2}), zp({})], 0), QMonomial(-1, 1, 0))
@example(QSeries(-1, [zp({-1: 1, 2: 3})], 2), QMonomial(1, -1, -2))
@example(QSeries(1, [zp({0: 1}), zp({1: 4})], 4), QMonomial(-1, 2, 1))
def test_mul_one_minus_matches_mul_finite(a, mono):
    z_part = ZLaurentPoly.monomial(mono.sign, mono.z_exp)
    expected = qs_mul_finite(a, [(0, zp({0: 1})), (mono.q_exp, -z_part)])
    assert mul_one_minus(a, mono) == expected


@st.composite
def invertible_series(draw):
    min_exp = draw(st.integers(min_value=-3, max_value=3))
    width = draw(st.integers(min_value=1, max_value=6))
    lead_exp = draw(st.integers(min_value=-2, max_value=2))
    lead_sign = draw(st.sampled_from((1, -1)))
    coeffs = [ZLaurentPoly({lead_exp: lead_sign})]
    coeffs += [draw(z_polys) for _ in range(width - 1)]
    return QSeries(min_exp, coeffs, min_exp + width)


@given(invertible_series())
def test_invert_round_trip(a):
    width = a.order - a.min_exp
    inv = qs_invert(a, width)
    assert qs_mul(a, inv).eq_up_to(QSeries.one(width), width)


@given(q_series(min_exp_floor=0), st.sampled_from((0, 1, -1, 2)))
def test_subs_z_is_a_homomorphism(a, z_value):
    # nonnegative z-exponents only, so every specialization is defined
    if any(
        exp < 0 for _, poly in a.enumerate_terms() for exp, _ in poly.items()
    ):
        a = QSeries(
            a.min_exp,
            [
                ZLaurentPoly({e: c for e, c in poly.items() if e >= 0})
                for poly in a.coeffs
            ],
            a.order,
        )
    squared = qs_mul(a, a)
    direct = squared.subs_z(z_value)
    via = qs_mul(a.subs_z(z_value), a.subs_z(z_value))
    assert direct.eq_up_to(via, min(direct.order, via.order))


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=20))
def test_gf_matches_plain_partition_form(t, order):
    tracked = bounded_gap_overpartition_gf(t, order)
    assert tracked.subs_z(0).eq_up_to(bounded_gap_partition_gf(t, order), order)


# -- the product kernel ----------------------------------------------------

def legacy_mul_finite(a, factor):
    """The schoolbook loop qs_mul_finite used before the packed product."""
    pairs = [(exp, coeff) for exp, coeff in factor if coeff]
    if not pairs or a.is_zero():
        shift = min((exp for exp, _ in pairs), default=0)
        return QSeries.zero(a.order + shift)
    shift = min(exp for exp, _ in pairs)
    lo = a.min_exp + shift
    order = a.order + shift
    width = order - lo
    rows = [dict() for _ in range(width)]
    for exp, coeff in pairs:
        base = exp - shift
        for i, ca in enumerate(a.coeffs):
            pos = base + i
            if pos >= width:
                break
            for za, va in ca.items():
                for zb, vb in coeff.items():
                    key = za + zb
                    rows[pos][key] = rows[pos].get(key, 0) + va * vb
    return QSeries(lo, [ZLaurentPoly(r) for r in rows], order)


def legacy_invert(a, target_order):
    """The term-by-term recurrence qs_invert used before Newton's iteration."""
    (lead_exp, lead_sign), = a.coeffs[0].items()
    val = a.min_exp
    alpha = [dict(a.coeff(val + k).items()) for k in range(target_order)]
    out = [{-lead_exp: lead_sign}]
    for n in range(1, target_order):
        acc = {}
        for k in range(1, n + 1):
            for za, va in alpha[k].items():
                for zb, vb in out[n - k].items():
                    acc[za + zb] = acc.get(za + zb, 0) + va * vb
        out.append({exp - lead_exp: -lead_sign * c for exp, c in acc.items()})
    return QSeries(-val, [ZLaurentPoly(r) for r in out], -val + target_order)


BOUNDARIES = (2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1)

big_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([s * m for m in BOUNDARIES for s in (1, -1)]),
)
big_z_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), big_coeffs, max_size=3
).map(ZLaurentPoly)


@st.composite
def sparse_series(draw):
    """Laurent windows, big and negative-z coefficients, zero rows, and
    orders past the last stored coefficient."""
    min_exp = draw(st.integers(min_value=-6, max_value=6))
    width = draw(st.integers(min_value=0, max_value=8))
    coeffs = [
        draw(st.one_of(st.just(zp({})), big_z_polys)) for _ in range(width)
    ]
    return QSeries(min_exp, coeffs, min_exp + width + draw(st.integers(0, 3)))


def assert_product_window(product, a, b):
    assert product.order == min(a.order + b.min_exp, b.order + a.min_exp)
    assert_series_matches(product, poly_mul(poly_from_series(a), poly_from_series(b)))


@given(sparse_series(), sparse_series())
@example(QSeries.zero(2), QSeries.one(3))
@example(
    QSeries(-2, [zp({-5: 2**200}), zp({}), zp({}), zp({6: -(2**200)})], 3),
    QSeries(4, [zp({0: -1}), zp({}), zp({-3: 7, 5: 2**199})], 9),
)
def test_mul_kernel_matches_oracle(a, b):
    assert_product_window(qs_mul(a, b), a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        # b's window ends first: a's rows at q^4.. lie past the product's
        (
            QSeries(0, [zp({0: 1, 1: 2}), zp({}), zp({-2: 3}), zp({0: 1, 5: -1, 6: 1}),
                        zp({1: 7}), zp({0: 1, 2: 1})], 6),
            QSeries(0, [zp({0: 1}), zp({1: -1, 3: 2**200})], 4),
        ),
        # Laurent windows, zero rows and rows past the window on both sides
        (
            QSeries(-3, [zp({-1: 2, 4: -5}), zp({}), zp({0: 2**64, 1: -(2**63)}),
                         zp({2: 1}), zp({0: 9})], 2),
            QSeries(2, [zp({}) if k % 3 == 1 else zp({k: 1, -k: -1}) for k in range(9)], 11),
        ),
        # a z-free factor, as the transformation's prefactor is
        (
            QSeries(1, [zp({0: 1, 1: 1, 3: -2})] * 7, 8),
            QSeries(-1, [zp({0: -1})] + [zp({0: 3})] * 4, 4),
        ),
    ],
)
def test_mul_kernel_merges_only_pairs_inside_the_window(monkeypatch, a, b):
    merged = []
    merge = qseries._add_into

    def counted(out, terms, z_shift, scale):
        merged.append(len(terms))
        merge(out, terms, z_shift, scale)

    monkeypatch.setattr(qseries, "_add_into", counted)
    product = qs_mul(a, b)
    width = product.order - (a.min_exp + b.min_exp)
    assert len(a.coeffs) > width or len(b.coeffs) > width
    assert sum(merged) == sum(
        len(ra.items()) * len(rb.items())
        for i, ra in enumerate(a.coeffs)
        for j, rb in enumerate(b.coeffs)
        if i + j < width
    )
    assert_product_window(product, a, b)


@pytest.mark.parametrize("magnitude", BOUNDARIES)
@pytest.mark.parametrize("sign", [1, -1])
def test_mul_kernel_digit_width_boundaries(magnitude, sign):
    def series(*coeffs):
        return QSeries(0, [zp({0: c}) for c in coeffs], 4)

    root = math.isqrt(magnitude)
    cases = [
        # a single product of exactly the magnitude
        (series(sign * magnitude), series(1)),
        (series(sign * magnitude, 1), series(1, -1)),
        # two products summing to it, in adjacent digits
        (series(magnitude // 2, magnitude - magnitude // 2), series(sign, sign)),
        # factors near its square root
        (series(sign * root, root + 1), series(root, -root - 1, 1)),
        (series(sign * (root + 1)), series(magnitude // (root + 1))),
    ]
    for a, b in cases:
        assert_product_window(qs_mul(a, b), a, b)
    # the same magnitudes as z-terms of one row
    a = QSeries(0, [zp({-1: sign * magnitude, 2: magnitude})], 3)
    b = QSeries(0, [zp({0: 1, 1: -1}), zp({-2: sign})], 3)
    assert_product_window(qs_mul(a, b), a, b)


factors = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=8), big_z_polys), max_size=4
)


@given(sparse_series(), factors)
@example(QSeries.one(4), [(0, zp({0: 1})), (0, zp({0: -1}))])
@example(QSeries.one(4), [(0, zp({0: 1})), (2, zp({1: 3})), (0, zp({0: -1}))])
@example(QSeries(-1, [zp({0: 2}), zp({1: 1})], 3), [(-2, zp({0: 1})), (-2, zp({0: -1}))])
@example(QSeries.zero(3), [(-2, zp({0: 1})), (1, zp({0: 1}))])
def test_mul_finite_matches_oracle(a, factor):
    product = qs_mul_finite(a, factor)
    summed = {}
    for exp, coeff in factor:
        for z_exp, c in coeff.items():
            summed = poly_add(summed, {(exp, z_exp): c})
    shift = min((exp for exp, coeff in factor if coeff), default=0)
    assert product.order == a.order + shift
    assert_series_matches(product, poly_mul(poly_from_series(a), summed))
    assert product == legacy_mul_finite(a, factor)


def test_mul_finite_cancelling_factor_is_zero():
    a = bounded_gap_overpartition_gf(2, 8)
    cancel = [(0, zp({0: 1})), (0, zp({0: -1}))]
    assert qs_mul_finite(a, cancel) == QSeries.zero(8)
    # the window still follows the lowest nonzero pair, even though it cancels
    with_rest = qs_mul_finite(a, cancel + [(3, zp({1: 1}))])
    assert with_rest.order == 8
    assert with_rest == (a * QMonomial(1, 1, 3)).truncate(8)


MONOMIAL_SHIFTS = [
    QMonomial(sign, z_exp, q_exp)
    for sign in (1, -1)
    for z_exp in (-2, 0, 3)
    for q_exp in (-3, 0, 1, 4)
]


@pytest.mark.parametrize("mono", MONOMIAL_SHIFTS, ids=str)
def test_monomial_product_is_a_shift(mono):
    operands = [
        QSeries.zero(5),
        QSeries.one(1),
        bounded_gap_overpartition_gf(3, 9),
        QSeries(-3, [zp({-1: 2, 2: -5}), zp({}), zp({0: 10**30})], 2),
        pochhammer(QMonomial(-1, 1, -2), 3, 6),
    ]
    for a in operands:
        z_part = ZLaurentPoly.monomial(mono.sign, mono.z_exp)
        expected = legacy_mul_finite(a, [(mono.q_exp, z_part)])
        assert a * mono == expected
        assert mono * a == expected


@given(invertible_series())
@example(QSeries(0, [zp({0: 1}), zp({0: 2**70}), zp({1: -(2**64)})], 3))
def test_invert_matches_recurrence(a):
    for target in range(1, a.order - a.min_exp + 1):
        assert qs_invert(a, target) == legacy_invert(a, target)


# -- the z-term merge --------------------------------------------------------


def dict_sum(a, b, scale=1):
    out = dict(a)
    for z, c in b.items():
        out[z] = out.get(z, 0) + scale * c
    return {z: c for z, c in out.items() if c}


def dict_product(a, b):
    out = {}
    for za, ca in a.items():
        for zb, cb in b.items():
            out[za + zb] = out.get(za + zb, 0) + ca * cb
    return {z: c for z, c in out.items() if c}


wide_z_polys = st.dictionaries(
    st.integers(min_value=-40, max_value=40), big_coeffs, min_size=12, max_size=30
).map(ZLaurentPoly)


@st.composite
def z_poly_pairs(draw):
    """Pairs whose sum or difference cancels in part or in full, and pairs
    of very different sizes."""
    a = draw(st.one_of(big_z_polys, wide_z_polys))
    negated = {z: -c for z, c in a.items()}
    b = draw(st.one_of(
        big_z_polys,
        wide_z_polys,
        st.just(ZLaurentPoly(negated)),
        big_z_polys.map(lambda extra: ZLaurentPoly(dict_sum(negated, dict(extra.items())))),
    ))
    return a, b


@given(z_poly_pairs(), st.integers(min_value=-3, max_value=3))
@example((zp({1: 2, -1: 3}), zp({1: -2, -1: -3})), 0)
@example((zp({0: 1, 1: 1}), zp({0: 1, 1: -1})), 5)
@example((zp({0: 4}), zp({0: 4, 3: 1})), 4)
def test_z_poly_sum_difference_product_match_dict_oracle(pair, c):
    a, b = pair
    ta, tb = dict(a.items()), dict(b.items())
    cases = [
        (a + b, dict_sum(ta, tb)),
        (a - b, dict_sum(ta, tb, -1)),
        (a - a, {}),
        (a * b, dict_product(ta, tb)),
        (b * a, dict_product(ta, tb)),
        (a + c, dict_sum(ta, {0: c})),
        (a - c, dict_sum(ta, {0: c}, -1)),
        (c - a, dict_sum({0: c}, ta, -1)),
    ]
    for got, want in cases:
        terms = dict(got.items())
        assert terms == want
        assert 0 not in terms.values()


@given(sparse_series(), sparse_series(), st.integers(min_value=-3, max_value=3))
@example(QSeries(-1, [zp({0: 2}), zp({1: 1})], 3), QSeries(-1, [zp({0: 2}), zp({1: 1})], 3), 0)
@example(QSeries.one(4), QSeries(0, [zp({0: 1}), zp({2: 5})], 2), 1)
def test_series_difference_is_signed_sum(a, b, c):
    difference = a - b
    assert difference == a + (-b)
    assert difference.order == min(a.order, b.order)
    negated_b = {key: -v for key, v in poly_from_series(b).items()}
    assert_series_matches(difference, poly_add(poly_from_series(a), negated_b))
    assert a - a == QSeries.zero(a.order)
    if a.order <= 0:
        # the constant lies past the window, so it changes nothing
        assert c - a == -a
        assert a - c == a == a + c == c + a
        return
    assert c - a == -a + c
    assert_series_matches(
        c - a, poly_add({(0, 0): c}, {key: -v for key, v in poly_from_series(a).items()})
    )


def legacy_div_one_minus(a, mono):
    """The row loop that divided by one factor (1 - mono) before the shared merge."""
    step = mono.q_exp
    if a.is_zero():
        return a
    width = a.order - a.min_exp
    rows = []
    z_shift, z_sign = mono.z_exp, mono.sign
    for i in range(width):
        base = dict(a.coeffs[i].items()) if i < len(a.coeffs) else {}
        if i - step >= 0:
            for exp, coeff in rows[i - step].items():
                key = exp + z_shift
                total = base.get(key, 0) + z_sign * coeff
                if total:
                    base[key] = total
                elif key in base:
                    del base[key]
        rows.append(base)
    return QSeries(a.min_exp, [ZLaurentPoly(r) for r in rows], a.order)


def legacy_mul_one_minus(a, mono):
    """The row loop that multiplied by one factor (1 - mono) before the shared merge."""
    step = mono.q_exp
    shift = min(0, step)
    if a.is_zero():
        return QSeries.zero(a.order + shift)
    coeffs = a.coeffs
    size = len(coeffs)
    one_at = -shift
    mono_at = step - shift
    z_shift, neg_sign = mono.z_exp, -mono.sign
    rows = []
    for i in range(min(a.order - a.min_exp, size + max(one_at, mono_at))):
        j = i - one_at
        base = coeffs[j] if 0 <= j < size else zp({})
        k = i - mono_at
        if not 0 <= k < size or not coeffs[k]:
            rows.append(base)
            continue
        row = dict(base.items())
        for exp, coeff in coeffs[k].items():
            key = exp + z_shift
            total = row.get(key, 0) + neg_sign * coeff
            if total:
                row[key] = total
            elif key in row:
                del row[key]
        rows.append(ZLaurentPoly(row))
    return QSeries(a.min_exp + shift, rows, a.order + shift)


def binomials(q_steps):
    return st.builds(
        QMonomial, st.sampled_from((1, -1)), st.sampled_from((-1, 0, 2)), q_steps
    )


@given(sparse_series(), binomials(st.integers(min_value=-3, max_value=4)))
@example(QSeries(0, [zp({0: 1}), zp({1: -1})], 9), QMonomial(1, 0, 0))
@example(QSeries(-2, [zp({0: 3}), zp({}), zp({2: 1})], 1), QMonomial(-1, -1, -3))
@example(QSeries(1, [zp({-1: 2})], 3), QMonomial(1, 2, 4))
def test_mul_one_minus_matches_row_loop(a, mono):
    assert mul_one_minus(a, mono) == legacy_mul_one_minus(a, mono)


@given(sparse_series(), binomials(st.integers(min_value=1, max_value=4)))
@example(QSeries(0, [zp({0: 1}), zp({0: -1})], 6), QMonomial(1, 0, 1))
@example(QSeries.one(12), QMonomial(-1, 2, 3))
@example(QSeries(-4, [zp({-1: 5, 2: -1}), zp({}), zp({0: 2**70})], 7), QMonomial(1, -1, 2))
def test_div_one_minus_matches_row_loop(a, mono):
    assert div_one_minus(a, mono) == legacy_div_one_minus(a, mono)


@given(
    sparse_series(),
    binomials(st.integers(min_value=-3, max_value=4)),
    st.integers(min_value=0, max_value=6),
)
@example(QSeries(0, [zp({0: 1}), zp({1: -1})], 9), QMonomial(1, 0, -2), 5)
@example(QSeries(-2, [zp({0: 3}), zp({}), zp({2: 1})], 4), QMonomial(-1, 2, -3), 6)
@example(QSeries.zero(3), QMonomial(1, -1, -1), 3)
def test_mul_pochhammer_matches_row_loop(a, mono, n):
    # from q_exp -3 one product crosses negative, zero and positive steps
    expected = one_factor_at_a_time(legacy_mul_one_minus, a, mono, n)
    assert mul_pochhammer(a, mono, n) == expected


@given(
    sparse_series(),
    binomials(st.integers(min_value=1, max_value=4)),
    st.integers(min_value=0, max_value=6),
)
@example(QSeries.one(12), QMonomial(-1, 2, 1), 6)
@example(QSeries(-4, [zp({-1: 5, 2: -1}), zp({}), zp({0: 2**70})], 7), QMonomial(1, -1, 2), 4)
def test_div_pochhammer_matches_row_loop(a, mono, n):
    expected = one_factor_at_a_time(legacy_div_one_minus, a, mono, n)
    assert div_pochhammer(a, mono, n) == expected


families = st.lists(
    st.tuples(binomials(st.integers(min_value=-3, max_value=4)), st.integers(0, 6)),
    max_size=3,
)
quotient_families = st.lists(
    st.tuples(binomials(st.integers(min_value=1, max_value=4)), st.integers(0, 6)),
    max_size=3,
)


@given(sparse_series(), families, quotient_families)
@example(
    QSeries(-2, [zp({0: 3}), zp({}), zp({2: 1})], 6),
    [(QMonomial(1, 0, 2), 3), (QMonomial(-1, 2, -3), 6), (QMonomial(1, -1, 0), 2)],
    [(QMonomial(-1, 2, 1), 4), (QMonomial(1, 0, 3), 2)],
)
@example(QSeries.one(9), [(QMonomial(1, 0, 0), 1), (QMonomial(-1, 1, -2), 4)], [(Q(1), 5)])
@example(QSeries.zero(4), [(QMonomial(1, -1, -3), 6)], [(NEG_ZQ, 3)])
# turned around, the factor's q^5 reaches the width: only its shift is left
@example(QSeries.one(3), [(QMonomial(1, 0, -5), 1)], [])
# turned around, (1 - q^-2) is -q^-2 (1 - q^2), and (1 - q^2) cancels
@example(
    QSeries(-1, [zp({0: 2, 1: -1}), zp({}), zp({-1: 3})], 9),
    [(QMonomial(1, 0, -2), 1)],
    [(Q(2), 1)],
)
def test_pochhammer_ratio_matches_row_loops(a, num, den):
    # products first, then quotients, each family one factor at a time
    expected = a
    for b, n in num:
        expected = one_factor_at_a_time(legacy_mul_one_minus, expected, b, n)
    for c, m in den:
        expected = one_factor_at_a_time(legacy_div_one_minus, expected, c, m)
    assert qseries.qs_pochhammer_ratio(a, num, den) == expected


MIXED_FAMILIES = [
    ([(QMonomial(1, 0, 2), 3), (QMonomial(-1, 2, -3), 6)], [(NEG_ZQ, 4)]),
    ([(NEG_ZQ, 5), (QMonomial(1, -1, 0), 2)], [(Q(1), 6), (QMonomial(-1, 1, 3), 2)]),
    ([(QMonomial(-1, 1, -1), 3), (Q(4), 2), (QMonomial(1, 0, -2), 2)], []),
]
# the families of each entry left once the shared factors cancel:
# (-zq)_5 / (-zq^3)_2 leaves (-zq)_2 and (-zq^5)_1
LEFT_AFTER_CANCELLING = [
    MIXED_FAMILIES[0],
    ([(NEG_ZQ, 2), (QMonomial(-1, 1, 5), 1), (QMonomial(1, -1, 0), 2)], [(Q(1), 6)]),
    MIXED_FAMILIES[2],
]


@pytest.mark.parametrize("num, den", MIXED_FAMILIES)
def test_pochhammer_ratio_merges_as_its_families_one_at_a_time(monkeypatch, num, den):
    # one copy of the rows, but exactly the row merges of one call per
    # family left after the shared factors cancel
    left_num, left_den = LEFT_AFTER_CANCELLING[MIXED_FAMILIES.index((num, den))]
    a = QSeries(-2, [zp({0: 3}), zp({}), zp({-1: 4, 2: 1}), zp({1: -2})], 12)
    merges = count_row_merges(monkeypatch)
    chained = a
    for b, n in left_num:
        chained = mul_pochhammer(chained, b, n)
    for c, m in left_den:
        chained = div_pochhammer(chained, c, m)
    one_at_a_time = len(merges)
    assert qseries.qs_pochhammer_ratio(a, num, den) == chained
    assert len(merges) == 2 * one_at_a_time


def random_series(rng):
    """A seeded Laurent window: zero rows, negative z-exponents, and now and
    then the zero series or an order past the last stored coefficient."""
    min_exp = rng.randint(-4, 4)
    width = rng.randint(0, 9)
    coeffs = [
        zp({rng.randint(-2, 3): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))})
        for _ in range(width)
    ]
    return QSeries(min_exp, coeffs, min_exp + width + rng.randint(0, 3))


def shared_class_families(rng):
    """Numerator and denominator families of one (sign, z) class, with
    overlapping, nested and disjoint q-ranges and negative numerator
    q-exponents, plus now and then a family of another class."""
    sign, z_exp = rng.choice((1, -1)), rng.choice((-1, 0, 1, 2))
    num = [(QMonomial(sign, z_exp, rng.randint(-3, 5)), rng.randint(0, 7))
           for _ in range(rng.randint(1, 3))]
    den = [(QMonomial(sign, z_exp, rng.randint(1, 5)), rng.randint(0, 7))
           for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        num.append((QMonomial(-sign, z_exp, rng.randint(-1, 3)), rng.randint(1, 4)))
    if rng.random() < 0.3:
        den.append((QMonomial(sign, z_exp + 1, rng.randint(1, 3)), rng.randint(1, 4)))
    return num, den


@pytest.mark.parametrize("seed", range(20))
def test_pochhammer_ratio_cancels_shared_factors_exactly(seed):
    # the kernel, with its shared factors cancelled, against every factor
    # applied one pass at a time: products first, then quotients
    rng = random.Random(seed)
    for _ in range(25):
        a = random_series(rng)
        num, den = shared_class_families(rng)
        expected = a
        for b, n in num:
            expected = one_factor_at_a_time(legacy_mul_one_minus, expected, b, n)
        for c, m in den:
            expected = one_factor_at_a_time(legacy_div_one_minus, expected, c, m)
        assert qseries.qs_pochhammer_ratio(a, num, den) == expected


@pytest.mark.parametrize(
    "num, den",
    [
        # nested, overlapping and disjoint ranges of one class
        ([(NEG_ZQ, 6)], [(QMonomial(-1, 1, 2), 3)]),
        ([(QMonomial(1, 0, -2), 6)], [(Q(2), 5)]),
        ([(Q(1), 2)], [(Q(4), 3)]),
        # the whole quotient cancels: a comes back
        ([(Q(2), 4), (Q(1), 1)], [(Q(1), 5)]),
    ],
)
def test_pochhammer_ratio_cancels_nested_overlapping_and_disjoint_ranges(num, den):
    a = QSeries(-1, [zp({0: 2, 1: -1}), zp({}), zp({-1: 3})], 9)
    expected = a
    for b, n in num:
        expected = one_factor_at_a_time(legacy_mul_one_minus, expected, b, n)
    for c, m in den:
        expected = one_factor_at_a_time(legacy_div_one_minus, expected, c, m)
    assert qseries.qs_pochhammer_ratio(a, num, den) == expected


def test_pochhammer_ratio_returns_the_input_when_every_factor_cancels():
    a = QSeries(-1, [zp({0: 2, 1: -1}), zp({}), zp({-1: 3})], 9)
    assert qseries.qs_pochhammer_ratio(a, [(Q(2), 4), (Q(1), 1)], [(Q(1), 5)]) is a


@pytest.mark.parametrize(
    "num, den",
    [
        ([], [(Q(0), 3)]),
        ([(Q(0), 3)], [(Q(0), 3)]),
        ([(Q(-2), 6)], [(Q(-1), 4)]),
        ([(QMonomial(-1, 1, -1), 5), (Q(1), 2)], [(Q(1), 2), (QMonomial(-1, 1, 0), 2)]),
    ],
    ids=["alone", "cancelled", "cancelled-negative", "mixed"],
)
def test_pochhammer_ratio_rejects_a_divergent_family_cancelled_or_not(num, den):
    # the check reads the families as given, before any factor cancels
    with pytest.raises(DivergentProduct, match="is below 1"):
        qseries.qs_pochhammer_ratio(QSeries.one(8), num, den)


# -- z-column buffer -----------------------------------------------------


def column_ratio(a, num, den, lift=0):
    """The ratio through the z-column buffer: rows to columns, the passes,
    and back to rows."""
    columns = qseries.ZColumns.from_series(a)
    columns.pochhammer_ratio(num, den, lift)
    return columns.to_series()


def lifted(families, lift):
    return [(b * Q(lift), n) for b, n in families]


z_steps = st.integers(min_value=-2, max_value=2)
lifts = st.integers(min_value=0, max_value=2)


@settings(max_examples=300)
@given(
    sparse_series(),
    st.builds(QMonomial, st.sampled_from((1, -1)), z_steps, st.integers(-3, 5)),
    st.integers(min_value=0, max_value=6),
    lifts,
)
@example(QSeries(-4, [zp({-1: 5, 2: -1}), zp({}), zp({0: 2**70})], 7), QMonomial(-1, 2, -3), 6, 0)
@example(QSeries(0, [zp({0: 1}), zp({1: -1})], 9), QMonomial(1, -2, 0), 5, 0)
@example(QSeries(2, [zp({1: 2**70, -1: -(2**70)})], 8), QMonomial(1, 0, 0), 1, 0)
@example(QSeries.zero(3), QMonomial(-1, 1, -3), 6, 1)
# a lifted family that crosses the window's width: only s = 5 applies
@example(QSeries.one(6), QMonomial(1, 1, 3), 4, 2)
# lifted to q^-5, the turned factor's q^5 reaches the width: only the shift
@example(QSeries.one(3), QMonomial(1, 0, -6), 1, 1)
# lifted to q^-3..q^-1, each turned factor carries z^-1: a flipped pass
@example(QSeries(0, [zp({0: 1}), zp({1: -1})], 9), QMonomial(-1, 1, -4), 3, 1)
def test_column_products_match_the_kernel(a, mono, n, lift):
    expected = qseries.qs_pochhammer_ratio(a, lifted([(mono, n)], lift), ())
    assert column_ratio(a, [(mono, n)], (), lift) == expected


@settings(max_examples=300)
@given(
    sparse_series(),
    st.builds(QMonomial, st.sampled_from((1, -1)), z_steps, st.integers(1, 5)),
    st.integers(min_value=0, max_value=6),
    lifts,
)
@example(QSeries(-4, [zp({-1: 5, 2: -1}), zp({}), zp({0: 2**70})], 7), QMonomial(1, -1, 2), 4, 0)
@example(QSeries.one(30), QMonomial(-1, 0, 1), 6, 0)
@example(QSeries.one(30), QMonomial(-1, 2, 1), 3, 0)
@example(QSeries(-1, [zp({2: 1}), zp({}), zp({-2: 3})], 20), QMonomial(-1, -2, 3), 2, 1)
# s < width <= 2s: 1/(1 + q^s) is (1 - q^s)/(1 - q^(2s)), the latter past the window
@example(QSeries.one(5), QMonomial(-1, 0, 3), 2, 0)
@example(QSeries(-2, [zp({0: 2**70}), zp({}), zp({1: -3})], 4), QMonomial(-1, 0, 2), 3, 0)
# lifted families at the window's width: no factor applies, then only s = 5
@example(QSeries.one(6), QMonomial(-1, 0, 4), 3, 2)
@example(QSeries.one(6), QMonomial(1, 1, 3), 4, 2)
def test_column_quotients_match_the_kernel(a, mono, n, lift):
    expected = qseries.qs_pochhammer_ratio(a, (), lifted([(mono, n)], lift))
    assert column_ratio(a, (), [(mono, n)], lift) == expected


@given(sparse_series())
@example(QSeries(-3, [zp({}), zp({-6: 2**70, 6: -1}), zp({})], 2))
@example(QSeries.zero(-2))
def test_columns_round_trip_to_the_same_rows(a):
    assert qseries.ZColumns.from_series(a).to_series() == a


@given(sparse_series(), monomials, st.integers(min_value=0, max_value=4))
@example(QSeries.zero(2), QMonomial(1, 0, 0), 0)
@example(QSeries(3, [zp({2: 1})], 6), QMonomial(-1, 1, 1), 1)
@example(QSeries(-2, [zp({0: -1})], -1), QMonomial(1, 0, 2), 0)
def test_column_step_matches_the_series_operations(a, mono, cut):
    # the rest of an eval_phi step: shift, truncate, then + 1
    order = a.order + mono.q_exp - cut
    columns = qseries.ZColumns.from_series(a)
    columns.times_monomial(mono)
    columns.truncate(order)
    columns.add_one()
    assert columns.to_series() == (a * mono).truncate(order) + 1


def test_columns_never_widen_the_window():
    columns = qseries.ZColumns.from_series(QSeries.one(4))
    with pytest.raises(InsufficientOrder):
        columns.truncate(5)


@pytest.mark.parametrize(
    "num, den, lift",
    [([], [(Q(0), 3)], 0), ([(Q(0), 3)], [(Q(0), 3)], 0), ([], [(Q(-2), 3)], 1)],
    ids=["alone", "shared", "lifted"],
)
def test_column_ratio_rejects_a_divergent_family_as_the_kernel(num, den, lift):
    with pytest.raises(DivergentProduct, match="q-exponent -?[0-9]+ is below 1"):
        column_ratio(QSeries.one(8), num, den, lift)
    # lifted past q^0 the same family divides
    column_ratio(QSeries.one(8), num, den, lift + 2)


# -- streamed sums -------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_qs_sum_matches_the_left_fold_of_plus(seed):
    rng = random.Random(seed)
    for _ in range(25):
        order = rng.randint(-3, 9)
        terms = []
        for _ in range(rng.randint(0, 6)):
            term = random_series(rng)
            # every term known at least to the order, some far past it
            known = max(term.order, order + rng.randint(0, 4))
            terms.append(QSeries(term.min_exp, term.coeffs, known))
        if rng.random() < 0.3:
            terms.append(QSeries.zero(order + rng.randint(0, 2)))
        folded = QSeries.zero(order)
        for term in terms:
            folded = folded + term
        before = [poly_from_series(term) for term in terms]
        summed = qseries.qs_sum(iter(terms), order)
        assert summed == folded
        assert [poly_from_series(term) for term in terms] == before  # no row merged in place
        # `+` is itself a two-term qs_sum, so also check against the oracle
        reference: dict = {}
        for term in terms:
            reference = poly_add(reference, poly_from_series(term))
        assert_series_matches(summed, reference)
        assert summed.order == order


def test_qs_sum_copies_only_rows_that_two_terms_share():
    # terms 1 and 3 share q^1 and q^2, term 2 alone holds q^4; a row held
    # by one term is taken as it is, a shared one is copied before merging
    first = QSeries.from_terms({1: zp({0: 1, 1: 2}), 2: zp({-1: 3})}, 6)
    second = QSeries.from_terms({4: zp({2: 5})}, 7)
    third = QSeries.from_terms({1: zp({1: -2, 3: 1}), 2: zp({-1: -3})}, 6)
    for terms in ([first, second, third], [first, second, first]):
        before = [[dict(coeff._terms) for coeff in term.coeffs] for term in terms]
        summed = qseries.qs_sum(terms, 6)
        assert [[dict(coeff._terms) for coeff in term.coeffs] for term in terms] == before
        assert summed == (terms[0] + terms[1]) + terms[2]
    assert qseries.qs_sum([first, second, third], 6) == QSeries.from_terms(
        {1: zp({0: 1, 3: 1}), 4: zp({2: 5})}, 6
    )
    assert qseries.qs_sum([first, second, first], 6) == QSeries.from_terms(
        {1: zp({0: 2, 1: 4}), 2: zp({-1: 6}), 4: zp({2: 5})}, 6
    )


def test_qs_sum_of_nothing_is_the_zero_series():
    assert qseries.qs_sum([], 5) == QSeries.zero(5)
    assert qseries.qs_sum(iter(()), -2) == QSeries.zero(-2)


def test_qs_sum_cancelling_terms_leave_the_zero_series():
    a = QSeries(-2, [zp({0: 3}), zp({}), zp({1: -4})], 6)
    assert qseries.qs_sum([a, -a], 4) == QSeries.zero(4)


def test_qs_sum_rejects_a_term_known_short_of_the_order():
    short = QSeries.from_terms({1: 2}, 4)
    with pytest.raises(InsufficientOrder):
        qseries.qs_sum([QSeries.one(9), short], 5)
