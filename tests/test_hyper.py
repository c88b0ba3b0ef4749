"""Series evaluation, the two classical identities, and the derivation chain."""

import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overgap.hyper as hyper
import overgap.qseries as qseries
from overgap.cli import main
from overgap.hyper import (
    ChainReport,
    HypergeometricSpec,
    NonTerminatingWithoutConvergence,
    NonUnitDenominator,
    chain_lines,
    check_3phi2_transform,
    check_q_chu_vandermonde,
    compare_lines,
    eval_phi,
    verify_identity_chain,
)
from overgap.partitions import gf_from_enumeration
from overgap.qseries import (
    DivergentProduct,
    QMonomial,
    QSeries,
    ZLaurentPoly,
    bounded_gap_overpartition_gf,
    pochhammer,
    qs_add,
    qs_invert,
    qs_mul,
    qs_mul_finite,
    qs_pochhammer_ratio,
)

Q = QMonomial.q_power
NEG_Z = QMonomial(-1, 1, 0)
NEG_ZQ = QMonomial(-1, 1, 1)


def mul_one_minus(a, mono):
    return qs_pochhammer_ratio(a, [(mono, 1)], ())


def div_one_minus(a, mono):
    return qs_pochhammer_ratio(a, (), [(mono, 1)])


def direct_phi(spec, terms, target_order, slack=16):
    """Term-by-term evaluation from the defining formula, one inversion
    per term instead of incremental ratios; a deliberately independent
    path used to cross-check eval_phi."""
    width = target_order + slack
    total = QSeries.zero(width)
    shift = spec.exponent_shift
    for n in range(terms):
        numerator = QSeries.one(width)
        for param in spec.numerator:
            numerator = qs_mul(numerator, pochhammer(param, n, width))
        denominator = pochhammer(Q(1), n, width)
        for param in spec.denominator:
            denominator = qs_mul(denominator, pochhammer(param, n, width))
        term = qs_mul(numerator, qs_invert(denominator, width))
        arg = spec.argument
        term = term * QMonomial(arg.sign**n, arg.z_exp * n, arg.q_exp * n)
        if shift:
            sign = -1 if (n % 2 and shift % 2) else 1
            term = term * QMonomial(sign, 0, shift * (n * (n - 1) // 2))
        total = qs_add(total, term)
    assert total.order >= target_order, "slack too small for this spec"
    return total.truncate(target_order)


# -- spec plumbing ---------------------------------------------------------


def test_exponent_shift():
    two_one = HypergeometricSpec((NEG_Z, Q(-2)), (NEG_ZQ,), Q(3))
    assert two_one.exponent_shift == 0
    three_two = HypergeometricSpec((Q(1), Q(1), NEG_ZQ), (NEG_ZQ, Q(2)), Q(1))
    assert three_two.exponent_shift == 0
    two_two = HypergeometricSpec((NEG_Z, Q(-2)), (NEG_ZQ, Q(2)), Q(2))
    assert two_two.exponent_shift == 1
    four_two = HypergeometricSpec((Q(-2), NEG_Z, Q(2), Q(1)), (NEG_ZQ, Q(3)), Q(1))
    assert four_two.exponent_shift == -1


def test_termination_index():
    assert HypergeometricSpec((NEG_Z, Q(-3)), (NEG_ZQ,), Q(1)).termination_index() == 3
    assert HypergeometricSpec((Q(0), Q(-3)), (NEG_ZQ,), Q(1)).termination_index() == 0
    assert HypergeometricSpec((NEG_Z,), (NEG_ZQ,), Q(1)).termination_index() is None
    # a marked parameter with negative exponent does not terminate anything
    assert (
        HypergeometricSpec((QMonomial(1, 1, -2),), (NEG_ZQ,), Q(1)).termination_index()
        is None
    )


def test_eval_phi_degenerate_cases():
    spec = HypergeometricSpec((Q(0), Q(-4)), (NEG_ZQ,), Q(1))
    # q^0 terminates the series after the constant term
    assert eval_phi(spec, None, 8) == QSeries.one(8)
    assert eval_phi(spec, 0, 8) == QSeries.zero(8)


def test_eval_phi_rejects_bad_denominators():
    with pytest.raises(NonUnitDenominator):
        eval_phi(HypergeometricSpec((Q(-2),), (NEG_Z,), Q(1)), None, 8)
    with pytest.raises(NonUnitDenominator):
        eval_phi(HypergeometricSpec((Q(-2),), (Q(0),), Q(1)), None, 8)


def test_eval_phi_rejects_divergent_requests():
    # no terminating parameter and a constant argument
    with pytest.raises(NonTerminatingWithoutConvergence):
        eval_phi(HypergeometricSpec((NEG_Z,), (NEG_ZQ,), QMonomial(1, 1, 0)), None, 8)
    # no terminating parameter and more numerator than denominator params
    with pytest.raises(NonTerminatingWithoutConvergence):
        eval_phi(HypergeometricSpec((Q(1), Q(2), Q(3)), (NEG_ZQ,), Q(1)), None, 8)


def test_eval_phi_matches_direct_formula():
    cases = [
        (HypergeometricSpec((Q(1), Q(1), QMonomial(-1, 1, 3)), (QMonomial(-1, 1, 2), Q(4)), Q(1)), 9, 9),
        (HypergeometricSpec((NEG_Z, Q(-3)), (NEG_ZQ,), Q(4)), 4, 12),
        (HypergeometricSpec((NEG_Z, Q(-2)), (NEG_ZQ, Q(2)), Q(2)), 3, 10),
        (HypergeometricSpec((Q(-2), NEG_Z, Q(2), Q(1)), (NEG_ZQ, Q(3)), Q(1)), 3, 10),
        (HypergeometricSpec((QMonomial(1, -1, 1),), (QMonomial(-1, 2, 2),), Q(1)), 8, 8),
    ]
    for spec, terms, order in cases:
        assert eval_phi(spec, terms, order).eq_up_to(
            direct_phi(spec, terms, order), order
        )


def test_eval_phi_auto_terms_is_saturated():
    spec = HypergeometricSpec((NEG_ZQ,), (QMonomial(-1, 1, 2),), Q(1))
    auto = eval_phi(spec, None, 10)
    assert auto.eq_up_to(eval_phi(spec, 40, 10), 10)
    terminating = HypergeometricSpec((NEG_Z, Q(-3)), (NEG_ZQ,), Q(4))
    assert eval_phi(terminating, None, 12) == eval_phi(terminating, 4, 12)
    # extra terms past termination are all zero
    assert eval_phi(terminating, 9, 12) == eval_phi(terminating, 4, 12)


# -- the summation and the transformation ----------------------------------


def test_chu_vandermonde_identity_instances():
    for t in (1, 2, 3, 4):
        assert check_q_chu_vandermonde(NEG_Z, NEG_ZQ, t, 25)
    assert check_q_chu_vandermonde(Q(1), Q(3), 3, 20)
    assert check_q_chu_vandermonde(QMonomial(1, 1, 0), Q(1), 4, 18)
    assert check_q_chu_vandermonde(QMonomial(-1, 0, 2), QMonomial(-1, 1, 3), 5, 18)
    assert check_q_chu_vandermonde(NEG_ZQ, Q(2), 0, 12)


def test_chu_vandermonde_on_windows_below_the_product():
    # (q^-2; q)_3 starts at q^-3: windows ending there hold nothing of it
    assert check_q_chu_vandermonde(Q(3), Q(1), 3, -3)
    assert check_q_chu_vandermonde(Q(3), Q(1), 3, -4)
    _, rhs = hyper._chu_sides(Q(3), Q(1), 3, -3)
    assert rhs == QSeries.zero(-3)


def test_chu_vandermonde_is_not_vacuous():
    # a genuinely different right side must be detected: compare the
    # series against the closed form for the wrong depth
    spec = HypergeometricSpec((NEG_Z, Q(-2)), (NEG_ZQ,), NEG_ZQ * Q(2) / NEG_Z)
    lhs = eval_phi(spec, 3, 15)
    wrong = qs_mul(
        pochhammer(NEG_ZQ / NEG_Z, 3, 15), qs_invert(pochhammer(NEG_ZQ, 3, 15), 15)
    )
    assert not lhs.eq_up_to(wrong, 15)


def test_transform_chain_parameter_family():
    for t in (1, 2):
        assert check_3phi2_transform(
            Q(1), Q(1), QMonomial(-1, 1, t + 1), QMonomial(-1, 1, 2), Q(t + 2), 20
        )


def test_transform_degenerate_gauss_instance():
    # b == d cancels a parameter pair on the right side
    assert check_3phi2_transform(
        NEG_ZQ, QMonomial(-1, 1, 2), Q(1), QMonomial(-1, 1, 2), Q(4), 18
    )


def test_transform_detects_perturbation():
    # wrong argument: e bumped on one side only
    a, b, c, d, e = Q(1), Q(1), QMonomial(-1, 1, 3), QMonomial(-1, 1, 2), Q(4)
    lhs = eval_phi(
        HypergeometricSpec((a, b, c), (d, e), (d * e) / (a * b * c)), None, 16
    )
    rhs = eval_phi(
        HypergeometricSpec((a, b, c), (d, e), (d * e * Q(1)) / (a * b * c)), None, 16
    )
    assert not lhs.eq_up_to(rhs, 16)


def test_transform_rejects_what_its_factors_reject():
    # e/a = q^-1: (e/a; q)_inf diverges
    with pytest.raises(DivergentProduct):
        check_3phi2_transform(Q(3), Q(-2), Q(2), Q(1), Q(2), 12)
    # de/(bc) = -zq^-2 is a denominator of the partner series
    with pytest.raises(NonUnitDenominator):
        check_3phi2_transform(Q(-2), Q(2), Q(2), QMonomial(-1, 1, 1), Q(1), 12)
    # de/(abc) = 1: the kernel cannot divide by (de/(abc); q)_inf
    with pytest.raises(DivergentProduct, match=r"divide by \(1; q\)_12"):
        check_3phi2_transform(Q(1), Q(-1), Q(3), Q(1), Q(2), 12)


@pytest.mark.parametrize("order", [8, 20, 40])
def test_transform_with_a_laurent_partner_series(order):
    # (a, b, c, d, e) = (zq^3, q^-3, -q^4, -z^-1 q, -z^-1 q^4): the partner
    # series starts at q^-3 and its negative z-exponents run the flipped
    # column passes, so the prefactor must be known 3 past the order
    a, b, c = QMonomial(1, 1, 3), Q(-3), QMonomial(-1, 0, 4)
    d, e = QMonomial(-1, -1, 1), QMonomial(-1, -1, 4)
    partner = eval_phi(
        HypergeometricSpec((a, d / b, d / c), (d, (d * e) / (b * c)), e / a), None, order
    )
    assert partner.min_exp < 0
    assert check_3phi2_transform(a, b, c, d, e, order)


@pytest.mark.parametrize("order", [0, -3])
def test_transform_at_the_cli_parameters_on_an_empty_window(order):
    # the prefactor starts from the zero series when its window is empty
    t = 3
    assert check_3phi2_transform(
        Q(1), Q(1), QMonomial(-1, 1, t + 1), QMonomial(-1, 1, 2), Q(t + 2), order
    )


@pytest.mark.parametrize("t", [1, 2, 5, 12])
def test_transform_prefactor_telescopes_at_the_cli_parameters(monkeypatch, t):
    # (q^(t+1))_inf (q^2)_inf / ((q^(t+2))_inf (q)_inf) = (1 - q^(t+1)) / (1 - q):
    # after cancelling, the prefactor's kernel call makes the merges of
    # those two passes
    calls = []
    kernel = qseries.qs_pochhammer_ratio

    def wrapped(a, num, den):
        calls.append((a, num, den))
        return kernel(a, num, den)

    monkeypatch.setattr(hyper, "qs_pochhammer_ratio", wrapped)
    params = (Q(1), Q(1), QMonomial(-1, 1, t + 1), QMonomial(-1, 1, 2), Q(t + 2))
    assert check_3phi2_transform(*params, 40)
    a, num, den = calls[-1]
    assert num == [(Q(t + 1), 40), (Q(2), 40)] and den == [(Q(t + 2), 40), (Q(1), 40)]
    merges = []
    merge = qseries._add_into
    monkeypatch.setattr(
        qseries, "_add_into", lambda *args: merges.append(args[1:]) or merge(*args)
    )
    telescoped = kernel(a, [(Q(t + 1), 1)], [(Q(1), 1)])
    two_passes = len(merges)
    assert kernel(a, num, den) == telescoped
    assert len(merges) == 2 * two_passes


# -- the derivation chain ----------------------------------------------------


def test_chain_line_labels():
    labels = [label for label, _ in chain_lines(2, 6)]
    assert labels == [
        "smallest_part_sum",
        "pochhammer_quotient_sum",
        "series_3phi2",
        "transformed_3phi2",
        "series_2phi1",
        "chu_closed_form",
        "closed_form",
    ]


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("z", ["tracked", "zero", "one"])
def test_chain_consecutive_equality(t, z):
    if z == "tracked":
        report = verify_identity_chain(t, 20)
    else:
        # equal as z-polynomials, so equal at z = 0 and z = 1 too
        value = 0 if z == "zero" else 1
        lines = [(label, series.subs_z(value)) for label, series in chain_lines(t, 20)]
        report = compare_lines(t, lines, 20)
    assert report.passed
    assert report.t == t and report.order == 20
    assert all(check.equal_to_previous for check in report.lines)


def test_chain_first_line_matches_enumeration():
    for t in (1, 2, 4):
        first = chain_lines(t, 13)[0][1]
        assert first.eq_up_to(gf_from_enumeration("bounded_gap", t, 12), 13)


def test_chain_last_line_is_closed_form():
    lines = chain_lines(3, 15)
    assert lines[-1][1] == bounded_gap_overpartition_gf(3, 15)


def test_chain_lines_differ_across_bounds():
    # negative control: the chain is not comparing zeros to zeros
    assert not chain_lines(2, 10)[0][1].eq_up_to(chain_lines(3, 10)[0][1], 10)


def legacy_chain_lines(t, order):
    """The chain with every Pochhammer quotient taken through a general
    inverse and product, and every numerator factor through qs_mul_finite."""
    one, minus_one = ZLaurentPoly.one(), ZLaurentPoly.const(-1)
    one_plus_z, z1 = ZLaurentPoly({0: 1, 1: 1}), ZLaurentPoly({1: 1})

    def quotient(num, den):
        return qs_mul(num, qs_invert(den, order))

    acc = QSeries.zero(order)
    for r in range(1, order):
        summand = QSeries.from_terms({r: one_plus_z}, order)
        for j in range(1, t):
            summand = qs_mul_finite(summand, [(0, one), (r + j, z1)])
        for j in range(t + 1):
            summand = div_one_minus(summand, Q(r + j))
        acc = acc + summand
    lines = [acc]

    term = QSeries.from_terms({1: one}, order)
    term = qs_mul(term, pochhammer(NEG_ZQ, t, order))
    term = quotient(term, pochhammer(Q(1), t + 1, order))
    term = div_one_minus(term, NEG_ZQ)
    total = QSeries.zero(order)
    r = 1
    while r < order and not term.is_zero():
        total = total + term.truncate(order)
        term = qs_mul_finite(term, [(1, one), (r + 1, minus_one)])
        term = qs_mul_finite(term, [(0, one), (r + t, z1)])
        term = div_one_minus(term, Q(r + t + 1))
        term = div_one_minus(term, QMonomial(-1, 1, r + 1))
        r += 1
    lines.append(total * one_plus_z)

    prefactor = QSeries.from_terms({1: one_plus_z}, order)
    prefactor = qs_mul(prefactor, pochhammer(NEG_ZQ, t, order))
    prefactor = div_one_minus(prefactor, NEG_ZQ)
    prefactor = quotient(prefactor, pochhammer(Q(1), t + 1, order))
    spec_3 = HypergeometricSpec(
        (Q(1), Q(1), QMonomial(-1, 1, t + 1)), (QMonomial(-1, 1, 2), Q(t + 2)), Q(1)
    )
    lines.append(qs_mul(prefactor, eval_phi(spec_3, None, order)))

    inf_num = qs_mul(pochhammer(Q(t + 1), order, order), pochhammer(Q(2), order, order))
    inf_den = qs_mul(pochhammer(Q(t + 2), order, order), pochhammer(Q(1), order, order))
    spec_4 = HypergeometricSpec(
        (Q(1), NEG_ZQ, Q(1 - t)), (QMonomial(-1, 1, 2), Q(2)), Q(t + 1)
    )
    pref_4 = qs_mul(prefactor, quotient(inf_num, inf_den))
    lines.append(qs_mul(pref_4, eval_phi(spec_4, None, order)))

    neg_pref = quotient(pochhammer(NEG_ZQ, t, order), pochhammer(Q(1), t, order)) * (-1)
    neg_pref = div_one_minus(neg_pref, Q(t))
    spec_5 = HypergeometricSpec((NEG_Z, Q(-t)), (NEG_ZQ,), Q(t + 1))
    lines.append(qs_mul(neg_pref, eval_phi(spec_5, t + 1, order) - 1))

    summed = quotient(pochhammer(Q(1), t, order), pochhammer(NEG_ZQ, t, order))
    lines.append(qs_mul(neg_pref, summed - 1))

    closed = quotient(pochhammer(NEG_ZQ, t, order), pochhammer(Q(1), t, order)) - 1
    lines.append(div_one_minus(closed, Q(t)))
    return lines


@pytest.mark.parametrize("t", [1, 2, 5, 12, 20])
@pytest.mark.parametrize("order", [2, 7, 40, 100])
def test_chain_lines_match_general_kernels(t, order):
    lines = [series for _, series in chain_lines(t, order)]
    assert lines == legacy_chain_lines(t, order)


@pytest.mark.parametrize("t, order", [(1, 1), (1, 2), (3, 40), (12, 100)])
def test_chain_multiplies_only_in_the_transform(monkeypatch, t, order):
    # lines 3-6 apply their prefactors by kernel passes, and the
    # transformation's prefactor is one kernel call: the one general
    # product left is that prefactor times the partner series
    callers = []

    def wrapped(a, b):
        callers.append(inspect.currentframe().f_back.f_code.co_name)
        return qs_mul(a, b)

    monkeypatch.setattr(hyper, "qs_mul", wrapped)
    chain_lines(t, order)
    assert callers == ["_transform_sides"]


def test_chain_at_order_one_is_all_zero():
    for _, series in chain_lines(3, 1):
        assert series == QSeries.zero(1)


def test_compare_lines_detects_mismatch(capsys, monkeypatch):
    lines = chain_lines(2, 12)
    tampered = lines[:3] + [("closed_form", chain_lines(3, 12)[-1][1])]
    report = compare_lines(2, tampered, 12)
    assert not report.passed
    assert [c.equal_to_previous for c in report.lines] == [True, True, True, False]
    *_, closed = report.lines
    q_exp, z_exp, value, previous = closed.first_difference
    assert (value, previous) == (
        tampered[3][1].zq_coeff(q_exp, z_exp), tampered[2][1].zq_coeff(q_exp, z_exp)
    )
    assert tampered[3][1].first_difference(tampered[2][1], 12) == closed.first_difference
    assert all(line.first_difference is None for line in report.lines[:3])
    # the verify JSON of the same chain names the same difference
    monkeypatch.setattr(hyper, "chain_lines", lambda t, order: tampered)
    assert main(["verify", "--suite", "chain", "--t", "2", "--order", "12"]) == 2
    payload = json.loads(capsys.readouterr().out)[0]["details"]
    assert payload["lines"][3]["first_difference"] == {
        "q": q_exp, "z": z_exp, "line": str(value), "previous": str(previous)
    }
    assert all("first_difference" not in line for line in payload["lines"][:3])


def test_chain_report_json(capsys):
    assert main(["verify", "--suite", "chain", "--t", "2", "--order", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)[0]["details"]
    assert payload["t"] == 2 and payload["order"] == 10 and payload["pass"] is True
    assert [line["label"] for line in payload["lines"]] == [
        label for label, _ in chain_lines(2, 6)
    ]
    assert all(line["equal_to_previous"] is True for line in payload["lines"])


def test_chain_input_validation():
    with pytest.raises(ValueError):
        chain_lines(0, 10)
    with pytest.raises(ValueError):
        chain_lines(3, 0)


def lowest_drift(spec, terms):
    """How far below q^0 the first ``terms`` terms reach: term n's ratio to
    term n-1 starts at its numerator factors' negative q-exponents, plus
    the argument's and (n-1) times the exponent shift."""
    drift = low = 0
    for n in range(1, terms):
        drift += sum(min(0, p.q_exp + n - 1) for p in spec.numerator)
        drift += spec.argument.q_exp + (n - 1) * spec.exponent_shift
        low = min(low, drift)
    return low


def legacy_eval_phi(spec, terms, target_order):
    """The forward walk: every term from the first, with every numerator
    and denominator factor applied, none cancelled, the monomial factors
    through qs_mul_finite, and the first term kept as far past the order
    as the lowest later term reaches below it."""
    if terms is None:
        terms = hyper._auto_terms(spec, target_order)
    if terms <= 0:
        return QSeries.zero(target_order)
    term = QSeries.one(max(1, target_order - lowest_drift(spec, terms)))
    shift = spec.exponent_shift
    arg = spec.argument
    total = term.truncate(target_order)
    for n in range(1, terms):
        for param in spec.numerator:
            term = mul_one_minus(
                term, QMonomial(param.sign, param.z_exp, param.q_exp + n - 1)
            )
        term = div_one_minus(term, Q(n))
        for param in spec.denominator:
            term = div_one_minus(
                term, QMonomial(param.sign, param.z_exp, param.q_exp + n - 1)
            )
        z_part = ZLaurentPoly.monomial(arg.sign, arg.z_exp)
        term = qs_mul_finite(term, [(arg.q_exp, z_part)])
        if shift:
            sign = ZLaurentPoly.const(-1 if shift % 2 else 1)
            term = qs_mul_finite(term, [((n - 1) * shift, sign)])
        if term.is_zero():
            break
        total = total + term.truncate(target_order)
    return total


def identity_specs(t):
    """The series the chu, transform and chain suites evaluate at bound t,
    with the number of terms each asks for, plus a series whose
    numerator drops the window below zero and one whose numerator
    parameters match denominator ones in q-exponent but not in sign or z."""
    q1, neg_zq2 = Q(1), QMonomial(-1, 1, 2)
    a, b, c, d, e = q1, q1, QMonomial(-1, 1, t + 1), neg_zq2, Q(t + 2)
    return [
        (HypergeometricSpec((NEG_Z, Q(-t)), (NEG_ZQ,), NEG_ZQ * Q(t) / NEG_Z), t + 1),
        (HypergeometricSpec((a, b, c), (d, e), (d * e) / (a * b * c)), None),
        (HypergeometricSpec((a, d / b, d / c), (d, (d * e) / (b * c)), e / a), None),
        (HypergeometricSpec((q1, NEG_ZQ, Q(1 - t)), (neg_zq2, Q(2)), Q(t + 1)), None),
        (HypergeometricSpec((NEG_Z, Q(-t)), (NEG_ZQ,), Q(t + 1)), t + 1),
        (HypergeometricSpec((QMonomial(-1, 1, 1 - t), q1, Q(t)), (Q(t), neg_zq2), Q(t + 1)), None),
        (HypergeometricSpec((QMonomial(1, 1, 1), QMonomial(-1, 0, 2), Q(-3)), (Q(2), NEG_ZQ), q1), None),
    ]


def shifted_specs(t):
    """Series whose (-1)^n q^(n(n-1)/2) factor has exponent shift -1 or +1:
    a terminating one whose argument lifts each term by less than the
    shift lowers it once n passes 25, a terminating one with a Laurent
    argument, and a convergent one whose second term reaches below q^0."""
    return [
        (HypergeometricSpec((NEG_Z, Q(-t), QMonomial(1, 1, 2)), (NEG_ZQ,), Q(24)), None),
        (HypergeometricSpec((Q(-t), NEG_Z), (NEG_ZQ, Q(2)), QMonomial(1, 1, -1)), None),
        (HypergeometricSpec((QMonomial(-1, 1, -2),), (Q(2),), Q(1)), None),
    ]


@pytest.mark.parametrize("t", range(1, 13))
def test_eval_phi_cancellation_keeps_every_term(t):
    for spec, own in identity_specs(t) + shifted_specs(t):
        for terms in dict.fromkeys((own, None, 3, 50)):
            for order in (-1, 0, 1, 2, 7, 40, 100):
                assert eval_phi(spec, terms, order) == legacy_eval_phi(spec, terms, order)


def test_laurent_spec_is_laurent():
    # the last identity spec reaches below q^0, so its windows do drift
    spec, _ = identity_specs(4)[-1]
    assert min(hyper._drifts(spec, 10)) < 0


def summed_window_slack(spec, terms):
    """An upper bound on the drift of the term windows: every downward
    move added up, the argument's upward shift ignored."""
    slack = 0
    for param in spec.numerator:
        for k in range(terms - 1):
            drop = param.q_exp + k
            if drop < 0:
                slack -= drop
    if spec.argument.q_exp < 0:
        slack += (terms - 1) * -spec.argument.q_exp
    shift = spec.exponent_shift
    if shift < 0 and terms >= 2:
        slack += (-shift) * (terms - 1) * (terms - 2) // 2
    return slack


@pytest.mark.parametrize("t", range(1, 51))
def test_chu_terms_never_fall_below_the_first_window(t):
    # term n of the chu series has lowest exponent n(n+1)/2 > 0: the
    # argument q^(t+1) lifts it by more than the factors (1 - q^(k-t)) drop it
    spec = HypergeometricSpec((NEG_Z, Q(-t)), (NEG_ZQ,), Q(t + 1))
    assert hyper._drifts(spec, t + 1) == [n * (n + 1) // 2 for n in range(t + 1)]


@pytest.mark.parametrize("t", range(1, 13))
def test_eval_phi_is_independent_of_the_first_window(monkeypatch, t):
    # the summed bound is t(t+1)/2 for the chu spec, whose terms never
    # fall below q^0
    spec, terms = identity_specs(t)[0]
    assert -lowest_drift(spec, terms) < summed_window_slack(spec, terms)
    exact, wide = {}, {}
    for spec, terms in identity_specs(t):
        for order in (-1, 0, 1, 2, 7, 40, 100):
            exact[spec, order] = eval_phi(spec, terms, order)
            count = terms if terms is not None else hyper._auto_terms(spec, order)
            assert -min(hyper._drifts(spec, count)) <= summed_window_slack(spec, count)
    drifts = hyper._drifts

    def widened(spec, terms):
        # each tail's window is the order less its term's drift: lowering
        # every drift past the first by the summed bound, and one more,
        # widens every window but the sum's own
        slack = 1 + summed_window_slack(spec, terms)
        first, *rest = drifts(spec, terms)
        return [first, *(drift - slack for drift in rest)]

    monkeypatch.setattr(hyper, "_drifts", widened)
    for spec, terms in identity_specs(t):
        for order in (-1, 0, 1, 2, 7, 40, 100):
            wide[spec, order] = eval_phi(spec, terms, order)
    assert wide == exact


def binomial_windows(monkeypatch, check):
    """The (order, width) of every input window the Pochhammer kernel, or
    the z-column walk of a series side at each step, sees while ``check``
    runs; at least one call must reach them."""
    windows = []
    kernel = qseries.qs_pochhammer_ratio
    column_step = qseries.ZColumns.pochhammer_ratio

    def wrapped(a, num, den):
        windows.append((a.order, a.order - a.min_exp))
        return kernel(a, num, den)

    def wrapped_step(columns, num, den, lift=0):
        windows.append((columns.order, columns.order - columns.q0))
        return column_step(columns, num, den, lift)

    monkeypatch.setattr(qseries, "qs_pochhammer_ratio", wrapped)
    monkeypatch.setattr(hyper, "qs_pochhammer_ratio", wrapped)
    monkeypatch.setattr(qseries.ZColumns, "pochhammer_ratio", wrapped_step)
    assert check()
    assert windows, "no Pochhammer kernel call was recorded"
    return windows


def widest_binomial_window(monkeypatch, check):
    """The widest input window the kernel or the column walk sees while ``check`` runs."""
    return max(width for _, width in binomial_windows(monkeypatch, check))


def test_chu_binomial_windows_stay_at_the_order(monkeypatch):
    def check():
        return check_q_chu_vandermonde(NEG_Z, NEG_ZQ, 20, 10)

    assert widest_binomial_window(monkeypatch, check) <= 10


def test_transform_binomial_windows_stay_at_the_order(monkeypatch):
    # the chain's parameters at t = 20: (q, q, -zq^21; -zq^2, q^22)
    def check():
        return check_3phi2_transform(
            Q(1), Q(1), QMonomial(-1, 1, 21), QMonomial(-1, 1, 2), Q(22), 10
        )

    assert widest_binomial_window(monkeypatch, check) <= 10


@pytest.mark.parametrize("suite", ["chu", "transform", "chain"])
@pytest.mark.parametrize("t, order", [(3, 40), (3, 100), (12, 40), (12, 100)])
def test_binomial_inputs_stay_within_the_order(monkeypatch, suite, t, order):
    # every running term is kept only as far as a later term or the sum reads it
    params = (Q(1), Q(1), QMonomial(-1, 1, t + 1), QMonomial(-1, 1, 2), Q(t + 2))
    check = {
        "chu": lambda: check_q_chu_vandermonde(NEG_Z, NEG_ZQ, t, order),
        "transform": lambda: check_3phi2_transform(*params, order),
        "chain": lambda: verify_identity_chain(t, order).passed,
    }[suite]
    assert max(top for top, _ in binomial_windows(monkeypatch, check)) <= order


def test_chu_walk_stops_at_the_first_term_past_the_order(monkeypatch):
    # term n starts at q^(n(n+1)/2), so at order 5 only three of the 2001
    # terms reach the window
    def check():
        return check_q_chu_vandermonde(NEG_Z, NEG_ZQ, 2000, 5)

    assert len(binomial_windows(monkeypatch, check)) <= 20


def test_eval_phi_windows_ignore_terms_past_the_termination_index(monkeypatch):
    # the terms past q^(-12)'s index are zero, so asking for 50 terms must
    # size no window by their drift
    spec = HypergeometricSpec((NEG_Z, Q(-12), QMonomial(1, 1, 2)), (NEG_ZQ,), Q(13))
    results, widths = {}, {}
    for terms in (13, 50):
        def check():
            results[terms] = eval_phi(spec, terms, 100)
            return True

        widths[terms] = max(width for _, width in binomial_windows(monkeypatch, check))
        monkeypatch.undo()
    assert widths[50] <= widths[13]
    assert results[50] == results[13]


def test_library_paths_never_invert(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("general inverse called")

    monkeypatch.setattr(qseries, "qs_invert", forbidden)
    monkeypatch.setattr(hyper, "qs_invert", forbidden, raising=False)
    assert check_3phi2_transform(
        Q(1), Q(1), QMonomial(-1, 1, 4), QMonomial(-1, 1, 2), Q(5), 30
    )
    assert verify_identity_chain(3, 30).passed
    assert main(["verify", "--suite", "all", "--t", "1..3", "--order", "12"]) == 0
    assert capsys.readouterr().err == ""


# -- randomized identity instances -------------------------------------------


def signed_monomials(low, high):
    return st.builds(
        QMonomial,
        st.sampled_from((1, -1)),
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=low, max_value=high),
    )


monomials = signed_monomials(1, 3)


@settings(deadline=None, max_examples=30)
@given(monomials, monomials, st.integers(min_value=0, max_value=5))
def test_chu_vandermonde_random_instances(a, c, n):
    assert check_q_chu_vandermonde(a, c, n, 18)


random_specs = st.builds(
    HypergeometricSpec,
    st.lists(signed_monomials(-4, 3), min_size=1, max_size=3).map(tuple),
    st.lists(signed_monomials(1, 4), max_size=2).map(tuple),
    signed_monomials(-2, 4),
)


def outcome(evaluate, spec, terms, order):
    """The series, or the type of the exception raised instead."""
    try:
        return evaluate(spec, terms, order)
    except Exception as exc:
        return type(exc)


@settings(deadline=None, max_examples=300)
@given(
    random_specs,
    st.none() | st.integers(min_value=0, max_value=8),
    st.integers(min_value=-4, max_value=25),
)
def test_eval_phi_matches_the_forward_walk_on_random_specs(spec, terms, order):
    assert outcome(eval_phi, spec, terms, order) == outcome(legacy_eval_phi, spec, terms, order)
