"""Expansion-image closed forms against their known coefficient fractions and
against the images the chain rule derives from the series relations, and
numeric fit behaviour."""

from decimal import ROUND_FLOOR, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from math import lgamma, log, pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import fps
from chordlab.asymptotics import (
    FIT_PRECISION,
    TOLERANCES,
    alien_connected,
    alien_connected_alternative,
    alien_two_connected,
    asymptotic_fit,
    chain_rule_check,
    connectivity_probability,
    exact_two_connected_count,
    leading_probability_estimate,
    square_image_consistency,
    two_connected_exponent_argument,
)
from chordlab.gfseries import (
    double_factorial_series,
    two_connected_sequence_series,
    two_connected_series,
)


def fracs(values):
    return tuple(Fraction(v) for v in values)


def test_connected_image_known_fractions():
    image = alien_connected(5)
    assert image.exp_offset == Fraction(-1)
    assert image.inv_sqrt_2pi
    assert image.body.coeffs == fracs(
        [1, Fraction(-5, 2), Fraction(-43, 8), Fraction(-579, 16),
         Fraction(-44477, 128), Fraction(-5326191, 1280)]
    )


def test_connected_image_leading_term():
    assert alien_connected(0).body[0] == 1


def test_connected_image_two_closed_forms_agree():
    assert alien_connected(12).body == alien_connected_alternative(12).body


def test_two_connected_image_known_fractions():
    image = alien_two_connected(5)
    assert image.exp_offset == Fraction(-2)
    assert image.body.coeffs == fracs(
        [1, -6, -4, Fraction(-218, 3), -890, Fraction(-196838, 15)]
    )


def test_two_connected_intermediate_rows():
    # x^2/(C2*S) and e^2 exp{-((S+x)^2-1)/(2x)}
    order = 5
    c2 = two_connected_series(order + 2)
    s = two_connected_sequence_series(order + 2)
    front = fps.divide(fps.from_coeffs([0, 0, 1], order=order + 2), c2 * s)
    assert front.coeffs[: order + 1] == fracs([1, -2, -6, -50, -574, -8082])
    argument = two_connected_exponent_argument(order)
    assert argument.coeffs == fracs([2, 4, 14, 104, 1082, 14028])
    exp_part = (-(argument - 2 * fps.one(order))).exp()
    assert exp_part.coeffs == fracs(
        [1, -4, -6, Fraction(-176, 3), Fraction(-2008, 3), Fraction(-46636, 5)]
    )


def test_model_scale_matches_double_factorial():
    # alpha^(n+beta) Gamma(n+beta) == sqrt(2*pi) (2n-1)!! for alpha=2, beta=1/2,
    # the scale the fits take from series D
    d = double_factorial_series(20)
    for n in (1, 5, 20):
        lhs = (n + 0.5) * log(2) + lgamma(n + 0.5)
        rhs = 0.5 * log(2 * pi) + log(d[n])
        assert abs(lhs - rhs) < 1e-9


def test_chain_rule_exact():
    assert chain_rule_check(10)
    assert not chain_rule_check(10, drop_composition_term=True)


def test_square_image_consistency():
    assert square_image_consistency(10)


@settings(max_examples=32, deadline=None, database=None)
@given(st.integers(1, 32))
def test_derived_images_equal_the_closed_forms(order):
    assert chain_rule_check(order) and square_image_consistency(order)
    control = chain_rule_check(order, drop_composition_term=True)
    assert not control and control.first_failure == 1


def test_relation_checks_accept_orders_0_to_32_only():
    for check in (chain_rule_check, square_image_consistency):
        assert check(0) and check(32)
        for order in (-1, 33):
            with pytest.raises(ValueError, match=f"orders 0 to 32, not {order}$"):
                check(order)


def test_fit_connected_tracks_first_coefficient():
    report = asymptotic_fit("C", 30, 1)
    # partial/exact should sit within O(1/n^2) of e^(-1)(1 - 5/(4*30))
    prob = connectivity_probability("C", 30)
    estimate = leading_probability_estimate("C", 30)
    assert abs(prob / estimate - 1) < Decimal("0.003")
    assert report.tracking_ratio > 0


def test_fit_two_connected_tracks_first_coefficient():
    prob = connectivity_probability("C2", 30)
    estimate = leading_probability_estimate("C2", 30)
    assert abs(prob / estimate - 1) < Decimal("0.004")


@pytest.mark.parametrize("n", [1, 3, 20, 30, 40, 200])
def test_leading_estimate_is_the_closed_form(n):
    # read from the images' first two coefficients, rounded as the closed forms
    with localcontext(Context(prec=FIT_PRECISION)):
        connected = (-Decimal(1)).exp() * (1 - Decimal(5) / (4 * n))
        two_connected = (-Decimal(2)).exp() * (1 - Decimal(3) / n)
    assert leading_probability_estimate("C", n) == connected
    assert leading_probability_estimate("C2", n) == two_connected
    with pytest.raises(KeyError):
        leading_probability_estimate("C3", n)


def test_fit_spot_check_n40_R4():
    report = asymptotic_fit("C", 40, 4)
    assert abs(report.tracking_ratio - 1) < Decimal(str(TOLERANCES["spot_n40_R4_rel"]))


@pytest.mark.parametrize("series", ["C", "C2"])
@pytest.mark.parametrize("terms", [1, 2, 3])
def test_fit_trend_converges(series, terms):
    reports = [asymptotic_fit(series, n, terms) for n in [20, 30, 40, 60]]
    deviations = [abs(r.tracking_ratio - 1) for r in reports]
    assert all(d2 < d1 for d1, d2 in zip(deviations, deviations[1:])), deviations


def test_fit_preconditions():
    with pytest.raises(ValueError, match=r"^need terms >= 1 and n >= terms \+ 2$"):
        asymptotic_fit("C", 5, 4)
    with pytest.raises(ValueError, match="terms >= 1"):
        asymptotic_fit("C", 5, 0)
    with pytest.raises(KeyError):
        asymptotic_fit("D", 20, 1)


@pytest.mark.parametrize(
    "check,series,n,error,message",
    [
        (connectivity_probability, "C", -1, ValueError, "n = 1 to 200, got -1"),
        (connectivity_probability, "C2", 0, ValueError, "n = 1 to 200, got 0"),
        (connectivity_probability, "C", 201, ValueError, "n = 1 to 200, got 201"),
        (connectivity_probability, "X", 5, KeyError, "unknown series 'X'; known: C, C2"),
        (leading_probability_estimate, "C", 0, ValueError, "n = 1 to 200, got 0"),
        (leading_probability_estimate, "C2", -3, ValueError, "n = 1 to 200, got -3"),
        (leading_probability_estimate, "X", 5, KeyError, "unknown series 'X'; known: C, C2"),
        (lambda series, n: asymptotic_fit(series, n, 1), "C", 201, ValueError,
         "n = 1 to 200, got 201"),
    ],
    ids=["probability-negative", "probability-zero", "probability-above", "probability-unknown",
         "estimate-zero", "estimate-negative", "estimate-unknown", "fit-above"],
)
def test_probabilities_check_series_and_n(check, series, n, error, message):
    # the checks of asymptotic_fit, shared by the probabilities
    with pytest.raises(error) as raised:
        check(series, n)
    assert message in str(raised.value)


def _floor_at_five_digits(ctx):
    ctx.rounding, ctx.prec = ROUND_FLOOR, 5


def _inexact_trapped(ctx):
    ctx.traps[Inexact] = True


@pytest.mark.parametrize("caller", [_floor_at_five_digits, _inexact_trapped],
                         ids=["floor-prec5", "inexact-trapped"])
@pytest.mark.parametrize(
    "fit,args",
    [
        (asymptotic_fit, ("C", 100, 5)),
        (asymptotic_fit, ("C2", 96, 5)),
        (connectivity_probability, ("C", 3)),
        (connectivity_probability, ("C2", 4)),
        (leading_probability_estimate, ("C", 4)),
        (leading_probability_estimate, ("C2", 7)),
    ],
    ids=["fit-C", "fit-C2", "probability-C", "probability-C2", "estimate-C", "estimate-C2"],
)
def test_fits_ignore_the_callers_decimal_context(fit, args, caller):
    # each input's 60-digit result depends on the rounding mode
    expected = repr(fit(*args))
    with localcontext() as ctx:
        caller(ctx)
        assert repr(fit(*args)) == expected


def test_criterion_4_n20_deviations_exceed_the_first_correction():
    # Executable form of the README's note on criterion 4's red n = 20 bound:
    # which (series, R) exceed it, and that the first correction
    # (c_{R+1}/c_R)/(2n-2R-1) underestimates every deviation by 1.3-2.4x.
    n = 20
    bound = Decimal(str(TOLERANCES["tracking_ratio_at_n20"]))
    over = set()
    for series, image in (("C", alien_connected), ("C2", alien_two_connected)):
        body = image(6).body
        for terms in range(1, 6):
            deviation = abs(asymptotic_fit(series, n, terms).tracking_ratio - 1)
            if deviation > bound:
                over.add((series, terms))
            estimate = abs(body[terms + 1] / body[terms]) / (2 * n - 2 * terms - 1)
            assert estimate <= Fraction(deviation), (series, terms)
            assert Fraction(5, 4) <= Fraction(deviation) / estimate <= Fraction(12, 5)
    assert over == {
        ("C", 3), ("C", 4), ("C", 5), ("C2", 2), ("C2", 3), ("C2", 4), ("C2", 5)
    }


def test_exact_two_connected_count_is_integer():
    assert exact_two_connected_count(8) == 161935
