"""Closed forms for the asymptotic-expansion generating functions (alien
derivatives) of the connected and 2-connected counting series, the chain
rule consistency check, and numeric fits of the resulting expansions.

Both closed forms are exact rational series times a symbolically tracked
exponential prefactor e^q and a 1/sqrt(2*pi) flag; floating point enters
only in the final fit step, at a fixed 60-digit working precision.

The expansions assert, for the count a_n of either class,

    a_n = e^q ( c_0 (2n-1)!! + c_1 (2n-3)!! + ... )        (divergent tail)

with q = -1 for connected and q = -2 for 2-connected diagrams.  The scale
(2n-1)!! is alpha^(n+beta) Gamma(n+beta) / sqrt(2*pi) for alpha = 2,
beta = 1/2, so the 1/sqrt(2*pi) flag of the coefficient series cancels
against it and the fits work with the plain double factorials of series D.
The first two coefficients give the leading probabilities e^(-1)(1 - 5/(4n))
and e^(-2)(1 - 3/n):

>>> alien_connected(4).body.coeffs
(1, Fraction(-5, 2), Fraction(-43, 8), Fraction(-579, 16), Fraction(-44477, 128))
>>> alien_two_connected(1).body.coeffs
(1, -6)
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from . import fps
from .fps import FormalPowerSeries
from .gfseries import (
    connected_counts,
    connected_series,
    double_factorial_series,
    two_connected_sequence_series,
    two_connected_series,
)

FIT_PRECISION = 60  # decimal digits used for every numeric fit
MAX_FIT_N = 200  # the largest n with exact counts for a fit

# Empirical tolerances for the fit checks, kept in one place.  The expansion
# itself carries no error constants, so these are calibrated values.
TOLERANCES = {
    "tracking_ratio_at_n20": 0.5,
    "connected_probability_rel": 0.002,
    "two_connected_probability_rel": 0.005,
    "spot_n40_R4_rel": 0.25,
}


@dataclass(frozen=True)
class ScaledSeries:
    """body * e^(exp_offset), optionally times 1/sqrt(2*pi)."""

    body: FormalPowerSeries
    exp_offset: Fraction
    inv_sqrt_2pi: bool = False


def alien_connected(order: int) -> ScaledSeries:
    """(x/C) exp(-(2C + C^2)/(2x)) with the constant 1 of the exponent split
    off as the prefactor e^(-1); the 1/sqrt(2*pi) flag is set."""
    c = connected_series(order + 1)
    quotient = fps.divide(fps.x(order + 1), c)
    exponent = fps.divide_by_power(2 * c + c * c, 1) / 2  # constant term 1
    body = quotient * (-(exponent - fps.one(order))).exp()
    return ScaledSeries(body, Fraction(-1), True)


def alien_connected_alternative(order: int) -> ScaledSeries:
    """(1 + C - 2xC') exp(...): same value via the root-removal relation."""
    c = connected_series(order + 1)
    front = (fps.one(order + 1) + c - 2 * c.x_derivative()).truncate(order)
    exponent = fps.divide_by_power(2 * c + c * c, 1) / 2
    body = front * (-(exponent - fps.one(order))).exp()
    return ScaledSeries(body, Fraction(-1), True)


def alien_two_connected(order: int) -> ScaledSeries:
    """(x^2/(C2 S)) exp(-((S+x)^2 - 1)/(2x)) with the constant 2 of the
    exponent split off as e^(-2); S is the 2-connected sequence series."""
    c2 = two_connected_series(order + 2)
    s = two_connected_sequence_series(order + 2)
    x_squared = fps.from_coeffs([0, 0, 1], order=order + 2)
    front = fps.divide(x_squared, c2 * s)  # valuation-2 cancellation
    exponent = two_connected_exponent_argument(order)  # constant term 2
    body = front.truncate(order) * (
        -(exponent - 2 * fps.one(order))
    ).exp().truncate(order)
    return ScaledSeries(body, Fraction(-2), True)


def two_connected_exponent_argument(order: int) -> FormalPowerSeries:
    """((S+x)^2 - 1)/(2x), the quantity inside the exponential above."""
    s = two_connected_sequence_series(order + 1)
    square = (s + fps.x(order + 1)) ** 2
    return fps.divide_by_power(square - fps.one(order + 1), 1) / 2


def chain_rule_check(order: int, drop_composition_term: bool = False) -> bool:
    """Exact verification that the two expansion images are consistent with
    the all-diagrams series having the constant image 1 (times 1/sqrt(2*pi)).

    Evaluates 2xD C'(xD^2) + D^(-1) exp((D^2-1)/(2xD^2) - 1) body_C(xD^2)
    and compares with the constant series 1; the +1 and -1 exponential
    offsets cancel, which is why the bodies can be combined directly.
    `drop_composition_term` omits the first summand (negative control)."""
    if order > 32:
        raise ValueError("supported through order 32")
    n = order
    d = double_factorial_series(n + 1)
    xd2 = fps.multiply_by_power((d * d).truncate(n), 1).truncate(n + 1)
    c = connected_series(n + 1)
    term1 = 2 * fps.multiply_by_power(
        d.truncate(n) * c.derivative().compose(xd2.truncate(n)), 1
    ).truncate(n)
    ratio = fps.divide(d * d - fps.one(n + 1), 2 * fps.multiply_by_power((d * d).truncate(n), 1))
    chain_factor = (ratio - fps.one(n)).exp()  # constant term 1 split off
    body = alien_connected(n).body
    term2 = fps.reciprocal(d.truncate(n)) * chain_factor * body.compose(xd2.truncate(n))
    total = term2 if drop_composition_term else term1 + term2
    return total == fps.one(n)


def square_image_consistency(order: int) -> bool:
    """Product-rule spot check: the expansion image of C^2, taken as
    2C * image(C), agrees with the value forced by the 2-connected relation
    C = C^2/x - C2(C^2/x) and the chain/shift rules:

        2C image(C) (1 - C2'(u)) = x image(C) + (x/C)^3 e^((u-x)/(2xu) - 1) u image(C2)(u)

    with u = C^2/x; all offsets combine to e^(-1) on both sides."""
    n = order
    pad = n + 3
    c = connected_series(pad + 1)
    u = fps.divide_by_power(c * c, 1)  # order pad
    body_c = alien_connected(pad).body
    lhs_core = 2 * c.truncate(pad) * body_c
    c2 = two_connected_series(pad + 1)
    c2prime_u = c2.derivative().compose(u.truncate(pad))
    lhs = lhs_core * (fps.one(pad) - c2prime_u)

    term_a = fps.multiply_by_power(body_c, 1).truncate(pad)
    x_over_c = fps.divide(fps.x(pad + 1), c)
    cubed = x_over_c**3
    ratio = fps.divide(
        (u - fps.x(pad)).truncate(pad),
        2 * fps.multiply_by_power(u.truncate(pad - 1), 1),
    )  # (u - x)/(2xu), constant term 1
    exp_part = (ratio - fps.one(ratio.order)).exp()  # order pad - 2, enough
    body_c2_at_u = alien_two_connected(pad).body.compose(u.truncate(pad))
    term_b = cubed * exp_part * u.truncate(pad) * body_c2_at_u
    rhs = term_a + term_b
    return lhs.agrees_with(rhs, n)


# -- numeric fits -------------------------------------------------------------


def exact_connected_count(n: int) -> int:
    return connected_counts(n)[n]


def exact_two_connected_count(n: int) -> int:
    return two_connected_series(n)[n]


MODELS = {
    "C": (alien_connected, exact_connected_count),
    "C2": (alien_two_connected, exact_two_connected_count),
}


@dataclass(frozen=True)
class FitReport:
    series: str
    n: int
    terms: int
    exact: int
    partial_sum: Decimal
    scaled_remainder: Decimal
    next_coefficient: Decimal  # e^offset * c_R
    tracking_ratio: Decimal  # scaled_remainder / next_coefficient


def _to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def asymptotic_fit(series: str, n: int, terms: int) -> FitReport:
    """Compare the exact count at n against the truncated expansion with
    `terms` coefficients; the remainder is rescaled by (2(n-terms)-1)!! so
    that it should approach e^offset * c_terms for large n."""
    if series not in MODELS:
        raise KeyError(f"unknown series {series!r}; known: C, C2")
    if terms < 1 or n < terms + 2:
        raise ValueError("need terms >= 1 and n >= terms + 2")
    if n > MAX_FIT_N:
        raise ValueError(f"exact counts supported through n = {MAX_FIT_N}")
    build, exact_fn = MODELS[series]
    expansion = build(terms)
    exact = exact_fn(n)
    d = double_factorial_series(n)
    with localcontext() as ctx:
        ctx.prec = FIT_PRECISION
        scale = _to_decimal(expansion.exp_offset).exp()
        partial_exact = sum(
            (expansion.body[k] * d[n - k] for k in range(terms)),
            Fraction(0),
        )
        partial = scale * _to_decimal(partial_exact)
        remainder = (Decimal(exact) - partial) / Decimal(d[n - terms])
        next_coeff = scale * _to_decimal(expansion.body[terms])
        ratio = remainder / next_coeff
        return FitReport(
            series=series,
            n=n,
            terms=terms,
            exact=exact,
            partial_sum=partial,
            scaled_remainder=remainder,
            next_coefficient=next_coeff,
            tracking_ratio=ratio,
        )


def connectivity_probability(series: str, n: int) -> Decimal:
    """Probability that a uniform diagram on n chords lies in the class."""
    _, exact_fn = MODELS[series]
    with localcontext() as ctx:
        ctx.prec = FIT_PRECISION
        return Decimal(exact_fn(n)) / Decimal(double_factorial_series(n)[n])


def leading_probability_estimate(series: str, n: int) -> Decimal:
    """First-order probability: e^(-1)(1 - 5/(4n)) or e^(-2)(1 - 3/n)."""
    with localcontext() as ctx:
        ctx.prec = FIT_PRECISION
        if series == "C":
            return (-Decimal(1)).exp() * (1 - Decimal(5) / (4 * n))
        if series == "C2":
            return (-Decimal(2)).exp() * (1 - Decimal(3) / n)
    raise KeyError(series)
