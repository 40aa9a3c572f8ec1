"""Alien derivatives of the connected and 2-connected series: the paper's
closed forms, the same images derived from its relations, and fits.

An image is an exact body times a prefactor e^q and a 1/sqrt(2*pi) flag,
and asserts for the count a_n of its class

    a_n = e^q ( c_0 (2n-1)!! + c_1 (2n-3)!! + ... )        (divergent tail)

with q = -1 for C and q = -2 for C2.  Floats enter only in the fits, at 60
digits; the flag cancels against (2n-1)!! = alpha^(n+beta) Gamma(n+beta) /
sqrt(2*pi), alpha = 2, beta = 1/2.  Borinsky's map A (arXiv:1603.01236)
has A D = 1 and, for g = x + O(x^2), the chain rule

    A(f o g) = f'(g) A g + (x/g)^beta e^((1/x - 1/g)/alpha) (A f)(g).

Solved for A f on D = 1 + C(xD^2) and on C = u - C2(u), u = C^2/x, it
derives both closed forms; their first coefficients give the leading
probabilities e^(-1)(1 - 5/(4n)) and e^(-2)(1 - 3/n):

>>> alien_connected(4).body.coeffs
(1, Fraction(-5, 2), Fraction(-43, 8), Fraction(-579, 16), Fraction(-44477, 128))
>>> _two_connected_image(1).body.coeffs, alien_two_connected(1).body.coeffs
((1, -6), (1, -6))
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import ClassVar

from . import fps, gfseries
from .fps import FormalPowerSeries
from .gfseries import (
    connected_counts,
    connected_series,
    double_factorial_series,
    two_connected_sequence_series,
    two_connected_series,
)

FIT_PRECISION = 60  # decimal digits used for every numeric fit
# The one context every fit computes in, so the caller's rounding, traps and
# precision never reach the digits a fit returns.
_FIT = Context(prec=FIT_PRECISION)
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
    """body * e^(exp_offset) * 1/sqrt(2*pi)."""

    body: FormalPowerSeries
    exp_offset: Fraction
    # every image here has alpha = 2 and beta = 1/2, so each carries the flag
    inv_sqrt_2pi: ClassVar[bool] = True


def _split_prefactor(front, exponent, offset=Fraction(0)) -> ScaledSeries:
    """front e^(offset - exponent) as the body front e^(E_0 - exponent) and
    the prefactor e^(offset - E_0), E_0 the constant of the exponent."""
    return ScaledSeries(front * (exponent[0] - exponent).exp(), offset - exponent[0])


def alien_connected(order: int) -> ScaledSeries:
    """(x/C) exp(-(2C + C^2)/(2x)), the exponent's constant 1 split off as the
    prefactor e^(-1)."""
    fps._nonnegative("order", order)
    c = connected_series(order + 1)
    front = fps.divide(fps.x(order + 1), c)
    return _split_prefactor(front, fps.divide_by_power(2 * c + c * c, 1) / 2)


def alien_two_connected(order: int) -> ScaledSeries:
    """(x^2/(C2 S)) exp(-((S+x)^2 - 1)/(2x)) with the constant 2 of the
    exponent split off as e^(-2); S is the 2-connected sequence series."""
    fps._nonnegative("order", order)
    c2 = two_connected_series(order + 2)
    s = two_connected_sequence_series(order + 2)
    x_squared = fps.from_coeffs([0, 0, 1], order=order + 2)
    front = fps.divide(x_squared, c2 * s)  # valuation-2 cancellation
    return _split_prefactor(front, two_connected_exponent_argument(order))


def two_connected_exponent_argument(order: int) -> FormalPowerSeries:
    """((S+x)^2 - 1)/(2x), the quantity inside the exponential above."""
    fps._nonnegative("order", order)
    s = two_connected_sequence_series(order + 1)
    square = (s + fps.x(order + 1)) ** 2
    return fps.divide_by_power(square - fps.one(order + 1), 1) / 2


def _solve_chain_rule(front: FormalPowerSeries, g: FormalPowerSeries, offset) -> ScaledSeries:
    """A f from the chain rule, given front = (A(f o g) - f'(g) A g) (g/x)^(1/2)
    with prefactor e^offset; the constant of (1/x - 1/g)/2 joins the offset."""
    q = fps.divide_by_power(g, 1)  # g/x, constant term 1
    at_g = _split_prefactor(front, fps.divide_by_power(q - 1, 1) / (2 * q), offset)
    return ScaledSeries(at_g.body.compose(g.reversion()), at_g.exp_offset)


def _connected_image(order: int) -> ScaledSeries:
    """(A C)(g) = (1 - 2xD C'(g)) D e^(-(D^2-1)/(2xD^2)), g = xD^2, from
    A D = 1."""
    d = double_factorial_series(order + 1)
    g = fps.multiply_by_power(d * d, 1)
    c_prime = connected_series(order + 1).derivative().compose(g)
    rest = 1 - 2 * fps.multiply_by_power(d * c_prime, 1).truncate(order)
    return _solve_chain_rule(rest * d, g, Fraction(0))


def _two_connected_image(order: int) -> ScaledSeries:
    """(A C2)(u) = ((2C/x)(1 - C2'(u)) - 1) (C/x) A C e^(-(u-x)/(2xu)),
    u = C^2/x, from A u = 2C A C/x."""
    root = fps.divide_by_power(connected_series(order + 2), 1)  # C/x
    u = fps.multiply_by_power(root * root, 1)
    c2_prime = two_connected_series(order + 1).derivative().compose(u)
    image_c = alien_connected(order)
    front = (2 * root * (1 - c2_prime) - 1) * root * image_c.body
    return _solve_chain_rule(front, u, image_c.exp_offset)


def _relation_check(name: str, order: int, derive, closed) -> gfseries.IdentityReport:
    if not 0 <= order <= 32:
        raise ValueError(f"the relation checks run at orders 0 to 32, not {order}")
    derived, expected = derive(order), closed(order)
    if derived.exp_offset != expected.exp_offset:  # a prefactor differs at x^0
        return gfseries.IdentityReport(name, order, False, 0)
    return gfseries._compare(name, order, derived.body, expected.body)


def chain_rule_check(order: int) -> gfseries.IdentityReport:
    """The image of C derived from D = 1 + C(xD^2) against `alien_connected`."""
    return _relation_check("connected_image", order, _connected_image, alien_connected)


def square_image_consistency(order: int) -> gfseries.IdentityReport:
    """The image of C2 derived from C = u - C2(u) against `alien_two_connected`."""
    return _relation_check("two_connected_image", order, _two_connected_image, alien_two_connected)


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


def _model(series: str, n: int):
    """The (image, exact count) pair of a series, for n with exact counts."""
    if series not in MODELS:
        raise KeyError(f"unknown series {series!r}; known: {', '.join(sorted(MODELS))}")
    if not 1 <= n <= MAX_FIT_N:
        raise ValueError(f"exact counts supported for n = 1 to {MAX_FIT_N}, got {n}")
    return MODELS[series]


def _to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def asymptotic_fit(series: str, n: int, terms: int) -> FitReport:
    """Compare the exact count at n against the truncated expansion with
    `terms` coefficients; the remainder is rescaled by (2(n-terms)-1)!! so
    that it should approach e^offset * c_terms for large n."""
    build, exact_fn = _model(series, n)
    if terms < 1 or n < terms + 2:
        raise ValueError("need terms >= 1 and n >= terms + 2")
    expansion = build(terms)
    exact = exact_fn(n)
    d = double_factorial_series(n)
    with localcontext(_FIT):
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
    _, exact_fn = _model(series, n)
    with localcontext(_FIT):
        return Decimal(exact_fn(n)) / Decimal(double_factorial_series(n)[n])


def leading_probability_estimate(series: str, n: int) -> Decimal:
    """First-order probability e^q (c_0 + c_1/(2n)) from the first two
    coefficients of the image: e^(-1)(1 - 5/(4n)) or e^(-2)(1 - 3/n)."""
    image = _model(series, n)[0](1)
    c0, c1 = image.body.coeffs
    with localcontext(_FIT):
        # c_1/(2n) is rounded before c_0 is added, as 5/(4n) is in 1 - 5/(4n)
        first_order = _to_decimal(c0) + _to_decimal(Fraction(c1, 2 * n))
        return _to_decimal(image.exp_offset).exp() * first_order
