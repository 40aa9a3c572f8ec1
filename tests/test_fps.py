"""Kernel arithmetic tests: exactness, ring axioms, calculus, reversion."""

import random
import re
from fractions import Fraction

import pytest

from chordlab import fps
from chordlab.fps import FormalPowerSeries, from_coeffs


def random_series(rng, order, valuation=0):
    coeffs = [Fraction(0)] * valuation + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(order + 1 - valuation)
    ]
    return FormalPowerSeries(coeffs)


def test_add_cancellation():
    a = from_coeffs([1, 1], order=4)
    b = from_coeffs([1, -1], order=4)
    assert (a + b) == from_coeffs([2], order=4)


def test_add_identity():
    rng = random.Random(7)
    f = random_series(rng, 9)
    assert fps.zero(9) + f == f


def test_mul_x_squared():
    assert fps.x(4) * fps.x(4) == from_coeffs([0, 0, 1], order=4)


def test_mul_double_factorial_square():
    # convolving (1,1,3,15,105,945) with itself by hand
    d = from_coeffs([1, 1, 3, 15, 105, 945])
    assert (d * d).coeffs == tuple(
        Fraction(v) for v in (1, 2, 7, 36, 249, 2190)
    )


def test_derivative_and_integral():
    assert from_coeffs([0, 0, 1]).derivative() == from_coeffs([0, 2])
    assert from_coeffs([0, 2], order=1).integral() == from_coeffs([0, 0, 1])
    rng = random.Random(3)
    f = random_series(rng, 10)
    assert f.integral().derivative() == f


def test_geometric_division():
    n = 10
    q = fps.one(n) / (fps.one(n) - fps.x(n))
    assert q == fps.geometric(n)


def test_division_valuation_cancellation():
    # (x^2 + x^3) / x = x + x^2
    a = from_coeffs([0, 0, 1, 1])
    b = fps.x(3)
    assert a / b == from_coeffs([0, 1, 1])
    with pytest.raises(ZeroDivisionError):
        fps.one(3) / fps.x(3)


def test_division_with_no_known_quotient_coefficient():
    # val(b) exceeds the order of a, so the shift leaves no coefficient
    with pytest.raises(ValueError, match="beyond the truncation order"):
        fps.divide(fps.zero(0), fps.x(1))
    with pytest.raises(ValueError, match="beyond the truncation order"):
        fps.zero(1) / (fps.x(2) * fps.x(2))
    with pytest.raises(ValueError, match="beyond the truncation order"):
        fps.zero(0) / (fps.x(2) * fps.x(2))


def test_compose_identity():
    rng = random.Random(11)
    f = random_series(rng, 8)
    assert f.compose(fps.x(8)) == f


def test_compose_rejects_constant_term():
    with pytest.raises(ValueError):
        fps.x(4).compose(fps.one(4))


def test_exp_log_roundtrip():
    n = 12
    log_geom = fps.geometric(n).log()
    expected = FormalPowerSeries(
        [0] + [Fraction(1, k) for k in range(1, n + 1)]
    )
    assert log_geom == expected
    assert expected.exp() == fps.geometric(n)


def test_exp_log_inverse_pair_on_growing_series():
    # exp(log(.)) is the identity even on rapidly growing coefficients
    d = from_coeffs([1, 1, 3, 15, 105, 945, 10395, 135135, 2027025])
    assert d.log().exp() == d


def test_exp_of_zero_and_alternating():
    assert fps.zero(5).exp() == fps.one(5)
    e = (-fps.x(6)).exp()
    fact = 1
    for k in range(7):
        if k:
            fact *= k
        assert e[k] == Fraction((-1) ** k, fact)


def test_reversion_identity():
    assert fps.x(6).reversion() == fps.x(6)


def test_reversion_catalan():
    # R = x + R^2 fixed point: reversion of x - x^2
    f = from_coeffs([0, 1, -1], order=6)
    g = f.reversion()
    catalan = [0, 1, 1, 2, 5, 14, 42]
    assert list(g.coeffs) == catalan
    # independent fixed-point oracle: iterate R = x + R^2
    r = fps.zero(6)
    for _ in range(8):
        r = fps.x(6) + r * r
    assert g == r


def test_reversion_generic_cubic():
    f = from_coeffs([0, 1, 1, 1], order=6)
    g = f.reversion()
    assert g.coeffs[:4] == (Fraction(0), Fraction(1), Fraction(-1), Fraction(1))
    assert f.compose(g) == fps.x(6)
    assert g.compose(f) == fps.x(6)


def test_reversion_non_unit_linear_term():
    rng = random.Random(23)
    f = random_series(rng, 8, valuation=1)
    while not f[1]:
        f = random_series(rng, 8, valuation=1)
    g = f.reversion()
    assert f.compose(g) == fps.x(8)
    assert g.compose(f) == fps.x(8)


@pytest.mark.parametrize("seed", range(5))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a = random_series(rng, 12)
    b = random_series(rng, 12)
    c = random_series(rng, 12)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("seed", range(5))
def test_product_and_chain_rules(seed):
    rng = random.Random(100 + seed)
    a = random_series(rng, 12)
    b = random_series(rng, 12)
    assert (a * b).derivative() == a.derivative() * b.truncate(11) + a.truncate(11) * b.derivative()
    g = random_series(rng, 12, valuation=1)
    lhs = a.compose(g).derivative()
    rhs = a.derivative().compose(g.truncate(11)) * g.derivative()
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(5))
def test_division_inverts_multiplication(seed):
    rng = random.Random(200 + seed)
    a = random_series(rng, 10)
    b = random_series(rng, 10)
    while not b[0]:
        b = random_series(rng, 10)
    assert (a * b) / b == a


def test_pow_matches_repeated_mul():
    rng = random.Random(5)
    a = random_series(rng, 8)
    assert a**0 == fps.one(8)
    assert a**3 == a * a * a


def test_immutability_and_hash():
    f = fps.one(3)
    with pytest.raises(AttributeError):
        f.coeffs = ()
    assert hash(f) == hash(fps.one(3))


def assert_exact(series):
    """Every coefficient is an int, or a Fraction that is not an integer."""
    for c in series.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        FormalPowerSeries([0.5])
    with pytest.raises(TypeError):
        fps.one(3) * 0.5


def test_integral_fractions_become_ints():
    f = FormalPowerSeries([Fraction(4, 2), True, Fraction(1, 3)])
    assert f.coeffs == (2, 1, Fraction(1, 3))
    assert_exact(f)
    assert_exact(fps.geometric(6).log().exp())
    assert_exact(fps.x(4) / 2 * 2)


# -- differential oracle: the Fraction Horner compose and column reversion ------
#
# These are the kernel's previous algorithms, kept here on plain Fraction lists
# (with their own schoolbook product) so that they share no code with it.


def oracle_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        if a[i]:
            for j in range(n + 1 - i):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return out


def oracle_compose(f, g):
    """f(g) by Horner's rule, to order min(len(f), len(g)) - 1."""
    n = min(len(f), len(g)) - 1
    f = [Fraction(c) for c in f[: n + 1]]
    g = [Fraction(c) for c in g[: n + 1]]
    acc = [f[n]] + [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = oracle_mul(acc, g, n)
        acc[0] += f[i]
    return acc


def oracle_reciprocal(b):
    n = len(b) - 1
    inv0 = 1 / Fraction(b[0])
    q = [inv0] + [Fraction(0)] * n
    for m in range(1, n + 1):
        s = Fraction(0)
        for k in range(1, m + 1):
            if b[k]:
                s += b[k] * q[m - k]
        q[m] = -s * inv0
    return q


def oracle_reversion(f):
    """g with f(g) = x, solved column by column as g = x h(g), h = x/f."""
    n = len(f) - 1
    hc = oracle_reciprocal([Fraction(c) for c in f[1:]])
    g = [Fraction(0)] * (n + 1)
    g[1] = hc[0]
    gpow = [[Fraction(0)] * n for _ in range(n)]
    if n >= 2:
        gpow[1][1] = g[1]
    for m in range(2, n + 1):
        j = m - 1
        gpow[1][j] = g[j]
        for k in range(2, j + 1):
            prev = gpow[k - 1]
            gpow[k][j] = sum(
                (g[i] * prev[j - i] for i in range(1, j - k + 2)), Fraction(0)
            )
        g[m] = sum((hc[k] * gpow[k][j] for k in range(1, min(j, n - 1) + 1)), Fraction(0))
    return g


def random_coeffs(rng, kind, order, valuation=0):
    if kind == "int":
        draw = lambda: rng.randint(-9, 9)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    return [0] * valuation + [draw() for _ in range(order + 1 - valuation)]


# k = isqrt(order + 1) is 1 at orders 0-2, and the last block is partial at
# orders such as 4, 9 (k = 3) and 40 (k = 6, 41 = 6 * 6 + 5).
ORACLE_ORDERS = [0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 23, 24, 40]


@pytest.mark.parametrize("order", ORACLE_ORDERS)
@pytest.mark.parametrize("kind", ["int", "rational"])
@pytest.mark.parametrize("valuation", [1, 2])
@pytest.mark.parametrize("outer_shift", [3, 0, -3], ids=["above", "equal", "below"])
def test_compose_matches_horner_oracle(order, kind, valuation, outer_shift):
    rng = random.Random(f"{order}-{kind}-{valuation}-{outer_shift}")
    f = random_coeffs(rng, kind, max(0, order + outer_shift))
    g = random_coeffs(rng, kind, order, valuation=min(valuation, order + 1))
    got = FormalPowerSeries(f).compose(FormalPowerSeries(g))
    assert list(got.coeffs) == oracle_compose(f, g)
    assert got.order == min(len(f), len(g)) - 1
    assert_exact(got)


@pytest.mark.parametrize("order", [o for o in ORACLE_ORDERS if o >= 1])
@pytest.mark.parametrize("kind", ["int", "unit-int", "rational"])
def test_reversion_matches_column_oracle(order, kind):
    rng = random.Random(f"{order}-{kind}")
    f = random_coeffs(rng, "rational" if kind == "rational" else "int", order, 1)
    f[1] = rng.choice([-1, 1]) if kind == "unit-int" else f[1] or 2
    got = FormalPowerSeries(f).reversion()
    assert list(got.coeffs) == oracle_reversion(f)
    assert_exact(got)
    if kind == "unit-int":
        assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: FormalPowerSeries([]), ValueError,
         "a series needs at least the constant coefficient"),
        (lambda: fps.one(2)[3], IndexError, "coefficient x^3 beyond truncation order 2"),
        (lambda: fps.one(2).truncate(3), ValueError, "cannot extend order 2 to 3"),
        (lambda: fps.x(2) ** -1, ValueError, "only nonnegative integer powers are supported"),
        (lambda: fps.x(2) ** Fraction(1, 2), ValueError,
         "only nonnegative integer powers are supported"),
        (lambda: fps.one(2).exp(), ValueError, "exp needs a zero constant term"),
        (lambda: from_coeffs([2, 1], order=2).log(), ValueError, "log needs constant term 1"),
        (lambda: fps.geometric(2).reversion(), ValueError, "reversion needs a zero constant term"),
        (lambda: from_coeffs([0, 0, 1]).reversion(), ValueError,
         "reversion needs a nonzero linear coefficient"),
        (lambda: fps.x(0), ValueError, "x needs order >= 1"),
        (lambda: fps.reciprocal(fps.x(2)), ZeroDivisionError,
         "reciprocal needs a nonzero constant term"),
        (lambda: fps.divide(fps.one(2), fps.zero(2)), ZeroDivisionError,
         "division by the zero series"),
        (lambda: fps.divide_by_power(fps.geometric(3), 2), ZeroDivisionError,
         "series is not divisible by x^2"),
    ],
    ids=["empty", "getitem-past-order", "truncate-above-order", "negative-power",
         "non-int-power", "exp-constant", "log-constant", "reversion-constant",
         "reversion-linear", "x-order-0", "reciprocal-zero-constant", "divide-by-zero",
         "not-divisible"],
)
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
