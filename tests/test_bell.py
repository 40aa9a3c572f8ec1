"""Partial Bell polynomials, composition, the identity suite, and the
Lagrange fixed point."""

import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from chordlab import checks, fps
from chordlab.bell import (
    _BLOCK_STEP,
    BELL_IDENTITIES,
    bell_partial,
    bell_partial_by_partitions,
    faa_di_bruno,
    lift_coefficient,
    lift_resummation,
    lift_solve,
    nested_convolution,
    verify_bell_identity,
)
from chordlab.fps import FormalPowerSeries
from chordlab.gfseries import (
    connected_pair_series,
    nonempty_indecomposable_series,
    stack_tree_series,
)
from oracles import bell_partial_fraction, nested_convolution_literal


def random_values(rng, count):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(count)]


def test_diagonal_is_power_of_x1():
    assert bell_partial(3, 3, [1]) == 1
    assert bell_partial(5, 5, [Fraction(2, 3)]) == Fraction(32, 243)


def test_three_into_two_blocks():
    # the three partitions {12|3}, {13|2}, {23|1}
    assert bell_partial(3, 2, [1, 1]) == 3


def test_four_into_two_blocks():
    # 4 blocks of type 1+3 and 3 of type 2+2
    assert bell_partial(4, 2, [1, 1, 1]) == 7


def test_degenerate_values():
    assert bell_partial(0, 0, []) == 1
    assert bell_partial(3, 0, [1, 1, 1]) == 0
    assert bell_partial(2, 3, [1, 1]) == 0


def test_insufficient_values_rejected():
    with pytest.raises(ValueError):
        bell_partial(5, 2, [1, 1])


@pytest.mark.parametrize("args, message", [
    ((-1, 1, [1]), "n and k must be nonnegative"),
    ((2, -1, [1, 1]), "n and k must be nonnegative"),
    ((3, 1, [1]), "need x_1..x_3, got 1 values"),
    ((5, 2, [1, 1]), "need x_1..x_4, got 2 values"),
])
def test_both_evaluations_reject_bad_input_alike(args, message):
    for evaluate in (bell_partial, bell_partial_by_partitions):
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(*args)


def fraction_partitions(n, k, xs):
    """The partition sum in Fractions, as `bell_partial_by_partitions` once
    computed it: every set partition of {1,...,n} into k blocks, walked as a
    restricted-growth string, adds the product of its x_(block size)."""
    if n == 0:
        return Fraction(1) if k == 0 else Fraction(0)
    if k == 0 or k > n:
        return Fraction(0)
    values = [Fraction(v) for v in xs]
    total = Fraction(0)

    def rec(i, maxused, sizes):
        nonlocal total
        if i == n:
            if maxused + 1 == k:
                prod = Fraction(1)
                for size in sizes:
                    prod *= values[size - 1]
                total += prod
            return
        if maxused + 1 + (n - i) < k:
            return
        for b in range(min(maxused + 1, k - 1) + 1):
            if b == maxused + 1:
                sizes.append(1)
                rec(i + 1, maxused + 1, sizes)
                sizes.pop()
            else:
                sizes[b] += 1
                rec(i + 1, maxused, sizes)
                sizes[b] -= 1

    rec(0, -1, [])
    return total


@pytest.mark.parametrize("seed", range(4))
def test_integer_partition_sum_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    for n in range(9):
        for k in range(n + 1):
            # two values past x_(n-k+1) that no partition reads, and zeros
            xs = random_values(rng, n - k + 3)
            xs[rng.randrange(len(xs))] = 0
            got = bell_partial_by_partitions(n, k, xs)
            assert got == fraction_partitions(n, k, xs)
            assert type(got) is Fraction


def test_more_blocks_than_the_fill_step_match_the_fraction_recurrence():
    k = _BLOCK_STEP * 11
    xs = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7)]
    value = bell_partial(k + 2, k, xs)
    assert value == bell_partial_fraction(k + 2, k, xs)
    assert type(value) is Fraction


@pytest.mark.parametrize("seed", range(3))
def test_recurrence_matches_partition_oracle(seed):
    rng = random.Random(seed)
    xs = random_values(rng, 8)
    assert checks.bell_oracle(8, xs)[1]


def test_faa_di_bruno_identity_series():
    ident = [0, 1]
    assert faa_di_bruno(ident, ident, 1) == 1
    for n in (0, 2, 3, 4):
        assert faa_di_bruno(ident, ident, n) == (1 if n == 1 else 0)


def test_faa_di_bruno_exponential():
    # f = exp series (all EGF coefficients 1), g = x: h_n = 1 for all n
    f = [1] * 9
    g = [0, 1] + [0] * 7
    for n in range(9):
        assert faa_di_bruno(f, g, n) == 1


@pytest.mark.parametrize("seed", range(3))
def test_faa_di_bruno_against_series_composition(seed):
    rng = random.Random(40 + seed)
    order = 8
    f = random_values(rng, order + 1)
    g = [Fraction(0)] + random_values(rng, order)
    ffact = FormalPowerSeries(
        [f[i] / _factorial(i) for i in range(order + 1)]
    )
    gfact = FormalPowerSeries(
        [g[i] / _factorial(i) for i in range(order + 1)]
    )
    composed = ffact.compose(gfact)
    for n in range(order + 1):
        value = faa_di_bruno(f, g, n)
        assert value == composed[n] * _factorial(n)
        assert type(value) is Fraction


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_faa_di_bruno_rejects_constant_inner():
    with pytest.raises(ValueError):
        faa_di_bruno([0, 1], [1, 1], 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_partial(1, 1, [0.1]),
        lambda: bell_partial_by_partitions(1, 1, [0.1]),
        lambda: faa_di_bruno([0, 0.1], [0, 1], 1),
        lambda: faa_di_bruno([0, 1], [0, 0.1], 1),
        lambda: nested_convolution(2, 1, [1, 0.1]),
    ],
    ids=["bell_partial", "by_partitions", "faa_di_bruno_f", "faa_di_bruno_g", "nested"],
)
def test_float_arguments_are_refused(call):
    # 0.1 would become the inexact 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=r"not the float 0\.1"):
        call()


def test_lemma_identities_examples():
    rng = random.Random(99)
    xs = random_values(rng, 6)
    assert verify_bell_identity("lemma1a", 5, 2, xs)
    assert verify_bell_identity("lemma1b", 5, 2, xs)
    assert verify_bell_identity("id2", 4, 1, xs, k2=1)
    assert verify_bell_identity("id1", 6, 3, [1, 1, 1, 1])


@pytest.mark.parametrize("seed", range(5))
def test_identity_suite_exhaustive_small(seed):
    rng = random.Random(7000 + seed)
    xs = random_values(rng, 8)
    while not xs[0]:
        xs = random_values(rng, 8)
    for which in BELL_IDENTITIES:
        assert checks.bell_identity(which, 8, xs)[1], which


@pytest.mark.parametrize("seed", range(2))
def test_nested_convolution_matches_literal_loops(seed):
    rng = random.Random(81 + seed)
    xs = random_values(rng, 8)
    for n in range(1, 8):
        for blocks in range(1, n + 1):
            value = nested_convolution(n, blocks, xs)
            assert value == nested_convolution_literal(n, blocks, xs), (n, blocks)
            assert type(value) is Fraction


def fraction_sides(which, n, k, xs, k2=None):
    """The identity's two sides summed in Fractions over the oracle
    recurrence, as BELL_IDENTITIES summed them before it scaled xs to
    integers."""
    x = [Fraction(v) for v in xs]

    def b(m, j):
        return bell_partial_fraction(m, j, xs)

    if which in ("lemma1a", "lemma1b"):
        rooted = which == "lemma1b"
        rhs = sum(
            (comb(n, s) * (s if rooted else 1) * x[s - 1] * b(n - s, k - 1)
             for s in range(1, min(n, len(x)) + 1)),
            Fraction(0),
        )
        return (n if rooted else k) * b(n, k), rhs
    if which == "id1":
        rhs = sum(
            comb(n, a) * (Fraction(k + 1) - Fraction(n + 1, a + 1)) * x[a] * b(n - a, k)
            for a in range(1, n - k + 1)
        )
        return b(n, k), rhs / (x[0] * (n - k))
    if which == "id2":
        k2 = k if k2 is None else k2
        rhs = sum(comb(n, a) * b(a, k) * b(n - a, k2) for a in range(n + 1))
        return b(n, k + k2), Fraction(factorial(k) * factorial(k2), factorial(k + k2)) * rhs
    return b(n, k), nested_convolution_literal(n, k, xs)


@pytest.mark.parametrize("seed", range(3))
def test_identity_sides_equal_their_fraction_forms(seed):
    rng = random.Random(900 + seed)
    xs = random_values(rng, 8)
    xs[0] = xs[0] or Fraction(-5, 3)
    xs[1], xs[rng.randrange(2, 8)] = rng.randint(-4, 4), 0  # an int and a zero
    for which, sides in BELL_IDENTITIES.items():
        for n in range(1, 9):
            for k in range(1, n + 1 - (which == "id1")):
                for k2 in [None, *range(1, n - k + 1)] if which == "id2" else [None]:
                    got = sides(n, k, xs, k2)
                    assert got == fraction_sides(which, n, k, xs, k2), (which, n, k, k2)
                    assert [type(v) for v in got] == [Fraction, Fraction]


@pytest.mark.parametrize("n, k, count", [(3, 0, 3), (5, 2, 3)])
def test_shifted_identity_names_the_value_it_lacks(n, k, count):
    # The shifted sum reads x_(n-k+1), which B(n, 0) itself never reads.
    need = re.escape(f"need x_1..x_{n - k + 1}, got {count} values")
    with pytest.raises(ValueError, match=need):
        verify_bell_identity("id1", n, k, [1] * count)


def test_unknown_identity_name():
    with pytest.raises(KeyError):
        verify_bell_identity("id9", 3, 1, [1, 1, 1])


# -- Lagrange fixed point ----------------------------------------------------


def test_lift_constant_g():
    assert lift_solve(fps.one(6), 6) == fps.x(6)


def test_lift_geometric_gives_catalan():
    r = lift_solve(fps.geometric(8), 8)
    assert list(r.coeffs[:6]) == [0, 1, 1, 2, 5, 14]


def test_lift_requires_invertible_g():
    with pytest.raises(ValueError):
        lift_solve(fps.x(4), 4)


@pytest.mark.parametrize("seed", range(3))
def test_lift_solves_its_defining_equation(seed):
    rng = random.Random(500 + seed)
    order = 9
    g = FormalPowerSeries(random_values(rng, order))
    while not g[0]:
        g = FormalPowerSeries(random_values(rng, order))
    r = lift_solve(g, order)
    assert r[0] == 0
    assert r == fps.multiply_by_power(g.compose(r.truncate(order - 1)), 1)


@pytest.mark.parametrize("seed", range(3))
def test_lift_coefficient_formula(seed):
    rng = random.Random(300 + seed)
    order = 10
    g = FormalPowerSeries(random_values(rng, order + 1))
    while not g[0]:
        g = FormalPowerSeries(random_values(rng, order + 1))
    f = FormalPowerSeries(random_values(rng, order + 1))
    r = lift_solve(g, order)
    direct = (f - f[0]).compose(r) + f[0]
    for n in range(1, order + 1):
        assert lift_coefficient(f, g, n) == direct[n], n


def test_lift_coefficient_is_exact_over_an_integer_product_coefficient():
    # [t^2] g^3 = 3 * (-8/3) = -8 is an int; the division by n = 3 must stay exact
    g = fps.from_coeffs([1, 0, Fraction(-8, 3)], order=3)
    value = lift_coefficient(fps.x(3), g, 3)
    assert type(value) is Fraction
    assert value == Fraction(-8, 3)


@pytest.mark.parametrize("seed", range(3))
def test_lift_resummation_formula(seed):
    rng = random.Random(400 + seed)
    order = 9
    g = FormalPowerSeries(random_values(rng, order + 1))
    while not g[0]:
        g = FormalPowerSeries(random_values(rng, order + 1))
    h = FormalPowerSeries(random_values(rng, order + 1))
    resummed = lift_resummation(h, g, order)
    power = fps.one(order)
    for n in range(order + 1):
        if n:
            power = power * g
        assert resummed[n] == (h * power)[n], n


def test_indecomposable_pipeline_through_lift():
    # I0 = x / (1 - x A'(Z)) with Z the fixed point of Z = x A(Z)
    order = 8
    a = connected_pair_series(order + 1)
    z = lift_solve(a, order)
    assert z == stack_tree_series(order)
    aprime = a.derivative().truncate(order - 1).compose(z.truncate(order - 1))
    denom = fps.one(order) - fps.multiply_by_power(aprime, 1)
    i0 = fps.multiply_by_power(fps.reciprocal(denom), 1).truncate(order)
    assert i0 == nonempty_indecomposable_series(order)
