"""The four routes to the subtree amplitudes must agree, and the negative
controls must fail."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from chordlab import checks
from oracles import bell_partial_fraction
from chordlab.diffeo import (
    MAX_AMPLITUDE_POINTS,
    Diffeomorphism,
    KinematicSample,
    amplitude_recursion,
    b_closed_form,
    b_inverse_list,
    dot_recurrence_residual,
    mass_recurrence_residual,
    ode_residuals,
    verify_ode,
    verify_recurrences,
)


def test_tangency_required():
    with pytest.raises(ValueError):
        Diffeomorphism.from_values([2, 1])


def test_first_values_symbolic():
    # b_1 = 1, b_2 = -2 a_1, b_3 = 12 a_1^2 - 6 a_2 at sample rationals
    a1, a2 = Fraction(2, 3), Fraction(-1, 4)
    diffeo = Diffeomorphism.from_values([1, a1, a2])
    assert b_inverse_list(diffeo, 3) == [1, -2 * a1, 12 * a1**2 - 6 * a2]
    assert b_closed_form(diffeo, 2) == -2 * a1
    assert b_closed_form(diffeo, 3) == 12 * a1**2 - 6 * a2


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_equals_inverse(seed):
    rng = random.Random(seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
    assert checks.diffeo_closed_form(diffeo, b_inverse_list(diffeo, 12))[1]


def test_identity_diffeo_is_fixed():
    ident = Diffeomorphism.from_values([1])
    assert b_inverse_list(ident, 8) == [1] + [0] * 7
    assert verify_recurrences(ident, b_inverse_list(ident, 8))
    assert verify_ode(ident, 10)


@pytest.mark.parametrize("seed", range(4))
def test_recurrences_hold(seed):
    rng = random.Random(100 + seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
    assert verify_recurrences(diffeo, b_inverse_list(diffeo, 10))


def test_recurrences_all_ones():
    diffeo = Diffeomorphism.from_values([1, 1])
    assert verify_recurrences(diffeo, b_inverse_list(diffeo, 10))


def test_perturbed_b_fails_recurrence():
    diffeo = Diffeomorphism.from_values([1, 1])
    b = b_inverse_list(diffeo, 6)
    b[2] += 1  # perturb b_3
    assert mass_recurrence_residual(diffeo, b, 3) != 0
    assert not verify_recurrences(diffeo, b)


# The closed form and the residuals summed in Fractions over the oracle
# recurrence, as the library summed them before it scaled the a's and b's
# to integers.


def closed_form_in_fractions(diffeo, n):
    m = n - 1
    xs = [-factorial(j) * diffeo.a(j) for j in range(1, m + 1)]
    return sum(
        (Fraction(factorial(m + k), factorial(m)) * bell_partial_fraction(m, k, xs)
         for k in range(1, m + 1)),
        Fraction(1) if n == 1 else Fraction(0),
    )


def mass_residual_in_fractions(diffeo, b, n):
    total = Fraction(0)
    for k in range(1, n + 1):
        inner = sum(
            diffeo.a(j) * diffeo.a(k - 1 - j) * (2 * n * (j + 1) * (k - j) - k * (k + 1))
            for j in range(k)
        )
        total += bell_partial_fraction(n, k, b) * Fraction(factorial(k - 1), 2) * inner
    return total


def dot_residual_in_fractions(diffeo, b, n):
    total = Fraction(0)
    for k in range(1, n + 1):
        weight = sum(diffeo.a(j) * diffeo.a(k - 1 - j) * (j + 1) * (k - j) for j in range(k))
        inner = sum(
            Fraction(b[s - 1]) / (factorial(s) * factorial(n - s))
            * bell_partial_fraction(n - s, k - 1, b)
            * (k * s * (s - 1) + n * (n - 1))
            for s in range(1, n + 1)
        )
        total += weight * Fraction(factorial(k - 1), 2 * k) * inner
    return total


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_and_residuals_equal_their_fraction_forms(seed):
    rng = random.Random(600 + seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
    b = b_inverse_list(diffeo, 9)
    b[2] += Fraction(rng.randint(1, 5), rng.randint(1, 5))  # perturb b_3
    b[5] = 0
    for n in range(1, 10):
        value = b_closed_form(diffeo, n)
        assert value == closed_form_in_fractions(diffeo, n)
        assert type(value) is Fraction
    for residual, in_fractions in (
        (mass_recurrence_residual, mass_residual_in_fractions),
        (dot_recurrence_residual, dot_residual_in_fractions),
    ):
        values = [residual(diffeo, b, n) for n in range(1, 10)]
        assert values == [in_fractions(diffeo, b, n) for n in range(1, 10)]
        assert {type(v) for v in values} == {Fraction}
        assert any(values)  # the perturbation shows


@pytest.mark.parametrize("seed", range(4))
def test_ode_holds(seed):
    rng = random.Random(200 + seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
    assert verify_ode(diffeo, 12)


def test_ode_explicit_rational_example():
    diffeo = Diffeomorphism.from_values([1, Fraction(1, 2), Fraction(1, 3)])
    assert verify_ode(diffeo, 12)


def test_ode_negative_control_breaks_at_t2():
    diffeo = Diffeomorphism.from_values([1, 1])
    first, _ = ode_residuals(diffeo, 6, use_inverse=False)
    assert first[0] == 0 and first[1] == 0
    assert first[2] != 0


def test_amplitude_base_case():
    rng = random.Random(1)
    kin = KinematicSample.random(3, rng)
    assert amplitude_recursion(Diffeomorphism.from_values([1, 1]), 1, kin) == 1


def test_amplitude_three_points_momentum_independent():
    a1, a2 = Fraction(1, 2), Fraction(2, 5)
    diffeo = Diffeomorphism.from_values([1, a1, a2])
    rng = random.Random(77)
    values = {
        amplitude_recursion(diffeo, 3, KinematicSample.random(3, rng))
        for _ in range(2)
    }
    assert values == {12 * a1**2 - 6 * a2}


@pytest.mark.parametrize("seed", range(3))
def test_amplitude_equals_inverse_coefficients(seed):
    rng = random.Random(300 + seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 4))
    assert checks.diffeo_amplitudes(diffeo, b_inverse_list(diffeo, 5), rng, samples=3)[1]


def test_amplitude_guard_and_denominator():
    rng = random.Random(5)
    diffeo = Diffeomorphism.from_values([1, 1])
    n = MAX_AMPLITUDE_POINTS + 1
    with pytest.raises(ValueError):
        amplitude_recursion(diffeo, n, KinematicSample.random(n, rng))
    # engineered vanishing denominator: all dots zero, msq chosen so that
    # (p1+p2)^2 - m^2 = 2 m^2 + 2 s12 - m^2 = 0
    kin = KinematicSample(2, 1, {(1, 2): Fraction(-1, 2)})
    with pytest.raises(ZeroDivisionError):
        amplitude_recursion(diffeo, 2, kin)


def test_kinematic_sample_validation():
    with pytest.raises(ValueError):
        KinematicSample(3, 1, {(1, 2): 1})
    kin = KinematicSample(2, Fraction(3), {(2, 1): Fraction(7)})
    assert kin.squares == [0, 3, 3, 2 * 3 + 2 * 7]


@pytest.mark.parametrize(
    "call",
    [
        lambda: Diffeomorphism.from_values([1, 0.1]),
        lambda: KinematicSample(2, 0.1, {(1, 2): Fraction(7, 10)}),
        lambda: KinematicSample(2, Fraction(3, 10), {(1, 2): 0.1}),
        lambda: mass_recurrence_residual(Diffeomorphism.from_values([1, 1]), [1, 0.1], 2),
    ],
    ids=["from_values", "mass_squared", "dots", "recurrence_values"],
)
def test_float_arguments_are_refused(call):
    # 0.1 would become the inexact 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=r"not the float 0\.1"):
        call()


def test_exact_arguments_are_stored_as_fractions():
    diffeo = Diffeomorphism.from_values([1, 2, Fraction(1, 2)])
    assert [type(a) for a in diffeo.coefficients] == [Fraction] * 3
    kin = KinematicSample(2, 3, {(2, 1): Fraction(7, 10)})
    assert type(kin.mass_squared) is Fraction
    assert [type(v) for v in kin.dots.values()] == [Fraction]


def test_feynman_constants():
    diffeo = Diffeomorphism.from_values([1, 1])
    # d_0 = 1, d_1 = 4 a_1, d_2 = 2 (4 a_1^2 + 6 a_2)/2 ... spot values
    assert diffeo.kinetic_constants(1) == [1, 4]
    assert diffeo.mass_constants(1) == [2, 12]


# -- the set-partition recursion, the oracle of the subset recursion ----------


def subset_square(kin, subset):
    """(sum of the subset's momenta)^2 from the pairwise dot products."""
    return len(subset) * kin.mass_squared + 2 * sum(
        kin.dots[pair] for pair in combinations(sorted(subset), 2)
    )


def set_partitions(items):
    """All set partitions of items with at least two blocks."""
    n = len(items)
    codes = [0] * n

    def rec(i, maxused):
        if i == n:
            if maxused >= 1:
                blocks = [[] for _ in range(maxused + 1)]
                for item, c in zip(items, codes):
                    blocks[c].append(item)
                yield blocks
            return
        for c in range(maxused + 2):
            codes[i] = c
            yield from rec(i + 1, max(maxused, c))

    yield from rec(0, -1)


def oracle_amplitude(diffeo, n, kin):
    """The subtree sum written out over every set partition of every subset
    of the momenta, memoised on the subset as a tuple."""
    d_const = diffeo.kinetic_constants(n)
    c_const = diffeo.mass_constants(n)
    msq = kin.mass_squared
    memo = {}

    def subtree(momenta):
        if len(momenta) == 1:
            return Fraction(1)
        if momenta not in memo:
            total_sq = subset_square(kin, momenta)
            acc = Fraction(0)
            for blocks in set_partitions(list(momenta)):
                k = len(blocks)
                prod = Fraction(1)
                squares = total_sq
                for block in blocks:
                    prod *= subtree(tuple(block))
                    squares += subset_square(kin, block)
                acc += prod * (d_const[k - 1] * squares - msq * c_const[k - 1]) / 2
            memo[momenta] = -acc / (total_sq - msq)
        return memo[momenta]

    return subtree(tuple(range(1, n + 1)))


@pytest.mark.parametrize("n", range(1, 8))
def test_subset_recursion_matches_the_set_partition_oracle(n):
    rng = random.Random(400 + n)
    for _ in range(3):
        diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
        kin = KinematicSample.random_nondegenerate(n, rng)
        assert amplitude_recursion(diffeo, n, kin) == oracle_amplitude(diffeo, n, kin)


@pytest.mark.parametrize("n, samples", [(9, 2), (10, 1)])
def test_amplitude_beyond_the_old_guard(n, samples):
    rng = random.Random(500 + n)
    diffeo = checks.diffeo_mapping(rng, 3)
    expected = b_inverse_list(diffeo, n)[n - 1]
    assert b_closed_form(diffeo, n) == expected
    for _ in range(samples):
        kin = KinematicSample.random_nondegenerate(n, rng)
        assert amplitude_recursion(diffeo, n, kin) == expected


def resample_subset_by_subset(n, rng):
    """random_nondegenerate written over the subsets one at a time; it must
    make the same draws and keep the same sample."""
    while True:
        msq = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        dots = {
            (i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        kin = KinematicSample(n, msq, dots)
        if all(
            subset_square(kin, subset) != msq
            for size in range(2, n + 1)
            for subset in combinations(range(1, n + 1), size)
        ):
            return msq, dots


@pytest.mark.parametrize("seed", range(50))
def test_nondegenerate_draws_are_pinned(seed):
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    for n in range(1, 8):
        kin = KinematicSample.random_nondegenerate(n, new_rng)
        assert (kin.mass_squared, kin.dots) == resample_subset_by_subset(n, old_rng)
    assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: b_closed_form(Diffeomorphism.from_values([1, 1]), 0), "defined for n >= 1"),
        (lambda: b_inverse_list(Diffeomorphism.from_values([1, 1]), 0),
         "defined for nmax >= 1, got 0"),
        (lambda: b_inverse_list(Diffeomorphism.from_values([1, 1]), -1),
         "defined for nmax >= 1, got -1"),
        (lambda: checks.diffeo_suite(0, random.Random(1)), "defined for nmax >= 1, got 0"),
        (lambda: amplitude_recursion(Diffeomorphism.from_values([1, 1]), 4,
                                     KinematicSample.random_nondegenerate(3, random.Random(2))),
         "the kinematic sample has too few momenta"),
    ],
    ids=["closed-form-n-0", "inverse-list-nmax-0", "inverse-list-nmax-negative",
         "suite-order-0", "amplitude-few-momenta"],
)
def test_input_checks_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
