"""The four routes to the subtree amplitudes must agree, and the negative
controls must fail."""

import random
from fractions import Fraction

import pytest

from chordlab import checks
from chordlab.diffeo import (
    Diffeomorphism,
    KinematicSample,
    amplitude_recursion,
    b_closed_form,
    b_inverse,
    b_inverse_list,
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
    assert b_inverse(diffeo, 1) == 1
    assert b_inverse(diffeo, 2) == -2 * a1
    assert b_inverse(diffeo, 3) == 12 * a1**2 - 6 * a2
    assert b_closed_form(diffeo, 2) == -2 * a1
    assert b_closed_form(diffeo, 3) == 12 * a1**2 - 6 * a2


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_equals_inverse(seed):
    rng = random.Random(seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
    assert checks.diffeo_closed_form(diffeo, 12)[1]


def test_identity_diffeo_is_fixed():
    ident = Diffeomorphism.from_values([1])
    assert b_inverse_list(ident, 8) == [1] + [0] * 7
    assert verify_recurrences(ident, 8)
    assert verify_ode(ident, 10)


@pytest.mark.parametrize("seed", range(4))
def test_recurrences_hold(seed):
    rng = random.Random(100 + seed)
    diffeo = checks.diffeo_mapping(rng, rng.randint(1, 6))
    assert verify_recurrences(diffeo, 10)


def test_recurrences_all_ones():
    assert verify_recurrences(Diffeomorphism.from_values([1, 1]), 10)


def test_perturbed_b_fails_recurrence():
    diffeo = Diffeomorphism.from_values([1, 1])
    b = b_inverse_list(diffeo, 6)
    b[2] += 1  # perturb b_3
    assert mass_recurrence_residual(diffeo, b, 3) != 0
    assert not verify_recurrences(diffeo, 6, b=b)


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
    assert amplitude_recursion([1, 1], 1, kin) == 1


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
    assert checks.diffeo_amplitudes(diffeo, 5, rng, samples=3)[1]


def test_amplitude_guard_and_denominator():
    rng = random.Random(5)
    with pytest.raises(ValueError):
        amplitude_recursion([1, 1], 8, KinematicSample.random(8, rng))
    # engineered vanishing denominator: all dots zero, msq chosen so that
    # (p1+p2)^2 - m^2 = 2 m^2 + 2 s12 - m^2 = 0
    kin = KinematicSample(2, 1, {(1, 2): Fraction(-1, 2)})
    with pytest.raises(ZeroDivisionError):
        amplitude_recursion([1, 1], 2, kin)


def test_kinematic_sample_validation():
    with pytest.raises(ValueError):
        KinematicSample(3, 1, {(1, 2): 1})
    kin = KinematicSample(2, Fraction(3), {(2, 1): Fraction(7)})
    assert kin.subset_momentum_squared([1, 2]) == 2 * 3 + 2 * 7


def test_feynman_constants():
    diffeo = Diffeomorphism.from_values([1, 1])
    # d_0 = 1, d_1 = 4 a_1, d_2 = 2 (4 a_1^2 + 6 a_2)/2 ... spot values
    assert diffeo.kinetic_constants(1) == [1, 4]
    assert diffeo.mass_constants(1) == [2, 12]
