"""Tree-level amplitudes of a field substitution applied to a free theory.

A substitution is F(t) = sum_j a_j t^(j+1) with a_0 = 1.  The n-point
subtree amplitude b_n (propagator of the marked edge included) is computed
four independent ways: the Bell-polynomial closed form, the compositional
inverse, the pair of coefficient recurrences, and the literal momentum-level
recursion over subsets of the momenta with randomized rational kinematics.
All of them must agree, and the momentum-level value must not depend on the
kinematics; that cancellation is the point.  For F(t) = t + t^2:

>>> F = Diffeomorphism.from_values([1, 1])
>>> b_inverse_list(F, 4)
[1, -2, 12, -120]
>>> amplitude_recursion(F, 4, KinematicSample.random_nondegenerate(4, random.Random(0)))
Fraction(-120, 1)

The closed form and the two recurrences sum over integers: each value
list (the a's, the b's) is scaled once by its least common denominator, and
each result is one Fraction.  The inverse and the differential equations
run through fps, and the momentum recursion in Fractions, as its
kinematics are rational.

Kinematics are formally independent rationals: only the squared mass and
the dot products s_ij enter, and no attempt is made to realize them as
4-vectors (the cancellation is a polynomial identity in these quantities,
so random rational evaluation tests it reliably).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from . import fps
from .bell import _bell, _scaled
from .fps import FormalPowerSeries, Rational

MAX_AMPLITUDE_POINTS = 10  # the recursion costs O(3^n n) exact operations


@dataclass(frozen=True)
class Diffeomorphism:
    """Coefficient list (a_0, a_1, ..., a_m) with a_0 = 1."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("the substitution must be tangent to the identity (a_0 = 1)")

    @classmethod
    def from_values(cls, values: Sequence[Rational]) -> "Diffeomorphism":
        return cls(tuple(map(fps._exact, values)))

    def a(self, j: int) -> Fraction:
        if j < 0:
            return Fraction(0)
        cs = self.coefficients
        return cs[j] if j < len(cs) else Fraction(0)

    def series(self, order: int) -> FormalPowerSeries:
        """F(t) = sum a_j t^(j+1), truncated."""
        coeffs = [Fraction(0)] * (order + 1)
        for j, value in enumerate(self.coefficients):
            if j + 1 <= order:
                coeffs[j + 1] = value
        return FormalPowerSeries(coeffs)

    def kinetic_constants(self, nmax: int) -> list[Fraction]:
        """d_r = r! sum_j (j+1)(r-j+1) a_j a_(r-j) for r = 0..nmax."""
        return [
            factorial(r)
            * sum(
                (j + 1) * (r - j + 1) * self.a(j) * self.a(r - j)
                for j in range(r + 1)
            )
            for r in range(nmax + 1)
        ]

    def mass_constants(self, nmax: int) -> list[Fraction]:
        """c_n = (n+2)! sum_j a_j a_(n-j) for n = 0..nmax."""
        return [
            factorial(n + 2) * sum(self.a(j) * self.a(n - j) for j in range(n + 1))
            for n in range(nmax + 1)
        ]


# -- the four routes to b_n ---------------------------------------------------


def b_inverse_list(diffeo: Diffeomorphism, nmax: int) -> list[Fraction]:
    """(b_1, ..., b_nmax), b_n = n! [t^n] reversion(F), in one reversion."""
    if nmax < 1:
        raise ValueError(f"defined for nmax >= 1, got {nmax}")
    g = diffeo.series(nmax).reversion()
    return [factorial(n) * g[n] for n in range(1, nmax + 1)]


def b_closed_form(diffeo: Diffeomorphism, n: int) -> Fraction:
    """b_(m+1) = sum_k ((m+k)!/m!) B(m, k; -1! a_1, -2! a_2, ...)."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    if n == 1:
        return Fraction(1)
    m = n - 1
    ys, scale = _scaled([-factorial(j) * diffeo.a(j) for j in range(1, m + 1)])
    total = sum(
        factorial(m + k) // factorial(m) * _bell(m, k, ys) * scale ** (m - k)
        for k in range(1, m + 1)
    )
    return Fraction(total, scale**m)


# -- the two recurrences ---------------------------------------------------------


# Both residuals sum over integers: the a's scaled by their least common
# denominator A and the b's by theirs, L, so a product a_i a_j carries 1/A^2
# and B(n, k; b) carries 1/L^k.


def mass_recurrence_residual(diffeo: Diffeomorphism, b: Sequence[Rational], n: int) -> Fraction:
    """sum_k B(n,k; b) ((k-1)!/2) sum_j a_j a_(k-1-j) [2n(j+1)(k-j) - k(k+1)];
    zero exactly when the mass-term part of the momentum recursion holds."""
    betas, b_scale = _scaled(b)
    alphas, a_scale = _scaled(diffeo.coefficients)
    alphas += (0,) * n  # a_j = 0 past the last coefficient
    total = 0
    for k in range(1, n + 1):
        bell = _bell(n, k, betas)
        if not bell:
            continue
        inner = sum(
            alphas[j] * alphas[k - 1 - j] * (2 * n * (j + 1) * (k - j) - k * (k + 1))
            for j in range(k)
        )
        total += bell * factorial(k - 1) * inner * b_scale ** (n - k)
    return Fraction(total, 2 * a_scale**2 * b_scale**n)


def dot_recurrence_residual(diffeo: Diffeomorphism, b: Sequence[Rational], n: int) -> Fraction:
    """The dot-product part: a doubly indexed sum that must also vanish.
    It runs over ints through 1/(s! (n-s)!) = C(n,s)/n! and 1/k = (n!/k)/n!."""
    betas, b_scale = _scaled(b)
    alphas, a_scale = _scaled(diffeo.coefficients)
    alphas += (0,) * n
    total = 0
    for k in range(1, n + 1):
        weight = sum(alphas[j] * alphas[k - 1 - j] * (j + 1) * (k - j) for j in range(k))
        if not weight:
            continue
        inner = 0
        for s in range(1, n + 1):
            bell = _bell(n - s, k - 1, betas)
            if bell:
                inner += comb(n, s) * betas[s - 1] * bell * (k * s * (s - 1) + n * (n - 1))
        total += weight * factorial(k - 1) * (factorial(n) // k) * inner * b_scale ** (n - k)
    return Fraction(total, 2 * factorial(n) ** 2 * a_scale**2 * b_scale**n)


def verify_recurrences(diffeo: Diffeomorphism, b: Sequence[Rational]) -> bool:
    """Both recurrences vanish for the values b = (b_1, ..., b_nmax), at
    1 <= n <= nmax."""
    return all(
        not mass_recurrence_residual(diffeo, b, n) and not dot_recurrence_residual(diffeo, b, n)
        for n in range(1, len(b) + 1)
    )


# -- the differential equations ----------------------------------------------------


def ode_residuals(
    diffeo: Diffeomorphism, order: int, use_inverse: bool = True
) -> tuple[FormalPowerSeries, FormalPowerSeries]:
    """Residual series of t (P o G)' - Q o G and (P o G)'' + G'' (P' o G),
    where P = int (F')^2 dt, Q = (1/2) d/dt F^2, and G is the compositional
    inverse of F (or F itself for the negative control)."""
    pad = order + 2
    f = diffeo.series(pad)
    g = f.reversion() if use_inverse else f
    fprime = f.derivative()
    p = (fprime * fprime).integral()  # order pad, constant 0
    q = (f * f).derivative() / 2
    p_of_g = p.compose(g)
    first = fps.multiply_by_power(p_of_g.derivative(), 1) - q.compose(g)
    second = p_of_g.derivative().derivative() + g.derivative().derivative() * (
        p.derivative().compose(g.truncate(pad - 1))
    )
    return first.truncate(order), second.truncate(order)


def verify_ode(diffeo: Diffeomorphism, order: int) -> bool:
    first, second = ode_residuals(diffeo, order)
    return first == fps.zero(order) and second == fps.zero(order)


# -- the momentum-level recursion ----------------------------------------------------


class KinematicSample:
    """Squared mass and the symmetric dot-product table s_ij (i < j), with
    s_ii = mass_squared imposed (the on-shell condition).

    squares[S] is (sum of the momenta in S)^2, for S a bitmask in which bit
    i - 1 stands for momentum i.  It is built from S minus its lowest
    momentum i: squares[S] = squares[S - i] + m^2 + 2 sum_(j in S - i) s_ij."""

    __slots__ = ("n", "mass_squared", "dots", "squares")

    def __init__(self, n: int, mass_squared: Rational, dots: dict[tuple[int, int], Rational]):
        self.n = n
        self.mass_squared = fps._exact(mass_squared)
        self.dots = {
            (min(i, j), max(i, j)): fps._exact(v) for (i, j), v in dots.items()
        }
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in self.dots:
                    raise ValueError(f"missing dot product s_{i}{j}")
        self.squares = [Fraction(0)] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            rest, i = mask ^ low, low.bit_length()
            cross = sum(self.dots[(i, j)] for j in range(i + 1, n + 1) if rest >> (j - 1) & 1)
            self.squares[mask] = self.squares[rest] + self.mass_squared + 2 * cross

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "KinematicSample":
        msq = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        dots = {
            (i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        return cls(n, msq, dots)

    @classmethod
    def random_nondegenerate(cls, n: int, rng: random.Random) -> "KinematicSample":
        """Resample until every sub-propagator denominator is nonzero, so
        the momentum recursion can run on any subset of the momenta."""
        while True:
            sample = cls.random(n, rng)
            if all(
                square != sample.mass_squared
                for mask, square in enumerate(sample.squares)
                if mask & (mask - 1)
            ):
                return sample


def amplitude_recursion(diffeo: Diffeomorphism, n: int, kin: KinematicSample) -> Fraction:
    """Literal evaluation of the subtree-sum recursion over subsets of the n
    external momenta: each vertex contributes its kinetic and mass terms and
    each internal edge its propagator; the marked edge's propagator is
    included, matching the b_n convention (b_2 = -2a_1).

    A vertex reads the partition of S into its blocks B only through the
    block count k and sum_B P_B^2, so per (S, k) the recursion keeps
    sum prod J(B) and sum (sum_B P_B^2) prod J(B), filled by splitting off
    the block that holds the lowest momentum: O(3^n n) operations, the
    off-shell-current recursion of Berends and Giele (Nucl. Phys. B306
    (1988) 759)."""
    if not 1 <= n <= MAX_AMPLITUDE_POINTS:
        raise ValueError(f"amplitude_recursion needs 1 <= n <= {MAX_AMPLITUDE_POINTS}")
    if kin.n < n:
        raise ValueError("the kinematic sample has too few momenta")
    d_const = diffeo.kinetic_constants(n)
    c_const = diffeo.mass_constants(n)
    msq, squares = kin.mass_squared, kin.squares
    # products[S][k - 1] and weighted[S][k - 1]: the two sums over the
    # partitions of S into k blocks; products[S][0] is the current J(S)
    products, weighted = [[]] * (1 << n), [[]] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        others = mask ^ low
        if not others:
            products[mask], weighted[mask] = [Fraction(1)], [squares[mask]]
            continue
        prod, wt = [0] * mask.bit_count(), [0] * mask.bit_count()
        sub = others
        while sub:  # every block {low} + sub' with sub' a proper subset of others
            sub = (sub - 1) & others
            block = low | sub
            current, block_square = products[block][0], squares[block]
            for k, (p, w) in enumerate(zip(products[mask ^ block], weighted[mask ^ block]), 1):
                term = current * p
                prod[k] += term
                wt[k] += current * w + block_square * term
        denominator = squares[mask] - msq
        if not denominator:
            raise ZeroDivisionError("vanishing propagator denominator; resample the kinematics")
        vertices = sum(
            d_const[k] * (squares[mask] * prod[k] + wt[k]) - msq * c_const[k] * prod[k]
            for k in range(1, len(prod))
        )
        prod[0] = -vertices / (2 * denominator)
        wt[0] = squares[mask] * prod[0]
        products[mask], weighted[mask] = prod, wt
    return products[-1][0]
