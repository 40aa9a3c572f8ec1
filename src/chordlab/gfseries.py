"""Constructors for the named counting series and verifiers for the
functional identities that relate them.

Every constructor returns exact rational coefficients; building the same
series twice is bit-identical.  Only the two O(n^2) integer recurrences, C
(connected_counts) and C2 (_two_connected), are memoized per order; every
other series is a short composition of C, C2 and D, rebuilt on request.
The short names used by the CLI (D, C, C1, C2, I, I0, Dleq2, A, B, S, Z)
follow the conventional symbols for these sequences:

    D      all diagrams, (2n-1)!!
    C      connected diagrams
    C1     connectivity-1 diagrams
    C2     2-connected diagrams
    I/I0   indecomposable diagrams (with/without the empty one)
    Dleq2  diagrams with at most two connected components
    A      ordered pairs of connected diagrams (empty allowed) = Dleq2 + x
    B      connectivity-1 diagrams with an interval whose root insertion
           makes them 2-connected
    S      sequences of 2-connected diagrams, counted by one less chord
    Z      rooted stack-trees (see bijections), x/(1-I0)^2

An identity declares only its two sides: IDENTITIES maps each name to a
function order -> (lhs, rhs), and verify_identity compares the sides
coefficient by coefficient through the given order.

C and C2 come from O(n^2) integer recurrences: C from root removal, C2 from
the differential equation that the compositional relation C = u - C2(u),
u = C^2/x, implies (derived at _two_connected).  Neither builds a reversion
or a composition, so the identity `two_connected_relation` checks the C2
recurrence against the relation itself:

>>> two_connected_series(7).coeffs
(0, 0, 1, 1, 7, 63, 729, 10113)
>>> verify_identity("two_connected_relation", 24).holds
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import fps
from .fps import FormalPowerSeries

MAX_ORDER = 64  # cap for identity verification and the CLI
SERIES_CAP = 256  # hard ceiling for the constructors (fits need exact counts)


def _check_order(order: int, cap: int = SERIES_CAP) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > cap:
        raise ValueError(f"order {order} exceeds the supported cap {cap}")


def _square_coefficient(a: list[int], k: int, lo: int) -> int:
    """[x^k] of the square of the series with coefficients a, whose
    coefficients below x^lo are zero: sum_{i=lo}^{k-lo} a_i a_{k-i}, as one
    dot product over the lower half of the terms.  a must reach x^(k-lo)."""
    h = (k + 1) // 2
    total = 2 * sum(map(mul, a[lo:h], a[k - lo : k - h : -1]))
    if k % 2 == 0:
        total += a[h] * a[h]
    return total


@lru_cache(maxsize=None)
def connected_counts(nmax: int) -> tuple[int, ...]:
    """C_n for 0 <= n <= nmax from the root-removal recurrence
    C_n = sum_{i+j=n} (2i-1) C_i C_j (n >= 2), C_1 = 1, in its symmetrized
    form C_n = (n-1) sum_{i+j=n} C_i C_j (the weights of i and n-i add up
    to 2(n-1)).

    Exact integer arithmetic; no enumeration, so large n stays cheap.
    """
    c = [0] * (nmax + 1)
    if nmax >= 1:
        c[1] = 1
    for n in range(2, nmax + 1):
        c[n] = (n - 1) * _square_coefficient(c, n, 1)
    return tuple(c)


def double_factorial_series(order: int) -> FormalPowerSeries:
    """D: the coefficient of x^n is (2n-1)!!."""
    _check_order(order)
    vals = [1]
    for n in range(1, order + 1):
        vals.append(vals[-1] * (2 * n - 1))
    return FormalPowerSeries(vals)


def connected_series(order: int) -> FormalPowerSeries:
    """C: connected diagrams, solving 2xCC' = C(1+C) - x."""
    _check_order(order)
    return FormalPowerSeries(connected_counts(order))


def two_connected_series(order: int) -> FormalPowerSeries:
    """C2: 2-connected diagrams, defined by C = u - C2(u) with u = C^2/x.

    Built from an integer recurrence that follows from that relation (see
    _two_connected), in O(order^2) operations; `two_connected_relation`
    checks the result against the relation itself.
    """
    _check_order(order)
    return _two_connected(order)


@lru_cache(maxsize=None)
def _two_connected(order: int) -> FormalPowerSeries:
    """C2 without the order check (B and S build it one order past the cap).

    Let g be the compositional inverse of u = C^2/x.  Evaluating
    C = u - C2(u) at g gives C(g) = x - s with s = C2, and u(g) = x gives
    C(g)^2 = x g.  Differentiating, with 2xCC' = C(1+C) - x, leaves
    2x s s' = s^2 + x s - x s^2 + 2x^2 s - x^3.  Its coefficient of x^(n+1)
    is, with [s^2]_k = sum_{i=2}^{k-2} s_i s_{k-i} and s_0 = s_1 = 0,

        s_n = n [s^2]_{n+1} + [s^2]_n - 2 s_{n-1} + [n = 2],

    where the right side reads s only below x^n.  Neither C nor a reversion
    or composition is built.
    """
    s = [0] * (order + 1)
    square = 0  # [s^2]_n
    for n in range(2, order + 1):
        square_next = _square_coefficient(s, n + 1, 2)
        s[n] = n * square_next + square - 2 * s[n - 1] + (n == 2)
        square = square_next
    return FormalPowerSeries(s)


def connectivity_one_series(order: int) -> FormalPowerSeries:
    """C1 = C - C2."""
    return connected_series(order) - two_connected_series(order)


def nonempty_indecomposable_series(order: int) -> FormalPowerSeries:
    """I0 = 1 - 1/D (a diagram is a sequence of indecomposable ones)."""
    _check_order(order)
    return fps.one(order) - fps.reciprocal(double_factorial_series(order))


def indecomposable_series(order: int) -> FormalPowerSeries:
    """I = 1 + I0."""
    return fps.one(order) + nonempty_indecomposable_series(order)


def stack_tree_series(order: int) -> FormalPowerSeries:
    """Z = x/(1-I0)^2 = x*D^2: rooted trees of label stacks (see bijections)."""
    d = double_factorial_series(order)
    return fps.multiply_by_power(d * d, 1).truncate(order)


def at_most_two_components_series(order: int) -> FormalPowerSeries:
    """Dleq2 = (1+C)^2 - x: empty, connected, a concatenation of two
    connected, or indecomposable with exactly two components (C - x)."""
    return connected_pair_series(order) - fps.x(order + 1)


def connected_pair_series(order: int) -> FormalPowerSeries:
    """A = (1+C)^2: ordered pairs of connected diagrams, empty allowed."""
    _check_order(order)
    c = connected_series(order)
    one_plus = fps.one(order) + c
    return one_plus * one_plus


def root_insertion_series(order: int) -> FormalPowerSeries:
    """B = x + 4(xC2' - C2)^2 / (x - (2xC2' - C2)): connectivity-1 diagrams
    paired with an interval whose root insertion makes them 2-connected."""
    _check_order(order)
    c2 = _two_connected(order + 1)
    num = c2.x_derivative() - c2
    num = 4 * (num * num)
    den = fps.x(order + 1) - (2 * c2.x_derivative() - c2)
    return fps.x(order + 1) + num / den


def two_connected_sequence_series(order: int) -> FormalPowerSeries:
    """S = 1/(1 - C2/x): sequences of 2-connected diagrams, one less chord."""
    _check_order(order)
    c2 = _two_connected(order + 1)
    return fps.reciprocal(fps.one(order) - fps.divide_by_power(c2, 1))


SERIES = {
    "D": double_factorial_series,
    "C": connected_series,
    "C1": connectivity_one_series,
    "C2": two_connected_series,
    "I": indecomposable_series,
    "I0": nonempty_indecomposable_series,
    "Dleq2": at_most_two_components_series,
    "A": connected_pair_series,
    "B": root_insertion_series,
    "S": two_connected_sequence_series,
    "Z": stack_tree_series,
}


def named_series(name: str, order: int) -> FormalPowerSeries:
    try:
        builder = SERIES[name]
    except KeyError:
        raise KeyError(
            f"unknown series {name!r}; known: {', '.join(sorted(SERIES))}"
        ) from None
    return builder(order)


# -- identity verification ----------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    name: str
    order: int
    holds: bool
    first_failure: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def _compare(name, order, lhs: FormalPowerSeries, rhs: FormalPowerSeries) -> IdentityReport:
    n = min(lhs.order, rhs.order, order)
    for i in range(n + 1):
        if lhs[i] != rhs[i]:
            return IdentityReport(name, n, False, i)
    return IdentityReport(name, n, True)


def _id_root_component(order):
    """D = 1 + C(x D^2)."""
    d = double_factorial_series(order)
    return d, 1 + connected_series(order).compose(fps.multiply_by_power(d * d, 1))


def _id_root_removal_all(order):
    """D = 1 + xD + 2x^2 D'."""
    d = double_factorial_series(order)
    return d, 1 + fps.multiply_by_power(d, 1) + 2 * fps.multiply_by_power(d.derivative(), 2)


def _id_root_removal_connected(order):
    """2xCC' = C(1+C) - x."""
    c = connected_series(order + 1)
    lhs = 2 * fps.multiply_by_power(c * c.derivative(), 1)
    return lhs, c * (1 + c) - fps.x(order + 1)


def _id_connected_quotient(order):
    """C = x / (1 - (2xC' - C))."""
    c = connected_series(order + 1)
    den = fps.one(order) - (2 * c.x_derivative() - c)
    return c, fps.multiply_by_power(fps.reciprocal(den), 1)


def _id_indecomposable_root_removal(order):
    """I0 = x + 2x^2 I0' / (1 - I0)."""
    i0 = nonempty_indecomposable_series(order + 1)
    frac = fps.divide(i0.derivative(), fps.one(order) - i0)
    return i0, fps.x(order + 2) + 2 * fps.multiply_by_power(frac, 2)


def _id_stack_tree_fixed_point(order):
    """Z = x * B(Z) with B = Dleq2 + x = A."""
    z = stack_tree_series(order)
    return z, fps.multiply_by_power(connected_pair_series(order).compose(z), 1)


def _id_indecomposable_from_tree(order):
    """I0 = x / (1 - x A'(Z))."""
    a = connected_pair_series(order + 1)
    z = stack_tree_series(order)
    den = fps.one(order) - fps.multiply_by_power(a.derivative().compose(z), 1)
    rhs = fps.multiply_by_power(fps.reciprocal(den), 1)
    return nonempty_indecomposable_series(order), rhs


def _id_pair_power(order):
    """[x^n] A^n = [x^(n+1)] I0 for n <= order."""
    a = connected_pair_series(order)
    power, diagonal = fps.one(order), [1]
    for n in range(1, order + 1):
        power = power * a
        diagonal.append(power[n])
    i0 = nonempty_indecomposable_series(order + 1)
    return FormalPowerSeries(diagonal), fps.divide_by_power(i0, 1)


def _id_connectivity_one(order):
    """The connectivity-1 decomposition: C1 equals x times
    [1 + (2xC'-C)^2/(1-(2xC'-C)) + 2C2 + (2xC1'-C1) - x - (B - x)],
    where the two x terms cancel."""
    n = order + 1
    c = connected_series(n)
    c1 = connectivity_one_series(n)
    marked = 2 * c.x_derivative() - c
    seq = fps.divide(marked * marked, fps.one(n) - marked)
    inner = (
        1
        + seq
        + 2 * two_connected_series(n)
        + (2 * c1.x_derivative() - c1)
        - root_insertion_series(n)
    )
    return c1, fps.multiply_by_power(inner, 1)


def _id_two_connected_relation(order):
    """C = C^2/x - C2(C^2/x)."""
    c = connected_series(order + 1)
    u = fps.divide_by_power(c * c, 1)
    return c, u - two_connected_series(order).compose(u)


IDENTITIES = {
    "root_component_decomposition": _id_root_component,
    "root_removal_all_diagrams": _id_root_removal_all,
    "root_removal_connected": _id_root_removal_connected,
    "connected_quotient": _id_connected_quotient,
    "indecomposable_root_removal": _id_indecomposable_root_removal,
    "stack_tree_fixed_point": _id_stack_tree_fixed_point,
    "indecomposable_from_tree": _id_indecomposable_from_tree,
    "pair_power": _id_pair_power,
    "connectivity_one_decomposition": _id_connectivity_one,
    "two_connected_relation": _id_two_connected_relation,
}


def verify_identity(name: str, order: int) -> IdentityReport:
    _check_order(order, cap=MAX_ORDER)
    try:
        sides = IDENTITIES[name]
    except KeyError:
        raise KeyError(
            f"unknown identity {name!r}; known: {', '.join(sorted(IDENTITIES))}"
        ) from None
    return _compare(name, order, *sides(order))


def verify_all_identities(order: int) -> list[IdentityReport]:
    return [verify_identity(name, order) for name in IDENTITIES]
