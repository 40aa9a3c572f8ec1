"""Partial Bell polynomials, series composition through them, the related
identity suite, and Lagrange fixed-point machinery.

B(n, k; x1, x2, ...) sums, over set partitions of {1,...,n} into k blocks,
the product of x_{|block|}.  It has integer coefficients and is homogeneous
of degree k, so each value list is scaled once to integers L x by its least
common denominator L, the sums here run over ints, and each result is one
exact Fraction, B(n, k; L x) / L^k.  With every x_s = 1 it counts the
partitions into k blocks, the Stirling number S(4, 2) = 7 here, by the
recurrence and by listing the partitions:

>>> bell_partial(4, 2, [1, 1, 1]), bell_partial_by_partitions(4, 2, [1, 1, 1])
(Fraction(7, 1), Fraction(7, 1))
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm, prod
from typing import Sequence

from . import fps
from .fps import FormalPowerSeries, Rational


def _scaled(xs: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """(L x_1, L x_2, ...) as ints and L, the least common denominator of
    the x's (1 for no x's).  A float is refused, as by fps._exact."""
    values = [x if type(x) in (int, Fraction) else fps._exact(x) for x in xs]
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def _check(n: int, k: int, count: int) -> None:
    """B(n, k) reads x_1..x_(n-k+1); count values are given."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if 0 < k <= n and count < n - k + 1:
        raise ValueError(f"need x_1..x_{n - k + 1}, got {count} values")


def _values(n: int, k: int, xs: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """The values x_1..x_(n-k+1) that B(n, k) reads, scaled by _scaled."""
    _check(n, k, len(xs))
    return _scaled(xs[: max(n - k + 1, 0)])


# The memo recursion descends one block count per call, two interpreter
# frames each; _bell fills it every _BLOCK_STEP block counts from below, so
# no call descends further than that, whatever k is.
_BLOCK_STEP = 100


def bell_partial(n: int, k: int, xs: Sequence[Rational]) -> Fraction:
    """B(n, k) via the block-of-the-first-element recurrence

        k B(n,k) = sum_s C(n,s) x_s B(n-s, k-1).
    """
    ys, scale = _values(n, k, xs)
    return Fraction(_bell(n, k, ys), scale**k)


def _bell(n: int, k: int, ys: Sequence[int]) -> int:
    """B(n, k; y_1, y_2, ...) for integers y, with bell_partial's checks.
    B(n, k) reads B(m, j) only at m - j <= n - k, so those are filled below."""
    _check(n, k, len(ys))
    ys = tuple(ys[: max(n - k + 1, 0)])
    for j in range(_BLOCK_STEP, k, _BLOCK_STEP):
        for m in range(j, j + n - k + 1):
            _bell_memo(m, j, ys[: m - j + 1])
    return _bell_memo(n, k, ys)


@lru_cache(maxsize=None)
def _bell_memo(n: int, k: int, ys: tuple[int, ...]) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    total = 0
    for s in range(1, n - k + 2):
        y = ys[s - 1]
        if y:
            total += comb(n, s) * y * _bell_memo(n - s, k - 1, ys[: n - s - k + 2])
    return total // k  # exact: B(n, k) has integer coefficients


def bell_partial_by_partitions(n: int, k: int, xs: Sequence[Rational]) -> Fraction:
    """Independent oracle: literally enumerate set partitions of {1,...,n}
    into k blocks (restricted-growth strings) and sum the block products,
    over the same integers L x_s as bell_partial."""
    scaled, scale = _values(n, k, xs)
    sizes = [0] * k  # of the blocks, numbered by their least element
    total = 0

    def rec(i: int, used: int) -> None:
        nonlocal total
        if i == n:
            total += prod(scaled[s - 1] for s in sizes) if used == k else 0
        elif used + n - i >= k:
            for b in range(min(used + 1, k)):  # element i joins block b
                sizes[b] += 1
                rec(i + 1, used + (b == used))
                sizes[b] -= 1

    rec(0, 0)
    return Fraction(total, scale**k)


def faa_di_bruno(
    f_coeffs: Sequence[Rational], g_coeffs: Sequence[Rational], n: int
) -> Fraction:
    """n-th coefficient (in the n!-normalised sense) of f(g(t)) where
    f(t) = sum f_m t^m / m! and g(t) = sum g_m t^m / m!, g_0 = 0:

        h_n = sum_k f_k B(n, k; g_1, g_2, ...),

    the f's and g's each scaled to integers, f by L_f and g by L_g.
    """
    fs, f_scale = _scaled(f_coeffs)
    gs, g_scale = _scaled(g_coeffs)
    gs = list(gs)
    if gs and gs.pop(0) != 0:
        raise ValueError("the inner series must have zero constant term")
    gs.extend([0] * (n - len(gs)))  # unstated tail coefficients vanish
    if n < 1:
        return Fraction(fs[0] if fs and n == 0 else 0, f_scale)
    total = sum(
        fs[k] * _bell(n, k, gs) * g_scale ** (n - k)
        for k in range(1, min(n, len(fs) - 1) + 1)
        if fs[k]
    )
    return Fraction(total, f_scale * g_scale**n)


# -- identity suite -------------------------------------------------------------


def _block_rooting(n, k, xs, k2, rooted):
    """lemma1a, k B(n,k) = sum_s C(n,s) x_s B(n-s, k-1), or rooted,
    lemma1b, n B(n,k) = sum_s C(n,s) s x_s B(n-s, k-1)."""
    ys, scale = _scaled(xs)
    lhs = (n if rooted else k) * _bell(n, k, ys)
    rhs = sum(
        comb(n, s) * (s if rooted else 1) * ys[s - 1] * _bell(n - s, k - 1, ys)
        for s in range(1, min(n, len(ys)) + 1)
    )
    return Fraction(lhs, scale**k), Fraction(rhs, scale**k)


def _id_shift(n, k, xs, k2):
    """B(n,k) through B(n-a, k) with the first variable inverted, over ints:
    C(n,a) (k + 1 - (n+1)/(a+1)) = C(n+1,a+1) ((k+1)(a+1) - n - 1) / (n+1)."""
    if n <= k:
        raise ValueError("this identity needs n > k")
    _check(n + 1, k + 1, len(xs))  # the sum reads x_(n-k+1), as B(n+1, k+1) does, at k = 0 too
    ys, scale = _scaled(xs)
    if not ys[0]:
        raise ValueError("this identity needs x_1 != 0")
    rhs = sum(
        comb(n + 1, a + 1) * ((k + 1) * (a + 1) - n - 1) * ys[a] * _bell(n - a, k, ys)
        for a in range(1, n - k + 1)
    )
    lhs = Fraction(_bell(n, k, ys), scale**k)
    return lhs, Fraction(rhs, (n + 1) * (n - k) * ys[0] * scale**k)


def _id_convolution(n, k, xs, k2):
    """B(n, k + k2) as the two-part convolution, k2 defaulting to k."""
    k2 = k if k2 is None else k2
    ys, scale = _scaled(xs)
    rhs = sum(comb(n, a) * _bell(a, k, ys) * _bell(n - a, k2, ys) for a in range(n + 1))
    degree = scale ** (k + k2)
    lhs = Fraction(_bell(n, k + k2, ys), degree)
    return lhs, Fraction(factorial(k) * factorial(k2) * rhs, factorial(k + k2) * degree)


def nested_convolution(n: int, blocks: int, xs: Sequence[Rational]) -> Fraction:
    """The fully nested monomial expansion of B(n, blocks), evaluated by
    peeling one block at a time (repeated two-part convolution) rather than
    by literal nested loops.

    With E(m, 0) = x_m and E(m, j) = sum_{a=j}^{m-1} C(m,a) x_{m-a} E(a, j-1),
    the value is E(n, blocks-1) / blocks!, or E(n, blocks-1; L x) / (blocks! L^blocks).
    """
    k = blocks - 1
    if k < 0:
        raise ValueError("needs at least one block")
    if n >= blocks and len(xs) < n - blocks + 1:
        raise ValueError(f"need x_1..x_{n - blocks + 1}")
    ys, scale = _scaled(xs)

    def peel(m: int, j: int) -> int:
        if j == 0:
            return ys[m - 1]
        total = 0
        for a in range(j, m):
            inner = peel(a, j - 1)
            if inner:
                total += comb(m, a) * ys[m - a - 1] * inner
        return total

    if n < blocks or n == 0:
        return bell_partial(n, blocks, xs)  # degenerate: 0 (or 1 at n=blocks=0)
    return Fraction(peel(n, k), factorial(blocks) * scale**blocks)


def _id_nested(n, k, xs, k2):
    """B(n, k) against its fully nested expansion."""
    return bell_partial(n, k, xs), nested_convolution(n, k, xs)


BELL_IDENTITIES = {  # name -> (n, k, xs, k2) -> (lhs, rhs)
    "lemma1a": partial(_block_rooting, rooted=False),
    "lemma1b": partial(_block_rooting, rooted=True),
    "id1": _id_shift,
    "id2": _id_convolution,
    "id3": _id_nested,
}


def verify_bell_identity(which: str, n: int, k: int, xs: Sequence[Rational], k2: int | None = None) -> bool:
    """Exact check of one identity at the given parameters.

    lemma1a / lemma1b: the two block-rooting recurrences.
    id1: the shifted expansion (needs n > k and x_1 != 0).
    id2: the two-part convolution B(n, k + k2) (k2 defaults to k).
    id3: the fully nested expansion of B(n, k).
    """
    if which not in BELL_IDENTITIES:
        raise KeyError(f"unknown identity {which!r}; known: {', '.join(BELL_IDENTITIES)}")
    lhs, rhs = BELL_IDENTITIES[which](n, k, xs, k2)
    return lhs == rhs


# -- Lagrange fixed point ---------------------------------------------------------


def lift_solve(g: FormalPowerSeries, order: int) -> FormalPowerSeries:
    """The unique series R with R = x g(R), for invertible g (g_0 != 0).

    R = x g(R) says that x/g(x) sends R to x, so R is the compositional
    inverse of x/g(x); g must be known through order-1.
    """
    if not g.coeffs[0]:
        raise ValueError("the fixed point needs a nonzero constant term in g")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order == 0:
        return fps.zero(0)
    if g.order < order - 1:
        raise ValueError(f"g is needed through order {order - 1}")
    return fps.multiply_by_power(fps.reciprocal(g.truncate(order - 1)), 1).reversion()


def lift_coefficient(
    f: FormalPowerSeries, g: FormalPowerSeries, n: int
) -> Fraction:
    """[x^n] f(R) = (1/n) [t^(n-1)] f'(t) g(t)^n for the fixed point above."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    if f.order < n or g.order < n - 1:
        raise ValueError(f"f is needed through order {n} and g through order {n - 1}")
    prod = f.derivative() * g**n
    return Fraction(prod[n - 1]) / n


def lift_resummation(
    h: FormalPowerSeries, g: FormalPowerSeries, order: int
) -> FormalPowerSeries:
    """sum_n ([x^n] h g^n) x^n = h(R) / (1 - x g'(R)) with R = x g(R)."""
    if h.order < order or g.order < order:
        raise ValueError(f"h and g are needed through order {order}")
    r = lift_solve(g, order)
    numerator = h.truncate(order).compose(r)
    if order == 0:
        return numerator
    gprime = g.derivative().truncate(order - 1).compose(r.truncate(order - 1))
    denom = fps.one(order) - fps.multiply_by_power(gprime, 1)
    return numerator / denom
