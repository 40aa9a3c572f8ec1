"""Truncated formal power series with exact rational coefficients.

A series carries its own truncation order: ``coeffs[i]`` is the coefficient
of x^i for 0 <= i <= order, and nothing is known beyond that.  Binary
operations return a series truncated to the smaller operand order, so a
result is exact wherever it is defined.  A coefficient is an ``int`` when
its denominator is 1 and a ``fractions.Fraction`` otherwise, so integer
series never pay for rational arithmetic; no floating point enters
anywhere, and a ``float`` input raises ``TypeError``.

>>> f = geometric(5)                     # 1/(1-x)
>>> (f * (one(5) - x(5))).coeffs
(1, 0, 0, 0, 0, 0)
>>> from_coeffs([0, 1, -1], order=5).reversion().coeffs[1:]
(1, 1, 2, 5, 14)
>>> geometric(3).log().coeffs
(0, 1, Fraction(1, 2), Fraction(1, 3))

Series values are immutable and hashable, hence safe to share freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def _exact(v: Rational) -> Fraction:
    """v as a Fraction; a float is refused, since it would become an inexact
    one.  Every layer that takes rational input checks it here."""
    if isinstance(v, float):
        raise TypeError(f"values must be exact, not the float {v!r}")
    return Fraction(v)


def _frac(v: Rational) -> Rational:
    """v as an exact coefficient: an int if its denominator is 1, else a Fraction."""
    if type(v) is int:
        return v
    q = v if isinstance(v, Fraction) else _exact(v)
    return q.numerator if q.denominator == 1 else q


def _div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a/b (never the float that int / int gives)."""
    return _frac(Fraction(a) / b)


def _nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _valuation(a: Sequence[Rational]) -> int:
    return next((i for i, c in enumerate(a) if c), len(a))


def _mul(a: Sequence[Rational], b: Sequence[Rational], n: int) -> list[Rational]:
    """Coefficients 0..n of the product of two coefficient lists that both
    reach x^n.  Each output coefficient is one dot product, starting past
    the leading zeros of both operands."""
    va, vb = _valuation(a[: n + 1]), _valuation(b[: n + 1])
    rb = b[n::-1]  # rb[n - j] = b[j]
    out = [0] * (n + 1)
    for t in range(va + vb, n + 1):
        out[t] = sum(map(mul, a[va : t - vb + 1], rb[n - t + va : n - vb + 1]))
    return out


class FormalPowerSeries:
    """An exact power series known through x^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(_frac(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("FormalPowerSeries is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Rational:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient x^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 if all zero."""
        return _valuation(self.coeffs)

    def truncate(self, order: int) -> "FormalPowerSeries":
        _nonnegative("order", order)
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return FormalPowerSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalPowerSeries) and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"FormalPowerSeries([{shown}{tail}]; order={self.order})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "FormalPowerSeries":
        if isinstance(other, FormalPowerSeries):
            n = min(self.order, other.order)
            return FormalPowerSeries(
                a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])
            )
        c = _frac(other)
        return FormalPowerSeries((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "FormalPowerSeries":
        return FormalPowerSeries(-c for c in self.coeffs)

    def __sub__(self, other) -> "FormalPowerSeries":
        if isinstance(other, FormalPowerSeries):
            return self + (-other)
        return self + (-_frac(other))

    def __rsub__(self, other) -> "FormalPowerSeries":
        return (-self) + _frac(other)

    def __mul__(self, other) -> "FormalPowerSeries":
        if not isinstance(other, FormalPowerSeries):
            c = _frac(other)
            return FormalPowerSeries(c * a for a in self.coeffs)
        n = min(self.order, other.order)
        return FormalPowerSeries(_mul(self.coeffs, other.coeffs, n))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FormalPowerSeries":
        if not isinstance(other, FormalPowerSeries):
            c = _frac(other)
            return FormalPowerSeries(_div(a, c) for a in self.coeffs)
        return divide(self, other)

    def __pow__(self, k: int) -> "FormalPowerSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "FormalPowerSeries":
        """Formal d/dx; the result is known one order less."""
        if self.order == 0:
            return FormalPowerSeries([0])
        return FormalPowerSeries(
            i * self.coeffs[i] for i in range(1, self.order + 1)
        )

    def integral(self) -> "FormalPowerSeries":
        """Formal antiderivative with constant of integration 0."""
        out = [0]
        out.extend(_div(self.coeffs[i], i + 1) for i in range(self.order + 1))
        return FormalPowerSeries(out)

    def x_derivative(self) -> "FormalPowerSeries":
        """x * d/dx, kept at the same order (coefficient n*c_n)."""
        return FormalPowerSeries(i * c for i, c in enumerate(self.coeffs))

    # -- composition-like operations ----------------------------------------

    def compose(self, g: "FormalPowerSeries") -> "FormalPowerSeries":
        """self(g(x)) for g with zero constant term.

        With val(g) >= 1 the coefficient of x^n depends only on the first n
        coefficients of both operands, so the result is exact to
        min(self.order, g.order).

        Paterson-Stockmeyer evaluation, about 2 sqrt(n) full products
        instead of Horner's n: with k = isqrt(n + 1), the baby steps
        g^0 .. g^(k-1) turn each block of k coefficients of self into one
        linear combination, and the blocks are joined by Horner's rule in
        the giant step g^k.
        """
        if g.coeffs[0]:
            raise ValueError("composition needs a zero constant term in the inner series")
        n = min(self.order, g.order)
        f, gc = self.coeffs[: n + 1], g.coeffs
        k = isqrt(n + 1)
        powers = [[1] + [0] * n]
        for _ in range(k - 1):
            powers.append(_mul(powers[-1], gc, n))
        giant = _mul(powers[-1], gc, n)
        columns = list(zip(*powers))  # columns[t][i] = [x^t] g^i
        top = n - n % k
        acc = [0] * (n + 1)
        for start in range(top, -1, -k):
            if start < top:
                acc = _mul(acc, giant, n)
            block = f[start : start + k]
            for t, column in enumerate(columns):
                acc[t] += sum(map(mul, block, column))
        return FormalPowerSeries(acc)

    def exp(self) -> "FormalPowerSeries":
        """exp(self) for zero constant term: E' = self' * E."""
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        n = self.order
        e = [1] + [0] * n
        a = self.coeffs
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m + 1):
                if a[k]:
                    s += k * a[k] * e[m - k]
            e[m] = _div(s, m)
        return FormalPowerSeries(e)

    def log(self) -> "FormalPowerSeries":
        """log(self) for constant term 1: integral of self'/self."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        n = self.order
        if n == 0:
            return FormalPowerSeries([0])
        return (self.derivative() / self.truncate(n - 1)).integral()

    def reversion(self) -> "FormalPowerSeries":
        """Compositional inverse g with self(g(x)) = x = g(self(x)).

        Requires val = 1 (zero constant, nonzero linear coefficient; the
        linear coefficient need not be 1).  Solved order by order: writing
        self = x*u, the inverse satisfies g = x * h(g) with h = 1/u, so

            g_m = [x^(m-1)] h(g) = sum_k h_k [x^(m-1)] g^k,

        which only involves coefficients of g below m.  Powers of g are
        filled in column by column alongside g itself.
        """
        if self.coeffs[0]:
            raise ValueError("reversion needs a zero constant term")
        if self.order < 1 or not self.coeffs[1]:
            raise ValueError("reversion needs a nonzero linear coefficient")
        n = self.order
        h = reciprocal(FormalPowerSeries(self.coeffs[1:]))  # 1/(self/x)
        hc = h.coeffs
        g = [0] * (n + 1)
        g[1] = hc[0]
        # gpow[k][j] = [x^j] g^k, filled for j < m before g[m] is computed.
        gpow = [[0] * n for _ in range(n)]
        if n >= 2:
            gpow[1][1] = g[1]
        for m in range(2, n + 1):
            j = m - 1
            gpow[1][j] = g[j]
            for k in range(2, j + 1):
                prev = gpow[k - 1]
                s = 0
                for i in range(1, j - k + 2):
                    if g[i] and prev[j - i]:
                        s += g[i] * prev[j - i]
                gpow[k][j] = s
            acc = 0
            for k in range(1, min(j, h.order) + 1):
                if hc[k] and gpow[k][j]:
                    acc += hc[k] * gpow[k][j]
            g[m] = acc
        return FormalPowerSeries(g)


# -- constructors -----------------------------------------------------------


def from_coeffs(coeffs: Sequence[Rational], order: int | None = None) -> FormalPowerSeries:
    """Series from a coefficient list, zero-padded / truncated to `order`."""
    cs = list(coeffs)
    if order is not None:
        _nonnegative("order", order)
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs.extend([0] * (order + 1 - len(cs)))
    return FormalPowerSeries(cs)


def zero(order: int) -> FormalPowerSeries:
    return constant(0, order)


def one(order: int) -> FormalPowerSeries:
    return constant(1, order)


def constant(c: Rational, order: int) -> FormalPowerSeries:
    _nonnegative("order", order)
    return FormalPowerSeries([c] + [0] * order)


def x(order: int) -> FormalPowerSeries:
    if order < 1:
        raise ValueError("x needs order >= 1")
    return FormalPowerSeries([0, 1] + [0] * (order - 1))


def geometric(order: int) -> FormalPowerSeries:
    """1/(1-x)."""
    _nonnegative("order", order)
    return FormalPowerSeries([1] * (order + 1))


# -- division ----------------------------------------------------------------


def reciprocal(b: FormalPowerSeries) -> FormalPowerSeries:
    """1/b for nonzero constant term."""
    if not b.coeffs[0]:
        raise ZeroDivisionError("reciprocal needs a nonzero constant term")
    n = b.order
    inv0 = _div(1, b.coeffs[0])
    q = [inv0] + [0] * n
    for m in range(1, n + 1):
        s = 0
        for k in range(1, m + 1):
            if b.coeffs[k]:
                s += b.coeffs[k] * q[m - k]
        q[m] = -s * inv0
    return FormalPowerSeries(q)


def divide(a: FormalPowerSeries, b: FormalPowerSeries) -> FormalPowerSeries:
    """a/b, allowing a common factor of x: val(b) leading zeros must cancel.

    The quotient q satisfies q*b = a to the resulting order
    min(a.order, b.order) - val(b).
    """
    v = b.valuation()
    if v > b.order:
        raise ZeroDivisionError("division by the zero series")
    if v:
        if any(a.coeffs[:v]):
            raise ZeroDivisionError(
                f"division needs val(a) >= val(b) = {v} for exact cancellation"
            )
        a = divide_by_power(a, v)
        b = divide_by_power(b, v)
    n = min(a.order, b.order)
    return a.truncate(n) * reciprocal(b.truncate(n))


def divide_by_power(a: FormalPowerSeries, k: int) -> FormalPowerSeries:
    """a / x^k; the dropped coefficients must be zero."""
    _nonnegative("k", k)
    if any(a.coeffs[:k]):
        raise ZeroDivisionError(f"series is not divisible by x^{k}")
    if k > a.order:
        raise ValueError("nothing is known beyond the truncation order")
    return FormalPowerSeries(a.coeffs[k:])


def multiply_by_power(a: FormalPowerSeries, k: int) -> FormalPowerSeries:
    """a * x^k, extending the order by k (the new coefficients are exact)."""
    _nonnegative("k", k)
    return FormalPowerSeries((0,) * k + a.coeffs)
