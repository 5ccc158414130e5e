"""Elementary functions on the standard library's Decimal, at the context
precision: the extended-precision arithmetic of the interval solver and its
tracer (symbolic).

A b-bit computation runs at digits(b) = int(b * log10(2)) + 2 significant
digits, in the context that precision(b) sets up.  Each function works with
_GUARD extra digits, brings its argument near zero (halving the angle, or
reducing it mod 2*pi and halving), sums a Taylor series there and rounds its
result once to the caller's precision.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, getcontext, localcontext

_GUARD = 6
_SMALL = Decimal(2) ** -8  # the series run below this argument


def digits(bits: int) -> int:
    """Significant decimal digits of a `bits`-bit computation."""
    return int(bits * math.log10(2)) + 2


def precision(bits: int):
    """A context manager running its block in a copy of the current decimal
    context at digits(bits) significant digits."""
    ctx = getcontext().copy()
    ctx.prec = digits(bits)
    return localcontext(ctx)


def _atan_series(x):
    """atan(x) = x - x**3/3 + x**5/5 - ..., for |x| well below 1."""
    x2 = -x * x
    total, power, k = x, x, 1
    while True:
        power *= x2
        k += 2
        term = power / k
        if total + term == total:
            return total
        total += term


@functools.lru_cache(maxsize=64)
def _pi_at(prec: int):
    """pi to prec digits by Machin's formula, once per precision."""
    with localcontext() as c:
        c.prec = prec + _GUARD
        one = Decimal(1)
        p = 16 * _atan_series(one / 5) - 4 * _atan_series(one / 239)  # Machin
        c.prec = prec
        return +p


def pi():
    """pi at the context precision."""
    return _pi_at(getcontext().prec)


def _atan(x):
    """atan(x) for any x: halved until |x| <= _SMALL, then the series."""
    with localcontext() as c:
        c.prec += _GUARD
        k = 0
        while abs(x) > _SMALL:  # atan(x) = 2 atan(x / (1 + sqrt(1 + x**2)))
            x /= 1 + (1 + x * x).sqrt()
            k += 1
        r = _atan_series(x) * 2 ** k
    return +r


def atan2(y, x):
    """The angle of (x, y) in (-pi, pi]; as in mpmath, atan2(0, 0) = 0 and a
    zero y of either sign gives +pi when x < 0."""
    with localcontext() as c:
        c.prec += _GUARD
        if x > 0:
            r = _atan(y / x)
        elif x < 0:
            r = _atan(y / x) + (pi() if y >= 0 else -pi())
        elif y:
            r = pi() / 2 if y > 0 else -pi() / 2
        else:
            r = Decimal(0)
    return +r


def asin(s):
    """asin(s) for |s| <= 1, as atan2(s, sqrt(1 - s**2))."""
    with localcontext() as c:
        c.prec += _GUARD
        r = atan2(s, ((1 - s) * (1 + s)).sqrt())
    return +r


def _taylor(term, a2, j):
    """term + term * a2 / ((j+1)(j+2)) + ...: each term is the one before
    times a2 / ((j + 1) * (j + 2)), j advancing by 2, summed until a term
    leaves the sum unchanged."""
    total = term
    while True:
        term = term * a2 / ((j + 1) * (j + 2))
        j += 2
        if total + term == total:
            return total
        total += term


def sin_cos(x):
    """(sin x, cos x): from sin a and 1 - cos a at a = x / 2**k, doubled back
    by sin 2a = 2 sin a cos a and 1 - cos 2a = 2 sin(a)**2."""
    with localcontext() as c:
        c.prec += _GUARD
        two_pi = 2 * pi()
        a = x - two_pi * round(x / two_pi)
        k = 0
        while abs(a) > _SMALL:
            a /= 2
            k += 1
        a2 = -a * a
        s, h = _taylor(a, a2, 1), _taylor(-a2 / 2, a2, 2)
        for _ in range(k):
            s, h = 2 * s * (1 - h), 2 * s * s
        cos = 1 - h
    return +s, +cos
