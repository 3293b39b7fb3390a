"""Python's ``repr`` of many float64 values at once, as NUL-padded bytes.

:func:`repr_cells` gives, for each value, the bytes ``repr(float(v))``
would print: the shortest decimal that reads back as the same double, of
those the nearest to it (David Gay's ``dtoa``, which ``repr`` runs).  The
values that ``repr`` writes in positional form, finite with
1e-4 <= |x| < 1e16, are formatted with numpy integer and float arithmetic
that is exact, in the spirit of Ryu (Adams, PLDI 2018):

* **Scale.** y = |x| 10^p lies in [1e16, 1e17) with p in [1, 20], so
  10^p is an exact double; Dekker's two-product gives y exactly as an
  int64 plus a fraction in [0, 1).
* **Rounding interval.** The doubles next to x lie 2 delta from y on
  either side, with delta = 10^p 2^(e - 54) exact (x = m 2^e, 1/2 < m < 1),
  so a decimal reads back as x when it lies within delta of y.
* **Shortest digits.** The largest j for which the multiple of 10^j
  nearest to y lies within delta gives 17 - j digits.  A multiple of
  10^(j+1) is one of 10^j, so validity only shrinks as j grows, and
  j = 0 always fits (delta > 0.555).  As delta < 11.1, a multiple of 100
  within delta is the nearest multiple of every 10^j that divides it, so
  past j = 2 the count is read from its trailing zeros.

Where ``dtoa``'s rules are subtle the value is formatted by ``repr``
instead: a power of two (its neighbours are not symmetric about it), a
candidate within ``_BAND`` of the interval's edge (whether the edge reads
back depends on round-half-even), and a near-tie between the two nearest
candidates.  So is every value outside the positional range, and every
non-finite one.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# the longest repr of a float64, as in -2.2250738585072014e-308
WIDTH = 24

_POW10 = np.array([float(10 ** p) for p in range(23)])  # exact doubles
_INT10 = np.array([10 ** j for j in range(18)], dtype=np.int64)
_E16, _E17 = _INT10[16], _INT10[17]
# y and delta are exact, so a comparison within this distance of its
# boundary is a true edge or tie, which repr decides
_BAND = 1e-6
# Veltkamp's split of a double into two 26-bit halves
_SPLIT = 134217729.0  # 2**27 + 1
# A value's source row is 24 bytes: ". - NUL 0", "000" and its 17 digits,
# one 4-byte lookup in _quads() per group (the first group is the constant
# entry _CONSTANTS).  A template lists, for each output byte, the source
# column it reads.
_DOT, _MINUS, _NUL, _ZERO, _FIRST = 0, 1, 2, 3, 7
_CONSTANTS = 10000
_MIN_POINT, _MAX_POINT = -3, 16


@cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0..9999, then ". - NUL 0", each as one uint32."""
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    return np.append(digits, [list(b".-\x000")], axis=0).astype(np.uint8).view(np.uint32).ravel()


def _template(point: int, negative: bool, count: int) -> list[int]:
    """Source columns of ``count`` significant digits with the point after ``point`` of them."""
    digits = [_FIRST + k for k in range(17)]
    cols = [_MINUS] if negative else []
    if point <= 0:
        cols += [_ZERO, _DOT] + [_ZERO] * -point + digits[:count]
    else:
        # the digits past the last significant one are zeros
        cols += digits[:point] + [_DOT] + (digits[point:count] or [_ZERO])
    return cols + [_NUL] * (WIDTH - len(cols))


@cache
def _templates() -> np.ndarray:
    """Every template, at row ((point - _MIN_POINT) * 2 + negative) * 17 + count - 1."""
    return np.array([
        _template(point, negative, count)
        for point in range(_MIN_POINT, _MAX_POINT + 1)
        for negative in (False, True)
        for count in range(1, 18)
    ], dtype=np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_P_HIGH, _P_LOW = _split(_POW10)


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**p`` exactly, as an int64 and a fraction in [0, 1).

    Exact when the product is at least 2**53; below that the int64 part
    is still below 1e16.
    """
    product = a * _POW10.take(p)
    a_high, a_low = _split(a)
    b_high, b_low = _P_HIGH.take(p), _P_LOW.take(p)
    error = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    whole = np.floor(error)
    return product.astype(np.int64) + whole.astype(np.int64), error - whole


def _margin(y, frac, delta, unit):
    """How far past delta the multiple of ``unit`` nearest to y lies; exact where small."""
    rem = y - (y // unit) * unit
    return np.minimum(rem + frac, (unit - rem) - frac) - delta


def _shortest(a: np.ndarray, exponent: np.ndarray):
    """Shortest round-trip digits of positive values in [1e-4, 1e16), no power of two.

    ``exponent`` is ``np.frexp(a)[1]``.  Returns ``(digits, count, point,
    sure)``: the digits as an int64 in [1e16, 1e17), padded with zeros,
    how many of them are significant, the position of the decimal point
    (the value is 0.d1d2... times 10^point), and whether the arithmetic
    decided the value.
    """
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    y, frac = _scaled(a, p)
    off = (y < _E16).astype(np.int64) - (y >= _E17)
    if off.any():
        # log10 rounded across a power of ten
        p += off
        y, frac = _scaled(a, p)
    delta = np.ldexp(_POW10.take(p), exponent - 54)
    tens, hundreds = (_margin(y, frac, delta, _INT10[j]) for j in (1, 2))
    # an interval edge within _BAND of a test that decides the count goes to repr
    sure = (np.abs(tens) > _BAND) & ((tens > _BAND) | (np.abs(hundreds) > _BAND))
    best = (tens < -_BAND).astype(np.int64)
    # the values with 15 digits or fewer, rare outside short decimals
    deep = np.flatnonzero(hundreds < -_BAND)
    if deep.size:
        near = y[deep] // 100 * 100 + 100 * (y[deep] % 100 >= 50)
        best[deep] = 1 + (near[:, None] % _INT10[2:17] == 0).sum(axis=1)
    unit = _INT10.take(best)
    down = y // unit
    rem = y - down * unit
    below, above = rem + frac, (unit - rem) - frac
    sure &= np.abs(below - above) > _BAND
    digits = (down + (above < below)) * unit
    # 10^17 would be the digit 1 a place higher; no double of the range
    # rounds to it, and repr would write one that did
    sure &= digits < _E17
    return digits, 17 - best, 17 - p, sure


def _source(digits: np.ndarray) -> np.ndarray:
    """Each value's 24-byte source row, for ``digits`` in [1e16, 1e17)."""
    # split into the lead digit and four groups of four, each from a
    # contiguous operand: strided group columns are about twice as slow
    high = digits // _INT10[8]
    low = digits - high * _INT10[8]
    lead = high // _INT10[8]
    mid = high - lead * _INT10[8]
    mid_high, low_high = mid // _INT10[4], low // _INT10[4]
    groups = np.empty((digits.size, 6), dtype=np.int64)
    groups[:, 0] = _CONSTANTS
    groups[:, 1] = lead
    groups[:, 2] = mid_high
    groups[:, 3] = mid - mid_high * _INT10[4]
    groups[:, 4] = low_high
    groups[:, 5] = low - low_high * _INT10[4]
    return _quads().take(groups).view(np.uint8)


def repr_cells(values) -> np.ndarray:
    """``(n, WIDTH)`` uint8: row i is ``repr(float(values.flat[i])).encode()``, NUL-padded."""
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    mantissa, exponent = np.frexp(a)
    # NaN and inf fail the range test
    fast = (a >= 1e-4) & (a < 1e16) & (mantissa != 0.5)
    # every other value gets a stand-in that the arithmetic takes, and repr
    digits, count, point, sure = _shortest(np.where(fast, a, 1.5), np.where(fast, exponent, 1))
    key = ((point - _MIN_POINT) * 2 + (x < 0)) * 17 + count - 1
    index = _templates().take(key, axis=0)
    index += np.arange(0, WIDTH * x.size, WIDTH)[:, None]
    out = _source(digits).take(index)
    for i in np.flatnonzero(~(fast & sure)).tolist():
        # the whole row: a template can be longer than repr's text
        out[i] = np.frombuffer(repr(x.item(i)).encode().ljust(WIDTH, b"\0"), dtype=np.uint8)
    return out
