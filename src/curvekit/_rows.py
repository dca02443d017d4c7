"""The row kernel of the CLI's CSV and SVG documents: the bytes of
format(x, ".12g") for every value, rendered with numpy in blocks.

curvekit.cli imports this module on first use, so that only a process that
writes a document compiles and loads it.
"""

from __future__ import annotations

import functools

import numpy as np

# row_bytes renders this many values at a time (rounded down to whole rows):
# the block's 32-byte rows then take 1 MiB
BLOCK = 1 << 15
# 10**0 .. 10**15 converted from exact integers, so each is a float64
# exactly and a product by one is rounded once
_POW10 = np.array([float(10**k) for k in range(16)])
# The row of a value row_bytes does not render itself: "%.12g" formats it
# as format(x, ".12g") does, in one % call per block
_FALLBACK_ROW = np.frombuffer(b"%.12g".ljust(31, b"\0"), np.uint8)


@functools.cache
def _tables():
    """The digit words and row templates of row_bytes, built on first use.

    A value's row is 32 bytes: byte 0 its sign, bytes 1-5 the "0." and zeros
    before the digits of |x| < 1, byte 8 + 2j digit j of the 12, byte 9 + 2j
    the point when it follows digit j, byte 31 the separator; a "\\0" byte is
    dropped.  digits[k] holds the four digits of k at the even bytes of a
    little-endian word, and digits[10_000 + k] the same with trailing zeros as
    "\\0".  template[4 * (e + 4) + 2 * f + s] is the row of a value with
    decimal exponent e, a fractional part when f = 1 and sign bit s, before
    its digit words are or-ed in: sign, prefix, the zeros that the integer
    part keeps, and the point."""
    k = np.arange(10_000)
    trailing = (k % 10 == 0).astype(int) + (k % 100 == 0) + (k % 1000 == 0) + (k == 0)
    digits = np.zeros((2, 10_000, 8), np.uint8)
    digits[:, :, ::2] = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + 48
    digits[1, :, ::2] *= np.arange(4) < 4 - trailing[:, None]
    template = np.zeros((16, 2, 2, 32), np.uint8)
    template[:, :, 1, 0] = ord("-")
    for e in range(-4, 0):
        template[e + 4, :, :, 1:2 - e] = ord("0")
        template[e + 4, :, :, 2] = ord(".")
    for e in range(12):
        template[e + 4, :, :, 8:9 + 2 * e:2] = ord("0")
    for e in range(11):  # the twelfth digit is the last, so e = 11 has no fraction
        template[e + 4, 1, :, 9 + 2 * e] = ord(".")
    return digits.view("<u8").ravel(), template.reshape(64, 32).view("<u8")


def row_bytes(columns, sep: str, end: str) -> bytearray:
    """ASCII rows of the columns' values, each as format(x, ".12g") gives
    it, with sep after every value of a row but the last and end after the
    last (each one ASCII character other than "%").

    A value with 1e-4 <= |x| < 1e12 is rendered by numpy.  With e its
    decimal exponent, |x| * 10**(11 - e) is one correctly rounded product,
    within half an ulp (at most 6.1e-5) of the exact decimal value; so where
    it lies more than 1e-4 from a half-integer, rint gives the 12 digits that
    format() rounds to.  Zeros are written directly.  The rest are formatted
    by "%.12g": non-finite values, values outside that range or rounding up
    to 1e12 (scientific notation, and the few just below 1e-4 that round up
    to it), and products within 1e-4 of a half-integer, where the rounding
    could go either way."""
    digits, template = _tables()
    ncols = len(columns)
    seps = np.frombuffer((sep * (ncols - 1) + end).encode("ascii"), np.uint8).astype("<u8") << 56
    step = max(1, BLOCK // ncols)
    text = bytearray()
    for start in range(0, len(columns[0]), step):
        x = np.column_stack([column[start:start + step] for column in columns]).ravel()
        a = np.abs(x)
        fixed = (a >= 1e-4) & (a < 1e12)
        a = np.where(fixed, a, 1.0)
        # log10 misses the exponent only within a few ulps of a power of ten,
        # whose 12 digits are that power: the product then rounds up to 1e11,
        # or reaches 1e12 and carries below
        e = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 11)
        scaled = a * _POW10[11 - e]
        n = np.rint(scaled)
        fallback = (fixed & (np.abs(scaled - n) > 0.4999)) | (~fixed & (x != 0))
        carry = n == 1e12
        n[carry] = 1e11
        e += carry
        fallback |= e > 11
        fixed &= ~fallback
        n *= fixed
        e *= fixed
        # the digits as three groups of four; a group wholly after the last
        # non-zero digit, or that digit's own group, takes the stripped words
        high = np.floor(n / 1e8)
        middle = np.floor((n - high * 1e8) / 1e4)
        low = n - high * 1e8 - middle * 1e4
        unit = n / _POW10[11 - e]
        rows = np.take(template, 4 * (e + 4) + 2 * (unit != np.floor(unit)) + np.signbit(x), axis=0)
        rows[:, 1] |= digits.take((high + 1e4 * (middle + low == 0)).astype(np.intp))
        rows[:, 2] |= digits.take((middle + 1e4 * (low == 0)).astype(np.intp))
        rows[:, 3] |= digits.take((low + 1e4).astype(np.intp))
        rows.reshape(-1, ncols, 4)[:, :, 3] |= seps
        row_view = rows.view(np.uint8)
        row_view[fallback, :31] = _FALLBACK_ROW
        block = row_view.tobytes().translate(None, b"\0")
        if fallback.any():
            block %= tuple(x[fallback].tolist())
        text += block
    return text
