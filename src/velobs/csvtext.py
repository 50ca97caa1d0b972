"""The CSV writer's block formatter: the bytes `%.17g` gives each float64 of
a block, computed for the whole block at once in numpy arithmetic.

A value x in the kernel's range is N * 10**(X - 16), N its 17-digit
integer mantissa and X its decimal exponent.  N is |x| * 10**p (p = 16 - X)
rounded half-even.  Dekker's error-free product (Numer. Math. 18, 1971)
gives |x| * hi exactly as a float plus a low part, hi + lo being 10**p as
a double-double; since N >= 10**16 > 2**53, that float is an even integer,
so rounding the low part rounds the whole.  For p <= 22, lo is 0 and the
low part exact, so rint settles a tie as % does; for larger p, a low part
within HALF_SLACK of a half is left to %.  Each value is then laid out as
six 8-byte words built from byte strings (so the layout does not depend on
byte order), ANDed with a mask word by word, and the NULs the masks leave
are dropped.  Values outside [LOW, HIGH) but zeros, non-finite values and
those near a half go through % itself, in place.  The tables are built
when the module is first imported.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

# the range of |x| the kernel formats.  10**p stays finite through
# Veltkamp's split up to p = 300, a few corrections of X below 1e-280; at
# 1e17, a decade above HIGH, %.17g turns to an exponent with a + sign,
# which the masks do not hold.
LOW, HIGH = 1e-280, 1e16
# a low part this close to a half may round either way from the error of
# lo, which is under 1e-14
HALF_SLACK = 1e-6
# Veltkamp's splitter for float64: 2**27 + 1
SPLIT = 134217729.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as a1 + a2, each with at most 26 significant bits."""
    c = SPLIT * a
    a1 = c - (c - a)
    return a1, a - a1


# 10**p as the double-double HI[p] + LO[p] for p = 0 to 300, HI split
_powers = range(301)
HI = np.array([float(10 ** p) for p in _powers])
LO = np.array([float(10 ** p - int(hi)) for p, hi in zip(_powers, HI.tolist())])
HI1, HI2 = _split(HI)


def _bytes_words(text: bytes) -> np.ndarray:
    """text, whose length is a multiple of 8, as 8-byte words."""
    return np.frombuffer(text, np.uint64)


# "d.d.d.d." of each 4-digit group, a point slot after each digit
_q = np.arange(10_000)
_quad = np.full((10_000, 8), ord("."), np.uint8)
_quad[:, ::2] = _q[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
QUAD = _quad.view(np.uint64).ravel()
# the sign, the "0." and up to three zeros of a fixed form below 1, then the
# first digit and the point slot after it
HEAD = _bytes_words(b"".join(b"-0.000%d." % d for d in range(10)))
# "e" and the exponent's sign and three digits, then the separator's slot:
# EXP[X + EXP_BASE] is exponent X's
EXP_BASE = 300
_x = np.arange(-EXP_BASE, 17)
_exp = np.zeros((_x.size, 8), np.uint8)
_exp[:, 0] = ord("e")
_exp[:, 1] = np.where(_x < 0, ord("-"), ord("+"))
_exp[:, 2:5] = np.abs(_x)[:, None] // [100, 10, 1] % 10 + ord("0")
EXP = _exp.view(np.uint64).ravel()
# LAST[q + 10_000 * k]: 1 + the place (1 to 16) of the last nonzero digit
# of the 4-digit group q at group k (0 to 3) after the first digit, or 1
# where q is 0; over a value's four groups, the most is its count of
# significant digits
_last = np.zeros(10_000, np.uint8)
for _place in range(4):     # the last nonzero digit is the rightmost to set it
    _last[_q // 10 ** (3 - _place) % 10 != 0] = _place + 1
LAST = ((np.arange(4, dtype=np.uint8)[:, None] * 4 + _last) * (_q != 0) + 1).ravel()
PLACES = np.arange(0, 40_000, 10_000)[:, None]

# a value's form: 0 and 1 for exponent notation with a 2- and a 3-digit
# exponent, 2 to 22 for the fixed notation of X = -4 to 16, 23 for a zero;
# and its count of significant digits, 1 to 17
FORMS, SHOWN = 24, 18


def _masks() -> np.ndarray:
    """The keep mask, six words, of each (form, significant digits, sign)."""
    form = np.arange(FORMS)[:, None, None, None]
    sig = np.arange(SHOWN)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    at = np.arange(48)[None, None, None, :]
    x = form - 6
    sci, fixed, zero = form < 2, (form >= 2) & (form < 23), form == 23
    # fixed notation at X >= 0 shows every digit before the point
    shown = np.where(fixed, np.maximum(sig, x + 1), sig)
    # bytes 6 to 39: digit i at 6 + 2 i, the point slot after it at 7 + 2 i
    digit, slot = (at - 6) // 2, (at >= 6) & (at < 40) & (at % 2 == 1)
    at_digit = (at >= 6) & (at < 40) & ~slot
    point = np.where(sci, 0, x)     # the digit the point follows
    keep = (((at == 0) & (neg == 1))
            | ((at == 1) & (zero | fixed & (x < 0)))
            | ((at == 2) & fixed & (x < 0))
            | ((at >= 3) & (at < 6) & fixed & (at - 3 < -x - 1))
            | (at_digit & ~zero & (digit < shown))
            | (slot & ~zero & (digit == point) & (shown > point + 1) & (sci | (x >= 0)))
            | ((at == 40) | (at == 41) | (at == 43) | (at == 44)) & sci
            | (at == 42) & (form == 1))
    return np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64).reshape(-1, 6)


MASK = _masks().T.copy()
# a value that % formats: a marker byte, then its separator
MARK = b"\x01"
PLACE = _bytes_words(MARK + bytes(47))[:, None]
# the separators ORed into the last word's slot: a comma, a newline after a row's last value
COMMA, NEWLINE = _bytes_words(bytes(5) + b",\0\0"), _bytes_words(bytes(5) + b"\n\0\0")


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - x) as the nearest integer, half to even, and what is
    left, which lies in [-0.5, 0.5]."""
    p = 16 - x
    big = a * HI[p]
    a1, a2 = _split(a)
    h1, h2 = HI1[p], HI2[p]
    low = ((a1 * h1 - big) + a1 * h2 + a2 * h1) + a2 * h2 + a * LO[p]
    rounded = np.rint(low)
    return big.astype(np.int64) + rounded.astype(np.int64), low - rounded


def _exponent_step(n: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """1 where n + rest is 10**17 or more, -1 where it is under 10**16, else 0:
    the correction to the X that _scaled was given."""
    above = (n > 10 ** 17) | (n == 10 ** 17) & (rest >= 0.0)
    below = (n < 10 ** 16) | (n == 10 ** 16) & (rest < 0.0)
    return above.astype(np.intp) - below


def block_bytes(block: np.ndarray, whole: int) -> bytes:
    """The CSV rows of a 2-D float64 block: each value as b"%.17g" % v gives
    it but column `whole`'s, as b"%d" % v does, comma-separated, each row
    ending in a newline."""
    rows, cols = block.shape
    v = block.copy()
    # %d of every finite float is %.17g of the whole float towards zero, -0.0 a 0
    v[:, whole] = np.trunc(v[:, whole]) + 0.0
    v = v.ravel()
    a = np.abs(v)
    inside = (a >= LOW) & (a < HIGH)
    zero = a == 0.0
    a = np.where(inside, a, 1.0)
    # X = floor(log10 a) exactly: 10**16 <= a * 10**(16 - X) < 10**17 before rounding
    x = np.floor(np.log10(a)).astype(np.intp)
    n, rest = _scaled(a, x)
    step = _exponent_step(n, rest)
    for _ in range(3):
        off = np.flatnonzero(step)
        if not off.size:
            break
        x[off] += step[off]
        n[off], rest[off] = _scaled(a[off], x[off])
        step[off] = _exponent_step(n[off], rest[off])
    near = (np.abs(rest) > 0.5 - HALF_SLACK) & (LO[16 - x] != 0.0)
    # a mantissa rounded up to 10**17 is 10**16 at the next exponent
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    x += carry
    by_percent = ~(inside | zero) | near | (step != 0)

    # the first digit, then four groups of four
    top = n // 10 ** 8
    first = top // 10 ** 8
    eights = np.stack([top - first * 10 ** 8, n - top * 10 ** 8])
    fours = eights // 10 ** 4
    quads = np.stack([fours, eights - fours * 10 ** 4], 1).reshape(4, -1)
    sig = LAST.take(quads + PLACES).max(axis=0)
    form = np.where(x < -4, np.abs(x) >= 100, x + 6)
    form[zero] = FORMS - 1
    # row k holds word k of each value; the clips keep a value that % formats
    # in the tables, whatever its digits
    words = np.empty((6, rows * cols), np.uint64)
    HEAD.take(first, out=words[0], mode="clip")
    QUAD.take(quads, out=words[1:5])
    EXP.take(x + EXP_BASE, out=words[5], mode="clip")
    words &= MASK.take((form * SHOWN + sig) * 2 + np.signbit(v), axis=1, mode="clip")
    words[:, by_percent] = PLACE
    ends = words[5].reshape(rows, cols)
    ends[:, :-1] |= COMMA
    ends[:, -1] |= NEWLINE
    text = words.T.tobytes().translate(None, b"\0")
    if not by_percent.any():
        return text
    # the values % formats, in order: column whole's as an integer
    texts = [b"%d" % y if i % cols == whole else b"%.17g" % y
             for i, y in zip(np.flatnonzero(by_percent).tolist(),
                             block.ravel()[by_percent].tolist())]
    return b"".join(chain.from_iterable(zip(text.split(MARK), [*texts, b""])))
