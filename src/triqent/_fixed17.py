"""CPython's %.17g of float arrays, in numpy, for the values it writes in
fixed point (1e-4 <= |x| < 1e17).

There %.17g writes the 17 digits N = round-half-even(|x| * 10**q), q = 16 - k,
where k is the one exponent that puts N in [10**16, 10**17), with the point
after digit k + 1 (or after "0" and -k - 1 more zeros in front), less any
trailing fraction zeros. With |x| = m / 2**t (frexp, m < 2**53), N is
m * 5**q, below 2**100, shifted right by s = t - q bits: a 128-bit product in
32-bit limbs. That is exact integer arithmetic, so a cell is the same on every
CPU. Values the kernel cannot hold exactly are left to the caller.
"""
from __future__ import annotations

import numpy as np

_U1, _U32, _U64 = np.uint64(1), np.uint64(32), np.uint64(64)
_LIMB, _HALF = np.uint64(2 ** 32 - 1), np.uint64(2 ** 63)
_POW5_LO = 5 ** np.arange(21, dtype=np.uint64) & _LIMB
_POW5_HI = 5 ** np.arange(21, dtype=np.uint64) >> _U32
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)


def _group_tables():
    """Per four-digit group 0 to 9999: its ASCII digits as one uint32, and
    how many of them are trailing zeros (4 for 0000)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    zero = digits == 0
    zeros = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    return (np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel(),
            zeros.astype(np.uint8))


_DIGITS4, _ZEROS4 = _group_tables()
# a cell is at most "-0.000" and 17 digits; a row of text ends in padding
_ROW, _PAD = 24, ord(" ")
# beyond its end a row holds only "0", "." and padding, and clearing the bits
# 0x1E turns each of them into padding: per end, the mask of each 8-byte word
_CLEAR = np.where(np.arange(_ROW) < np.arange(_ROW + 1)[:, None], 0xFF,
                  0xFF ^ 0x1E).astype(np.uint8).view(np.uint64)


def _product(m: np.ndarray, q: np.ndarray):
    """m * 5**q for m < 2**53 and q in [0, 20], below 2**100, as its high and
    low 64 bits, from 32-bit limbs."""
    pl, ph = _POW5_LO[q], _POW5_HI[q]
    ml, mh = m & _LIMB, m >> _U32
    lo = ml * pl
    mid = mh * pl
    mid += ml * ph
    mid += lo >> _U32
    hi = mh * ph
    hi += mid >> _U32
    mid <<= _U32
    mid |= lo & _LIMB
    return hi, mid


def _scaled(m: np.ndarray, t: np.ndarray, q: np.ndarray):
    """round-half-even(m * 5**q / 2**(t - q)) for q in [0, 20], and where it
    is exact: a right shift s of 1 to 63 bits and a result below 2**64."""
    s = t - q
    exact = (s >= 1) & (s <= 63)
    s = np.minimum(np.maximum(s, 1), 63).astype(np.uint64)
    hi, low = _product(m, q)
    up = _U64 - s
    n = hi << up
    n |= low >> s
    exact &= hi >> s == 0
    # the bits shifted out, as a fraction of 2**64: round up past one half,
    # and at one half to the even neighbour
    low <<= up
    low |= n & _U1
    n += low > _HALF
    return n, exact


def fixed_digits(x: np.ndarray):
    """The values x that %.17g writes in fixed point, where the kernel is
    exact: their indices, exponents k and 17-digit integers N."""
    a = np.abs(x)
    idx = np.flatnonzero((a >= 1e-4) & (a < 1e17))
    a = a[idx]
    # log10 only guesses k, so none of its bits reach a cell: a guess one too
    # low gives N >= 10**17 and one too high N < 10**16, and those rows are
    # worked again at k + 1 or k - 1. N = 10**16 is always right, as no double
    # in the range lies below a power of ten by half a unit of its 17th digit
    k = np.minimum(np.maximum(np.floor(np.log10(a)), -4), 16).astype(np.int64)
    m, t = np.frexp(a)
    m, t = (m * 2.0 ** 53).astype(np.uint64), 53 - t.astype(np.int64)
    n, exact = _scaled(m, t, 16 - k)
    redo = np.flatnonzero((n < _E16) | (n >= _E17))
    if len(redo):
        k2 = k[redo] + np.where(n[redo] >= _E17, 1, -1)
        n2, exact2 = _scaled(m[redo], t[redo], 16 - k2.clip(-4, 16))
        exact[redo] &= exact2 & (k2 >= -4) & (k2 <= 16) & (n2 >= _E16) & (n2 < _E17)
        k[redo], n[redo] = k2, n2
    if exact.all():
        return idx, k, n
    return idx[exact], k[exact], n[exact]


def _ascii_digits(n: np.ndarray):
    """The 17 ASCII digits of each N in [10**16, 10**17), (len(n), 17) bytes,
    and how many of them are trailing zeros."""
    # the lead digit and four groups of four, looked up with int64 indices,
    # which numpy takes faster than uint64 ones
    top = n.view(np.int64) // 10 ** 8
    low = n.view(np.int64) - top * 10 ** 8
    mid, lows = top // 10 ** 4, low // 10 ** 4
    lead = mid // 10 ** 4
    groups = (lead, mid - lead * 10 ** 4, top - mid * 10 ** 4, lows, low - lows * 10 ** 4)
    words = np.empty((len(n), 5), dtype=np.uint32)
    for j, g in enumerate(groups):
        words[:, j] = np.take(_DIGITS4, g)
    zeros = np.take(_ZEROS4, groups[4])
    deep = np.flatnonzero(groups[4] == 0)
    if len(deep):
        g1, g2, g3 = (g[deep] for g in groups[1:4])
        zeros[deep] += _ZEROS4[g3] + (g3 == 0) * (_ZEROS4[g2] + (g2 == 0) * _ZEROS4[g1])
    return words.view(np.uint8)[:, 3:], zeros


def _fixed_text(neg: np.ndarray, k: np.ndarray, digits: np.ndarray,
                zeros: np.ndarray) -> str:
    """The fixed-point cells of the digits, one after another, padded with
    spaces. Each run of rows with one sign and exponent is laid out at once,
    so rows sorted by their bits, as triqent.cli orders them, go fastest."""
    key = np.where(neg, k - 64, k)
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    # sign, then "0." and -k - 1 zeros and the digits, or the digits with a
    # point after digit k + 1
    rows = np.full((len(k), _ROW), _PAD, dtype=np.uint8)
    for a, b, kk, minus in zip(starts.tolist(), [*starts[1:].tolist(), len(k)],
                               k[starts].tolist(), neg[starts].tolist()):
        if minus:
            rows[a:b, 0] = ord("-")
        if kk >= 0:
            rows[a:b, 1:kk + 2] = digits[a:b, :kk + 1]
            rows[a:b, kk + 2] = ord(".")
            rows[a:b, kk + 3:19] = digits[a:b, kk + 1:]
        else:
            rows[a:b, 1:2 - kk] = np.frombuffer(b"0.000"[:1 - kk], dtype=np.uint8)
            rows[a:b, 2 - kk:19 - kk] = digits[a:b]
    # the end of a cell: past its last nonzero fraction digit, or before its
    # point when every fraction digit is zero
    end = 19 - np.minimum(k, 0) - zeros
    end = np.where(end >= k + 4, end, k + 2)
    rows.view(np.uint64)[:] &= np.take(_CLEAR, end, axis=0)
    return str(rows.data, "ascii")


def fixed_cells(x: np.ndarray):
    """'%.17g' % v of the values x that it writes in fixed point, where the
    kernel is exact: their indices and their cells."""
    idx, k, n = fixed_digits(x)
    return idx, _fixed_text(x[idx] < 0, k, *_ascii_digits(n)).split()
