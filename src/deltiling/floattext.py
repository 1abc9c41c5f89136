"""Decimal texts of float64 arrays, printed without a Python call per float.

`round_reprs(x, p)` gives the bytes of `repr(round(v, p))` and
`fixed_texts(x, p)` those of `fixed(v, p)` for each v of the array x, as
patch export prints its shadow floats and SVG output its coordinates.
Both are one numpy kernel: it rounds |v| * 10**p to an integer k, half
to even on the exact binary value (`_scaled`), and prints the digits of
k as uint8 bytes (`_texts`).  Every value outside the kernel's range,
and every precision outside it, goes through the reference expression
one value at a time; that is the only other path.

Rounding.  With 10**p exact in float64 (p <= 15), let a = |v| * 10**p
exactly, P = fl(a), q = floor(P) and f = P - q.  Dekker's TwoProduct with
Veltkamp's splitting (Numer. Math. 18, 1971) gives the product's error
e = a - P exactly.  When a < 2**52, ulp(P) <= 1/2, so f is exact and,
like 1/2, a multiple of ulp(P), and |e| <= ulp(P)/2: f < 1/2 rounds down
and f > 1/2 up whatever e is, and at f = 1/2 the sign of e decides, a
zero e being a tie that goes to even.  That is k, the integer that
`round` and `format` print for v with p decimals, as Python's
float-to-decimal conversion rounds the exact binary value half to even.

Repr.  `round(v, p)` is y, the double nearest to s = k / 10**p, with the
sign of v.  For 1e-4 <= |v| and |v| * 10**p < 2**52, `repr(y)` is the
fixed-point text of s with its trailing zeros stripped, keeping one
fractional digit ("0.0" or "-0.0" for k = 0).  Proof, for k > 0:

- The reals that round to y form an interval narrower than 10**-p.
  As k <= 2**52, |y| <= 2**52 * 10**-p * (1 + 2**-53), and the interval
  is at most ulp(y) <= 2**-52 |y| wide.  For p >= 1, ulp(y) is a power
  of two, and none lies within 2**-35 (relative) of 10**-p = 2**-p 5**-p
  since 5**p < 2**35; so ulp(y) < 10**-p.  At p = 0 the bound is reached
  only by y = 2**52, whose interval is 3/4 wide.
- So s is the only text with at most p fractional digits that rounds to
  y.  A text with no more significant digits than s but more fractional
  ones has its leading digit below that of s, so it lies at least 10**-p
  below s, or |s| / 10 when s is a power of ten: outside the interval,
  which is also narrower than |s| / 10.
- So s is the shortest text that rounds to y, which `repr` prints, in
  fixed point since 1e-4 <= |s| < 10**16: |v| >= 1e-4 makes k at least
  10**(p - 4) when p >= 4, and k >= 1 gives |s| >= 10**-p otherwise.
"""

from __future__ import annotations

import functools

import numpy as np

#: Veltkamp's splitting constant for float64, 2**27 + 1
_SPLIT = 134217729.0

_POW10 = np.array([10 ** i for i in range(16)], dtype=np.int64)

#: _MASK[s, c] is 1 for the columns c < s of a text of s bytes
_MASK = np.array([[1] * s + [0] * (20 - s) for s in range(21)], np.uint8)


@functools.cache
def _quads():
    """(digits, zeros): the four ASCII digits of each integer 0..9999 and
    its trailing decimal zeros (4 for 0).  Built at the first print, so a
    process that prints no float does not hold them."""
    texts = [b"%04d" % i for i in range(10000)]
    digits = np.frombuffer(b"".join(texts), np.uint8).reshape(10000, 4)
    return digits, np.array([4 - len(q.rstrip(b"0")) for q in texts])


def fixed(x, precision=9):
    """x with `precision` decimals, the trailing zeros after its point and
    a bare point stripped; "0" for a value that prints as -0."""
    s = f"{x:.{precision}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s if s != "-0" else "0"


def _split(a):
    """(hi, lo) with hi + lo = a exactly, each of at most 26 significant
    bits, so a product of two halves is exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, p):
    """k = a * 10**p rounded half to even on the exact product, as int64,
    for a float64 array a >= 0 with a * 10**p < 2**52 (module docstring)."""
    s = float(10 ** p)
    prod = a * s
    q = np.floor(prod)
    f = prod - q
    k = q.astype(np.int64)
    k += f > 0.5
    tie = np.flatnonzero(f == 0.5)
    if len(tie):
        # Dekker's TwoProduct: the exact error of prod at the ties
        x = a[tie]
        xh, xl = _split(x)
        sh, sl = _split(s)
        err = xl * sl - (((prod[tie] - xh * sh) - xl * sh) - xh * sl)
        k[tie] += (err > 0) | ((err == 0) & (k[tie] & 1 == 1))
    return k


def _texts(k, neg, p, point):
    """The texts of the integers k >= 0 (<= 2**52) over 10**p as an S
    array: a "-" where neg, the whole digits (at least one), then "." and
    the fractional digits up to the last nonzero one.  When all of those
    are zero, `point` keeps ".0", and otherwise the point goes too.

    Each text is cut from a row of 20 bytes: a free byte for the sign,
    the 16 - p whole digits of k, ".", its p fractional digits, a "0" for
    p = 0 and a NUL; a window of the row buffer starts at its sign or
    first digit and is masked to its length."""
    n = len(k)
    quads, quad_zeros = _quads()
    groups = np.empty((n, 4), np.intp)
    groups[:, 0], groups[:, 1] = np.divmod(k // 10 ** 8, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(k % 10 ** 8, 10 ** 4)
    digits = quads.take(groups, axis=0).reshape(n, 16)
    # trailing zeros of k, group by group from the last one
    zeros = quad_zeros.take(groups)
    tail, run = zeros[:, 3].copy(), groups[:, 3] == 0
    for g in (2, 1, 0):
        tail += run * zeros[:, g]
        run &= groups[:, g] == 0
    shown = np.maximum(p - tail, 0)
    lead = np.maximum(_POW10.searchsorted(k, "right") - p, 1)
    u = 17 - p
    # one spare row: the last windows reach past their own row
    rows = np.zeros((n + 1, 20), np.uint8)
    rows[:n, 1:u] = digits[:, :16 - p]
    rows[:n, u] = ord(".")
    rows[:n, u + 1:u + 1 + p] = digits[:, 16 - p:]
    rows[:n, 18] = ord("0")
    first = u - lead - neg
    rows[np.flatnonzero(neg), first[neg]] = ord("-")
    if point:
        size = neg + lead + 1 + np.maximum(shown, 1)
    else:
        size = neg + lead + (shown > 0) + shown
    width = int(size.max(initial=1))
    windows = np.lib.stride_tricks.sliding_window_view(rows.ravel(), width)
    text = windows[first + np.arange(0, 20 * n, 20)]
    text *= _MASK[size, :width]
    return text.view(f"S{width}").ravel()


def _kernel(x, precision, point):
    """The bytes of repr(round(v, precision)) (point) or of
    fixed(v, precision) for each v of the float64 array x: by `_scaled`
    and `_texts` inside the kernel's range, one value at a time by that
    expression outside it."""
    x = np.asarray(x, dtype=np.float64).ravel()
    reference = _round_repr if point else fixed
    if not (isinstance(precision, int) and 0 <= precision <= 15):
        return [reference(v, precision).encode() for v in x.tolist()]
    a = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        inside = a * float(10 ** precision) < 2.0 ** 52
    if point:
        inside &= a >= 1e-4
    out = np.empty(len(x), dtype=object)
    at = np.flatnonzero(inside)
    k = _scaled(a[at], precision)
    neg = np.signbit(x[at])
    out[at] = _texts(k, neg if point else neg & (k > 0), precision,
                     point).tolist()
    rest = np.flatnonzero(~inside)
    out[rest] = [reference(v, precision).encode()
                 for v in x[rest].tolist()]
    return out.tolist()


def _round_repr(v, precision):
    return repr(round(v, precision))


def round_reprs(x, precision):
    """The bytes of repr(round(v, precision)) for each v of the float64
    array x, by the kernel for 0 <= precision <= 15, 1e-4 <= |v| and
    |v| * 10**precision < 2**52 (module docstring)."""
    return _kernel(x, precision, True)


def fixed_texts(x, precision):
    """The bytes of fixed(v, precision) for each v of the float64 array x,
    by the kernel for 0 <= precision <= 15 and |v| * 10**precision < 2**52
    (the digits of k are format's, so no repr argument is needed)."""
    return _kernel(x, precision, False)
