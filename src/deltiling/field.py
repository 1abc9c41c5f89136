"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every coordinate, length and trigonometric quantity used by the tiling
machinery is an element of Q(zeta_n) for a fixed even conductor n, stored
as an integer coefficient vector over the power basis 1, zeta, ...,
zeta^(phi(n)-1) together with a common denominator.  Elements are
immutable, equality (in particular equality to zero) is decided exactly by
coefficient comparison, and complex conjugation / multiplication by roots
of unity are cheap basis operations.

For an arrangement of order d the working conductor is 6d when d is even
and 12d when d is odd; in both cases 4 | n, so i is in the field and all
values sin(k*pi/d), cos(k*pi/(3d)), ... are representable.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np


def _poly_divexact(num, den):
    """Exact division of integer polynomials (den monic, ascending coeffs)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        out[k - dd] = c
        if c:
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    assert all(c == 0 for c in num[:dd]), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for m in range(1, n):
        if n % m == 0:
            poly = _poly_divexact(poly, cyclotomic_poly(m))
    return tuple(poly)


#: the mpmath precisions (digits) tried where a float value is too coarse
ESCALATION_DPS = (60, 200, 800)


class CycField:
    """The cyclotomic field Q(zeta_n), zeta_n = exp(2*pi*i/n).

    Instances are interned per conductor; elements refer back to their
    field and may only be combined within one field.
    """

    _cache = {}

    def __new__(cls, n):
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        self._init(n)
        cls._cache[n] = self
        return self

    def _init(self, n):
        if n % 4 != 0:
            raise ValueError("conductor must be divisible by 4 (need i in the field)")
        self.n = n
        phi = cyclotomic_poly(n)
        self.degree = len(phi) - 1
        D = self.degree
        # x^k mod Phi_n for k = 0 .. D-1+n (covers products and zeta powers)
        kmax = D + n
        red = [None] * (kmax + 1)
        for k in range(D):
            v = [0] * D
            v[k] = 1
            red[k] = v
        for k in range(D, kmax + 1):
            prev = red[k - 1]
            head = prev[D - 1]
            v = [0] + prev[: D - 1]
            if head:
                for j in range(D):
                    v[j] -= head * phi[j]
            red[k] = v
        self._red = [tuple(v) for v in red]
        self.zero = Elem(self, (0,) * D, 1)
        self.one = Elem(self, self._red[0], 1)
        self.i = self.zeta(n // 4)
        self._half_i = Elem(self, self._red[n // 4], 2)
        # complex float embedding of the power basis; `rows @ basis` are
        # float values of coefficient rows, a pre-filter (`cvalues` gives
        # the values of `Elem.cvalue` bit for bit)
        self._basis_c = [cmath.exp(2j * math.pi * k / n) for k in range(D)]
        self.basis = np.array(self._basis_c)
        self._basis_mp = {}

    def __repr__(self):
        return f"CycField({self.n})"

    def zeta(self, k):
        """zeta_n^k as a field element."""
        return Elem(self, self._red[k % self.n], 1)

    def rational(self, p, q=1):
        if isinstance(p, Fraction):
            p, q = p.numerator * q, p.denominator
        v = [c * p for c in self._red[0]]
        return Elem(self, tuple(v), q).normalized()

    def from_coeffs(self, nums, den=1):
        if len(nums) != self.degree:
            raise ValueError("coefficient vector length mismatch")
        return Elem(self, tuple(int(c) for c in nums), int(den)).normalized()

    def cos_turn(self, k, m):
        """cos(2*pi*k/m) exactly; m must divide n."""
        assert self.n % m == 0
        e = (self.n // m) * k
        return (self.zeta(e) + self.zeta(-e)) * Fraction(1, 2)

    def sin_turn(self, k, m):
        """sin(2*pi*k/m) exactly; m must divide n."""
        assert self.n % m == 0
        e = (self.n // m) * k
        return (self.zeta(e) - self.zeta(-e)) * self._half_i * -1

    @cached_property
    def powers(self):
        """int64 rows of zeta^0 .. zeta^(n+D-2), reduced mod Phi_n."""
        return np.array(self._red[:self.n + self.degree - 1], dtype=np.int64)

    @cached_property
    def power_bound(self):
        """The largest |entry| of `powers`: a turn of rows of width w
        bounds its result by w * max |x| * power_bound."""
        return int(np.abs(self.powers).max())

    def turn(self, x, k):
        """Rows of zeta^k * x(zeta) (int64) for coefficient rows x (..., w),
        with one exponent k >= 0 per leading index, k + w < n + D: k has the
        leading shape of x (a scalar turns every row).  The caller bounds
        w * max |x| * power_bound below 2^62.

        The row of zeta^k x is x @ powers[k:k + w].  Blocks of rows that
        share a k are grouped, and each group takes one product with its
        slice of `powers`, so no D x D matrix is gathered per row.
        """
        red = self.powers
        w = x.shape[-1]
        if np.ndim(k) == 0:
            return x @ red[k:k + w]
        k = np.ravel(k)
        blocks = x.reshape(len(k), -1, w)
        out = np.empty(blocks.shape[:2] + (self.degree,), dtype=np.int64)
        order = np.argsort(k, kind="stable")
        k = k[order]
        cut = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
        for s, e in zip(cut, cut[1:]):
            rows = order[s:e]
            out[rows] = blocks[rows] @ red[k[s]:k[s] + w]
        return out.reshape(x.shape[:-1] + (self.degree,))

    def turns(self, x, dtype):
        """out[i, k] = `turn`(x[i], k) for every k mod n, in dtype: x[i] is
        one row or an array of them, and the caller's bound shows that
        dtype holds every turn."""
        out = np.empty((len(x), self.n) + x.shape[1:], dtype)
        for k in range(self.n):
            out[:, k] = self.turn(x, k)
        return out

    def mul_matrix(self, e):
        """(M, den): the row of x * e is (row of x) @ M / den.

        M = sum of e_j * powers[j:j + D] over the nonzero coefficients of
        e: rows j .. j + D - 1 of `powers` are the matrix of w -> zeta^j w.
        """
        D = self.degree
        M = np.zeros((D, D), dtype=np.int64)
        for j, c in enumerate(e.num):
            if c:
                M += c * self.powers[j:j + D]
        return M, e.den

    def conjugate_rows(self, x):
        """Rows over x.den of sigma_k(x), zeta -> zeta^k, for the units k
        mod n in increasing order (the first row is x itself).

        The row of sigma_k(x) is the sum of c_j * (row of zeta^(jk mod n))
        over the nonzero c_j: the pattern of `mul_matrix`, one gather per
        c_j.  The rows are int64 while they provably fit, Python ints beyond.
        """
        n = self.n
        ks = np.array([k for k in range(1, n) if math.gcd(k, n) == 1])
        red = self.powers[:n]
        if sum(abs(c) for c in x.num) * self.power_bound >= 2 ** 62:
            red = red.astype(object)
        rows = np.zeros((len(ks), self.degree), dtype=red.dtype)
        for j, c in enumerate(x.num):
            if c:
                rows += c * red[j * ks % n]
        return rows

    def cvalues(self, rows, den=1):
        """Complex embeddings of integer coefficient rows over a common den.

        Each value equals `Elem.cvalue()` of the normalised element bit for
        bit: the terms are summed in basis order, as cvalue sums them.  The
        columns that are 0 in every row are left out, as cvalue leaves out
        0 coefficients: the sum starts at +0 and is never -0.0, so a term
        of +0 or -0 would change no bit.
        """
        rows = np.asarray(rows)
        shape = rows.shape[:-1]
        rows = rows.reshape(-1, self.degree)
        used = np.flatnonzero(reduce_columns(np.bitwise_or, rows))
        basis = [self._basis_c[j] for j in used.tolist()]
        rows = rows[:, used]
        if den != 1:
            rows = rows.astype(np.int64)
            g = np.gcd(np.gcd.reduce(rows, axis=1), den)
            rows = rows // g[:, None]
            dens = den // g
        # c * b multiplies (c + 0j) by b, as Python's int * complex does
        out = np.zeros(len(rows), dtype=complex)
        for j, b in enumerate(basis):
            out += rows[:, j] * b
        if den != 1:
            out.real /= dens
            out.imag /= dens
        return out.reshape(shape)

    def _basis_mpc(self, dps):
        import mpmath  # only sign decisions that escalate load it

        key = dps
        if key not in self._basis_mp:
            with mpmath.workdps(dps):
                self._basis_mp[key] = [mpmath.expjpi(mpmath.mpf(2 * k) / self.n)
                                       for k in range(self.degree)]
        return self._basis_mp[key]


class Elem:
    """An element of a CycField: integer numerator vector / denominator."""

    __slots__ = ("f", "num", "den")

    def __init__(self, f, num, den):
        self.f = f
        self.num = tuple(num)
        self.den = den

    def normalized(self):
        g = self.den
        for c in self.num:
            g = math.gcd(g, c)
            if g == 1:
                break
        if g == 1 and self.den > 0:
            return self
        if self.den < 0:
            g = -g
        return Elem(self.f, tuple(c // g for c in self.num), self.den // g)

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.den == b.den:
            return Elem(a.f, tuple(x + y for x, y in zip(a.num, b.num)), a.den).normalized()
        return Elem(a.f, tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num)),
                    a.den * b.den).normalized()

    __radd__ = __add__

    def __neg__(self):
        return Elem(self.f, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Elem(self.f, tuple(c * other for c in self.num), self.den).normalized()
        if isinstance(other, Fraction):
            return Elem(self.f, tuple(c * other.numerator for c in self.num),
                        self.den * other.denominator).normalized()
        if not isinstance(other, Elem):
            return NotImplemented
        D = self.f.degree
        a, b = self.num, other.num
        conv = [0] * (2 * D - 1)
        for i_, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i_ + j] += x * y
        return self._sum_powers(enumerate(conv), self.den * other.den)

    __rmul__ = __mul__

    def mul_zeta(self, k):
        """Multiply by zeta_n^k (cheap: shift + reduction)."""
        k %= self.f.n
        if k == 0:
            return self
        return self._sum_powers(((j + k, c) for j, c in enumerate(self.num)),
                                self.den)

    def conj(self):
        n = self.f.n
        return self._sum_powers((((n - j) % n, c)
                                 for j, c in enumerate(self.num)), self.den)

    def _sum_powers(self, terms, den):
        """The normalised element sum of c * zeta^e / den over the (e, c)
        of terms, 0 <= e <= D + n: e < D is a basis power, and every other
        zeta^e adds c times its reduced row."""
        f = self.f
        D = f.degree
        out = [0] * D
        red = f._red
        for e, c in terms:
            if c:
                if e < D:
                    out[e] += c
                else:
                    for j, v in enumerate(red[e]):
                        if v:
                            out[j] += c * v
        return Elem(f, out, den).normalized()

    def inv(self):
        """Multiplicative inverse: the product of the other conjugates
        sigma_k(x), k != 1, over the norm, their product with x (rational).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        f = self.f
        others = f.one
        for row in f.conjugate_rows(self)[1:].tolist():
            others = others * Elem(f, row, self.den)
        norm = others * self
        assert not any(norm.num[1:]), "non-rational norm"
        return others * Fraction(norm.den, norm.num[0])

    def __truediv__(self, other):
        if isinstance(other, int):
            return Elem(self.f, self.num, self.den * other).normalized()
        if isinstance(other, Fraction):
            return self * Fraction(other.denominator, other.numerator)
        return self * other.inv()

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return all(c == 0 for c in self.num)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.f.rational(Fraction(other))
        if not isinstance(other, Elem) or other.f is not self.f:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.f.n, self.num, self.den))

    def key(self):
        """Canonical hashable key (used for exact point dedup)."""
        return (self.num, self.den)

    def is_real(self):
        return self == self.conj()

    # -- numeric embedding ----------------------------------------------
    def cvalue(self):
        """Fast complex float embedding."""
        b = self.f._basis_c
        return sum(c * b[j] for j, c in enumerate(self.num) if c) / self.den

    def cvalue_error(self, bits=53):
        """Bound on |cvalue() - x| (bits = 53), or on |mpc(dps) - x| at the
        binary precision `bits`: sum|c_j| * (D + 8) * 2^(3 - bits) / den.

        With u = 2^-bits, each basis value is within 22u of zeta^j (three
        roundings in its angle, < 19u, and one ulp each in cos and sin);
        converting and multiplying c_j add 2u|c_j|, the sum at most
        sqrt(2) (D - 1) u sum|c_j|, the division by den one relative u: in
        all below sum|c_j| * (1.5D + 25) * u / den, within the bound.
        """
        total = sum(abs(c) for c in self.num) * (self.f.degree + 8)
        if bits == 53:
            return total * 2.0 ** -50 / self.den
        import mpmath
        return mpmath.ldexp(total, 3 - bits) / self.den

    def mpc(self, dps=30):
        import mpmath

        b = self.f._basis_mpc(dps)
        with mpmath.workdps(dps):
            acc = mpmath.mpc(0)
            for j, c in enumerate(self.num):
                if c:
                    acc += c * b[j]
            return acc / self.den

    def real_sign(self):
        """Sign of a real element, decided exactly (0 only for exact zero).

        The float value decides when it lies beyond its `cvalue_error`;
        otherwise the mpmath value at 60, 200 or 800 digits decides beyond
        the bound at that precision.
        """
        if self.is_zero():
            return 0
        v = self.cvalue().real
        if abs(v) > self.cvalue_error():
            return 1 if v > 0 else -1
        from mpmath.libmp import dps_to_prec
        for dps in ESCALATION_DPS:
            mv = self.mpc(dps).real
            if abs(mv) > self.cvalue_error(dps_to_prec(dps)):
                return 1 if mv > 0 else -1
        raise ArithmeticError("could not certify sign; increase precision")

    def imag_sign(self):
        """Sign of the imaginary part, decided exactly."""
        w = (self - self.conj()).mul_zeta(3 * self.f.n // 4)  # 2*Im, real
        return w.real_sign()

    def __lt__(self, other):
        return (self - self._coerce(other)).real_sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).real_sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).real_sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).real_sign() >= 0

    def _coerce(self, other):
        if isinstance(other, Elem):
            return other
        if isinstance(other, (int, Fraction)):
            return self.f.rational(Fraction(other))
        raise TypeError(f"cannot combine Elem with {type(other)}")

    def __repr__(self):
        return f"<Elem n={self.f.n} ~ {self.cvalue():.6g}>"


def reduce_columns(ufunc, rows):
    """ufunc.reduce(rows, axis=0) of integer rows (N x D; N >= 1 unless
    ufunc has an identity).

    numpy reduces axis 0 of D-wide rows with a D-wide inner loop, so the
    first 64 (N // 64) rows are reduced as rows 64 D wide, and then their
    64 blocks of D columns with the remaining rows.
    """
    N, D = rows.shape
    cut = N - N % 64
    part = rows[cut:]
    if cut:
        wide = ufunc.reduce(rows[:cut].reshape(-1, 64 * D))
        part = np.concatenate([wide.reshape(64, D), part])
    return ufunc.reduce(part)


# ---------------------------------------------------------------------------
# order-d trigonometric layer

def conductor(d):
    """The conductor of the order-d field: 6d (d even) / 12d (d odd)."""
    return 6 * d if d % 2 == 0 else 12 * d


#: the largest symmetry order of a pattern.  Its field, arrangements and
#: catalog take memory that grows quadratically with d, and the catalog
#: decorates the order-d faces with the order-2d arrangement, so fields
#: are built up to order 2 * MAX_ORDER.
MAX_ORDER = 64


@lru_cache(maxsize=None)
def field_for_order(d):
    """Field housing the order-d arrangement, of conductor `conductor(d)`,
    for 5 <= d <= 2 * MAX_ORDER."""
    if not 5 <= d <= 2 * MAX_ORDER:
        raise ValueError(f"need 5 <= d <= {2 * MAX_ORDER} (got {d})")
    return CycField(conductor(d))


def unit_root(d, k):
    """exp(i*k*pi/(3d)) in the order-d field."""
    f = field_for_order(d)
    return f.zeta(k * f.n // (6 * d))


def sin_val(d, nu):
    """s_nu = sin(nu*pi/d), exact."""
    if d < 5:
        raise ValueError("need d >= 5")
    f = field_for_order(d)
    return f.sin_turn(nu, 2 * d)


def cos_val(d, nu):
    """cos(nu*pi/d), exact."""
    f = field_for_order(d)
    return f.cos_turn(nu, 2 * d)


@lru_cache(maxsize=None)
def inflation_factor(d, p):
    """iota_{d,p} = s_p / s_1 (> 1), exact.

    Computed without a division as the Chebyshev sum
    U_{p-1}(cos(pi/d)) = sum_{k=0}^{p-1} zeta_{2d}^{p-1-2k}.
    """
    q = d // 2
    if not 2 <= p <= q:
        raise ValueError(f"inflation index p={p} outside 2..floor(d/2)={q}")
    f = field_for_order(d)
    e = f.n // (2 * d)  # zeta_{2d} = zeta_n^e
    acc = f.zero
    for k in range(p):
        acc = acc + f.zeta(e * (p - 1 - 2 * k))
    return acc
