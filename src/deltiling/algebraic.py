"""Algebraic-number diagnostics: minimal polynomials and the Pisot test.

Every element x of a cyclotomic field Q(zeta_n) has its Galois
conjugates at hand: they are the images sigma_k(x), zeta -> zeta^k, for
the units k mod n.  The distinct images form the orbit of x, and its
minimal polynomial has the orbit for its roots; it is built from the
power sums of the orbit, which are traces of powers of x (Newton's
identities).  The Pisot verdict is one certified sign per conjugate.  No
polynomial root finding is involved.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .field import ESCALATION_DPS, INT64_SAFE, Elem, exact_product, max_abs


class IntPolynomial:
    """Integer polynomial, ascending coefficients, nonzero leading coefficient."""

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs[-1] == 0:
            raise ValueError("zero polynomial")
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def content(self):
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self):
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    def is_monic(self):
        return self.coeffs[-1] == 1

    def eval_elem(self, x: Elem):
        acc = x.f.zero
        for c in reversed(self.coeffs):
            acc = acc * x + x.f.rational(c)
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            ac = abs(c)
            body = mono if (ac == 1 and i > 0) else (f"{ac}{mono}" if i > 0 else f"{ac}")
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def galois_orbit(x: Elem):
    """The distinct conjugates sigma_k(x), k a unit mod n; x comes first."""
    f = x.f
    return [Elem(f, row, x.den).normalized()
            for row in dict.fromkeys(map(tuple, f.conjugate_rows(x).tolist()))]


def minimal_polynomial(x: Elem) -> IntPolynomial:
    """Primitive integer minimal polynomial of a field element.

    The roots of the minimal polynomial are the distinct conjugates of x,
    so it is the product of (X - sigma) over the Galois orbit
    (`_trace_polynomial`).
    """
    return _trace_polynomial(x, len(galois_orbit(x)))


def _trace_polynomial(x, m):
    """The primitive integer form of the product of (X - s) over the m
    distinct conjugates s of x, by Newton's identities.

    Let y = den * x, whose row is the numerators of x: an algebraic
    integer.  The D embeddings of the field send y to each of its m
    conjugates D / m times, so the power sums of its orbit are
    q_j = (m / D) Tr(y^j), and the elementary symmetric functions E_k of
    the orbit follow from k E_k = sum_(i = 1..k) (-1)^(i-1) E_(k-i) q_i
    (Cohen, A Course in Computational Algebraic Number Theory, GTM 138).
    Both are rational algebraic integers, hence integers, and every
    division is exact.  The product over the orbit of x is den^-m times
    sum_k (-1)^k E_k den^(m-k) X^(m-k).  The row of y^j is
    row_(j-1) @ M, M the numerators of the matrix of multiplication by x,
    each step an `exact_product`, in Python ints once its bound passes
    the int64 range.
    """
    f = x.f
    M, den = f.mul_matrix(x)
    top = max_abs(M)
    row = np.array(f.one.num, dtype=M.dtype)
    q, E = [], [1]
    for k in range(1, m + 1):
        bound = sum(map(abs, row.tolist())) * top
        row = exact_product(row, M, bound,
                            object if bound >= INT64_SAFE else np.int64)
        q.append(_divexact(
            m * sum(map(operator.mul, row.tolist(), f.traces)), f.degree))
        E.append(_divexact(sum((-1) ** (i - 1) * E[k - i] * q[i - 1]
                               for i in range(1, k + 1)), k))
    return IntPolynomial([(-1) ** (m - i) * E[m - i] * den ** i
                          for i in range(m + 1)]).primitive()


def _divexact(a, b):
    q, r = divmod(a, b)
    assert not r, "non-integral power sum"
    return q


@dataclass
class PisotResult:
    is_pisot: bool
    reason: str
    polynomial: IntPolynomial
    conjugates: list  # (value, modulus, error bound), x first; see pisot_check
    margin: float  # min over conjugates of 1 - |z| - bound (excluding x)


def pisot_check(x: Elem, width=1e-7) -> PisotResult:
    """Classify x as Pisot or not; every verdict is certified.

    A real x of a cyclotomic field generates an abelian, hence normal,
    real subfield Q(x), so every conjugate sigma(x) lies in Q(x) and is
    real.  None equals 1 or -1 unless x does, since sigma(x) = +-1 gives
    x = sigma^-1(+-1) = +-1.  For x > 1 each conjugate is therefore inside
    the unit circle exactly when 1 - sigma^2 > 0, a sign that is never
    zero: a conjugate on the unit circle (the Salem boundary case) cannot
    occur.  The side is read from the conjugate's certified value where
    its error bound excludes modulus 1, else from that exact sign
    (`_outside_unit_circle`).  The values in `conjugates` are within their
    error bounds (`Elem.cvalue_error`), each at most width: they are
    floats, except where the float bound exceeds width; there mpmath
    evaluates at the precisions of `Elem.real_sign` until the bound is
    below width (ArithmeticError if 800 digits do not suffice).
    """
    orbit = galois_orbit(x)
    poly = _trace_polynomial(x, len(orbit))
    if not x.is_real():
        return PisotResult(False, "not a real number", poly, [], 0.0)
    if not (x > 1):
        return PisotResult(False, "not greater than one", poly, [], 0.0)
    if not poly.is_monic():
        return PisotResult(False, "not an algebraic integer", poly, [], 0.0)
    conjugates = []
    for s in orbit:
        value, rad = s.cvalue().real, s.cvalue_error()
        if rad > width:
            value, rad = _precise_value(s, width)
        conjugates.append((value, abs(value), rad))
    outside = [mod for s, (_, mod, rad) in zip(orbit[1:], conjugates[1:])
               if _outside_unit_circle(s, mod, rad)]
    if outside:
        reason = f"conjugate with modulus {float(max(outside)):.6f} > 1"
        return PisotResult(False, reason, poly, conjugates, 0.0)
    margin = min((1 - m - r for _, m, r in conjugates[1:]), default=0.0)
    return PisotResult(True, "all conjugates inside the unit circle", poly,
                       conjugates, margin)


def _outside_unit_circle(s, mod, rad):
    """|s| > 1 for a real conjugate s with |s| within rad of mod.

    The enclosure decides when |mod - 1| > rad; otherwise the exact sign
    of 1 - s^2, never zero (`pisot_check`), does.
    """
    if abs(mod - 1) > rad:
        return mod > 1
    return (1 - s * s).real_sign() < 0


def _precise_value(x: Elem, width):
    """(mpmath real value, error bound <= width) of a real element x, at the
    first precision of `Elem.real_sign` whose `cvalue_error` meets width."""
    from mpmath.libmp import dps_to_prec

    for dps in ESCALATION_DPS:
        bound = x.cvalue_error(dps_to_prec(dps))
        if bound <= width:
            return x.mpc(dps).real, bound
    raise ArithmeticError(f"width {width} needs more than 800 digits")


def is_pisot(x: Elem) -> bool:
    return pisot_check(x).is_pisot
