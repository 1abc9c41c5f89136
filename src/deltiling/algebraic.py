"""Algebraic-number diagnostics: minimal polynomials and the Pisot test.

Every element x of a cyclotomic field Q(zeta_n) has its Galois
conjugates at hand: they are the images sigma_k(x), zeta -> zeta^k, for
the units k mod n.  The distinct images form the orbit of x, its minimal
polynomial is the product of (X - sigma) over the orbit, and the Pisot
verdict is one exact sign per conjugate.  No polynomial root finding is
involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import ESCALATION_DPS, Elem


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
    so it is the product of (X - sigma) over the Galois orbit, expanded in
    the field.  Every coefficient is fixed by all sigma_k, hence rational.
    """
    return _orbit_polynomial(galois_orbit(x))


def _orbit_polynomial(orbit):
    """The primitive integer form of the product of (X - s) over orbit."""
    f = orbit[0].f
    poly = [f.one]  # ascending coefficients
    for s in orbit:
        poly = ([-s * poly[0]]
                + [a - s * b for a, b in zip(poly, poly[1:])] + [f.one])
    coeffs = []
    for c in poly:
        assert not any(c.num[1:]), "irrational coefficient"
        coeffs.append(Fraction(c.num[0], c.den))
    den = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial([int(c * den) for c in coeffs]).primitive()


@dataclass
class PisotResult:
    is_pisot: bool
    reason: str
    polynomial: IntPolynomial
    conjugates: list  # (value, modulus, error bound), x first; see pisot_check
    margin: float  # min over conjugates of 1 - |z| - bound (excluding x)


def pisot_check(x: Elem, width=1e-7) -> PisotResult:
    """Classify x as Pisot or not; every verdict is an exact sign.

    A real x of a cyclotomic field generates an abelian, hence normal,
    real subfield Q(x), so every conjugate sigma(x) lies in Q(x) and is
    real.  None equals 1 or -1 unless x does, since sigma(x) = +-1 gives
    x = sigma^-1(+-1) = +-1.  For x > 1 each conjugate is therefore inside
    the unit circle exactly when 1 - sigma^2 > 0, a sign that is never
    zero: a conjugate on the unit circle (the Salem boundary case) cannot
    occur.  The values in `conjugates` are within their error bounds
    (`Elem.cvalue_error`), each at most width: they are floats, except
    where the float bound exceeds width; there mpmath evaluates at the
    precisions of `Elem.real_sign` until the bound is below width
    (ArithmeticError if 800 digits do not suffice).
    """
    orbit = galois_orbit(x)
    poly = _orbit_polynomial(orbit)
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
    outside = [mod for s, (_, mod, _) in zip(orbit[1:], conjugates[1:])
               if (1 - s * s).real_sign() < 0]
    if outside:
        reason = f"conjugate with modulus {float(max(outside)):.6f} > 1"
        return PisotResult(False, reason, poly, conjugates, 0.0)
    margin = min((1 - m - r for _, m, r in conjugates[1:]), default=0.0)
    return PisotResult(True, "all conjugates inside the unit circle", poly,
                       conjugates, margin)


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
