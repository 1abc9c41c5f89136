"""Minimal polynomials and Pisot classification."""

import math
from fractions import Fraction

import mpmath
import pytest

from deltiling.field import field_for_order, inflation_factor, sin_val
from deltiling.algebraic import (IntPolynomial, minimal_polynomial, is_pisot,
                                 pisot_check)


def test_minimal_polynomial_golden_ratio():
    # 2 cos(pi/5) = golden ratio
    f = field_for_order(5)
    phi = f.cos_turn(1, 10) * 2
    assert minimal_polynomial(phi).coeffs == (-1, -1, 1)


def test_minimal_polynomial_rationals_and_roots():
    f = field_for_order(14)
    assert minimal_polynomial(f.rational(7, 3)).coeffs == (-7, 3)
    assert minimal_polynomial(f.zeta(f.n // 4)).coeffs == (1, 0, 1)  # i
    # sqrt of rational: (2 cos(pi/6))^2 = 3
    r3 = f.cos_turn(1, 12) * 2
    assert minimal_polynomial(r3).coeffs == (-3, 0, 1)


def test_minimal_polynomial_divides_power_relation():
    x = inflation_factor(14, 3)
    p = minimal_polynomial(x)
    assert p.eval_elem(x).is_zero()
    assert p.is_monic()


def test_degree_three_inflation_factor():
    p = minimal_polynomial(inflation_factor(14, 3))
    assert p.coeffs == (1, 3, -4, 1)  # x^3 - 4x^2 + 3x + 1
    q = minimal_polynomial(inflation_factor(14, 5))
    assert q.degree == 3


def test_pisot_classification_order_14():
    i3 = inflation_factor(14, 3)
    i5 = inflation_factor(14, 5)
    assert not is_pisot(i3)
    assert is_pisot(i5)
    assert is_pisot(i3 * i5)


def test_pisot_rejects_non_candidates():
    f = field_for_order(14)
    r = pisot_check(f.rational(1, 2))
    assert not r.is_pisot and "greater than one" in r.reason
    r = pisot_check(f.zeta(5))
    assert not r.is_pisot and "real" in r.reason
    r = pisot_check(f.rational(5, 2))
    assert not r.is_pisot and r.reason == "not an algebraic integer"


def test_pisot_margin_certified():
    res = pisot_check(inflation_factor(14, 5))
    assert res.is_pisot
    assert res.margin > 0
    # conjugate moduli straddle nothing: all inclusion radii tiny
    assert all(rad < 1e-7 for _, _, rad in res.conjugates)


def test_golden_inflation_is_pisot():
    # d = 5: s_2/s_1 is the golden ratio
    x = inflation_factor(5, 2)
    assert minimal_polynomial(x).coeffs == (-1, -1, 1)
    assert is_pisot(x)


def test_polynomial_repr():
    assert repr(IntPolynomial([-1, -1, 1])) == "x^2 - x - 1"
    assert repr(IntPolynomial([1, 3, -4, 1])) == "x^3 - 4x^2 + 3x + 1"


def test_polynomial_normal_form():
    # trailing zeros are dropped and zero terms are not printed; the
    # primitive form divides out the content and makes the leading
    # coefficient positive, and equal polynomials hash alike
    p = IntPolynomial([4, 0, -6, 0, 0])
    assert p.degree == 2 and repr(p) == "-6x^2 + 4"
    assert p.content() == 2
    q = p.primitive()
    assert q == IntPolynomial([-2, 0, 3]) and q != p
    assert hash(q) == hash(IntPolynomial([-2, 0, 3]))
    with pytest.raises(ValueError, match="zero polynomial"):
        IntPolynomial([0, 0])


# -- the echelon and root-isolation classification, as a reference -------

def reference_minimal_polynomial(x):
    """Minimal polynomial by Fraction echelon reduction of 1, x, x^2, ..."""
    f = x.f
    D = f.degree
    echelon = []  # (pivot index, residual vector, combo over powers)
    power = f.one
    for k in range(D + 1):
        vec = [Fraction(c, power.den) for c in power.num]
        combo = [Fraction(0)] * (k + 1)
        combo[k] = Fraction(1)
        for piv, evec, ecombo in echelon:
            c = vec[piv]
            if c:
                for j in range(D):
                    vec[j] -= c * evec[j]
                for j, cc in enumerate(ecombo):
                    combo[j] -= c * cc
        piv = next((j for j, c in enumerate(vec) if c), None)
        if piv is None:
            den = math.lcm(*(c.denominator for c in combo))
            return IntPolynomial([int(c * den) for c in combo]).primitive()
        inv = 1 / vec[piv]
        echelon.append((piv, [c * inv for c in vec], [c * inv for c in combo]))
        power = power * x
    raise AssertionError("no dependence found within field degree")


def reference_roots(poly, width=1e-7):
    """Roots with inclusion radii n|p(z)/p'(z)|, pairwise disjoint discs."""
    coeffs = poly.coeffs
    deriv = [i * c for i, c in enumerate(coeffs)][1:]

    def horner(cs, z):
        acc = 0
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    for dps in (40, 80, 160, 320, 640):
        with mpmath.workdps(dps):
            roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200,
                                     extraprec=dps * 2)
            data = [(z, float(abs(z)),
                     float(poly.degree * abs(horner(coeffs, z))
                           / abs(horner(deriv, z)))) for z in roots]
        if all(r <= width for _, _, r in data) and all(
                abs(a[0] - b[0]) > a[2] + b[2]
                for i, a in enumerate(data) for b in data[i + 1:]):
            return data
    raise ArithmeticError("could not certify polynomial roots")


def reference_pisot(x):
    """(is_pisot, polynomial, margin, sorted moduli of the conjugates)."""
    poly = reference_minimal_polynomial(x)
    roots = reference_roots(poly)
    xv = x.cvalue().real
    self_idx = min(range(len(roots)), key=lambda i: abs(roots[i][0] - xv))
    others = [(mod, rad) for i, (_, mod, rad) in enumerate(roots)
              if i != self_idx]
    assert all(abs(mod - 1) > rad for mod, rad in others)
    pisot = all(mod + rad < 1 for mod, rad in others)
    margin = min((1 - mod - rad for mod, rad in others), default=0.0)
    moduli = sorted(m for _, m, _ in roots)
    return pisot, poly, margin if pisot else 0.0, moduli


@pytest.mark.parametrize("d", range(5, 21))
def test_pisot_check_equals_root_isolation(d):
    for p in range(2, d // 2 + 1):
        x = inflation_factor(d, p)
        res = pisot_check(x)
        pisot, poly, margin, moduli = reference_pisot(x)
        assert res.is_pisot == pisot, (d, p)
        assert res.polynomial == poly and res.polynomial.degree == poly.degree
        assert abs(res.margin - margin) < 1e-12
        assert len(res.conjugates) == poly.degree
        got = sorted(mod for _, mod, _ in res.conjugates)
        assert max(abs(a - b) for a, b in zip(got, moduli)) < 1e-12
        assert res.conjugates[0][0] == x.cvalue().real


def test_minimal_polynomial_equals_echelon():
    f = field_for_order(14)
    i3, i5 = inflation_factor(14, 3), inflation_factor(14, 5)
    for x in (i3 * i5, i3 + f.i, sin_val(14, 3), f.zeta(7) + f.rational(2, 3),
              i5 * f.rational(5, 2)):
        assert minimal_polynomial(x) == reference_minimal_polynomial(x)


def test_minimal_polynomial_of_large_coefficients():
    # phi^n has the minimal polynomial X^2 - L_n X + (-1)^n (L_n the Lucas
    # numbers); at n = 100 its conjugate rows no longer fit int64, and the
    # float values of its conjugates are too coarse for the default width,
    # so they are evaluated at a higher precision
    phi = inflation_factor(5, 2)
    x, lucas = phi.f.one, [2, 1]
    for n in range(1, 101):
        x = x * phi
        lucas.append(lucas[-1] + lucas[-2])
    assert max(map(abs, x.num)) > 2 ** 62
    assert minimal_polynomial(x).coeffs == (1, -lucas[100], 1)
    res = pisot_check(x)
    assert res.is_pisot
    assert all(rad <= 1e-7 for _, _, rad in res.conjugates)
    assert abs(res.conjugates[0][0] - lucas[100]) < 1
    assert not pisot_check(x + 2).is_pisot


def test_pisot_conjugate_bounds_respect_width():
    res = pisot_check(inflation_factor(13, 5))
    assert all(0 < rad < 1e-12 for _, _, rad in res.conjugates)
    fine = pisot_check(inflation_factor(13, 5), width=1e-20)
    assert all(0 < rad <= 1e-20 for _, _, rad in fine.conjugates)
    assert fine.is_pisot == res.is_pisot and fine.reason == res.reason
    for (v, _, r), (w, _, q) in zip(res.conjugates, fine.conjugates):
        assert abs(v - w) <= r + q
