"""Exact cyclotomic arithmetic."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from deltiling.field import (MAX_ORDER, CycField, Elem, cyclotomic_poly,
                             field_for_order, inflation_factor, sin_val,
                             cos_val, unit_root)
from deltiling.substitution import Isometry, Patch, Tile, derive_rules


def test_cyclotomic_polynomials():
    assert tuple(cyclotomic_poly(1)) == (-1, 1)
    assert tuple(cyclotomic_poly(4)) == (1, 0, 1)
    assert tuple(cyclotomic_poly(12)) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for n in (8, 30, 84, 90):
        assert len(cyclotomic_poly(n)) - 1 == phi(n)


def test_field_conductor_choice():
    # even d embeds in conductor 6d, odd d needs 12d for the half-angle sines
    assert field_for_order(14).n == 84
    assert field_for_order(12).n == 72
    assert field_for_order(7).n == 84
    assert field_for_order(5).n == 60


def test_field_order_is_bounded():
    # fields go up to order 2 MAX_ORDER, which the catalog of a pattern of
    # order MAX_ORDER decorates with; beyond it, or below 5, they are refused
    for d in (4, 2 * MAX_ORDER + 1, 1_400_000):
        with pytest.raises(ValueError, match="need 5 <= d"):
            field_for_order(d)


def test_ring_axioms_random():
    import random
    rng = random.Random(7)
    f = field_for_order(14)
    def rand_elem():
        return f.from_coeffs([rng.randint(-4, 4) for _ in range(f.degree)],
                             rng.randint(1, 5))
    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a - a).is_zero()
        if not a.is_zero():
            assert (a * a.inv() - f.one).is_zero()


def test_conjugation_and_float_embedding():
    f = field_for_order(14)
    z = f.zeta(5)
    assert (z * z.conj() - f.one).is_zero()
    assert abs(z.cvalue() - complex(math.cos(2 * math.pi * 5 / 84),
                                    math.sin(2 * math.pi * 5 / 84))) < 1e-12
    w = f.zeta(3) * 2 + f.rational(1, 3)
    assert abs(w.conj().cvalue() - w.cvalue().conjugate()) < 1e-12


def test_trig_values():
    for d in (7, 12, 14, 15):
        for nu in range(1, d):
            assert abs(sin_val(d, nu).cvalue().real - math.sin(nu * math.pi / d)) < 1e-12
            assert abs(cos_val(d, nu).cvalue().real - math.cos(nu * math.pi / d)) < 1e-12
        assert sin_val(d, 1).is_real()
        # reflection symmetry s_m = s_{d-m}
        for nu in range(1, d):
            assert sin_val(d, nu) == sin_val(d, d - nu)


def test_real_sign_and_comparisons():
    f = field_for_order(14)
    s1 = sin_val(14, 1)
    s2 = sin_val(14, 2)
    assert s1 < s2
    assert s2 > s1
    assert (s1 - s1).real_sign() == 0
    assert s1 > 0 and s1 < 1
    assert f.rational(3, 2) == f.rational(6, 4)


def test_real_sign_of_tiny_values_with_large_coefficients():
    # phi^n - L_n = -psi^n (L_n the Lucas numbers) has sign (-1)^(n+1); its
    # float value is wrong beyond 1e-9 for many n, since the coefficients
    # of phi^n grow like phi^n
    phi = inflation_factor(5, 2)
    power, lucas = phi.f.one, [2, 1]
    wrong = 0
    for n in range(1, 101):
        power = power * phi
        lucas.append(lucas[-1] + lucas[-2])
        x = power - lucas[n]
        assert x.real_sign() == (-1) ** (n + 1), n
        v = x.cvalue().real
        wrong += abs(v) > 1e-9 and (v > 0) != (n % 2 == 1)
    assert wrong > 20


def test_cvalue_error_bounds_the_float_value():
    rng = random.Random(3)
    for n in (60, 84, 156):
        f = CycField(n)
        for _ in range(20):
            x = f.from_coeffs([rng.randint(-10 ** 6, 10 ** 6)
                               for _ in range(f.degree)], rng.randint(1, 99))
            exact = x.mpc(60)
            assert abs(x.cvalue() - complex(exact)) <= x.cvalue_error()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
@pytest.mark.parametrize("den", [1, 6, 35])
def test_cvalues_equal_cvalue_bit_for_bit(dtype, den):
    # random rows of both signs, a zero row, single terms, and rows that a
    # common factor with den shortens; then the same rows with columns
    # that are 0 in every row, which cvalues leaves out, an all-zero
    # matrix, and the corner rows of a d = 14 patch (16 of 24 columns 0)
    rng = np.random.default_rng(den)

    def assert_bits_match(f, rows, den):
        got = f.cvalues(rows, den)
        want = np.array([f.from_coeffs(row, den).cvalue()
                         for row in rows.tolist()], dtype=complex)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return got

    for n in (84, 108):
        f = CycField(n)
        top = min(np.iinfo(dtype).max, 10 ** 9)
        rows = rng.integers(-top, top, (40, f.degree), endpoint=True)
        rows[rng.random(rows.shape) < 0.4] = 0
        rows[0] = 0
        rows[1:5] = np.eye(f.degree, dtype=np.int64)[[0, 1, 7, 13]] * -top
        rows[5:8] = rows[5:8] // 35 * 35
        rows = rows.astype(dtype)
        got = assert_bits_match(f, rows, den)
        # a leading shape is kept
        assert np.array_equal(f.cvalues(rows.reshape(4, 10, -1), den),
                              got.reshape(4, 10))
        sparse = rows.copy()
        sparse[:, rng.random(f.degree) < 0.6] = 0
        sparse[:, [1, 7]] = 0
        assert_bits_match(f, sparse, den)
        assert_bits_match(f, sparse[:1], den)
        zeros = assert_bits_match(f, np.zeros((5, f.degree), dtype), den)
        assert not np.signbit(zeros.view(float)).any()
        # the pre-filter's basis floats are the values of the unit rows
        unit = f.cvalues(np.eye(f.degree, dtype=dtype))
        assert np.array_equal(f.basis.view(np.int64), unit.view(np.int64))
    patch = Patch(14, [Tile("G", Isometry(0, field_for_order(14).zero))])
    for _ in range(3):
        patch = patch.inflate(derive_rules(14, 3, 1))
    C, L = patch.corner_rows()
    C = C.reshape(-1, C.shape[-1])
    assert np.count_nonzero(C.any(axis=0)) == 8
    assert_bits_match(field_for_order(14), C, L * den)


def test_mpmath_loads_only_on_escalation():
    code = ("import sys, deltiling; "
            "from deltiling.analysis import pisot_table; "
            "deltiling.derive_rules(14, 3, 1); pisot_table(14); "
            "print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_inflation_factor_identity():
    # s_p / s_1 where s_m = sin(m pi / d)
    for d, p in [(14, 3), (14, 5), (12, 5), (7, 2), (9, 4)]:
        v = inflation_factor(d, p).cvalue().real
        assert abs(v - math.sin(p * math.pi / d) / math.sin(math.pi / d)) < 1e-12
    with pytest.raises(ValueError):
        inflation_factor(14, 8)
    with pytest.raises(ValueError):
        inflation_factor(14, 1)


def test_inflation_factor_chebyshev_sum_is_exact_quotient():
    # the division-free sum equals s_p / s_1 with the same canonical key
    pairs = [(d, p) for d in range(5, 19) for p in range(2, d // 2 + 1)]
    assert len(pairs) == 63
    for d in range(5, 19):
        inv_s1 = sin_val(d, 1).inv()
        for p in range(2, d // 2 + 1):
            iota = inflation_factor(d, p)
            quotient = inv_s1 * sin_val(d, p)
            assert iota == quotient
            assert iota.key() == quotient.key()


def test_triple_angle_identity_exact():
    # sin(3x) = 3 sin x - 4 sin^3 x, exactly, at x = m*pi/d
    for d in (7, 14, 15):
        for m in range(1, d):
            if (3 * m) % d == 0:
                continue
            sm = sin_val(d, m)
            sgn = 1 if math.sin(3 * m * math.pi / d) > 0 else -1
            lhs = sin_val(d, (3 * m) % d) * sgn
            assert lhs == sm * 3 - sm * sm * sm * 4


def test_hashing_and_keys():
    f = field_for_order(14)
    a = f.zeta(3) + f.rational(1, 2)
    b = f.rational(1, 2) + f.zeta(3)
    assert hash(a) == hash(b)
    assert a.key() == b.key()
    assert len({a, b}) == 1


def test_unit_root():
    for d, k in [(14, 5), (7, 3), (9, 10)]:
        assert abs(unit_root(d, k).cvalue() -
                   complex(math.cos(k * math.pi / (3 * d)),
                           math.sin(k * math.pi / (3 * d)))) < 1e-12


@pytest.mark.parametrize("d", [14, 13])
def test_mul_matrix_is_multiplication(d):
    # the row of x * e is (row of x) @ M / den, and M holds the first D
    # rotation matrices weighted by the coefficients of e (row i of the
    # matrix of w -> zeta^j w is the row of zeta^(j + i))
    f = field_for_order(d)
    rng = random.Random(d)

    def elem():
        return f.from_coeffs([rng.choice((0, 0, rng.randint(-5, 5)))
                              for _ in range(f.degree)], rng.randint(1, 3))

    for e in (inflation_factor(d, 3) * inflation_factor(d, 3), elem()):
        M, den = f.mul_matrix(e)
        assert (M == sum(c * np.array([f.zeta(j + i).num
                                       for i in range(f.degree)])
                         for j, c in enumerate(e.num))).all()
        for _ in range(3):
            x = elem()
            row = np.array(x.num, dtype=np.int64) @ M
            assert f.from_coeffs(row.tolist(), x.den * den) == x * e


@pytest.mark.parametrize("d", [13, 14, 23])
def test_mul_zeta_and_conj_agree_with_products(d):
    # mul_zeta, conj and products share one reduction: zeta^k x against
    # the product with zeta^k for every k (the top coefficient is nonzero,
    # so j + k >= D for every k > 0), conj against sigma_{-1} of
    # conjugate_rows, and conjugation against products
    f = field_for_order(d)
    rng = random.Random(d)

    def elem():
        nums = [rng.randint(-9, 9) for _ in range(f.degree)]
        nums[-1] = rng.choice((-7, 5))
        return f.from_coeffs(nums, rng.choice((2, 3, 10)))

    x, y = elem(), elem()
    assert x.den != 1 and min(x.num) < 0
    for k in range(f.n):
        assert x.mul_zeta(k) == x * f.zeta(k), k
    assert x.conj() == f.from_coeffs(f.conjugate_rows(x)[-1].tolist(), x.den)
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


def test_field_edge_cases():
    with pytest.raises(ValueError, match="divisible by 4"):
        CycField(30)
    f = field_for_order(14)
    assert repr(f) == "CycField(84)"
    with pytest.raises(ValueError, match="length mismatch"):
        f.from_coeffs([1, 2])
    x = Elem(f, [-2] + [0] * (f.degree - 1), -4).normalized()
    assert (x.num[0], x.den) == (1, 2) and x == Fraction(1, 2)
    assert x.__mul__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()
    # conjugates beyond the int64 range are summed as Python ints
    big = f.from_coeffs([10 ** 18, -1] + [0] * (f.degree - 2))
    assert big * big.inv() == 1
    assert x / Fraction(1, 4) == 2
    assert not f.zero and f.one
    assert f.one != "1" and f.one != CycField(60).one
    with pytest.raises(TypeError, match="cannot combine"):
        x + 1.5
    assert repr(x) == "<Elem n=84 ~ 0.5+0j>"
    with pytest.raises(ValueError, match="need d >= 5"):
        sin_val(4, 1)
