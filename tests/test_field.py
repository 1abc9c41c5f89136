"""Exact cyclotomic arithmetic."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from deltiling.field import (MAX_ORDER, PRODUCT_BLOCK, CycField, Elem,
                             cyclotomic_poly, exact_product, field_for_order,
                             inflation_factor, max_abs, sin_val, cos_val,
                             unit_root)
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


def python_product(x, M):
    """x @ M in Python ints, for rows x (..., K) and M (K, N)."""
    cols = list(zip(*M.tolist()))
    rows = [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in x.reshape(-1, M.shape[0]).tolist()]
    return np.array(rows, dtype=object).reshape(x.shape[:-1] + (M.shape[1],))


def l1_bound(x, M):
    """The largest sum_j |x_ij M_jk|, in Python ints."""
    return max(python_product(abs(x.astype(object)), abs(M.astype(object)))
               .ravel().tolist(), default=0)


def test_exact_product_takes_the_path_its_bound_allows():
    # x_i0 + x_i1 = 2^53 + 1, which float64 rounds to 2^53: a bound of
    # 2^53 selects the int64 path, which is exact, and 2^53 - 1 the float
    # path, which shows its rounding (the bound is false by design)
    x = np.array([[2 ** 53, 1], [2 ** 52, 2 ** 52 - 1]], dtype=np.int64)
    M = np.ones((2, 1), dtype=np.int64)
    got = exact_product(x, M, 2 ** 53)
    assert got.dtype == np.int64 and got.ravel().tolist() == [
        2 ** 53 + 1, 2 ** 53 - 1]
    got = exact_product(x, M, 2 ** 53 - 1)
    assert got.ravel().tolist() == [2 ** 53, 2 ** 53 - 1]
    # at its true bound 2^53 - 1 the float path is exact
    assert l1_bound(x[1:], M) == 2 ** 53 - 1
    assert exact_product(x[1:], M, 2 ** 53 - 1).tolist() == [[2 ** 53 - 1]]
    # past 2^62 only Python ints will do
    big = np.array([[2 ** 62, 2 ** 62]], dtype=object)
    assert exact_product(big, M, 2 ** 63, object).tolist() == [[2 ** 63]]
    with pytest.raises(OverflowError, match="exact product"):
        exact_product(x, M, 2 ** 62)


def test_exact_product_equals_python_int_products():
    rng = np.random.default_rng(34)
    D = 24
    M = rng.integers(-40, 41, (D, D))
    top = (2 ** 53 - 1) // (D * 40)
    wide = rng.integers(-top, top + 1, (2000, D))
    step = PRODUCT_BLOCK // (D * D)
    cases = [
        (wide, M, np.int64),  # more rows than four float blocks
        (wide[: 3 * step + 1], M, np.int64),  # one row into the last block
        (wide[::3, ::2], M[::2], np.int64),  # non-contiguous
        (wide[:D].T, M[:, :7], np.int64),  # transposed rows
        (rng.integers(-128, 128, (50, D)).astype(np.int8), M, np.int32),
        (rng.integers(-30, 31, (7, 3, D)).astype(np.int16), M, np.int16),
        (rng.integers(-9, 10, (2, 2, 3, D)), M, np.int64),  # batch shapes
        (np.zeros((0, D), dtype=np.int16), M, np.int16),  # no rows
        (np.zeros((4, 0, D), dtype=np.int64), M, np.int64),
    ]
    for x, A, dtype in cases:
        want = python_product(x, A)
        bound = l1_bound(x, A)
        got = exact_product(x, A, bound, dtype)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()
        # the int64 path and Python ints give the same rows
        for path_bound, path_dtype in ((2 ** 53, np.int64),
                                       (2 ** 70, object)):
            assert exact_product(x, A, path_bound, path_dtype).tolist() \
                == want.tolist()
    assert l1_bound(wide, M) < 2 ** 53
    assert len(wide) > 4 * step


@pytest.mark.parametrize("d", [14, 13])
def test_mul_matrix_holds_python_ints_past_int64(d):
    # every entry of M is at most sum |e_j| * power_bound: below 2^62 M
    # is int64, and from there on Python ints, where int64 sums (of 24
    # coefficients 2^61, say) would wrap
    f = field_for_order(d)
    D, pb = f.degree, f.power_bound
    c = (2 ** 62 - 1) // (D * pb)
    for coeff, dtype in ((c, np.int64), (c + 1, object),
                         (2 ** 61, object)):
        e = f.from_coeffs([coeff] * D)
        M, den = f.mul_matrix(e)
        assert M.dtype == dtype and den == 1
        want = sum(coeff * f.powers[j:j + D].astype(object)
                   for j in range(D))
        assert M.tolist() == want.tolist()
        x = f.from_coeffs([1, -2] + [0] * (D - 3) + [3])
        row = python_product(np.array(x.num, dtype=object), M)
        assert f.from_coeffs(row.tolist()) == x * e


@pytest.mark.parametrize("d", [5, 13, 14, 23])
def test_traces_are_sums_of_the_conjugates(d):
    f = field_for_order(d)
    for i in range(f.degree):
        rows = f.conjugate_rows(f.zeta(i))
        total = rows.sum(axis=0).tolist()
        assert total == [f.traces[i]] + [0] * (f.degree - 1)


def test_turn_raises_before_it_can_wrap():
    # the turn of rows of width w is bounded by w max|x| power_bound
    f = field_for_order(14)
    w, pb = f.degree, f.power_bound
    c = (2 ** 62 - 1) // (w * pb)
    x = np.zeros((2, 3, w), dtype=np.int64)
    x[0, 1, 4] = c
    got = f.turn(x, np.array([5, 70]))
    assert f.from_coeffs(got[0, 1].tolist()) == f.zeta(9) * c
    x[1, 2, 0] = -(c + 1)
    with pytest.raises(OverflowError, match="zeta turn"):
        f.turn(x, np.array([5, 70]))
    with pytest.raises(OverflowError, match="zeta turn"):
        f.turn(x, 3)


@pytest.mark.parametrize("d", [5, 13, 14, 23, 64])
def test_turns_equal_turn_at_every_k(d):
    # the stepped orbit against one product per k: rows shaped (N, D) and
    # (N, 3, D) with coefficients up to 2^40 into int64, up to the int16
    # bound D max|x| power_bound <= 32767, and rows of two nonzero
    # coefficients up to 63 / power_bound into int8
    f = field_for_order(d)
    D, pb = f.degree, f.power_bound
    rng = np.random.default_rng(d)
    sparse = np.zeros((6, 3, D), dtype=np.int64)
    for row in sparse.reshape(-1, D):
        row[rng.choice(D, 2, replace=False)] = rng.integers(
            -(63 // pb), 63 // pb + 1, 2)
    top = 32767 // (D * pb)
    cases = [(rng.integers(-2 ** 40, 2 ** 40, (5, D)), np.int64),
             (rng.integers(-2 ** 40, 2 ** 40, (4, 3, D)), np.int64),
             (rng.integers(-top, top + 1, (5, D)), np.int16),
             (rng.integers(-top, top + 1, (4, 3, D)), np.int16),
             (sparse[:, 0], np.int8), (sparse, np.int8)]
    for x, dtype in cases:
        every = f.turns(x, dtype)
        assert every.dtype == dtype
        assert every.shape == (len(x), f.n) + x.shape[1:]
        for k in range(f.n):
            want = f.turn(x, k)
            assert max_abs(want) <= np.iinfo(dtype).max
            assert np.array_equal(every[:, k], want), (dtype, k)


def test_turns_raise_before_the_step_can_wrap():
    # B = D max|x| power_bound times the step's factor 1 + power_bound
    # first reaches 2^62 at max|x| = c
    for d in (14, 35):
        f = field_for_order(d)
        pb = f.power_bound
        step = f.degree * pb * (1 + pb)
        c = -(-2 ** 62 // step)
        x = np.zeros((2, f.degree), dtype=np.int64)
        x[0, 0], x[1, -1] = c - 1, -(c - 1)
        every = f.turns(x, np.int64)
        assert all(np.array_equal(every[:, k], f.turn(x, k))
                   for k in range(f.n))
        x[1, -1] = -c
        with pytest.raises(OverflowError, match="zeta turns"):
            f.turns(x, np.int64)


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
