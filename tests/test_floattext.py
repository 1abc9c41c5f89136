"""The float printing kernel against the expressions it replaces:
repr(round(x, p)) for patch shadows and svg._fmt for SVG coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltiling import floattext, svg

#: zero, subnormals, the extremes and the non-finite values
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           -1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
           float("inf"), float("-inf"), float("nan")]

PRECISIONS = [0, 3, 9, 12, 15]


def reprs(x, p):
    return [repr(round(v, p)).encode() for v in np.asarray(x).tolist()]


def fmts(x, p):
    return [svg._fmt(v, p).encode() for v in np.asarray(x).tolist()]


def check(x, p):
    x = np.asarray(x, dtype=np.float64)
    assert floattext.round_reprs(x, p) == reprs(x, p)
    assert floattext.fixed_texts(x, p) == fmts(x, p)


def near(x):
    """x and its neighbours one ulp below and above."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x,
                           np.nextafter(x, np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.floats(-1e5, 1e5) | st.floats(-1e-3, 1e-3),
                min_size=1, max_size=40),
       st.sampled_from(PRECISIONS))
def test_kernel_prints_as_round_repr_and_fmt(values, p):
    check(values, p)
    check(values + SPECIAL, p)


@pytest.mark.parametrize("p", PRECISIONS + [1, 13])
def test_range_boundaries(p):
    # the ends of the kernel's range: 1e-4 (repr) and |x| * 10**p = 2**52
    top = 2.0 ** 52 / 10 ** p
    edges = near([1e-4, top, 0.5 * top, 10.0 ** -p, 0.5 * 10.0 ** -p])
    check(np.concatenate([edges, -edges]), p)


def test_exact_ties_go_to_even():
    # x * 10**12 is an exact half for every odd multiple of 2**-13; one
    # ulp away the product's error decides
    x = np.arange(-50000, 50001) * 2.0 ** -13
    check(x, 12)
    check(near(x), 12)
    # k / 2 * 10**-p with k odd, rounded to a double: near-ties
    for p in (3, 9):
        y = (2 * np.arange(1, 20000) + 1) / 2 / 10.0 ** p
        check(near(y), p)


def test_both_sides_of_1e_4():
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(1e-2), 20000))
    for p in PRECISIONS:
        check(np.concatenate([x, -x]), p)


def test_every_magnitude():
    # random bit patterns: every exponent, subnormals, inf and nan
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    for p in PRECISIONS:
        check(x, p)


@pytest.mark.parametrize("p", [-2, 16, 17])
def test_precisions_outside_the_kernel(p):
    x = np.array([0.0, -1.5, 123.456, 1e-5, 2.5e20] + SPECIAL)
    assert floattext.round_reprs(x, p) == reprs(x, p)
    if p >= 0:
        assert floattext.fixed_texts(x, p) == fmts(x, p)


@pytest.mark.parametrize("v, text", [(10.0, "10"), (250.0, "250"),
                                     (-0.4, "0"), (-1.5, "-2")])
def test_whole_numbers_at_precision_0(v, text):
    # the zeros of a whole number are digits, not trailing decimals
    assert floattext.fixed(v, 0) == text
    assert floattext.fixed_texts(np.array([v]), 0) == [text.encode()]


def test_empty():
    assert floattext.round_reprs(np.zeros(0), 12) == []
    assert floattext.fixed_texts(np.zeros(0), 9) == []
