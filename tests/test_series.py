import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series import Series, sin_cos, sinh_cosh

np.random.seed(5)


def taylor_coeffs(f, x0, order, h=1e-2):
    # reference coefficients from numpy polynomial fit on a tight stencil
    s = np.linspace(-h, h, 2 * order + 5)
    c = np.polynomial.polynomial.polyfit(s, f(x0 + s), order)
    return c


def test_variable_and_constant():
    x = Series.variable(2.0, 4)
    assert x.order == 4
    assert x.c[0] == 2.0 and x.c[1] == 1.0 and x.c[2] == 0.0
    k = Series.constant(3.0, 4)
    assert k.c[0] == 3.0 and np.all(k.c[1:] == 0.0)


def test_polynomial_arithmetic():
    x = Series.variable(1.5, 7)
    p = x * x * x - 2.0 * x + 1.0
    # coefficients of (1.5+s)^3 - 2(1.5+s) + 1
    want = np.array([1.375, 4.75, 4.5, 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(p.c, want, atol=1e-14)


def test_division_roundtrip():
    rng = np.random.default_rng(0)
    a = Series(rng.standard_normal(8))
    b = Series(rng.standard_normal(8))
    b.c[0] = 2.0 + abs(b.c[0])
    q = a / b
    back = q * b
    assert np.max(np.abs(back.c - a.c)) < 1e-13


@pytest.mark.parametrize("x0", [0.0, 0.7, -2.3])
def test_sin_cos_coefficients(x0):
    x = Series.variable(x0, 10)
    s, c = sin_cos(1.3 * x)
    # exact Taylor coefficients of sin(1.3 x), cos(1.3 x)
    ks = np.arange(10)
    fact = np.array([math.factorial(int(k)) for k in ks], dtype=float)
    want_s = np.array([1.3**k * np.sin(1.3 * x0 + k * np.pi / 2) for k in ks]) / fact
    want_c = np.array([1.3**k * np.cos(1.3 * x0 + k * np.pi / 2) for k in ks]) / fact
    assert np.max(np.abs(s.c - want_s)) < 1e-13
    assert np.max(np.abs(c.c - want_c)) < 1e-13


def test_sinh_cosh_consistency():
    x = Series.variable(0.4, 9)
    sh, ch = sinh_cosh(0.9 * x)
    one = ch * ch - sh * sh
    want = np.zeros(9)
    want[0] = 1.0
    assert np.max(np.abs(one.c - want)) < 1e-13
    # derivative of sinh is cosh
    d = sh.deriv()
    assert np.max(np.abs(d.c - 0.9 * ch.c[:8])) < 1e-13


def test_derivatives_scaling():
    x = Series.variable(0.3, 6)
    _, c = sin_cos(x)
    d = c.derivatives(4)
    want = [np.cos(0.3), -np.sin(0.3), -np.cos(0.3), np.sin(0.3), np.cos(0.3)]
    assert np.max(np.abs(d - np.array(want))) < 1e-14


def test_vectorized_base_points():
    x0 = np.linspace(-1, 1, 7)
    x = Series.variable(x0, 5)
    s, c = sin_cos(x)
    q = s / c  # tan
    fd_h = 1e-6
    tan1 = (np.tan(x0 + fd_h) - np.tan(x0 - fd_h)) / (2 * fd_h)
    assert np.max(np.abs(q.derivatives(1)[1] - tan1)) < 1e-8


def test_complex_base_points():
    h = 1e-150
    x = Series.variable(np.array(0.6 + 1j * h), 3)
    _, ch = sinh_cosh(x)
    # imaginary part / h is d/dx cosh = sinh
    assert abs(ch.c[0].imag / h - np.sinh(0.6)) < 1e-14


# --------------------------------------------------------------------------
# properties on random jets

COEF = st.floats(-2.0, 2.0, allow_nan=False)
# fixed example sequence, so a tier-1 run never depends on the draw
PROPERTY = settings(deadline=None, derandomize=True)


@st.composite
def jets(draw, order, complex_=False, lead_min=0.0):
    """Random Series with `order` coefficients over 3 base points; the
    leading coefficient stays at least lead_min away from zero."""
    shape = (order, 3)
    re = np.array(draw(st.lists(COEF, min_size=order * 3, max_size=order * 3)))
    c = re.reshape(shape)
    if complex_:
        im = draw(st.lists(COEF, min_size=order * 3, max_size=order * 3))
        c = c + 1j * np.array(im).reshape(shape)
    if lead_min:
        lead = c[0]
        c[0] = np.where(np.abs(lead) < lead_min, lead + 2.0 * lead_min, lead)
    return Series(c)


@st.composite
def jet_pairs(draw):
    order = draw(st.integers(2, 6))
    complex_ = draw(st.booleans())
    return (draw(jets(order, complex_)),
            draw(jets(order, complex_, lead_min=0.5)))


@settings(PROPERTY, max_examples=60)
@given(jet_pairs())
def test_product_then_quotient_roundtrips(pair):
    a, b = pair
    q = (a * b) / b
    assert np.allclose(q.c, a.c, rtol=1e-9, atol=1e-9)


@settings(PROPERTY, max_examples=60)
@given(st.integers(2, 6).flatmap(
    lambda k: st.booleans().flatmap(lambda cx: jets(k, cx))))
def test_pythagorean_identities_coefficientwise(f):
    one = np.zeros_like(f.c)
    one[0] = 1.0
    s, c = sin_cos(f)
    sh, ch = sinh_cosh(f)
    # relative to the squares, which reach e^4 for complex arguments
    for first, second in ((s * s, c * c), (ch * ch, -(sh * sh))):
        scale = np.max(np.abs(first.c)) + np.max(np.abs(second.c))
        assert np.allclose((first + second).c, one, rtol=0.0,
                           atol=1e-13 * scale)


@settings(PROPERTY, max_examples=30)
@given(st.integers(2, 6), st.lists(COEF, min_size=3, max_size=3),
       st.booleans())
def test_derivative_of_variable_is_one(order, x0, complex_):
    x0 = np.array(x0) * (1.0 + 1j if complex_ else 1.0)
    d = Series.variable(x0, order).deriv()
    want = np.zeros((order - 1, 3))
    want[0] = 1.0
    assert np.array_equal(d.c, want)
