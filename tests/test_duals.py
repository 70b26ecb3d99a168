"""Dual-number arithmetic against hand results and the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import duals
from heisgeo.duals import Dual2


def poly(c):
    # x0^2 x1 + 3 x1 - x0/x1-ish mix, smooth away from x1=0
    return c[0] * c[0] * c[1] + 3.0 * c[1] + c[0] / (c[1] + 2.0)


def trig(c):
    return duals.sqrt(1.0 + c[0] * c[0]) * duals.arccos(c[1] * 0.5) + duals.arcsin(
        c[0] * 0.3
    )


def test_polynomial_gradient_hessian_exact():
    x = np.array([1.3, -0.7])
    f, g, h = duals.gradient_hessian(poly, x)
    assert f == pytest.approx(poly(x), abs=0)
    # hand derivatives
    x0, x1 = x
    assert g[0] == pytest.approx(2 * x0 * x1 + 1.0 / (x1 + 2.0), rel=1e-15)
    assert g[1] == pytest.approx(x0 * x0 + 3.0 - x0 / (x1 + 2.0) ** 2, rel=1e-15)
    assert h[0, 0] == pytest.approx(2 * x1, rel=1e-15)
    assert h[0, 1] == pytest.approx(2 * x0 - 1.0 / (x1 + 2.0) ** 2, rel=1e-15)
    assert h[1, 1] == pytest.approx(2 * x0 / (x1 + 2.0) ** 3, rel=1e-15)
    assert np.allclose(h, h.T, atol=0)


@pytest.mark.parametrize("func", [poly, trig])
def test_matches_finite_difference_oracle(func):
    x = np.array([0.4, 0.9])
    f1, g1, h1 = duals.gradient_hessian(func, x)
    f2, g2, h2 = duals.fd_gradient_hessian(func, x)
    assert f1 == pytest.approx(f2, abs=0)
    assert np.max(np.abs(g1 - g2)) < 1e-9
    assert np.max(np.abs(h1 - h2)) < 1e-6


@given(
    st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)
)
@settings(max_examples=200, deadline=None)
def test_product_rule(a, b, ga, gb):
    u = Dual2(a, np.array([ga]), np.zeros((1, 1)))
    v = Dual2(b, np.array([gb]), np.zeros((1, 1)))
    w = u * v
    assert w.f == pytest.approx(a * b, rel=1e-14, abs=1e-14)
    assert w.g[0] == pytest.approx(a * gb + b * ga, rel=1e-13, abs=1e-13)
    assert w.h[0, 0] == pytest.approx(2 * ga * gb, rel=1e-13, abs=1e-13)


def test_chain_rule_sqrt():
    x = duals.seed(np.array([2.0]))[0]
    y = duals.sqrt(x)
    assert y.f == pytest.approx(math.sqrt(2))
    assert y.g[0] == pytest.approx(0.5 / math.sqrt(2), rel=1e-15)
    assert y.h[0, 0] == pytest.approx(-0.25 * 2 ** -1.5, rel=1e-14)


def test_division_and_pow():
    x = duals.seed(np.array([1.5]))[0]
    y = (1.0 / x) - x ** -1
    assert y.f == 0 and abs(y.g[0]) < 1e-16 and abs(y.h[0, 0]) < 1e-16
    z = x**3
    assert z.g[0] == pytest.approx(3 * 1.5**2, rel=1e-15)
    assert z.h[0, 0] == pytest.approx(6 * 1.5, rel=1e-15)


def test_constant_function_returns_zero_derivatives():
    f, g, h = duals.gradient_hessian(lambda c: 7.0, np.zeros(3))
    assert f == 7.0
    assert not g.any() and not h.any()


# ---------------------------------------------------------------------------
# stacks


def _rows(func, stack):
    return [duals.gradient_hessian(func, row) for row in stack]


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("func", [poly, trig])
def test_stack_matches_its_rows_and_the_oracle(func):
    """A stack's values, gradients and Hessians are bitwise each row's as a
    point, and agree with the finite-difference oracle within the one-point
    tolerances."""
    stack = np.random.default_rng(5).uniform(-0.9, 0.9, size=(6, 2))
    u, g, h = duals.gradient_hessian(func, stack)
    assert u.shape == (6,) and g.shape == (6, 2) and h.shape == (6, 2, 2)
    for i, row in enumerate(stack):
        assert _same((u[i], g[i], h[i]), duals.gradient_hessian(func, row))
        f2, g2, h2 = duals.fd_gradient_hessian(func, row)
        assert u[i] == pytest.approx(f2, abs=0)
        assert np.max(np.abs(g[i] - g2)) < 1e-9
        assert np.max(np.abs(h[i] - h2)) < 1e-6


def test_a_point_is_a_stack_of_one():
    """Seeds act on the trailing axis and carry no Hessian; a product or a
    chain rule creates one.  A stack of one row gives the point's bits."""
    stack = np.array([[1.3, -0.7], [0.2, 0.4], [-1.1, 0.9]])
    x, y = duals.seed(stack)
    assert x.f.shape == (3,) and x.g.shape == (3, 2) and x.h is None
    assert (2.0 * x + y - 1.0).h is None
    assert (x * y).h.shape == (3, 2, 2) and duals.sqrt(y * y + 1.0).h.shape == (3, 2, 2)
    point = duals.seed(stack[0])
    assert point[0].f.shape == () and point[0].g.shape == (2,)
    one = duals.gradient_hessian(trig, stack[:1])
    assert _same([a[0] for a in one], duals.gradient_hessian(trig, stack[0]))
    u, g, h = duals.gradient_hessian(lambda c: 7.0, stack)  # a constant
    assert u.tolist() == [7.0] * 3 and not g.any() and not h.any()


def _branchy(c):
    """Different expressions on either side of x0 = 0, with a nested branch
    on the right."""
    if c[0] < 0.0:
        return c[0] * c[0] * c[1]
    if c[1] >= 0.5:
        return duals.exp(c[1]) * c[0]
    return duals.log(c[0] + 2.0) - c[1] ** 3


def test_each_row_takes_its_own_branch():
    """A comparison whose rows disagree splits the stack: every row gets the
    branch, and so the bits, it gets alone, and the right derivatives."""
    stack = np.array([[-0.5, 0.3], [0.4, 0.9], [0.7, 0.1], [-1.2, 0.8], [0.3, 0.6]])
    u, g, h = duals.gradient_hessian(_branchy, stack)
    for i, row in enumerate(stack):
        assert _same((u[i], g[i], h[i]), duals.gradient_hessian(_branchy, row)), i
    x, y = stack[0]
    assert g[0] == pytest.approx([2 * x * y, x * x], rel=1e-15)
    x, y = stack[1]
    assert h[1] == pytest.approx(np.array([[0.0, math.exp(y)], [math.exp(y), x * math.exp(y)]]),
                                 rel=1e-15)
    x, y = stack[2]
    assert g[2] == pytest.approx([1 / (x + 2), -3 * y * y], rel=1e-15)
