"""Group structure, frame fields, contact form and the flat connection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import core
from heisgeo.core import (
    HorizontalVector,
    Point,
    TangentVector,
    apply_J,
    covariant_derivative,
    dtheta,
    frame_vector,
    group_mul,
    identity,
    inverse,
    levi,
    theta,
)

coords5 = st.lists(
    st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=5, max_size=5
)


def P(*vals):
    return Point(np.array(vals, dtype=float))


def test_identity_element():
    q = P(0.3, -1.2, 0.5, 2.0, -0.7)
    assert np.allclose(group_mul(identity(2), q).coords, q.coords, atol=0)
    assert np.allclose(group_mul(q, identity(2)).coords, q.coords, atol=0)


def test_group_mul_hand_expanded():
    # t picks up y.x~ - x.y~ = (0*0 - 1*1) = -1
    p = P(1, 0, 0, 0, 0)
    q = P(0, 0, 1, 0, 0)
    assert np.allclose(group_mul(p, q).coords, [1, 0, 1, 0, -1], atol=0)


def test_inverse():
    p = P(0.4, 1.1, -0.2, 0.9, 2.2)
    assert np.allclose(group_mul(p, inverse(p)).coords, 0.0, atol=0)
    assert np.allclose(group_mul(inverse(p), p).coords, 0.0, atol=0)


@given(coords5, coords5, coords5)
@settings(max_examples=200, deadline=None)
def test_associativity(a, b, c):
    pa, pb, pc = P(*a), P(*b), P(*c)
    left = group_mul(group_mul(pa, pb), pc).coords
    right = group_mul(pa, group_mul(pb, pc)).coords
    assert np.max(np.abs(left - right)) <= 1e-12


def test_frame_vector_components():
    p = P(2.0, 0.0, 0.5, -1.0, 0.3)
    w = frame_vector(1, identity(2))
    assert np.allclose(w, [1, 0, 0, 0, 0], atol=0)  # at the origin: plain x_1
    w = frame_vector(3, p)  # index n+1 with x_1 = 2: y_1 direction minus 2 t
    assert np.allclose(w, [0, 0, 1, 0, -2.0], atol=0)
    with pytest.raises(IndexError):
        frame_vector(5, p)


def test_contact_form_annihilates_frame():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = Point(rng.normal(size=7))
        for a in range(1, 7):
            assert theta(p, frame_vector(a, p)) == 0.0
        assert theta(p, np.array([0, 0, 0, 0, 0, 0, 1.0])) == 1.0


def test_apply_J():
    v = HorizontalVector(np.array([1.0, 0, 0, 0]))
    assert np.allclose(apply_J(v).coeffs, [0, 0, 1, 0], atol=0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = HorizontalVector(rng.normal(size=6))
        ww = apply_J(apply_J(w))
        assert np.allclose(ww.coeffs, -w.coeffs, atol=0)
        norm = np.linalg.norm(w.coeffs)
        assert np.linalg.norm(apply_J(w).coeffs) == pytest.approx(norm, rel=1e-15)


def test_levi_metric_from_dtheta():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = HorizontalVector(rng.normal(size=4))
        w = HorizontalVector(rng.normal(size=4))
        norm = np.linalg.norm(v.coeffs)
        assert abs(dtheta(v, apply_J(v)) - 2.0 * norm**2) <= 1e-12 * (1 + norm**2)
        assert abs(0.5 * dtheta(v, apply_J(w)) - levi(v, w)) <= 1e-12
        # skewness of the rotation
        assert abs(levi(apply_J(v), w) + levi(v, apply_J(w))) <= 1e-12


def test_covariant_derivative_constant_field():
    p = P(0.5, 0.2, -0.1, 0.4, 1.0)
    direction = TangentVector(HorizontalVector(np.array([1.0, 0, 0, 0])))
    out = covariant_derivative(lambda c: [2.0, 0.0, 1.0, 0.0], direction, p)
    assert np.allclose(out.coeffs, 0.0, atol=0)


def test_covariant_derivative_linear_field():
    # field x_1 * (first frame vector): derivative along it is itself
    p = P(0.5, 0.2, -0.1, 0.4, 1.0)
    direction = TangentVector(HorizontalVector(np.array([1.0, 0, 0, 0])))
    out = covariant_derivative(lambda c: [c[0], 0.0, 0.0, 0.0], direction, p)
    assert np.allclose(out.coeffs, [1, 0, 0, 0], atol=1e-14)


def test_covariant_derivative_product_rule():
    rng = np.random.default_rng(3)
    p = Point(rng.normal(size=5))
    w = HorizontalVector(rng.normal(size=4))
    direction = TangentVector(w, tau=0.3)

    def scalar(c):
        return c[0] * c[3] + 0.5 * c[2] * c[2] + c[4]

    def field(c):
        return [c[1], c[0] * c[2], 1.0 + c[4], c[3] * c[3]]

    def product(c):
        f = scalar(c)
        return [f * v for v in field(c)]

    out = covariant_derivative(product, direction, p).coeffs
    wf = covariant_derivative(field, direction, p).coeffs
    # directional derivative of the scalar factor
    from heisgeo.duals import Dual2

    wcoords = core.tangent_coords(direction, p)
    duals_in = [Dual2(c, np.array([wc]), np.zeros((1, 1))) for c, wc in zip(p.coords, wcoords)]
    df = scalar(duals_in).g[0]
    f0 = scalar(p.coords)
    expected = df * np.array(field(p.coords)) + f0 * wf
    assert np.allclose(out, expected, atol=1e-12)


def test_covariant_derivative_fd_mode_agrees():
    rng = np.random.default_rng(4)
    p = Point(rng.normal(size=5))
    direction = TangentVector(HorizontalVector(rng.normal(size=4)), tau=-0.2)

    def field(c):
        return [c[0] * c[1], c[2], c[3] * c[0], 0.25 * c[4]]

    a = covariant_derivative(field, direction, p, mode="dual").coeffs
    b = covariant_derivative(field, direction, p, mode="fd").coeffs
    assert np.max(np.abs(a - b)) < 1e-8


def test_point_validation():
    with pytest.raises(ValueError):
        Point(np.array([1.0, 2.0, 3.0]))  # n = 1
    with pytest.raises(ValueError):
        Point(np.array([1.0, 2.0, np.nan, 0.0, 0.0]))
    p = Point.from_xyt([1, 2], [3, 4], 5)
    assert p.n == 2 and p.t == 5.0
