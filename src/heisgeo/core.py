"""The ambient group: coordinates, multiplication, left-invariant frame,
contact form, Levi metric and the flat connection.

Coordinates are always ordered ``(x_1..x_n, y_1..y_n, t)``.  Horizontal
vectors are stored as ``2n`` coefficients against the left-invariant frame
fields, in which the Levi metric is the plain Euclidean dot product.  The
frame fields are parallel for the canonical connection, so covariant
differentiation reduces to componentwise directional derivatives of frame
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import Dual2, GRAD_STEP

__all__ = [
    "Point",
    "HorizontalVector",
    "TangentVector",
    "group_mul",
    "inverse",
    "identity",
    "frame_vector",
    "frame_lift",
    "tangent_coords",
    "apply_J",
    "theta",
    "dtheta",
    "levi",
    "covariant_derivative",
]


@dataclass(frozen=True, eq=False)
class Point:
    """A point, held as the coordinate vector ``(x_1..x_n, y_1..y_n, t)``."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 5 or c.size % 2 == 0:
            raise ValueError("coordinates must be (x_1..x_n, y_1..y_n, t) with n >= 2")
        if not np.isfinite(c).all():
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_xyt(cls, x, y, t):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.size != y.size:
            raise ValueError("x and y must have equal length")
        return cls(np.concatenate([x, y, [float(t)]]))

    @property
    def n(self):
        return self.coords.size // 2

    @property
    def x(self):
        return self.coords[: self.n]

    @property
    def y(self):
        return self.coords[self.n : 2 * self.n]

    @property
    def t(self):
        return float(self.coords[-1])


@dataclass(frozen=True, eq=False)
class HorizontalVector:
    """Element of the horizontal distribution as 2n frame coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 4 or c.size % 2 == 1:
            raise ValueError("frame coefficients must have even length 2n, n >= 2")
        if not np.isfinite(c).all():
            raise ValueError("frame coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self):
        return self.coeffs.size // 2


def _unchecked(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, without rerunning its
    ``__post_init__`` checks: for arrays that are already checked, such as
    the geometry kernel's finite rows of the right width."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Horizontal part plus a coefficient along the vertical field."""

    h: HorizontalVector
    tau: float = 0.0


def identity(n):
    return Point(np.zeros(2 * n + 1))


def group_mul(p: Point, q: Point) -> Point:
    """Group product; the t-slot picks up the symplectic cross term."""
    if p.n != q.n:
        raise ValueError("points live in different dimensions")
    out = p.coords[:-1] + q.coords[:-1]
    t = p.t + q.t + float(np.dot(p.y, q.x) - np.dot(p.x, q.y))
    return Point(np.concatenate([out, [t]]))


def inverse(p: Point) -> Point:
    return Point(-p.coords)


def frame_vector(a, p: Point):
    """Coordinate components of the a-th frame field at ``p`` (a is 1-based).

    For ``a <= n`` this is the unit x_a direction plus ``y_a`` vertically;
    for ``a = n+j`` the unit y_j direction minus ``x_j`` vertically.
    """
    n = p.n
    if not 1 <= a <= 2 * n:
        raise IndexError(f"frame index {a} out of range 1..{2 * n}")
    w = np.zeros(2 * n + 1)
    w[a - 1] = 1.0
    if a <= n:
        w[-1] = p.coords[n + a - 1]
    else:
        w[-1] = -p.coords[a - n - 1]
    return w


def frame_lift(v: HorizontalVector, p: Point):
    """Coordinate components of the horizontal vector ``v`` at ``p``."""
    n = p.n
    c = v.coeffs
    w = np.empty(2 * n + 1)
    w[: 2 * n] = c
    w[-1] = float(np.dot(p.y, c[:n]) - np.dot(p.x, c[n:]))
    return w


def tangent_coords(tv: TangentVector, p: Point):
    w = frame_lift(tv.h, p)
    w[-1] += tv.tau
    return w


def apply_J(v: HorizontalVector) -> HorizontalVector:
    """Rotation by 90 degrees on the horizontal distribution; J*J = -Id."""
    return HorizontalVector(_J(v.coeffs))


def _J(c):
    """The rotation on raw frame coefficients ``(a, b) -> (-b, a)``, along
    the last axis."""
    n = c.shape[-1] // 2
    return np.concatenate([-c[..., n:], c[..., :n]], axis=-1)


def theta(p: Point, w):
    """Contact form on a coordinate vector ``w`` at ``p``."""
    n = p.n
    w = np.asarray(w, dtype=float)
    return float(w[-1] + np.dot(p.x, w[n : 2 * n]) - np.dot(p.y, w[:n]))


def dtheta(v: HorizontalVector, w: HorizontalVector):
    """Exterior derivative of the contact form on horizontal vectors."""
    n = v.n
    a, b = v.coeffs, w.coeffs
    return 2.0 * float(np.dot(a[:n], b[n:]) - np.dot(a[n:], b[:n]))


def levi(v: HorizontalVector, w: HorizontalVector):
    """Levi inner product; equals the frame-coefficient dot product."""
    return float(np.dot(v.coeffs, w.coeffs))


def covariant_derivative(field, direction, p: Point, mode="dual"):
    """Covariant derivative of a horizontal field along ``direction`` at ``p``.

    The frame is parallel, so this is the componentwise directional
    derivative of the frame-coefficient functions, the direction first
    converted to coordinate components.  ``field`` maps a coordinate array
    to 2n frame coefficients; in ``"dual"`` mode it must evaluate on dual
    numbers, in ``"fd"`` mode plain central differences of size
    ``cbrt(eps)*(1+|p|)`` are used.
    """
    if isinstance(direction, TangentVector):
        w = tangent_coords(direction, p)
    elif isinstance(direction, HorizontalVector):
        w = frame_lift(direction, p)
    else:
        w = np.asarray(direction, dtype=float)
    coords = p.coords
    if mode == "dual":
        vals = field([Dual2(c, [wc]) for c, wc in zip(coords, w)])
        out = np.array([v.g[0] if isinstance(v, Dual2) else 0.0 for v in vals])
    elif mode == "fd":
        h = GRAD_STEP * (1.0 + float(np.max(np.abs(coords))))
        plus = np.asarray(field(coords + h * w), dtype=float)
        minus = np.asarray(field(coords - h * w), dtype=float)
        out = (plus - minus) / (2.0 * h)
    else:
        raise ValueError(f"unknown differentiation mode {mode!r}")
    return HorizontalVector(out)
