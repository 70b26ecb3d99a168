"""Forward-mode dual numbers carrying exact first and second derivatives.

A :class:`Dual2` tracks ``(value, gradient, Hessian)`` against a fixed set of
seed directions.  Pushing seeded coordinates through an ordinary numerical
expression therefore yields the exact gradient and Hessian of that expression
in a single pass, with no truncation error.

A central finite-difference evaluator with the same output layout is provided
as the independent cross-check oracle (:func:`fd_gradient_hessian`).  The two
paths share no code beyond plain evaluation of the target function.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Dual2",
    "seed",
    "value",
    "sqrt",
    "arcsin",
    "arccos",
    "exp",
    "log",
    "gradient_hessian",
    "fd_gradient_hessian",
]

_EPS = np.finfo(float).eps
GRAD_STEP = _EPS ** (1.0 / 3.0)  # optimal for first central differences
HESS_STEP = _EPS ** 0.25         # optimal for second central differences


class Dual2:
    """Second-order dual number against ``m`` seed directions."""

    __slots__ = ("f", "g", "h")

    def __init__(self, f, g, h):
        self.f = float(f)
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)

    def __repr__(self):
        return f"Dual2({self.f!r}, grad={self.g!r})"

    # ---- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.f + other.f, self.g + other.g, self.h + other.h)
        return Dual2(self.f + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.f, -self.g, -self.h)

    def __sub__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.f - other.f, self.g - other.g, self.h - other.h)
        return Dual2(self.f - other, self.g, self.h)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual2):
            cross = np.outer(self.g, other.g)
            return Dual2(
                self.f * other.f,
                self.f * other.g + other.f * self.g,
                self.f * other.h + other.f * self.h + cross + cross.T,
            )
        return Dual2(self.f * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual2):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, Dual2):
            raise TypeError("dual-valued exponents are not supported")
        if p == 2:
            return self * self
        f = self.f
        return self._chain(f ** p, p * f ** (p - 1), p * (p - 1) * f ** (p - 2))

    def _reciprocal(self):
        inv = 1.0 / self.f
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def _chain(self, f, fp, fpp):
        """Lift a scalar function with derivatives ``fp``, ``fpp`` at ``self.f``."""
        return Dual2(f, fp * self.g, fp * self.h + fpp * np.outer(self.g, self.g))

    # ---- value comparisons (branch logic only) ----------------------------

    def __lt__(self, other):
        return self.f < value(other)

    def __le__(self, other):
        return self.f <= value(other)

    def __gt__(self, other):
        return self.f > value(other)

    def __ge__(self, other):
        return self.f >= value(other)


def seed(coords):
    """Identity-seed a coordinate vector: m duals against m directions."""
    coords = np.asarray(coords, dtype=float)
    m = coords.size
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return [Dual2(coords[i], eye[i], zero) for i in range(m)]


def value(x):
    """Plain float value of a dual or a number."""
    return x.f if isinstance(x, Dual2) else float(x)


def sqrt(x):
    if isinstance(x, Dual2):
        r = math.sqrt(x.f)
        return x._chain(r, 0.5 / r, -0.25 / (r * x.f))
    return math.sqrt(x)


def arcsin(x):
    if isinstance(x, Dual2):
        d = 1.0 - x.f * x.f
        fp = 1.0 / math.sqrt(d)
        return x._chain(math.asin(x.f), fp, x.f * fp / d)
    return math.asin(x)


def arccos(x):
    if isinstance(x, Dual2):
        d = 1.0 - x.f * x.f
        fp = -1.0 / math.sqrt(d)
        return x._chain(math.acos(x.f), fp, x.f * fp / d)
    return math.acos(x)


def exp(x):
    if isinstance(x, Dual2):
        e = math.exp(x.f)
        return x._chain(e, e, e)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual2):
        inv = 1.0 / x.f
        return x._chain(math.log(x.f), inv, -inv * inv)
    return math.log(x)


def gradient_hessian(func, coords):
    """Exact ``(value, gradient, Hessian)`` of ``func`` at ``coords``.

    ``func`` must be written against plain arithmetic plus the lifted
    functions of this module, so it evaluates transparently on duals.
    """
    coords = np.asarray(coords, dtype=float)
    out = func(seed(coords))
    m = coords.size
    if not isinstance(out, Dual2):  # constant expression
        return float(out), np.zeros(m), np.zeros((m, m))
    return out.f, out.g.copy(), out.h.copy()


def fd_gradient_hessian(func, coords):
    """Central finite-difference ``(value, gradient, Hessian)`` oracle.

    Steps are ``cbrt(eps)*(1+|x_c|)`` for the gradient and
    ``eps**0.25*(1+|x_c|)`` per coordinate for the Hessian.
    """
    x = np.asarray(coords, dtype=float)
    m = x.size
    h1 = GRAD_STEP * (1.0 + np.abs(x))
    h2 = HESS_STEP * (1.0 + np.abs(x))

    def ev(delta):
        return float(func(x + delta))

    f0 = ev(np.zeros(m))
    grad = np.empty(m)
    hess = np.empty((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h1[i]
        grad[i] = (ev(ei) - ev(-ei)) / (2.0 * h1[i])
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h2[i]
        hess[i, i] = (ev(ei) - 2.0 * f0 + ev(-ei)) / (h2[i] * h2[i])
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h2[j]
            mixed = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (
                4.0 * h2[i] * h2[j]
            )
            hess[i, j] = hess[j, i] = mixed
    return f0, grad, hess
