"""Forward-mode dual numbers carrying exact first and second derivatives.

A :class:`Dual2` tracks ``(value, gradient, Hessian)`` against a fixed set of
seed directions, over a stack of points: values of shape (...,), gradients
(..., m) and Hessians (..., m, m), on the trailing axes as in the geometry
kernel, so a point is a stack of one.  Pushing seeded coordinates through an
ordinary numerical expression therefore yields the exact gradient and
Hessian of that expression at every point of the stack in a single pass,
with no truncation error.  Every operation acts row by row (the lifted
functions take libm's values entry by entry), so a row gives the same bits
in any stack.

A central finite-difference evaluator with the same output layout is provided
as the independent cross-check oracle (:func:`fd_gradient_hessian`).  The two
paths share no code beyond plain evaluation of the target function.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Dual2",
    "seed",
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


class _Split(Exception):
    """A comparison whose rows disagree; ``mask`` marks the rows for which it
    holds.  :func:`gradient_hessian` evaluates each side on its own."""

    def __init__(self, mask):
        super().__init__("rows of a dual stack take different branches")
        self.mask = mask


def _branch(mask):
    """The one truth value of a comparison's rows, or :class:`_Split`."""
    if mask.all():
        return True
    if mask.any():
        raise _Split(mask)
    return False


def _dual(f, g, h):
    """A :class:`Dual2` of arrays already in shape, without conversion."""
    d = object.__new__(Dual2)
    d.f, d.g, d.h = f, g, h
    return d


def _sum(terms):
    """The non-None terms added left to right (None if there are none)."""
    acc = None
    for t in terms:
        if t is not None:
            acc = t if acc is None else acc + t
    return acc


def _outer(a, b):
    """Per-row outer products of two gradient stacks."""
    return a[..., :, None] * b[..., None, :]


def _col(f):
    """Values ``f`` with a trailing axis, to scale the rows of a stack (a
    point's value scales as it is)."""
    return f[..., None] if f.ndim else f


class Dual2:
    """Second-order dual numbers against ``m`` seed directions, over a stack.

    ``f`` has shape (...,), ``g`` (..., m) and ``h`` (..., m, m), or ``h`` is
    None for a zero Hessian: a seed carries none until a product or a chain
    rule creates one.  The other operand of an operation is a dual of the
    same stack or a plain number.  A comparison holds or fails for the whole
    stack; when its rows disagree, :func:`gradient_hessian` splits the stack
    so that every row takes the branch it takes alone.  A division by zero
    gives ``inf``, as numpy does, rather than raising.
    """

    __slots__ = ("f", "g", "h")
    __array_ufunc__ = None  # numpy scalars defer to the dual's operators

    def __init__(self, f, g, h=None):
        self.f = np.asarray(f, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.h = None if h is None else np.asarray(h, dtype=float)

    def __repr__(self):
        return f"Dual2({self.f!r}, grad={self.g!r})"

    # ---- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual2):
            return _dual(self.f + other.f, self.g + other.g, _sum((self.h, other.h)))
        return _dual(self.f + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.f, -self.g, None if self.h is None else -self.h)

    def __sub__(self, other):
        if isinstance(other, Dual2):
            if other.h is None:
                h = self.h
            else:
                h = -other.h if self.h is None else self.h - other.h
            return _dual(self.f - other.f, self.g - other.g, h)
        return _dual(self.f - other, self.g, self.h)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual2):
            f, of = _col(self.f), _col(other.f)
            cross = _outer(self.g, other.g)
            return _dual(
                self.f * other.f,
                f * other.g + of * self.g,
                _sum((None if other.h is None else _col(f) * other.h,
                      None if self.h is None else _col(of) * self.h,
                      cross, cross.swapaxes(-1, -2))),
            )
        return _dual(self.f * other, self.g * other, None if self.h is None else self.h * other)

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
        powers = _libm(lambda x: (math.pow(x, p), math.pow(x, p - 1), math.pow(x, p - 2)),
                       self.f, 3)
        return self._chain(powers[..., 0], p * powers[..., 1],
                           p * (p - 1) * powers[..., 2])

    def _reciprocal(self):
        inv = 1.0 / self.f
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def _chain(self, f, fp, fpp):
        """Lift a function with derivatives ``fp``, ``fpp`` at ``self.f``."""
        fp = _col(fp)
        curve = _col(_col(fpp)) * _outer(self.g, self.g)
        return _dual(f, fp * self.g,
                     curve if self.h is None else _col(fp) * self.h + curve)

    # ---- value comparisons (branch logic only) ----------------------------

    def __lt__(self, other):
        return _branch(self.f < _value(other))

    def __le__(self, other):
        return _branch(self.f <= _value(other))

    def __gt__(self, other):
        return _branch(self.f > _value(other))

    def __ge__(self, other):
        return _branch(self.f >= _value(other))


def _value(x):
    return x.f if isinstance(x, Dual2) else x


def _libm(fn, x, width=None):
    """``fn`` of every entry of ``x``, one Python call each: libm's bits, as
    a scalar takes them, whatever the stack.  ``fn`` returns ``width``
    values per entry when ``width`` is given (a trailing axis)."""
    out = np.array([fn(v) for v in x.ravel().tolist()], dtype=float)
    return out.reshape(x.shape if width is None else x.shape + (width,))


@functools.lru_cache(maxsize=None)
def _eye(m):
    eye = np.eye(m)
    eye.setflags(write=False)
    return eye


def seed(coords):
    """Identity-seed a point (m,) or a stack of points (..., m): m duals
    against the m coordinate directions, with no Hessian."""
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[-1]
    eyes = np.broadcast_to(_eye(m), coords.shape[:-1] + (m, m))
    return [_dual(coords[..., i], eyes[..., i, :], None) for i in range(m)]


def _lift(fn, x, derivs):
    """``fn`` (a ``math`` function) lifted to a dual or applied to a number;
    ``derivs(value, f)`` gives the first and second derivatives at ``f``."""
    if isinstance(x, Dual2):
        v = _libm(fn, x.f)
        return x._chain(v, *derivs(v, x.f))
    return fn(x)


def sqrt(x):
    return _lift(math.sqrt, x, lambda r, f: (0.5 / r, -0.25 / (r * f)))


def _asin_derivs(v, f):
    d = 1.0 - f * f
    fp = 1.0 / _libm(math.sqrt, d)
    return fp, f * fp / d


def arcsin(x):
    return _lift(math.asin, x, _asin_derivs)


def arccos(x):
    def derivs(v, f):
        fp, fpp = _asin_derivs(v, f)
        return -fp, -fpp

    return _lift(math.acos, x, derivs)


def exp(x):
    return _lift(math.exp, x, lambda e, f: (e, e))


def log(x):
    def derivs(v, f):
        inv = 1.0 / f
        return inv, -inv * inv

    return _lift(math.log, x, derivs)


def gradient_hessian(func, coords):
    """Exact ``(value, gradient, Hessian)`` of ``func`` at a point (d,), or
    ``(values, gradients, Hessians)`` of shapes (N,), (N, d) and (N, d, d)
    over an (N, d) stack, in one pass over the stack.

    ``func`` must be written against plain arithmetic plus the lifted
    functions of this module, so it evaluates transparently on duals.  A
    comparison of duals whose rows disagree splits the stack, and each side
    is evaluated again on its own: every row takes the branch it takes
    alone, and a row gives the same bits in any stack.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        return _at_point(func, coords)
    return _stacked(func, coords)


def _at_point(func, x):
    """:func:`gradient_hessian` at a point (m,): a stack with no leading
    axis, whose values are numpy scalars."""
    m = x.size
    out = func(seed(x))
    if not isinstance(out, Dual2):  # constant expression
        return float(out), np.zeros(m), np.zeros((m, m))
    return float(out.f), np.array(out.g), (np.zeros((m, m)) if out.h is None else out.h.copy())


def _stacked(func, x):
    """:func:`gradient_hessian` over an (N, d) stack; a stack of one row
    takes the point path (the same bits)."""
    count, m = x.shape
    if count == 1:
        u, g, h = _at_point(func, x[0])
        return np.array([u]), g[None], h[None]
    try:
        out = func(seed(x))
    except _Split as split:
        u, g, h = np.empty(count), np.empty((count, m)), np.empty((count, m, m))
        for rows in (np.flatnonzero(split.mask), np.flatnonzero(~split.mask)):
            u[rows], g[rows], h[rows] = _stacked(func, x[rows])
        return u, g, h
    if not isinstance(out, Dual2):  # constant expression
        return np.full(count, float(out)), np.zeros((count, m)), np.zeros((count, m, m))
    g = np.array(np.broadcast_to(out.g, (count, m)))
    h = np.zeros((count, m, m)) if out.h is None else np.array(out.h)
    return np.array(out.f), g, h


def fd_gradient_hessian(func, coords):
    """Central finite-difference ``(value, gradient, Hessian)`` oracle at a
    point.

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
