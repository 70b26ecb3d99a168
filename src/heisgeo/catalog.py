"""Closed-form example surfaces with their published curvature values.

Each entry bundles a defining function, closed-form expectations for the
tilt and the curvature scalars, and a seeded sampler of regular on-surface
points kept away from singular radii by a relative margin of 1e-3.

The rotationally symmetric families (Pansu, Heisenberg and shifted spheres)
are each given by one squared-height profile ``t^2 = f(|z|^2)``: their
defining function ``f(|z|^2) - t^2``, its closed-form derivatives, the
sampler and the :class:`RadialProfile` all come from ``f`` and its first two
derivatives.  The cylinder (``u = c^2 - |z|^2``) and the hyperplane (``u``
linear) have closed-form derivatives too, so no standard family takes the
``Dual2`` fallback.  Every closed-form ``grad_hess`` acts on the trailing
axis, so it takes one point or a stack of points, and a row gives the same
bits in any stack.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import duals
from .core import Point, _unchecked
from .surface import DomainError, RadialProfile, SurfaceDef, _dots

__all__ = [
    "CatalogEntry",
    "pansu",
    "heisenberg_sphere",
    "shifted_sphere",
    "cylinder",
    "hyperplane",
    "standard_entries",
    "SAMPLER_MARGIN",
]

SAMPLER_MARGIN = 1e-3


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    surface: SurfaceDef
    params: dict
    expected: dict  # scalar name -> callable(Point) -> float
    sampler: Callable
    formulas: dict = field(default_factory=dict)
    profile: Optional[RadialProfile] = None
    charts: dict = field(default_factory=dict)

    def sample(self, rng, count):
        return self.sampler(rng, count)

    def describe(self):
        return {
            "name": self.name,
            "params": {k: v if np.isscalar(v) else list(v) for k, v in self.params.items()},
            "expected": dict(self.formulas),
        }


def _radius2(coords, n):
    r = coords[0] * coords[0]
    for c in coords[1 : 2 * n]:
        r = r + c * c
    return r


def _zabs(coords):
    """Horizontal radii |z| over the last axis of one point's coordinates or
    of a stack of them; a row gives the same bits in any stack."""
    n = coords.shape[-1] // 2
    x, y = coords[..., :n], coords[..., n : 2 * n]
    return np.sqrt(_dots(x, x) + _dots(y, y))


def _positive(value, what):
    """``value`` as a float, or ValueError unless it is finite and positive."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and positive")
    return float(value)


def _power(value, k, what):
    """``value ** k`` as Python computes it, or ValueError when that overflows or
    is below the smallest normal float: no derived constant of a surface may
    be infinite, subnormal or 0 (dividing by a subnormal one overflows)."""
    try:
        out = value**k
    except OverflowError:
        out = math.inf
    if not sys.float_info.min <= out < math.inf:
        raise ValueError(f"{what}^{k} overflows or underflows")
    return out


def _unit_rows(rng, count, dim):
    """A (count, dim) stack of random unit directions, each row normalised as
    ``np.linalg.norm`` normalises one vector."""
    v = rng.normal(size=(count, dim))
    return v / np.sqrt(_dots(v, v))[:, None]


def _points(coords):
    """The rows of a sampled stack as :class:`Point`s, checked as one stack."""
    if not np.isfinite(coords).all():
        raise ValueError("coordinates must be finite")
    return [_unchecked(Point, coords=row) for row in coords]


# ---------------------------------------------------------------------------
# squared Pansu profile: Psi(s) with s = 1 - lam^2 |z|^2, f(r) = Psi(s)/lam^4

_PSI_SERIES = (0.0, 1.0, -1.0 / 3.0, -1.0 / 45.0, -1.0 / 105.0,
               -8.0 / 1575.0, -32.0 / 10395.0)
_PSI_SERIES_D1 = tuple(i * c for i, c in enumerate(_PSI_SERIES))[1:]
_PSI_SERIES_D2 = tuple(i * (i - 1) * c for i, c in enumerate(_PSI_SERIES))[2:]
_SERIES_CUT = 1e-3


def _horner(coeffs, s):
    """The polynomial with ascending coefficients ``coeffs`` at ``s``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _psi(s):
    """Squared height of the constant-curvature radial profile.

    Analytic across s = 0 (the equator); a Taylor branch below the cut keeps
    the closed form's 0/0 cancellations out of floating point.  On a dual
    stack each row takes its own branch: ``duals.gradient_hessian`` splits a
    stack that straddles the cut.
    """
    if s < -_SERIES_CUT:
        raise DomainError("outside the constant-curvature profile domain")
    if s < _SERIES_CUT:
        return _horner(_PSI_SERIES, s)
    a = duals.sqrt(s * (1.0 - s)) + duals.arcsin(duals.sqrt(s))
    return a * a * 0.25


def _psi_arc(sv):
    """``(sv, a)``: ``sv`` kept below the singular axis s = 1, so that the
    derivatives stay finite there, and ``a = sqrt(sv(1-sv)) + asin(sqrt(sv))``."""
    sv = min(sv, 1.0 - 1e-13)
    return sv, math.sqrt(sv * (1.0 - sv)) + math.asin(math.sqrt(sv))


def _psi_d1(sv):
    if sv < _SERIES_CUT:
        return _horner(_PSI_SERIES_D1, sv)
    sv, a = _psi_arc(sv)
    return 0.5 * a * math.sqrt((1.0 - sv) / sv)


def _psi_d2(sv):
    if sv < _SERIES_CUT:
        return _horner(_PSI_SERIES_D2, sv)
    sv, a = _psi_arc(sv)
    return (1.0 - sv) / (2.0 * sv) - a / (4.0 * math.sqrt(1.0 - sv) * sv**1.5)


def _radial_entry(name, n, params, f, df, ddf, r_max, expected, formulas, charts=None):
    """Catalog entry of the rotationally symmetric level set ``t^2 = f(|z|^2)``.

    The squared-height profile ``f`` with its first two derivatives gives the
    defining function ``u = f(r) - t^2`` (``r = |z|^2``), its closed-form
    gradient and Hessian, the sampler and the :class:`RadialProfile`.
    ``params`` are the surface's parameters; the entry's also carry ``n``.
    """

    def func(coords):
        return f(_radius2(coords, n)) - coords[2 * n] * coords[2 * n]

    def grad_hess(coords):
        c = np.asarray(coords, dtype=float)
        z, t = c[..., : 2 * n], c[..., 2 * n]
        r = _dots(z, z)
        # the profile scalars row by row, the value first so its domain check runs
        vals = duals._libm(lambda x: (f(x), df(x), ddf(x)), r, width=3)
        fv, d1, d2 = vals[..., 0], vals[..., 1, None], vals[..., 2, None, None]
        grad = np.empty(c.shape)
        grad[..., : 2 * n] = 2.0 * d1 * z
        grad[..., 2 * n] = -2.0 * t
        hess = np.zeros(c.shape + c.shape[-1:])
        hess[..., : 2 * n, : 2 * n] = (4.0 * d2 * (z[..., :, None] * z[..., None, :])
                                      + 2.0 * d1[..., None] * duals._eye(2 * n))
        hess[..., 2 * n, 2 * n] = -2.0
        return fv - t * t, grad, hess

    surface = SurfaceDef(func=func, n=n, name=name, grad_hess=grad_hess)
    z_max = math.sqrt(r_max)

    def sampler(rng, count):
        lo, hi = SAMPLER_MARGIN * z_max, (1.0 - SAMPLER_MARGIN) * z_max
        # radii (libm's exp, row by row: no SIMD dispatch in the bits), directions, signs
        z = [math.exp(u) for u in rng.uniform(math.log(lo), math.log(hi), count).tolist()]
        d = _unit_rows(rng, count, 2 * n)
        signs = rng.random(count).tolist()
        coords = np.empty((count, 2 * n + 1))
        coords[:, : 2 * n] = np.array(z).reshape(count, 1) * d
        coords[:, 2 * n] = [math.sqrt(max(f(r * r), 0.0)) * (1.0 if u < 0.5 else -1.0)
                            for r, u in zip(z, signs)]
        return _points(coords)

    return CatalogEntry(
        name=name,
        surface=surface,
        params={**params, "n": n},
        expected=expected,
        sampler=sampler,
        formulas=formulas,
        profile=RadialProfile(f=f, df=df, ddf=ddf, r_max=r_max),
        charts=charts or {},
    )


def pansu(lam, n) -> CatalogEntry:
    """Rotationally symmetric sphere of constant principal curvature.

    The working defining function is the globally smooth squared form
    ``u = f(|z|^2) - t^2`` (regular through the equator, singular only at
    the poles); the upper/lower hemisphere height graphs are attached as
    separate charts and must agree with it wherever both apply.
    """
    lam = _positive(lam, "curvature parameter")
    lam2, lam4 = lam * lam, _power(lam, 4, "lam")

    def height(coords):  # hemisphere graph height
        r = _radius2(coords, n)
        w = duals.sqrt(r)
        arg = lam * w
        if arg > 1.0:
            raise DomainError("outside the chart domain |z| <= 1/lam")
        return (arg * duals.sqrt(1.0 - arg * arg) + duals.arccos(arg)) / (2.0 * lam2)

    def upper(coords):
        return height(coords) - coords[2 * n]

    def lower(coords):
        return height(coords) + coords[2 * n]

    def exp_alpha(p: Point):
        r = float(np.dot(p.x, p.x) + np.dot(p.y, p.y))
        s = max(1.0 - lam2 * r, 0.0)
        return math.copysign(math.sqrt(s / r), p.t) if p.t != 0.0 else 0.0

    return _radial_entry(
        "pansu", n, {"lam": lam},
        f=lambda r: _psi(1.0 - lam2 * r) / lam4,
        df=lambda r: -_psi_d1(1.0 - lam2 * r) / lam2,
        ddf=lambda r: _psi_d2(1.0 - lam2 * r),
        r_max=1.0 / lam2,
        expected={
            "k": lambda p: lam,
            "l": lambda p: 2.0 * lam,
            "H": lambda p: 2.0 * n * lam,
            "alpha": exp_alpha,
        },
        formulas={
            "k": "lam",
            "l": "2*lam",
            "H": "2*n*lam",
            "alpha": "sign(t)*sqrt(1-lam^2*|z|^2)/|z|",
        },
        charts={
            "upper": SurfaceDef(func=upper, n=n, name="pansu-upper"),
            "lower": SurfaceDef(func=lower, n=n, name="pansu-lower"),
        },
    )


def heisenberg_sphere(rho, n) -> CatalogEntry:
    """Quartic sphere ``|z|^4 + 4t^2 = rho^4``; umbilic with l = 3k."""
    rho = _positive(rho, "radius")
    rho4, rho2 = _power(rho, 4, "rho"), rho**2
    return _radial_entry(
        "heisenberg-sphere", n, {"rho": rho},
        f=lambda r: (rho4 - r * r) / 4.0,
        df=lambda r: -r / 2.0,
        ddf=lambda r: -0.5,
        r_max=rho2,
        expected={
            "k": lambda p: _zabs(p.coords) / rho2,
            "l": lambda p: 3.0 * _zabs(p.coords) / rho2,
            "H": lambda p: (2 * n + 1) * _zabs(p.coords) / rho2,
            "alpha": lambda p: 2.0 * p.t / (rho2 * _zabs(p.coords)),
        },
        formulas={
            "k": "|z|/rho^2",
            "l": "3|z|/rho^2",
            "H": "(2n+1)|z|/rho^2",
            "alpha": "2t/(rho^2 |z|)",
        },
    )


def shifted_sphere(lam, rho0, n) -> CatalogEntry:
    """Level set ``4t^2 + (|z|^2 + lam)^2 = rho0^4``; umbilic with l <= 3k."""
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError("shift parameter must be finite and nonnegative")
    rho0 = _positive(rho0, "radius")
    rho4, rho2 = _power(rho0, 4, "rho0"), rho0**2
    if not rho2 > lam:
        raise DomainError("empty surface: need rho0^2 > lam")
    lam = float(lam)

    expected = {
        "k": lambda p: (_zabs(p.coords) ** 2 + lam) / (rho2 * _zabs(p.coords)),
        "l": lambda p: (3.0 * _zabs(p.coords) ** 2 + lam) / (rho2 * _zabs(p.coords)),
        "alpha": lambda p: 2.0 * p.t / (rho2 * _zabs(p.coords)),
    }
    expected["H"] = lambda p: expected["l"](p) + (2 * n - 2) * expected["k"](p)

    return _radial_entry(
        "shifted-sphere", n, {"lam": lam, "rho0": rho0},
        f=lambda r: (rho4 - (r + lam) * (r + lam)) / 4.0,
        df=lambda r: -(r + lam) / 2.0,
        ddf=lambda r: -0.5,
        r_max=rho2 - lam,
        expected=expected,
        formulas={
            "k": "(|z|^2+lam)/(rho0^2 |z|)",
            "l": "(3|z|^2+lam)/(rho0^2 |z|)",
            "H": "((2n+1)|z|^2+(2n-1)lam)/(rho0^2 |z|)",
            "alpha": "2t/(rho0^2 |z|)",
        },
    )


def cylinder(c, n) -> CatalogEntry:
    """Vertical cylinder over a round sphere; umbilic with l = k = 1/c."""
    c = _positive(c, "radius")
    _power(c, 2, "c")

    def func(coords):
        return c * c - _radius2(coords, n)

    def grad_hess(coords):
        z = np.asarray(coords, dtype=float)[..., : 2 * n]
        grad = np.zeros(z.shape[:-1] + (2 * n + 1,))
        grad[..., : 2 * n] = -2.0 * z
        hess = np.zeros(grad.shape + (2 * n + 1,))
        hess[..., : 2 * n, : 2 * n] = -2.0 * duals._eye(2 * n)
        return c * c - _dots(z, z), grad, hess

    surface = SurfaceDef(func=func, n=n, name="cylinder", grad_hess=grad_hess)
    expected = {
        "k": lambda p: 1.0 / c,
        "l": lambda p: 1.0 / c,
        "H": lambda p: (2 * n - 1) / c,
        "alpha": lambda p: 0.0,
    }

    def sampler(rng, count):
        coords = np.empty((count, 2 * n + 1))
        coords[:, : 2 * n] = c * _unit_rows(rng, count, 2 * n)
        coords[:, 2 * n] = rng.uniform(-2.0 * c, 2.0 * c, count)
        return _points(coords)

    return CatalogEntry(
        name="cylinder",
        surface=surface,
        params={"c": c, "n": n},
        expected=expected,
        sampler=sampler,
        formulas={"k": "1/c", "l": "1/c", "H": "(2n-1)/c", "alpha": "0"},
    )


def hyperplane(A, n) -> CatalogEntry:
    """Vertical hyperplane; totally flat with vanishing tilt."""
    A = np.asarray(A, dtype=float)
    if A.size != 2 * n or not np.any(A) or not np.all(np.isfinite(A)):
        raise ValueError("need a finite nonzero coefficient vector of length 2n")

    def func(coords):
        acc = 0.0
        for a, cc in zip(A, coords[: 2 * n]):
            if a != 0.0:
                acc = acc + a * cc
        return acc

    def grad_hess(coords):
        z = np.asarray(coords, dtype=float)[..., : 2 * n]
        grad = np.zeros(z.shape[:-1] + (2 * n + 1,))
        grad[..., : 2 * n] = A
        return _dots(A, z), grad, np.zeros(grad.shape + (2 * n + 1,))

    surface = SurfaceDef(func=func, n=n, name="hyperplane", grad_hess=grad_hess)
    zero = lambda p: 0.0
    expected = {"k": zero, "l": zero, "H": zero, "alpha": zero}

    unit = A / np.linalg.norm(A)

    def sampler(rng, count):
        coords = np.empty((count, 2 * n + 1))
        w = rng.normal(size=(count, 2 * n))
        coords[:, : 2 * n] = w - _dots(w, unit)[:, None] * unit
        coords[:, 2 * n] = rng.uniform(-2.0, 2.0, count)
        return _points(coords)

    return CatalogEntry(
        name="hyperplane",
        surface=surface,
        params={"A": tuple(A), "n": n},
        expected=expected,
        sampler=sampler,
        formulas={"k": "0", "l": "0", "H": "0", "alpha": "0"},
    )


def standard_entries(n=2):
    """Default-parameter instances of every catalog family."""
    if n < 2:
        raise ValueError("ambient dimension parameter n must be >= 2")
    A = np.zeros(2 * n)
    A[0] = 1.0
    return [
        pansu(1.0, n),
        heisenberg_sphere(1.0, n),
        shifted_sphere(0.5, 1.2, n),
        cylinder(1.0, n),
        hyperplane(A, n),
    ]

