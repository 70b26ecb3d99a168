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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import duals
from .core import Point
from .surface import DomainError, RadialProfile, SurfaceDef, _dots

__all__ = [
    "CatalogEntry",
    "pansu",
    "heisenberg_sphere",
    "shifted_sphere",
    "cylinder",
    "hyperplane",
    "standard_entries",
    "by_name",
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


def _zabs(p):
    """Horizontal radius |z| of a point."""
    return math.sqrt(float(np.dot(p.x, p.x) + np.dot(p.y, p.y)))


def _positive(value, what):
    """``value`` as a float, or ValueError unless it is finite and positive."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and positive")
    return float(value)


def _unit_direction(rng, m):
    v = rng.normal(size=m)
    return v / np.linalg.norm(v)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# squared Pansu profile: Psi(s) with s = 1 - lam^2 |z|^2, f(r) = Psi(s)/lam^4

_PSI_SERIES = (0.0, 1.0, -1.0 / 3.0, -1.0 / 45.0, -1.0 / 105.0,
               -8.0 / 1575.0, -32.0 / 10395.0)
_SERIES_CUT = 1e-3


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
        acc = 0.0
        for c in reversed(_PSI_SERIES):
            acc = acc * s + c
        return acc
    a = duals.sqrt(s * (1.0 - s)) + duals.arcsin(duals.sqrt(s))
    return a * a * 0.25


def _psi_d1(sv):
    if sv < _SERIES_CUT:
        cs = [i * c for i, c in enumerate(_PSI_SERIES)][1:]
        acc = 0.0
        for c in reversed(cs):
            acc = acc * sv + c
        return acc
    sv = min(sv, 1.0 - 1e-13)  # the axis s=1 is singular; keep finite there
    a = math.sqrt(sv * (1.0 - sv)) + math.asin(math.sqrt(sv))
    return 0.5 * a * math.sqrt((1.0 - sv) / sv)


def _psi_d2(sv):
    if sv < _SERIES_CUT:
        cs = [i * (i - 1) * c for i, c in enumerate(_PSI_SERIES)][2:]
        acc = 0.0
        for c in reversed(cs):
            acc = acc * sv + c
        return acc
    sv = min(sv, 1.0 - 1e-13)
    a = math.sqrt(sv * (1.0 - sv)) + math.asin(math.sqrt(sv))
    return (1.0 - sv) / (2.0 * sv) - a / (4.0 * math.sqrt(1.0 - sv) * sv**1.5)


def _radial_entry(name, n, params, f, df, ddf, r_max, expected, formulas):
    """Catalog entry of the rotationally symmetric level set ``t^2 = f(|z|^2)``.

    The squared-height profile ``f`` with its first two derivatives gives the
    defining function ``u = f(r) - t^2`` (``r = |z|^2``), its closed-form
    gradient and Hessian, the sampler and the :class:`RadialProfile`.
    ``params`` are the surface's parameters; the entry's also carry ``n``.
    """

    def func(coords):
        return f(_radius2(coords, n)) - coords[2 * n] * coords[2 * n]

    eye = np.eye(2 * n)

    def grad_hess(coords):
        c = np.asarray(coords, dtype=float)
        z, t = c[..., : 2 * n], c[..., 2 * n]
        r = _dots(z, z)
        # the profile scalars row by row, the value first so its domain check runs
        vals = np.array([(f(x), df(x), ddf(x)) for x in r.ravel().tolist()])
        vals = vals.reshape(r.shape + (3,))
        fv, d1, d2 = vals[..., 0], vals[..., 1, None], vals[..., 2, None, None]
        grad = np.empty(c.shape)
        grad[..., : 2 * n] = 2.0 * d1 * z
        grad[..., 2 * n] = -2.0 * t
        hess = np.zeros(c.shape + c.shape[-1:])
        hess[..., : 2 * n, : 2 * n] = (4.0 * d2 * (z[..., :, None] * z[..., None, :])
                                      + 2.0 * d1[..., None] * eye)
        hess[..., 2 * n, 2 * n] = -2.0
        return fv - t * t, grad, hess

    surface = SurfaceDef(func=func, n=n, name=name, params=params, grad_hess=grad_hess)
    z_max = math.sqrt(r_max)

    def sampler(rng, count):
        pts = []
        lo, hi = SAMPLER_MARGIN * z_max, (1.0 - SAMPLER_MARGIN) * z_max
        for _ in range(count):
            z = _log_uniform(rng, lo, hi)
            d = _unit_direction(rng, 2 * n)
            t = math.sqrt(max(f(z * z), 0.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            pts.append(Point(np.concatenate([z * d, [t]])))
        return pts

    return CatalogEntry(
        name=name,
        surface=surface,
        params={**params, "n": n},
        expected=expected,
        sampler=sampler,
        formulas=formulas,
        profile=RadialProfile(f=f, df=df, ddf=ddf, r_max=r_max),
    )


def pansu(lam, n) -> CatalogEntry:
    """Rotationally symmetric sphere of constant principal curvature.

    The working defining function is the globally smooth squared form
    ``u = f(|z|^2) - t^2`` (regular through the equator, singular only at
    the poles); the upper/lower hemisphere height graphs are attached as
    separate charts and must agree with it wherever both apply.
    """
    lam = _positive(lam, "curvature parameter")
    lam2, lam4 = lam * lam, lam**4

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

    entry = _radial_entry(
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
    )
    return replace(entry, charts={
        "upper": SurfaceDef(func=upper, n=n, name="pansu-upper", params={"lam": lam}),
        "lower": SurfaceDef(func=lower, n=n, name="pansu-lower", params={"lam": lam}),
    })


def heisenberg_sphere(rho, n) -> CatalogEntry:
    """Quartic sphere ``|z|^4 + 4t^2 = rho^4``; umbilic with l = 3k."""
    rho = _positive(rho, "radius")
    rho2, rho4 = rho**2, rho**4
    return _radial_entry(
        "heisenberg-sphere", n, {"rho": rho},
        f=lambda r: (rho4 - r * r) / 4.0,
        df=lambda r: -r / 2.0,
        ddf=lambda r: -0.5,
        r_max=rho2,
        expected={
            "k": lambda p: _zabs(p) / rho2,
            "l": lambda p: 3.0 * _zabs(p) / rho2,
            "H": lambda p: (2 * n + 1) * _zabs(p) / rho2,
            "alpha": lambda p: 2.0 * p.t / (rho2 * _zabs(p)),
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
    if not rho0**2 > lam:
        raise DomainError("empty surface: need rho0^2 > lam")
    lam = float(lam)
    rho2, rho4 = rho0**2, rho0**4

    expected = {
        "k": lambda p: (_zabs(p) ** 2 + lam) / (rho2 * _zabs(p)),
        "l": lambda p: (3.0 * _zabs(p) ** 2 + lam) / (rho2 * _zabs(p)),
        "alpha": lambda p: 2.0 * p.t / (rho2 * _zabs(p)),
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
            "alpha": "2t/(rho0^2 |z|)",
        },
    )


def cylinder(c, n) -> CatalogEntry:
    """Vertical cylinder over a round sphere; umbilic with l = k = 1/c."""
    c = _positive(c, "radius")

    def func(coords):
        return c * c - _radius2(coords, n)

    flat = -2.0 * np.eye(2 * n)

    def grad_hess(coords):
        z = np.asarray(coords, dtype=float)[..., : 2 * n]
        grad = np.zeros(z.shape[:-1] + (2 * n + 1,))
        grad[..., : 2 * n] = -2.0 * z
        hess = np.zeros(grad.shape + (2 * n + 1,))
        hess[..., : 2 * n, : 2 * n] = flat
        return c * c - _dots(z, z), grad, hess

    surface = SurfaceDef(func=func, n=n, name="cylinder", params={"c": c},
                         grad_hess=grad_hess)
    expected = {
        "k": lambda p: 1.0 / c,
        "l": lambda p: 1.0 / c,
        "H": lambda p: (2 * n - 1) / c,
        "alpha": lambda p: 0.0,
    }

    def sampler(rng, count):
        pts = []
        for _ in range(count):
            d = _unit_direction(rng, 2 * n)
            t = rng.uniform(-2.0 * c, 2.0 * c)
            pts.append(Point(np.concatenate([c * d, [t]])))
        return pts

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

    surface = SurfaceDef(
        func=func, n=n, name="hyperplane", params={"A": tuple(A)}, grad_hess=grad_hess
    )
    zero = lambda p: 0.0
    expected = {"k": zero, "l": zero, "H": zero, "alpha": zero}

    unit = A / np.linalg.norm(A)

    def sampler(rng, count):
        pts = []
        for _ in range(count):
            w = rng.normal(size=2 * n)
            w -= (w @ unit) * unit
            t = rng.uniform(-2.0, 2.0)
            pts.append(Point(np.concatenate([w, [t]])))
        return pts

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


def by_name(name, n=2, **params) -> CatalogEntry:
    makers = {
        "pansu": lambda: pansu(params.get("lam", 1.0), n),
        "heisenberg-sphere": lambda: heisenberg_sphere(params.get("rho", 1.0), n),
        "shifted-sphere": lambda: shifted_sphere(
            params.get("lam", 0.5), params.get("rho0", 1.2), n
        ),
        "cylinder": lambda: cylinder(params.get("c", 1.0), n),
        "hyperplane": lambda: hyperplane(
            params.get("A", np.eye(2 * n)[0]), n
        ),
    }
    if name not in makers:
        raise KeyError(f"unknown catalog entry {name!r}")
    return makers[name]()
