"""Curves on the group and on-surface derivative checks.

Covers unit-speed horizontal curves of constant curvature (in closed form:
the frame formulation keeps the velocity equation linear), the radial
profile equation recovering the constant-curvature sphere, and
finite-difference directional derivatives of the curvature scalars along
surface vector fields, over chords Newton-projected back onto the level
set.  The resample rule of every sampled check is here too
(:func:`resampled`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
import numpy as np

from . import duals, rk45
from ._stats import worst
from .catalog import _positive, _psi  # _psi: squared height of the reference sphere
from .core import HorizontalVector, Point, _J
from .rk45 import StepControl, _row_sum  # per-row sums, independent of the batch
from .surface import (
    DomainError,
    GeometryError,
    PivotDegenerate,
    SurfaceDef,
    _alpha_rates,
    _dots,
    _lifts,
    _reports_at,
    report_many,
)

__all__ = [
    "CurveState",
    "GeodesicTrace",
    "ProjectionFailure",
    "RESAMPLE",
    "resampled",
    "IdentityResiduals",
    "geodesic_flow",
    "geodesic_flows",
    "profile_ode",
    "identity_check",
    "identity_check_many",
    "leaf_constancy",
    "leaf_constancy_many",
    "surface_offset",
]


class ProjectionFailure(GeometryError):
    """Newton correction back to the level set did not converge."""


# the failures that mean "resample the point": the sample drifted into a
# singular neighborhood; any other failure signals a bug and raises
RESAMPLE = (PivotDegenerate, ProjectionFailure)


def resampled(fn, items):
    """``(results, skipped)``: ``fn(items)``, one result per item, run as
    one batch.  If the batch raises, each item reruns as a batch of one: an
    item that raises a :data:`RESAMPLE` failure alone is skipped and counted
    by exception type name in ``skipped``, and any other failure raises.  If
    no item fails alone, the batch's own failure raises."""
    items = list(items)
    failure = None
    if len(items) > 1:
        try:
            return list(fn(items)), Counter()
        except Exception as exc:  # rerun item by item, where a failure not resampled raises
            failure = exc
    out, skipped = [], Counter()
    for item in items:
        try:
            out.extend(fn([item]))
        except RESAMPLE as exc:
            skipped[type(exc).__name__] += 1
    if failure is not None and not skipped:
        raise failure
    return out, skipped


@dataclass(frozen=True, eq=False)
class CurveState:
    """A point together with a unit horizontal direction (the running
    characteristic direction along a flow)."""

    p: Point
    v: HorizontalVector


@dataclass
class GeodesicTrace:
    lam: float
    ss: np.ndarray
    coords: np.ndarray      # (m, 2n+1)
    velocities: np.ndarray  # (m, 2n)


# the largest arc between two nodes of a trace
_NODE_SPACING = 0.05


def _geodesic_start(start: CurveState):
    v0 = start.v.coeffs
    if abs(np.linalg.norm(v0) - 1.0) > 1e-10:
        raise ValueError("initial direction must be a unit horizontal vector")
    return start.p.coords, v0


def _nodes(lams, s_max):
    """The arc lengths at which every trace is evaluated: ``m + 1`` equally
    spaced nodes from 0 to ``s_max`` (either sign), no two more than
    ``_NODE_SPACING`` apart, the last exactly ``s_max``."""
    if not math.isfinite(s_max):
        raise ValueError("arc length must be finite")
    with np.errstate(over="ignore"):  # an overflow is the error raised here
        angles = 2.0 * lams * s_max
    if not np.isfinite(angles).all():
        raise ValueError("turning angle 2 lam s_max must be finite")
    m = math.ceil(abs(s_max) / _NODE_SPACING)
    if m > rk45._MAX_STEPS:
        raise ValueError(f"arc length {s_max!r} needs more than {rk45._MAX_STEPS} nodes")
    return np.linspace(0.0, s_max, m + 1)


def _sinc(x, sin_x):
    """``sin(x) / x`` from ``sin(x)``, 1 at ``x == 0``."""
    return np.where(x == 0.0, 1.0, sin_x / np.where(x == 0.0, 1.0, x))


# 1 - (x^2 / 20)(1 - (x^2 / 42)(1 - ...)): the Taylor series of -6 g(x) / x,
# the factors (2k + 2)(2k + 3); the first term it omits, 6 x^18 / 21!, is far
# below the rounding of the sum at |x| < 1
_G_FACTORS = (20.0, 42.0, 72.0, 110.0, 156.0, 210.0, 272.0, 342.0)


def _g(x, sin_x):
    """``g(x) = (sin x - x) / x^2``, from its Taylor series at ``|x| < 1``,
    where the difference would cancel, and with no ``x^2`` to overflow."""
    small = np.abs(x) < 1.0
    xs, xd = np.where(small, x, 0.0), np.where(small, 1.0, x)  # each branch's argument
    x2 = xs * xs
    series = np.ones_like(x)
    for d in reversed(_G_FACTORS):
        series = 1.0 - (x2 / d) * series
    return np.where(small, -(xs / 6.0) * series, (sin_x - xd) / xd / xd)


def geodesic_flow(start: CurveState, lam, s_max) -> GeodesicTrace:
    """The constant-curvature horizontal curve from one start: a batch of
    one of :func:`geodesic_flows`."""
    (trace,) = geodesic_flows([start], [lam], s_max)
    return trace


def geodesic_flows(starts, lams, s_max) -> list:
    """Constant-curvature horizontal curves, one per start, in closed form.

    The frame coefficients of the velocity rotate at twice the curvature
    (``v' = 2 lam J v``), the horizontal coordinates follow them and the
    vertical coordinate follows the contact lift ``t' = <z, J v>``.  With
    ``theta = 2 lam s``, the exact curve is

        v = cos(theta) v0 + sin(theta) J v0
        z = z0 + A v0 + B J v0,  A = sin(theta) / (2 lam),
                                 B = sin(theta / 2)^2 / lam
        t = t0 + <z0, J (z - z0)> + s^2 g(theta),  g(x) = (sin x - x) / x^2

    with ``A = s`` and ``B = 0`` at ``lam = 0``.  Every trace is evaluated
    on the same nodes (:func:`_nodes`), and the traces share that ``ss``
    array.  ``lams`` holds one curvature per start; the starts share their
    dimension n.  The sines and cosines are libm's, the contact term's dot
    products are per-row sums and every other operation is elementwise, so
    a trace is bitwise the one its start gets alone.  A non-finite
    curvature or arc length, a turning angle that overflows, and an arc
    that needs more than ``rk45._MAX_STEPS`` nodes raise ``ValueError``.
    """
    starts = list(starts)
    if not starts:
        return []
    n = starts[0].p.n
    if any(st.p.n != n for st in starts):
        raise ValueError("all starts must have the same dimension n")
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (len(starts),):
        raise ValueError("lams must hold one curvature per start")
    if not np.isfinite(lams).all():
        raise ValueError("curvature must be finite")
    p0, v0 = (np.array(parts) for parts in zip(*map(_geodesic_start, starts)))
    ss = _nodes(lams, float(s_max))
    z0, t0, jv0 = p0[:, : 2 * n], p0[:, 2 * n], _J(v0)
    # contact term: <z0, J(A v0 + B J v0)> = A <z0, J v0> - B <z0, v0>
    z0_jv0, z0_v0 = _row_sum(z0 * jv0), _row_sum(z0 * v0)

    half = lams[:, None] * ss  # (N, m+1) half turning angles
    theta = 2.0 * half
    trig = duals._libm(lambda h: (math.sin(2.0 * h), math.cos(2.0 * h), math.sin(h)), half, 3)
    sin_t, cos_t, sin_h = trig[..., 0], trig[..., 1], trig[..., 2]
    # A = s sin(theta) / theta, B = s sin(theta/2) sin(theta/2) / (theta/2)
    a = ss * _sinc(theta, sin_t)
    b = ss * sin_h * _sinc(half, sin_h)
    z = z0[:, None] + a[..., None] * v0[:, None] + b[..., None] * jv0[:, None]
    t = (t0[:, None] + a * z0_jv0[:, None] - b * z0_v0[:, None]) + ss * ss * _g(theta, sin_t)
    v = cos_t[..., None] * v0[:, None] + sin_t[..., None] * jv0[:, None]
    coords = np.concatenate([z, t[..., None]], axis=-1)
    return [GeodesicTrace(lam=float(lam), ss=ss, coords=coords[i], velocities=v[i])
            for i, lam in enumerate(lams)]


_PROFILE_SPAN = (0.01, 1.0 - 1e-6)  # profile grid ends, as fractions of 1/lam^2


def profile_ode(lams):
    """Integrate the squared-height radial equation of the umbilic sphere of
    each curvature in ``lams``.

    Each profile starts just inside its outer radius ``1/lam^2`` with the
    analytic local expansion of the profile as the initial value and is
    integrated inward straight onto a 200-point grid from 0.01 to 1 - 1e-6
    times the outer radius, one lane per radius.  The lanes of all
    curvatures run as one ``rk45.solve_lanes`` sweep, each with its own
    ``lam^2`` in the right-hand side, so a profile is bitwise the one it
    gets alone.  Returns one ``(r, f)`` pair of arrays per curvature.
    An underflowing lane raises ``StepUnderflow``.
    """
    lams = [_positive(lam, "curvature parameter") for lam in lams]
    num = 200
    grids = []
    for lam in lams:
        r_out = 1.0 / (lam * lam)
        r_lo, r_hi = (frac * r_out for frac in _PROFILE_SPAN)
        if not 0.0 < r_lo < r_hi < r_out:
            raise DomainError("profile grid must sit inside (0, 1/lam^2)")
        grids.append(np.linspace(r_lo, r_hi, num))  # ends at r_hi, a lane of zero span
    lam2 = np.repeat([lam * lam for lam in lams], num)

    def f(r, y):
        fv = np.maximum(y[:, 0], 0.0)  # not fmax: a NaN state propagates
        return -np.sqrt(lam2 * r * fv / (1.0 - lam2 * r))[:, None]

    # local expansion at each profile's start
    f0 = [_psi(1.0 - lam * lam * grid[-1]) / lam**4 for lam, grid in zip(lams, grids)]
    r_hi = np.repeat([grid[-1] for grid in grids], num)
    sols = rk45.raise_underflow(rk45.solve_lanes(
        f, r_hi, np.repeat(f0, num)[:, None], np.concatenate(grids),
        StepControl(rtol=1e-10, atol=1e-12)))
    values = np.array([sol.ys[-1, 0] for sol in sols])
    return [(grid, values[k * num:(k + 1) * num]) for k, grid in enumerate(grids)]


# ---------------------------------------------------------------------------
# on-surface directional derivatives


def _newton_project(s: SurfaceDef, coords, maxit=10):
    """Newton-project each row of an (N, 2n+1) stack onto the level set.

    The rows run in lockstep: every row still off the level set takes its
    step from one ``evaluate_many`` call per sweep, with its own arithmetic,
    so a row gives the same bits in any stack.  Returns the projected stack
    and its ``(u, grad, hess)`` rows from each row's last sweep, which found
    the row on the level set where it stands.  Of the rows that do not
    converge, the first raises :class:`ProjectionFailure`.  If an evaluation
    raises, the rows are projected one at a time, so the first row that
    fails alone raises what it raises alone; if none does, the evaluation's
    own failure raises.
    """
    c = np.array(coords, dtype=float)
    live = np.arange(len(c))  # rows still stepping
    failed = np.zeros(len(c), dtype=bool)
    last = [np.zeros(len(c)), np.empty_like(c), np.empty(c.shape + c.shape[-1:])]
    try:
        for _ in range(maxit):
            if not len(live):
                break
            u, grad, hess = s.evaluate_many(c[live])
            for whole, part in zip(last, (u, grad, hess)):
                whole[live] = part
            tol = 1e-13 * (1.0 + np.abs(grad).max(axis=1)) * (1.0 + np.abs(c[live]).max(axis=1))
            off = np.abs(u) > tol
            g2 = _dots(grad, grad)
            failed[live[off & (g2 == 0.0)]] = True
            step = off & (g2 != 0.0)
            c[live[step]] -= (u[step] / g2[step])[:, None] * grad[step]
            live = live[step]
    except Exception:
        if len(c) > 1:
            for row in np.asarray(coords, dtype=float):
                _newton_project(s, row[None], maxit)
        raise
    failed[live] = True  # still off the level set after maxit steps
    if failed.any():
        i = int(failed.argmax())
        raise ProjectionFailure(f"|u| stuck at {abs(last[0][i]):g} after {maxit} iterations")
    return c, last


def surface_offset(s: SurfaceDef, coords, dirfn, h):
    """Step distance ``h`` along the chord ``dirfn(coords)`` and project
    back onto the level set.

    The fields used here are tangent at ``coords``, so the projected chord
    is ``x + h X + h^2 a + O(h^3)`` with the same ``a`` for ``+h`` and
    ``-h``: a central difference over it is the derivative along ``X``
    within ``O(h^2)``, as along the field's flow.  A batch of one of the
    offsets of :func:`_offset_reports`.
    """
    c = np.asarray(coords, dtype=float)
    (c,), _ = _newton_project(s, (c + h * np.asarray(dirfn(c), dtype=float))[None])
    return c


# field kinds of the finite-difference checks; a kind >= 0 is that
# invariant-complement field
_EN, _E2NHAT = -2, -1


def _field_values(fb, kinds):
    """The unit fields of the finite-difference checks at the points of a
    frame batch, as an (N, len(kinds), 2n+1) stack of coordinate vectors:
    column i is ``kinds[i]``, the characteristic direction (``_EN``), the
    rescaled vertical tangent (``_E2NHAT``) or that complement field."""
    v = np.empty((len(fb), len(kinds), fb.en.shape[-1]))
    v[:, kinds == _EN] = fb.en[:, None]
    v[:, kinds == _E2NHAT] = fb.e2n[:, None]
    v[:, kinds >= 0] = fb.xi_prime[:, kinds[kinds >= 0]]
    w = _lifts(fb.coords[:, None], v)
    # the vertical tangent: alpha e_2n + T, rescaled to unit length
    vertical = kinds == _E2NHAT
    alpha = fb.alpha[:, None, None]
    wv = alpha * w[:, vertical]
    wv[..., -1] += 1.0
    w[:, vertical] = wv / np.sqrt(1.0 + alpha * alpha)
    return w


def _offset_reports(s: SurfaceDef, base, kinds, h_fd):
    """Reports at the offsets ``+h_fd`` and ``-h_fd`` (rows 2i and 2i+1)
    along field ``kinds[i]`` from the base point of row i, one per point of
    the ``base`` report batch and kind.

    Each field's value X is read once, from the frame of ``base``; the
    offset is the chord ``x + h X`` Newton-projected back onto the level
    set (:func:`surface_offset`), with every row projected in one lockstep
    stack and reported as one batch under its base point's pivots, from
    the evaluations of the projection's last sweep.  An offset the
    projection leaves non-finite raises ``ValueError``."""
    m = len(kinds)
    pivots = np.repeat(base.frame.pivots, 2 * m, axis=0)
    starts = np.repeat(base.frame.coords, 2 * m, axis=0)
    chords = np.repeat(_field_values(base.frame, kinds).reshape(-1, starts.shape[1]), 2, axis=0)
    hs = np.tile((h_fd, -h_fd), m * len(base))
    return _reports_at(s, *_newton_project(s, starts + hs[:, None] * chords), pivots)


def _en_alpha_rates(fb):
    """Exact derivatives of the tilt along the characteristic direction at
    the points of a frame batch."""
    return _alpha_rates(fb.coords, fb.grad, fb.hess, fb.e2n, fb.gnorm, _lifts(fb.coords, fb.en))


def _central(values, h_fd):
    """Central differences of values at paired offset rows."""
    return (values[0::2] - values[1::2]) / (2.0 * h_fd)


@dataclass
class IdentityResiduals:
    """Finite-difference residuals of the umbilic interior identities."""

    en_k: float
    en_alpha: float
    e2n_k: float
    e2n_alpha: float
    e2n_l: float
    xi_prime: float

    def max(self):
        return worst(asdict(self).values())


def identity_check(s: SurfaceDef, p: Point) -> IdentityResiduals:
    """Residuals of the six interior identities at an umbilic point.

    First derivatives of ``k``, ``l`` and the tilt are central differences
    along projected chords of the characteristic direction, the rescaled
    vertical tangent and the invariant-complement fields; the right-hand
    sides use the base-point scalars, exact tilt rates, and a second
    difference of the exact tilt rate for the one second-order term.
    Every residual is expected to scale quadratically with the step.
    A batch of one of :func:`identity_check_many`.
    """
    return identity_check_many(s, (p,))[0]


def identity_check_many(s: SurfaceDef, points, h_fd=1e-4) -> list:
    """:func:`identity_check` at each of a sequence of points on one surface.

    Every offset of every point (both signs of the 2n fields) is projected
    in one lockstep stack and reported in one batch; at the default ``h_fd``
    entry i is bitwise what ``identity_check(s, points[i])`` gives.  Any
    point's failure raises, but the stages run over all points at once, so
    the error need not be the first failing point's; :func:`resampled` reruns them as
    batches of one and skips only the points that must be resampled.
    """
    base = report_many(s, points)
    if np.any(base.spread > 10.0 * s.umbilic_tol):
        raise ValueError("identity residuals are meaningful only at umbilic points")
    n = s.n
    m = 2 * n  # fields per point: e_n, the vertical tangent, 2n-2 complement fields
    rep = _offset_reports(s, base, np.array([_EN, _E2NHAT, *range(2 * n - 2)]), h_fd)
    dk, dl, da = (_central(g, h_fd) for g in (rep.k, rep.l, rep.alpha))
    # first difference of the exact tilt rate = the iterated derivative
    dphi = _central(_en_alpha_rates(rep.frame), h_fd)
    phis = _en_alpha_rates(base.frame)
    out = []
    for j in range(len(base)):
        k0, l0, a0 = float(base.k[j]), float(base.l[j]), float(base.alpha[j])
        phi0 = float(phis[j])
        root = math.sqrt(1.0 + a0 * a0)
        en, e2n = j * m, j * m + 1
        xi = range(j * m + 2, (j + 1) * m)  # every scalar must be constant
        out.append(IdentityResiduals(
            en_k=float(abs(dk[en] - (l0 - 2.0 * k0) * a0)),
            en_alpha=float(abs(da[en] - (k0 * k0 - a0 * a0 - k0 * l0))),
            e2n_k=float(abs(dk[e2n] - a0 * (k0 * k0 + phi0 + a0 * a0) / root)),
            e2n_alpha=float(abs(da[e2n] + k0 * phi0 / root)),
            e2n_l=float(abs(dl[e2n] - (float(dphi[en]) + 6.0 * a0 * phi0 + 4.0 * a0**3
                                        + a0 * l0 * l0) / root)),
            xi_prime=float(worst(abs(float(d[i])) for i in xi for d in (dk, dl, da, dphi))),
        ))
    return out


def leaf_constancy(s: SurfaceDef, p: Point):
    """Largest change of k, l, alpha along the invariant-complement fields.
    A batch of one of :func:`leaf_constancy_many`."""
    return leaf_constancy_many(s, (p,))[0]


def leaf_constancy_many(s: SurfaceDef, points) -> list:
    """:func:`leaf_constancy` at each of a sequence of points on one
    surface, with every offset in one lockstep stack and one report batch;
    entry i is bitwise the one-point result."""
    base = report_many(s, points)
    m = 2 * s.n - 2
    rep = _offset_reports(s, base, np.arange(m), 1e-4)
    diffs = [np.abs(g[0::2] - g[1::2]) for g in (rep.k, rep.l, rep.alpha)]
    return [worst(float(d[i]) for i in range(j * m, (j + 1) * m) for d in diffs)
            for j in range(len(base))]
