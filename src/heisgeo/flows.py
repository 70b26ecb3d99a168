"""Curve integration on the group and on-surface derivative checks.

Covers unit-speed horizontal curves of constant curvature (the frame
formulation keeps the velocity equation linear), the radial profile equation
recovering the constant-curvature sphere, and finite-difference directional
derivatives of the curvature scalars along surface vector fields, with
offsets Newton-projected back onto the level set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import rk45
from .catalog import _psi  # squared-height profile of the reference sphere
from .core import HorizontalVector, Point, _J, frame_lift
from .rk45 import StepControl, _row_sum  # per-row sums, independent of the batch
from .surface import (
    DomainError,
    GeometryError,
    SurfaceDef,
    alpha_directional,
    build_frame,
    frame_many,
    horizontal_gradient,
    report,
    report_many,
)

__all__ = [
    "CurveState",
    "GeodesicTrace",
    "ProjectionFailure",
    "IdentityResiduals",
    "geodesic_flow",
    "geodesic_flows",
    "profile_ode",
    "identity_check",
    "leaf_constancy",
    "bracket_span",
    "surface_offset",
]


class ProjectionFailure(GeometryError):
    """Newton correction back to the level set did not converge."""


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
    nfev: int = 0      # counters of the rk45 solution
    accepted: int = 0
    rejected: int = 0

    def state(self, i) -> CurveState:
        return CurveState(Point(self.coords[i]), HorizontalVector(self.velocities[i]))


def _geodesic_y0(start: CurveState):
    v0 = start.v.coeffs
    if abs(np.linalg.norm(v0) - 1.0) > 1e-10:
        raise ValueError("initial direction must be a unit horizontal vector")
    return np.concatenate([start.p.coords, v0])


def _check_curvatures(lams):
    if not np.isfinite(lams).all():
        raise ValueError("curvature must be finite")


def _geodesic_control():
    # tight default: norm drift must stay below 1e-9 over long arcs
    return StepControl(rtol=1e-12, atol=1e-12, max_step=0.05)


def _geodesic_trace(lam, sol, n):
    return GeodesicTrace(lam=lam, ss=sol.ss, coords=sol.ys[:, : 2 * n + 1],
                         velocities=sol.ys[:, 2 * n + 1 :], nfev=sol.nfev,
                         accepted=sol.accepted, rejected=sol.rejected)


def geodesic_flow(start: CurveState, lam, s_max) -> GeodesicTrace:
    """Integrate a constant-curvature horizontal curve.

    The frame coefficients of the velocity rotate at twice the curvature,
    the horizontal coordinates follow them, and the vertical coordinate
    follows the contact lift.  The velocity norm is preserved by the flow
    and is asserted on, never renormalized.
    """
    n = start.p.n
    y0 = _geodesic_y0(start)
    lam = float(lam)
    _check_curvatures(lam)

    def f(s, y):
        x = y[:n]
        yy = y[n : 2 * n]
        v = y[2 * n + 1 :]
        dv = _J(v) * (2.0 * lam)
        dt = float(yy @ v[:n] - x @ v[n:])
        return np.concatenate([v[:n], v[n:], [dt], dv])

    sol = rk45.solve(f, 0.0, y0, float(s_max), _geodesic_control())
    return _geodesic_trace(lam, sol, n)


def geodesic_flows(starts, lams, s_max) -> list:
    """``geodesic_flow`` for a set of starts, as lanes of one
    ``rk45.solve_lanes`` sweep.

    ``lams`` holds one curvature per start; the starts share their
    dimension n.  Each lane follows ``geodesic_flow``'s
    controller, so a trace has the steps ``geodesic_flow`` takes for its
    start alone, up to rounding.  A lane whose step size underflows raises
    ``StepUnderflow``, the first in input order; a non-finite curvature
    raises ``ValueError``.
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
    _check_curvatures(lams)
    y0 = np.array([_geodesic_y0(st) for st in starts])
    omega = (2.0 * lams)[:, None]

    def f(s, y):
        x = y[:, :n]
        yy = y[:, n : 2 * n]
        v = y[:, 2 * n + 1 :]
        out = np.empty_like(y)
        out[:, : 2 * n] = v
        out[:, 2 * n] = _row_sum(yy * v[:, :n]) - _row_sum(x * v[:, n:])
        # dv = 2 lam J(v), row by row
        out[:, 2 * n + 1 : 3 * n + 1] = -v[:, n:] * omega
        out[:, 3 * n + 1 :] = v[:, :n] * omega
        return out

    sols = rk45.solve_lanes(f, 0.0, y0, float(s_max), _geodesic_control())
    for sol in sols:
        if sol.status == "underflow":
            raise rk45.StepUnderflow.at(sol.ss[-1])
    return [_geodesic_trace(float(lam), sol, n) for lam, sol in zip(lams, sols)]


def profile_ode(lam, r_span=None):
    """Integrate the squared-height radial equation of the umbilic sphere.

    Starts just inside the outer radius with the analytic local expansion of
    the profile as the initial value and integrates inward; returns the
    profile on a 200-point grid as ``(r, f)`` arrays.
    """
    lam = float(lam)
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("curvature parameter must be finite and positive")
    r_out = 1.0 / (lam * lam)
    if r_span is None:
        r_span = (0.01 * r_out, (1.0 - 1e-6) * r_out)
    r_lo, r_hi = r_span
    if not 0.0 < r_lo < r_hi < r_out:
        raise DomainError("profile grid must sit inside (0, 1/lam^2)")
    # keep steps below the grid scale: values come off the interpolant
    num = 200
    control = StepControl(rtol=1e-10, atol=1e-12, max_step=(r_hi - r_lo) / (4.0 * num))
    lam2 = lam * lam

    def f(r, y):
        fv = max(float(y[0]), 0.0)
        return np.array([-math.sqrt(lam2 * r * fv / (1.0 - lam2 * r))])

    f0 = _psi(1.0 - lam2 * r_hi) / lam**4  # local expansion at the start
    sol = rk45.solve(f, r_hi, np.array([f0]), r_lo, control)
    grid = np.linspace(r_lo, r_hi, num)
    vals = np.array([float(sol(r)[0]) for r in grid])
    vals[-1] = f0
    return grid, vals


# ---------------------------------------------------------------------------
# on-surface flows and directional derivatives


def _newton_project(s: SurfaceDef, coords, maxit=10):
    c = np.asarray(coords, dtype=float).copy()
    for _ in range(maxit):
        u, grad, _ = s.evaluate(c)
        tol = 1e-13 * (1.0 + float(np.max(np.abs(grad)))) * (
            1.0 + float(np.max(np.abs(c)))
        )
        if abs(u) <= tol:
            return c
        g2 = float(grad @ grad)
        if g2 == 0.0:
            break
        c -= (u / g2) * grad
    raise ProjectionFailure(f"|u| stuck at {abs(u):g} after {maxit} iterations")


def surface_offset(s: SurfaceDef, coords, dirfn, h, nsub=4):
    """Flow distance ``h`` along the unit field ``dirfn`` and project back.

    The fields used here annihilate the defining function, so the Newton
    correction only removes integration drift.
    """
    (c,) = _surface_offsets(s, coords, _rows(dirfn), (h,), nsub)
    return c


def _surface_offsets(s: SurfaceDef, coords, field, hs, nsub=4):
    """``surface_offset`` for each distance in ``hs``.  The flows run in
    lockstep, so ``field`` maps an (N, 2n+1) stack of coordinates to the
    field's values there, and each row's arithmetic is its own."""
    c = np.tile(np.asarray(coords, dtype=float), (len(hs), 1))
    step = np.array(hs, dtype=float)[:, None] / nsub
    for _ in range(nsub):
        k1 = field(c)
        k2 = field(c + 0.5 * step * k1)
        k3 = field(c + 0.5 * step * k2)
        k4 = field(c + step * k3)
        c += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return [_newton_project(s, row) for row in c]


def _rows(dirfn):
    """A field over stacks of coordinates from a field at one point."""
    return lambda cs: np.array([dirfn(c) for c in cs])


def _en_field(s: SurfaceDef, n):
    def dirfn(c):
        _, grad, _ = s.evaluate(c)
        b = horizontal_gradient(n, c, grad)
        b /= np.linalg.norm(b)
        return frame_lift(HorizontalVector(-_J(b)), Point(c))

    return dirfn


def _e2nhat_field(s: SurfaceDef, n):
    def dirfn(c):
        _, grad, _ = s.evaluate(c)
        b = horizontal_gradient(n, c, grad)
        gnorm = float(np.linalg.norm(b))
        alpha = -grad[2 * n] / gnorm
        w = alpha * frame_lift(HorizontalVector(b / gnorm), Point(c))
        w[2 * n] += 1.0
        return w / math.sqrt(1.0 + alpha * alpha)

    return dirfn


def _xi_field(s: SurfaceDef, pivots, index):
    """The ``index``-th invariant-complement field under forced pivots, over
    a stack of coordinates: one ``frame_many`` batch per call."""

    def field(cs):
        points = [Point(c) for c in cs]
        xi = frame_many(s, points, pivots=pivots).xi_prime[:, index]
        return np.array([frame_lift(HorizontalVector(v), p) for v, p in zip(xi, points)])

    return field


def _en_alpha(s: SurfaceDef, coords, n):
    """Exact derivative of the tilt along the characteristic direction."""
    dirfn = _en_field(s, n)
    return alpha_directional(s, coords, dirfn(coords))


@dataclass
class IdentityResiduals:
    """Finite-difference residuals of the umbilic interior identities."""

    en_k: float
    en_alpha: float
    e2n_k: float
    e2n_alpha: float
    e2n_l: float
    xi_prime: float

    def as_dict(self):
        return {
            "en_k": self.en_k,
            "en_alpha": self.en_alpha,
            "e2n_k": self.e2n_k,
            "e2n_alpha": self.e2n_alpha,
            "e2n_l": self.e2n_l,
            "xi_prime": self.xi_prime,
        }

    def max(self):
        return max(self.as_dict().values())


def identity_check(s: SurfaceDef, p: Point, h_fd=1e-4) -> IdentityResiduals:
    """Residuals of the six interior identities at an umbilic point.

    First derivatives of ``k``, ``l`` and the tilt are central differences
    along projected flows of the characteristic direction, the rescaled
    vertical tangent and the invariant-complement fields; the right-hand
    sides use the base-point scalars, exact tilt rates, and a second
    difference of the exact tilt rate for the one second-order term.
    Every residual is expected to scale quadratically with the step.
    """
    n = p.n
    base = report(s, p)
    if base.spread > 10.0 * s.umbilic_tol:
        raise ValueError("identity residuals are meaningful only at umbilic points")
    pivots = base.frame.pivots
    k0, l0, a0 = base.k, base.l, base.alpha
    coords = p.coords
    phi0 = _en_alpha(s, coords, n)
    root = math.sqrt(1.0 + a0 * a0)

    def rates(field):
        """Offsets along ``field`` and central differences of k, l, alpha;
        both offsets flow, and are reported, as one batch."""
        cp, cm = _surface_offsets(s, coords, field, (+h_fd, -h_fd))
        rep = report_many(s, (Point(cp), Point(cm)), pivots=pivots)
        return cp, cm, [float(g[0] - g[1]) / (2.0 * h_fd) for g in (rep.k, rep.l, rep.alpha)]

    # characteristic direction
    cp, cm, (dk, dl, da) = rates(_rows(_en_field(s, n)))
    r_en_k = abs(dk - (l0 - 2.0 * k0) * a0)
    r_en_a = abs(da - (k0 * k0 - a0 * a0 - k0 * l0))
    # first difference of the exact tilt rate = the iterated derivative
    en_en_alpha = (_en_alpha(s, cp, n) - _en_alpha(s, cm, n)) / (2.0 * h_fd)

    # rescaled vertical tangent
    _, _, (dk, dl, da) = rates(_rows(_e2nhat_field(s, n)))
    r_e2n_k = abs(dk - a0 * (k0 * k0 + phi0 + a0 * a0) / root)
    r_e2n_a = abs(da + k0 * phi0 / root)
    r_e2n_l = abs(
        dl - (en_en_alpha + 6.0 * a0 * phi0 + 4.0 * a0**3 + a0 * l0 * l0) / root
    )

    # invariant complement: every scalar must be constant
    r_xi = 0.0
    for i in range(2 * n - 2):
        cp, cm, diffs = rates(_xi_field(s, pivots, i))
        diffs.append((_en_alpha(s, cp, n) - _en_alpha(s, cm, n)) / (2.0 * h_fd))
        r_xi = max(r_xi, *map(abs, diffs))

    return IdentityResiduals(
        en_k=float(r_en_k),
        en_alpha=float(r_en_a),
        e2n_k=float(r_e2n_k),
        e2n_alpha=float(r_e2n_a),
        e2n_l=float(r_e2n_l),
        xi_prime=float(r_xi),
    )


def leaf_constancy(s: SurfaceDef, p: Point, h_fd=1e-4):
    """Largest change of k, l, alpha along the invariant-complement fields."""
    n = p.n
    base = report(s, p)
    pivots = base.frame.pivots
    worst = 0.0
    for i in range(2 * n - 2):
        cp, cm = _surface_offsets(s, p.coords, _xi_field(s, pivots, i), (+h_fd, -h_fd))
        rep = report_many(s, (Point(cp), Point(cm)), pivots=pivots)
        worst = max(worst, *(abs(float(g[0] - g[1])) for g in (rep.k, rep.l, rep.alpha)))
    return worst


def bracket_span(s: SurfaceDef, p: Point, h_fd=1e-5):
    """Span of the invariant-complement fields together with their brackets.

    Returns ``(rank, en_projection)`` where the rank counts dimensions of the
    span (in the frame-plus-vertical representation) and ``en_projection`` is
    the largest component of a unit vector of the span along the
    characteristic direction; the foliation statement needs rank 2n-1 with
    that projection bounded away from one.
    """
    fr = build_frame(s, p)
    mat = _bracket_rows(s, p, fr.pivots, h_fd)
    _, svals, vt = np.linalg.svd(mat)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    # orthonormal basis of the span, then project the characteristic direction
    en_full = np.concatenate([fr.en.coeffs, [0.0]])
    proj = float(np.linalg.norm(vt[:rank] @ en_full))
    return rank, proj


def _bracket_rows(s: SurfaceDef, p: Point, pivots, h_fd):
    """The complement fields at ``p`` and their brackets, one row each with
    the vertical component last.  A bracket's horizontal part is a central
    difference of the fields at ``p +- h_fd X``; the fields come from two
    ``frame_many`` batches under ``pivots``, one at ``p`` and one at every
    offset, and each row of a batch is the point's frame alone."""
    n = p.n
    m = 2 * n - 2
    vals = frame_many(s, (p,), pivots=pivots).xi_prime[0]
    lifts = [frame_lift(HorizontalVector(v), p) for v in vals]
    offsets = [c for w in lifts for c in (p.coords + h_fd * w, p.coords - h_fd * w)]
    xi = frame_many(s, [Point(c) for c in offsets], pivots=pivots).xi_prime
    rows = [np.concatenate([v, [0.0]]) for v in vals]
    for i in range(m):
        for j in range(i + 1, m):
            Xi, Xj = vals[i], vals[j]
            dji = (xi[2 * i, j] - xi[2 * i + 1, j]) / (2.0 * h_fd)
            dij = (xi[2 * j, i] - xi[2 * j + 1, i]) / (2.0 * h_fd)
            tau = -2.0 * float(Xi[:n] @ Xj[n:] - Xi[n:] @ Xj[:n])
            rows.append(np.concatenate([dji - dij, [tau]]))
    return np.array(rows)
