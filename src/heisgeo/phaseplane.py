"""Planar dynamics of the tilt and the curvature defect along characteristic
curves of a constant-mean-curvature surface.

State is ``(alpha, beta)`` where ``beta`` is the defect between the normal
curvature and twice the principal one.  The vertical axis ``beta = 0`` is an
invariant line that blows up in finite time; every other point of either
half-plane lies on a closed orbit symmetric across the ``beta`` axis, which
is how the module constructs and certifies periodic orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rk45
from ._io import fmt
from .rk45 import Event, StepControl, StepUnderflow

__all__ = [
    "PhaseParams",
    "PhasePoint",
    "OrbitTrace",
    "OnSeparatrix",
    "NotPeriodic",
    "vector_field",
    "stationary_points",
    "upsilon_beta",
    "upsilon_polyline",
    "integrate",
    "periodic_orbit",
    "portrait",
    "Portrait",
    "default_seeds",
    "AXIS_EPS",
]

AXIS_EPS = 1e-12  # crossings this close to the stationary axis don't count


class OnSeparatrix(RuntimeError):
    """The start lies on the invariant vertical-axis solution."""


class NotPeriodic(RuntimeError):
    """Closure could not be certified within the orbit tolerance."""


@dataclass(frozen=True)
class PhaseParams:
    n: int
    c: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.c <= 0:
            raise ValueError("the constant mean curvature c must be positive")


@dataclass(frozen=True)
class PhasePoint:
    alpha: float
    beta: float

    def as_array(self):
        return np.array([self.alpha, self.beta], dtype=float)


@dataclass
class OrbitTrace:
    params: PhaseParams
    samples: list  # (s, PhasePoint), spacing bounded by the controller's max_step
    events: list = field(default_factory=list)  # (s, beta) axis crossings
    period: Optional[float] = None
    closure_error: Optional[float] = None

    def sample_array(self):
        return np.array([(s, q.alpha, q.beta) for s, q in self.samples])


def vector_field(pp: PhaseParams, q: PhasePoint):
    """Right-hand side of the planar system at ``q``."""
    n, c = pp.n, pp.c
    dalpha = -q.alpha * q.alpha + ((q.beta - c) * ((2 * n - 1) * q.beta + c)) / (
        4.0 * n * n
    )
    dbeta = -2.0 * n * q.beta * q.alpha
    return dalpha, dbeta


def _rhs(pp):
    n, c = pp.n, pp.c
    inv4n2 = 1.0 / (4.0 * n * n)
    two_n = 2.0 * n
    m = 2 * n - 1

    def f(s, y):
        a, b = y
        return np.array(
            [-a * a + (b - c) * (m * b + c) * inv4n2, -two_n * b * a]
        )

    return f


def stationary_points(pp: PhaseParams):
    return (
        PhasePoint(0.0, pp.c),
        PhasePoint(0.0, -pp.c / (2 * pp.n - 1)),
    )


def upsilon_beta(pp: PhaseParams, beta):
    """Tilt values with vanishing tilt rate at the given defect, if any."""
    n, c = pp.n, pp.c
    rad = (beta - c) * ((2 * n - 1) * beta + c) / (4.0 * n * n)
    if rad < 0.0:
        return ()
    if rad == 0.0:
        return (0.0,)
    root = math.sqrt(rad)
    return (root, -root)


def upsilon_polyline(pp: PhaseParams, beta_lo, beta_hi, num=200):
    """Sampled zero-tilt-rate curve inside a defect window, as (alpha, beta)
    rows ordered into a plottable polyline per hyperbola component."""
    n, c = pp.n, pp.c
    b_plus = max(beta_lo, c)
    b_minus = min(beta_hi, -c / (2 * n - 1))
    rows = []
    if beta_hi > c:
        grid = np.linspace(beta_hi, b_plus, num)
        branch = [(upsilon_beta(pp, b)[0], b) for b in grid]
        rows.extend(branch)
        rows.extend((-a, b) for a, b in reversed(branch))
    if beta_lo < -c / (2 * n - 1):
        grid = np.linspace(b_minus, beta_lo, num)
        branch = [(upsilon_beta(pp, b)[0], b) for b in grid]
        rows.extend(branch)
        rows.extend((-a, b) for a, b in reversed(branch))
    return np.array(rows) if rows else np.empty((0, 2))


def _axis_event(max_count=None):
    return Event(
        fn=lambda s, y: y[0],
        value_tol=AXIS_EPS,
        accept=lambda s, y: abs(y[1]) > AXIS_EPS,
        terminal_count=max_count,
    )


def _default_control():
    # closure certificates need clear headroom below the orbit tolerance
    return StepControl(rtol=2e-11, atol=2e-11, max_step=0.1)


def integrate(pp: PhaseParams, q0: PhasePoint, s_max, control=None) -> OrbitTrace:
    """Trajectory through ``q0`` in both time directions.

    Each direction runs until ``s_max`` or until two axis crossings have been
    located; crossings are found by sign-change bracketing plus bisection.
    """
    if s_max <= 0:
        raise ValueError("s_max must be positive")
    control = control or _default_control()
    f = _rhs(pp)
    y0 = q0.as_array()
    legs = []
    events = []
    for direction in (-1.0, 1.0):
        sol = rk45.solve(f, 0.0, y0, direction * s_max, control,
                         events=[_axis_event(max_count=2)])
        legs.append(sol)
        events.extend((s, y[1]) for s, y, _ in sol.events)
    back, fwd = legs
    samples = [
        (s, PhasePoint(y[0], y[1]))
        for s, y in zip(back.ss[::-1], back.ys[::-1])
    ]
    samples.extend(
        (s, PhasePoint(y[0], y[1])) for s, y in zip(fwd.ss[1:], fwd.ys[1:])
    )
    events.sort(key=lambda e: e[0])
    return OrbitTrace(params=pp, samples=samples, events=events)


def periodic_orbit(pp: PhaseParams, q0: PhasePoint, control=None,
                   orbit_tol=None, s_cap=None) -> OrbitTrace:
    """Closed orbit through ``q0``, certified by full-period re-integration.

    The reflection symmetry across the vertical axis makes the half arc
    between consecutive axis crossings determine the period; a start on the
    axis already sees the full period between its two bracketing crossings.
    Closure is then certified by integrating one full period from ``q0``,
    with one tightened retry when the error lacks margin below
    ``orbit_tol``; the trace samples that full period and carries its
    closure error.
    """
    scale = 1.0 + math.hypot(q0.alpha, q0.beta)
    if orbit_tol is None:
        orbit_tol = 1e-8 * scale
    if abs(q0.beta) <= AXIS_EPS:
        raise OnSeparatrix("the vertical-axis solution is never periodic")
    for st in stationary_points(pp):
        if math.hypot(q0.alpha - st.alpha, q0.beta - st.beta) <= AXIS_EPS:
            raise ValueError("stationary points have no orbit through them")
    control = control or _default_control()
    if s_cap is None:
        s_cap = 1000.0 / pp.c
    f = _rhs(pp)
    y0 = q0.as_array()

    def leg(direction):
        try:
            sol = rk45.solve(f, 0.0, y0, direction * s_cap, control,
                             events=[_axis_event(max_count=1)])
        except StepUnderflow as exc:
            raise NotPeriodic(f"blow-up before an axis crossing: {exc}") from exc
        if not sol.events:
            raise NotPeriodic("no axis crossing found within the time cap")
        return sol

    fwd = leg(+1.0)
    back = leg(-1.0)
    s_plus, y_plus, _ = fwd.events[0]
    s_minus, y_minus, _ = back.events[0]
    on_axis = abs(q0.alpha) <= AXIS_EPS
    period = (s_plus - s_minus) if on_axis else 2.0 * (s_plus - s_minus)
    events = [(s_minus, float(y_minus[1])), (s_plus, float(y_plus[1]))]

    def closure(ctrl):
        sol = rk45.solve(f, 0.0, y0, period, ctrl)
        return sol, float(np.linalg.norm(sol.ys[-1] - y0))

    sol, err = closure(control)
    if err > 0.3 * orbit_tol:  # re-certify with margin before giving up
        tight = StepControl(rtol=1e-13, atol=1e-13,
                            max_step=control.max_step / 5.0)
        sol2, err2 = closure(tight)
        if err2 < err:
            sol, err = sol2, err2
        if err > orbit_tol:
            raise NotPeriodic(f"closure error {err:g} exceeds {orbit_tol:g}")
    samples = [(s, PhasePoint(y[0], y[1])) for s, y in zip(sol.ss, sol.ys)]
    return OrbitTrace(params=pp, samples=samples, events=events,
                      period=float(period), closure_error=err)


def default_seeds(pp: PhaseParams):
    """Nested axis seeds, five per half-plane."""
    c, n = pp.c, pp.n
    upper = [PhasePoint(0.0, c * f) for f in (1.3, 1.7, 2.2, 2.8, 3.5)]
    depth = c / (2 * n - 1)
    lower = [PhasePoint(0.0, -depth * f) for f in (1.3, 1.7, 2.2, 2.8, 3.5)]
    return upper + lower


@dataclass
class Portrait:
    params: PhaseParams
    rows: list  # (kind, s, alpha, beta)
    orbits: list

    def write_csv(self, fh):
        fh.write("kind,s,alpha,beta\n")
        for kind, s, a, b in self.rows:
            fh.write(f"{kind},{fmt(s)},{fmt(a)},{fmt(b)}\n")


def portrait(pp: PhaseParams, alpha_range=None, beta_range=None, grid=21,
             seeds=None, control=None) -> Portrait:
    """Data set sufficient to re-plot the phase picture.

    Emits the vector field on a rectangular grid (two rows per grid point:
    base at s=0, tip at s=1; the tip equals the base where the field
    vanishes), the zero-tilt-rate polyline, a family of periodic orbits and
    the stationary points.
    """
    c = pp.c
    if alpha_range is None:
        alpha_range = (-2.0 * c, 2.0 * c)
    if beta_range is None:
        beta_range = (-2.0 * c, 4.0 * c)
    rows = []
    cell = max(
        (alpha_range[1] - alpha_range[0]) / (grid - 1),
        (beta_range[1] - beta_range[0]) / (grid - 1),
    )
    for a in np.linspace(*alpha_range, grid):
        for b in np.linspace(*beta_range, grid):
            da, db = vector_field(pp, PhasePoint(a, b))
            norm = math.hypot(da, db)
            scale = 0.35 * cell / norm if norm > 0.0 else 0.0
            rows.append(("field", 0.0, a, b))
            rows.append(("field", 1.0, a + scale * da, b + scale * db))
    poly = upsilon_polyline(pp, beta_range[0], beta_range[1])
    for i, (a, b) in enumerate(poly):
        rows.append(("upsilon", float(i), a, b))
    orbits = []
    for i, seed in enumerate(seeds or default_seeds(pp)):
        tr = periodic_orbit(pp, seed, control=control)
        orbits.append(tr)
        for s, q in tr.samples:
            rows.append((f"orbit:{i}", s, q.alpha, q.beta))
    for st in stationary_points(pp):
        rows.append(("stationary", 0.0, st.alpha, st.beta))
    return Portrait(params=pp, rows=rows, orbits=orbits)
