"""Planar dynamics of the tilt and the curvature defect along characteristic
curves of a constant-mean-curvature surface.

State is ``(alpha, beta)`` where ``beta`` is the defect between the normal
curvature and twice the principal one.  The line ``beta = 0`` is invariant
and its solution blows up in finite time; every other point of either
half-plane lies on a closed orbit symmetric across the ``beta`` axis
``alpha = 0``, and ``first_integral`` is constant along it.

Orbits are integrated in log-defect coordinates ``(alpha, w = log|beta|)``
on the half-plane of the start.  There the defect equation ``w' = -2 n
alpha`` is linear, so orbits that pass exponentially close to the invariant
line cost no more steps than any other; samples and events are reported in
``(alpha, beta)``.
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
    "first_integral",
    "portrait",
    "Portrait",
    "default_seeds",
    "AXIS_EPS",
]

AXIS_EPS = 1e-12  # tilt tolerance of located axis crossings; stationary radius


class OnSeparatrix(RuntimeError):
    """The start lies on the invariant line ``beta = 0``."""


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


@dataclass
class OrbitTrace:
    params: PhaseParams
    samples: list  # (s, PhasePoint), spacing bounded by the controller's max_step
    events: list = field(default_factory=list)  # (s, beta) axis crossings
    period: Optional[float] = None
    closure_error: Optional[float] = None
    nfev: int = 0      # summed over the trace's rk45 solves
    accepted: int = 0
    rejected: int = 0

    def sample_array(self):
        return np.array([(s, q.alpha, q.beta) for s, q in self.samples])

    def first_integral_drift(self):
        """Largest change of ``first_integral`` over the samples, relative to
        its value at the first sample."""
        arr = self.sample_array()
        vals = first_integral(self.params, arr[:, 1], arr[:, 2])
        return float(np.max(np.abs(vals - vals[0])) / vals[0])


def vector_field(pp: PhaseParams, q: PhasePoint):
    """Right-hand side of the planar system at ``q``."""
    n, c = pp.n, pp.c
    dalpha = -q.alpha * q.alpha + ((q.beta - c) * ((2 * n - 1) * q.beta + c)) / (
        4.0 * n * n
    )
    dbeta = -2.0 * n * q.beta * q.alpha
    return dalpha, dbeta


def first_integral(pp: PhaseParams, alpha, beta):
    """``|beta|^(-1/n) (alpha^2 + (beta - c)^2 / (4 n^2))``, constant along
    every trajectory off the invariant line (arrays broadcast)."""
    n, c = pp.n, pp.c
    return np.abs(beta) ** (-1.0 / n) * (alpha * alpha + (beta - c) ** 2 / (4.0 * n * n))


def _rhs_log(pp, sign):
    """Right-hand side in ``(alpha, w = log|beta|)`` on the half-plane
    ``sign * beta > 0``."""
    n, c = pp.n, pp.c
    inv4n2 = 1.0 / (4.0 * n * n)
    two_n = 2.0 * n
    m = 2 * n - 1

    def f(s, y):
        a, w = y
        try:
            b = sign * math.exp(w)
        except OverflowError:  # a trial stage ran off; the step is rejected
            b = sign * math.inf
        return np.array([-a * a + (b - c) * (m * b + c) * inv4n2, -two_n * a])

    return f


def _to_log(q: PhasePoint):
    if q.beta == 0.0:
        raise OnSeparatrix("the solution on the line beta = 0 is never periodic")
    sign = math.copysign(1.0, q.beta)
    return sign, np.array([q.alpha, math.log(abs(q.beta))])


def _samples(sol, sign):
    betas = sign * np.exp(sol.ys[:, 1])
    return [(float(s), PhasePoint(float(a), float(b)))
            for s, a, b in zip(sol.ss, sol.ys[:, 0], betas)]


def _crossings(sol, sign):
    return [(float(s), sign * math.exp(y[1])) for s, y, _ in sol.events]


def _counts(*sols):
    return {"nfev": sum(sol.nfev for sol in sols),
            "accepted": sum(sol.accepted for sol in sols),
            "rejected": sum(sol.rejected for sol in sols)}


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
    return Event(fn=lambda s, y: y[0], value_tol=AXIS_EPS,
                 terminal_count=max_count)


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
    sign, y0 = _to_log(q0)
    f = _rhs_log(pp, sign)
    back, fwd = [rk45.solve(f, 0.0, y0, direction * s_max, control,
                            events=[_axis_event(max_count=2)])
                 for direction in (-1.0, 1.0)]
    samples = _samples(back, sign)[::-1] + _samples(fwd, sign)[1:]
    events = sorted(_crossings(back, sign) + _crossings(fwd, sign))
    return OrbitTrace(params=pp, samples=samples, events=events,
                      **_counts(back, fwd))


def periodic_orbit(pp: PhaseParams, q0: PhasePoint, control=None,
                   orbit_tol=None, s_cap=None) -> OrbitTrace:
    """Closed orbit through ``q0``, certified by one forward pass.

    The orbit is symmetric across the axis ``alpha = 0``, so the arc between
    two consecutive axis crossings is half of it: the period is twice the
    time between the first two forward crossings, or twice the first
    crossing time for a start on the axis.  The same trajectory is then
    continued from its last crossing to that period, and its distance from
    ``q0`` there is the closure error; ``NotPeriodic`` is raised when it
    exceeds ``orbit_tol``.  The trace samples the full period, and its
    events are the two turning points on the axis (the start itself for a
    start on the axis).
    """
    scale = 1.0 + math.hypot(q0.alpha, q0.beta)
    if orbit_tol is None:
        orbit_tol = 1e-8 * scale
    sign, y0 = _to_log(q0)
    for st in stationary_points(pp):
        if math.hypot(q0.alpha - st.alpha, q0.beta - st.beta) <= AXIS_EPS:
            raise ValueError("stationary points have no orbit through them")
    control = control or _default_control()
    if s_cap is None:
        s_cap = 1000.0 / pp.c
    f = _rhs_log(pp, sign)
    on_axis = q0.alpha == 0.0
    turns = 1 if on_axis else 2
    try:
        arc = rk45.solve(f, 0.0, y0, s_cap, control,
                         events=[_axis_event(max_count=turns)])
        if len(arc.events) < turns:
            raise NotPeriodic("no axis crossing found within the time cap")
        events = _crossings(arc, sign)
        if on_axis:
            events.insert(0, (0.0, q0.beta))
        period = 2.0 * (events[1][0] - events[0][0])
        rest = rk45.solve(f, arc.ss[-1], arc.ys[-1], period, control)
    except StepUnderflow as exc:
        raise NotPeriodic(f"blow-up before the orbit closed: {exc}") from exc
    samples = _samples(arc, sign) + _samples(rest, sign)[1:]
    end = samples[-1][1]
    err = math.hypot(end.alpha - q0.alpha, end.beta - q0.beta)
    if err > orbit_tol:
        raise NotPeriodic(f"closure error {err:g} exceeds {orbit_tol:g}")
    return OrbitTrace(params=pp, samples=samples, events=events,
                      period=float(period), closure_error=err,
                      **_counts(arc, rest))


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
