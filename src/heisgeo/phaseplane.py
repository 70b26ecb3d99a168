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
``(alpha, beta)``.  Every orbit is a lane of an ``rk45.solve_lanes`` sweep:
``periodic_orbits`` closes a whole set of seeds at once, and a trace is
bitwise the same whether its seed is integrated alone or in a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rk45
from ._io import fmt
from .rk45 import StepControl, StepUnderflow

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
    "periodic_orbits",
    "closure_failure",
    "first_integral",
    "portrait",
    "Portrait",
    "default_seeds",
    "AXIS_EPS",
]

AXIS_EPS = 1e-12  # seeds this close to a stationary point have no orbit


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
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("the constant mean curvature c must be finite and positive")


@dataclass(frozen=True)
class PhasePoint:
    alpha: float
    beta: float


@dataclass
class OrbitTrace:
    params: PhaseParams
    # samples as float arrays; spacing bounded by the controller's max_step
    s: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    events: list = field(default_factory=list)  # (s, beta) axis crossings
    period: Optional[float] = None
    closure_error: Optional[float] = None
    nfev: int = 0      # summed over the trace's rk45 lanes
    accepted: int = 0
    rejected: int = 0

    def first_integral_drift(self):
        """Largest change of ``first_integral`` over the samples, relative to
        its value at the first sample."""
        vals = first_integral(self.params, self.alpha, self.beta)
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


def _rhs_log(n, c, signs):
    """Right-hand side in ``(alpha, w = log|beta|)`` for lanes on the
    half-planes ``signs * beta > 0``, with parameters ``n`` and ``c`` given
    for all lanes or one per lane.  An overflowing ``exp(w)`` in a trial
    stage gives an infinite defect, so that step is rejected."""
    n = np.asarray(n)
    c = np.asarray(c, dtype=float)
    inv4n2 = 1.0 / (4.0 * n * n)
    two_n = 2.0 * n
    m = 2 * n - 1

    def f(s, y):
        a = y[:, 0]
        b = signs * np.exp(y[:, 1])
        out = np.empty_like(y)
        out[:, 0] = -a * a + (b - c) * (m * b + c) * inv4n2
        out[:, 1] = -two_n * a
        return out

    return f


def _to_log(q: PhasePoint):
    if not (math.isfinite(q.alpha) and math.isfinite(q.beta)):
        raise ValueError("seed must be finite")
    if q.beta == 0.0:
        raise OnSeparatrix("the solution on the line beta = 0 is never periodic")
    sign = math.copysign(1.0, q.beta)
    return sign, np.array([q.alpha, math.log(abs(q.beta))])


def _trace(pp, ss, ys, sign, **info):
    """A trace from nodes ``ys`` in ``(alpha, w)``; its arrays do not keep
    ``ys`` alive."""
    return OrbitTrace(params=pp, s=ss, alpha=ys[:, 0].copy(),
                      beta=sign * np.exp(ys[:, 1]), **info)


def _crossings(sol, sign):
    return [(float(s), sign * math.exp(y[1])) for s, y in sol.events]


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


def upsilon_polyline(pp: PhaseParams, beta_lo, beta_hi):
    """Zero-tilt-rate curve inside a defect window, 200 samples a branch, as
    (alpha, beta) rows ordered into a plottable polyline per component."""
    n, c = pp.n, pp.c
    b_plus = max(beta_lo, c)
    b_minus = min(beta_hi, -c / (2 * n - 1))
    rows = []
    if beta_hi > c:
        grid = np.linspace(beta_hi, b_plus, 200)
        branch = [(upsilon_beta(pp, b)[0], b) for b in grid]
        rows.extend(branch)
        rows.extend((-a, b) for a, b in reversed(branch))
    if beta_lo < -c / (2 * n - 1):
        grid = np.linspace(b_minus, beta_lo, 200)
        branch = [(upsilon_beta(pp, b)[0], b) for b in grid]
        rows.extend(branch)
        rows.extend((-a, b) for a, b in reversed(branch))
    return np.array(rows) if rows else np.empty((0, 2))


def _default_control():
    # closure certificates need clear headroom below the orbit tolerance; the
    # step cap keeps a step well inside a half-period, so that no step spans
    # two axis crossings
    return StepControl(rtol=2e-11, atol=2e-11, max_step=1.0)


def integrate(pp: PhaseParams, q0: PhasePoint, s_max, control=None) -> OrbitTrace:
    """Trajectory through ``q0`` in both time directions.

    The two directions are two lanes of one sweep; each runs until ``s_max``
    or until its second axis crossing.  Each crossing is landed on the axis
    by one integration in ``alpha`` (``rk45.solve_lanes``' Henon landing).
    """
    if s_max <= 0:
        raise ValueError("s_max must be positive")
    control = control or _default_control()
    sign, y0 = _to_log(q0)
    back, fwd = rk45.raise_underflow(rk45.solve_lanes(
        _rhs_log(pp.n, pp.c, sign), 0.0, np.array([y0, y0]), np.array([-s_max, s_max]),
        control, crossings=2))
    ss = np.concatenate((back.ss[::-1], fwd.ss[1:]))
    ys = np.concatenate((back.ys[::-1], fwd.ys[1:]))
    events = sorted(_crossings(back, sign) + _crossings(fwd, sign))
    return _trace(pp, ss, ys, sign, events=events, **_counts(back, fwd))


def periodic_orbit(pp: PhaseParams, q0: PhasePoint) -> OrbitTrace:
    """Closed orbit through ``q0``: ``periodic_orbits`` of one seed."""
    return periodic_orbits(pp, [q0])[0]


def _check_seed(pp, q0):
    sign, y0 = _to_log(q0)
    for st in stationary_points(pp):
        if math.hypot(q0.alpha - st.alpha, q0.beta - st.beta) <= AXIS_EPS:
            raise ValueError("stationary points have no orbit through them")
    return sign, y0


_S_CAP = 1000.0  # a seed of curvature c with no axis crossing by s = _S_CAP / c is not periodic


def periodic_orbits(pp, seeds, orbit_tol=None) -> list:
    """Closed orbits through ``seeds``, each certified by one forward pass.

    ``pp`` is one ``PhaseParams`` for all seeds or a sequence with one per
    seed; each trace carries its own.

    An orbit is symmetric across the axis ``alpha = 0``, so the arc between
    two consecutive axis crossings is half of it: the period is twice the
    time between the first two forward crossings, or twice the first
    crossing time for a start on the axis.  The same trajectory is then
    continued from its last crossing to that period, and its distance from
    the seed there is the closure error.  Each trace samples the full
    period, and its events are the two turning points on the axis (the
    start itself for a start on the axis).

    All seeds run as lanes of two ``rk45.solve_lanes`` sweeps: one for the
    arcs, one to each lane's period.  Lanes with different parameters share
    the sweeps, and a seed's trace is still bitwise the one it gets alone.
    Each lane's arc and rest are released as its trace is built, so a large
    batch holds its nodes about once.
    A bad seed raises what it raises alone, the first in input order:
    ``OnSeparatrix`` on the line ``beta = 0``, ``ValueError`` at a stationary
    point, ``NotPeriodic`` when the closure error exceeds ``orbit_tol``
    (``closure_failure``; default ``1e-8 (1 + |q0|)``), no crossing comes
    within ``1000 / c`` or the step size underflows.
    """
    seeds = list(seeds)
    params = [pp] * len(seeds) if isinstance(pp, PhaseParams) else list(pp)
    if len(params) != len(seeds):
        raise ValueError("give one PhaseParams for all seeds or one per seed")
    starts, pending = [], None
    for q0, pq in zip(seeds, params):
        try:
            starts.append(_check_seed(pq, q0))
        except (OnSeparatrix, ValueError) as exc:
            pending = exc  # raised unless an earlier seed fails first
            break
    seeds = seeds[:len(starts)]
    params = params[:len(starts)]
    ns = np.array([pq.n for pq in params], dtype=np.int64)
    cs = np.array([pq.c for pq in params], dtype=float)
    control = _default_control()
    signs = [sign for sign, _ in starts]
    turns = np.array([1 if q0.alpha == 0.0 else 2 for q0 in seeds])
    arcs = rk45.solve_lanes(_rhs_log(ns, cs, np.array(signs)), 0.0,
                            np.array([y0 for _, y0 in starts]).reshape(-1, 2), _S_CAP / cs,
                            control, crossings=turns)
    errors = [None] * len(seeds)
    events, periods = {}, {}
    for i, (q0, arc) in enumerate(zip(seeds, arcs)):
        if arc.status == "underflow":
            errors[i] = _blow_up(arc)
        elif len(arc.events) < turns[i]:
            errors[i] = NotPeriodic("no axis crossing found within the time cap")
        else:
            events[i] = _crossings(arc, signs[i])
            if turns[i] == 1:
                events[i].insert(0, (0.0, q0.beta))
            periods[i] = 2.0 * (events[i][1][0] - events[i][0][0])
    go = sorted(periods)
    rests = rk45.solve_lanes(_rhs_log(ns[go], cs[go], np.array(signs)[go]),
                             [arcs[i].ss[-1] for i in go],
                             np.array([arcs[i].ys[-1] for i in go]).reshape(-1, 2),
                             [periods[i] for i in go], control)
    traces = []
    for k, i in enumerate(go):
        q0 = seeds[i]
        arc, rest = arcs[i], rests[k]
        arcs[i] = rests[k] = None
        if rest.status == "underflow":
            errors[i] = _blow_up(rest)
            continue
        tr = _trace(params[i], np.concatenate((arc.ss, rest.ss[1:])),
                    np.concatenate((arc.ys, rest.ys[1:])), signs[i], events=events[i],
                    period=float(periods[i]), **_counts(arc, rest))
        tr.closure_error = math.hypot(tr.alpha[-1] - q0.alpha, tr.beta[-1] - q0.beta)
        errors[i] = closure_failure(q0, tr, orbit_tol)
        traces.append(tr)
    for exc in errors + [pending]:
        if exc is not None:
            raise exc
    return traces


def closure_failure(q0: PhasePoint, tr: OrbitTrace, orbit_tol=None):
    """The ``NotPeriodic`` error of a trace from ``q0`` whose closure error
    exceeds ``orbit_tol`` (default ``1e-8 (1 + |q0|)``), or ``None`` if it
    closes.  A NaN closure error does not close."""
    tol = 1e-8 * (1.0 + math.hypot(q0.alpha, q0.beta)) if orbit_tol is None else orbit_tol
    if tr.closure_error <= tol:
        return None
    return NotPeriodic(f"closure error {tr.closure_error:g} exceeds {tol:g}")


def _blow_up(sol):
    return NotPeriodic(f"blow-up before the orbit closed: {StepUnderflow.at(sol.ss[-1])}")


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


def portrait(pp: PhaseParams, seeds=None) -> Portrait:
    """Data set sufficient to re-plot the phase picture.

    Emits the vector field on a 21 x 21 grid over ``|alpha| <= 2c``,
    ``-2c <= beta <= 4c`` (two rows per grid point: base at s=0, tip at
    s=1; the tip equals the base where the field vanishes), the
    zero-tilt-rate polyline, the periodic orbits through ``seeds`` (by
    default ``default_seeds``; an empty list gives none) and the stationary
    points.
    """
    c = pp.c
    grid = 21
    alpha_range = (-2.0 * c, 2.0 * c)
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
    orbits = periodic_orbits(pp, default_seeds(pp) if seeds is None else seeds)
    for i, tr in enumerate(orbits):
        kind = f"orbit:{i}"
        rows.extend((kind, s, a, b) for s, a, b in
                    zip(tr.s.tolist(), tr.alpha.tolist(), tr.beta.tolist()))
    for st in stationary_points(pp):
        rows.append(("stationary", 0.0, st.alpha, st.beta))
    return Portrait(params=pp, rows=rows, orbits=orbits)
