"""Embedded Dormand-Prince 5(4) integration with events.

Deliberately dependency-free: the verification suite runs step-size
experiments (order checks, halved-step certification) that need direct
control over the error controller, and event times are polished by taking a
single fresh Runge-Kutta step onto each bisection candidate, which keeps the
located crossing as accurate as the trajectory itself.

``solve`` integrates one trajectory and locates no events.  ``solve_lanes``
integrates a set of independent trajectories as lanes of one vectorised
sweep under the same controller, which is much cheaper per trajectory than
looping ``solve``, and locates the sign changes of at most one ``Event``.
Both keep mesh values only: to get a value at some time, integrate to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["StepControl", "Event", "Solution", "StepUnderflow", "solve", "solve_lanes"]

# Dormand-Prince tableau; the fifth-order solution is propagated.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4
# the same rows as Python floats, for the lanes' ordered stage sums
_A_ROWS = [tuple(float(a) for a in row) for row in _A]
_ERR_ROW = tuple(float(e) for e in _ERR)
# attempted steps per trajectory before giving up
_MAX_STEPS = 2_000_000
# bisection bracket width at which an event crossing counts as located
_TIME_TOL = 1e-13


class StepUnderflow(RuntimeError):
    """Raised when the controller cannot meet the local error tolerance."""

    @classmethod
    def at(cls, s):
        return cls(f"step size underflow at s={float(s)!r}")


@dataclass
class StepControl:
    rtol: float = 1e-10
    atol: float = 1e-10
    max_step: float = math.inf
    first_step: Optional[float] = None


@dataclass
class Event:
    """Event function of ``solve_lanes``; a lane's crossings are located
    where its value changes sign.

    ``fn(s, Y)`` takes ``s`` of shape (N,) and ``Y`` of shape (N, d) and
    returns one value per lane.  ``value_tol`` bounds |fn| at the reported
    crossing and ``_TIME_TOL`` (1e-13) the remaining bisection bracket
    (both must be met: a small value alone is not enough at slow,
    near-tangent crossings).
    ``terminal_count`` stops a lane after that many crossings; it is one
    count for all lanes or one per lane.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    value_tol: float = 1e-12
    terminal_count: Optional[int] = None


@dataclass
class Solution:
    """A trajectory's accepted mesh (times ``ss``, states ``ys``), events and counts."""

    ss: np.ndarray
    ys: np.ndarray
    events: list = field(default_factory=list)  # (s, y) crossings, in order
    status: str = "done"
    nfev: int = 0      # right-hand-side evaluations, event location included
    accepted: int = 0  # accepted steps
    rejected: int = 0  # steps rejected by the error test or for a non-finite state


def _rk_step(f, s, y, fy, h):
    """One Dormand-Prince step of (signed) size h; returns (y5, err_vec, f_new).

    The last stage evaluates f at the fifth-order result (FSAL), so its value
    is returned for reuse as the next step's first stage.
    """
    stages = np.empty((7, y.size))
    stages[0] = fy
    for i in range(1, 7):
        yi = y + h * (_A[i] @ stages[:i])
        stages[i] = f(s + _C[i] * h, yi)
    ynew = y + h * (_B5 @ stages)
    err = h * (_ERR @ stages)
    return ynew, err, stages[6]


def _initial_step(y0, f0, control, span):
    if control.first_step is not None:
        return min(control.first_step, span, control.max_step)
    scale = control.atol + control.rtol * np.linalg.norm(y0)
    d0 = np.linalg.norm(y0) / scale if scale > 0 else 0.0
    d1 = np.linalg.norm(f0) / scale if scale > 0 else 0.0
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h0, span, control.max_step)


def _finite_span(s0, s1):
    if not (np.isfinite(s0).all() and np.isfinite(s1).all()):
        raise ValueError("s0 and s1 must be finite")


def solve(f, s0, y0, s1, control=None):
    """Integrate ``y' = f(s, y)`` from ``s0`` to ``s1`` (either direction)."""
    _finite_span(s0, s1)
    control = control or StepControl()
    y = np.asarray(y0, dtype=float).copy()
    s = float(s0)
    direction = 1.0 if s1 >= s0 else -1.0
    span = abs(s1 - s0)
    fy = np.asarray(f(s, y), dtype=float)
    nfev, accepted, rejected = 1, 0, 0
    ss, ys = [s], [y.copy()]
    if span == 0.0:
        return Solution(np.array(ss), np.array(ys), nfev=nfev)
    h = _initial_step(y, fy, control, span)
    for _ in range(_MAX_STEPS):
        h = min(h, abs(s1 - s))
        if not h > 4.0 * np.finfo(float).eps * max(1.0, abs(s)):  # NaN too
            raise StepUnderflow.at(s)
        ynew, errvec, fnew = _rk_step(f, s, y, fy, direction * h)
        nfev += 6
        if not math.isfinite(float(ynew.sum())):
            rejected += 1
            h *= 0.25
            continue
        scale = control.atol + control.rtol * np.maximum(np.abs(y), np.abs(ynew))
        ratios = errvec / scale
        errnorm = math.sqrt(float(ratios @ ratios) / ratios.size)
        if errnorm > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * errnorm ** -0.2)
            continue
        accepted += 1
        s, y, fy = s + direction * h, ynew, fnew
        ss.append(s)
        ys.append(y.copy())
        if abs(s1 - s) <= 1e-14 * max(1.0, abs(s1)):
            break
        factor = 5.0 if errnorm == 0.0 else min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
        h = min(h * factor, control.max_step)
    else:
        raise RuntimeError("maximum number of steps exceeded")
    return Solution(np.array(ss), np.array(ys), nfev=nfev,
                    accepted=accepted, rejected=rejected)


# ---------------------------------------------------------------------------
# many trajectories as lanes of one sweep

_DONE, _EVENT, _UNDERFLOW = 0, 1, 2
_STATUS = ("done", "event", "underflow")


def _ordered_sum(coeffs, arrays):
    """``sum(c * a)`` over the nonzero coefficients, added left to right.

    Each lane's result depends only on that lane's entries, so a trajectory
    integrated alone and inside a batch takes bitwise the same steps.
    """
    acc = None
    for c, a in zip(coeffs, arrays):
        if c != 0.0:
            acc = c * a if acc is None else acc + c * a
    return acc


def _row_sum(x):
    """Per-row sum of an (N, d) array, columns added left to right."""
    acc = x[:, 0]
    for j in range(1, x.shape[1]):
        acc = acc + x[:, j]
    return acc


def _lane_step(f, s, y, fy, h):
    """One Dormand-Prince step per lane of signed sizes ``h`` (N,); returns
    ``(y5, stages)``.  The last stage is taken at the fifth-order result
    (FSAL), so a lane with ``h == 0`` keeps its state exactly."""
    hc = h[:, None]
    stages = [fy]
    for i in range(1, 7):
        yi = y + hc * _ordered_sum(_A_ROWS[i], stages)
        stages.append(np.asarray(f(s + _C[i] * h, yi), dtype=float))
    return yi, stages


def _initial_steps(y0, f0, control, span):
    if control.first_step is not None:
        return np.fmin(np.fmin(control.first_step, span), control.max_step)
    ny = np.sqrt(_row_sum(y0 * y0))
    scale = control.atol + control.rtol * ny
    d0 = np.where(scale > 0, ny / scale, 0.0)
    d1 = np.where(scale > 0, np.sqrt(_row_sum(f0 * f0)) / scale, 0.0)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    return np.fmin(np.fmin(h0, span), control.max_step)


def solve_lanes(f, s0, y0, s1, control=None, event: Optional[Event] = None):
    """Integrate N independent problems ``y' = f(s, y)`` as lanes of one sweep.

    ``y0`` has shape (N, d); ``s0`` and ``s1`` are scalars or (N,) arrays, so
    lanes may run in either direction and to their own end.  ``f(s, Y)`` and
    ``event.fn(s, Y)`` take ``s`` of shape (N,) and ``Y`` of shape (N, d)
    and are called on all lanes every sweep; a finished lane is frozen by a
    zero step.  Each lane keeps its own ``s``, step size, counters and event
    state, and follows ``solve``'s controller: lane i's ``Solution`` has the
    steps and counts ``solve`` gives for problem i alone, up to rounding.
    During the sweep a sign change only records its bracket; the brackets
    are located afterwards, one vectorised bisection per crossing ordinal
    (``_locate_lanes``), and a lane stopped by ``event.terminal_count`` ends
    at its last crossing with status ``"event"``.  A lane that underflows
    gets status ``"underflow"`` (``StepUnderflow.at(sol.ss[-1])`` is the
    error ``solve`` raises) and the other lanes go on.

    A lane's ``Solution`` keeps its mesh in arrays of its own, so releasing
    one lane frees its nodes.
    """
    control = control or StepControl()
    y = np.array(y0, dtype=float)
    n, d = y.shape
    s = np.array(np.broadcast_to(np.asarray(s0, dtype=float), (n,)))
    s1 = np.array(np.broadcast_to(np.asarray(s1, dtype=float), (n,)))
    _finite_span(s, s1)
    direction = np.where(s1 >= s, 1.0, -1.0)
    terminal = None if event is None else event.terminal_count
    terminal = np.inf if terminal is None else np.asarray(terminal)
    # non-finite trial states are rejected below; their warnings are noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fy = np.asarray(f(s, y), dtype=float)
        nfev = np.ones(n, dtype=np.int64)
        accepted = np.zeros(n, dtype=np.int64)
        rejected = np.zeros(n, dtype=np.int64)
        status = np.full(n, _DONE)
        done = s1 == s
        h = _initial_steps(y, fy, control, np.abs(s1 - s))
        g_prev = None if event is None else np.asarray(event.fn(s, y), dtype=float)
        count = np.zeros(n, dtype=np.int64)
        brackets = []  # (lane, s, y, fy, h, g0), in sweep order
        # accepted nodes per sweep: (lane mask, rows (s, y))
        nodes = [(np.ones(n, dtype=bool), np.column_stack((s, y)))]
        tiny = 4.0 * np.finfo(float).eps
        while not done.all():
            live = ~done
            if np.any(live & (accepted + rejected >= _MAX_STEPS)):
                raise RuntimeError("maximum number of steps exceeded")
            h = np.where(live, np.fmin(h, np.abs(s1 - s)), h)
            under = live & ~(h > tiny * np.fmax(1.0, np.abs(s)))  # NaN too
            status[under] = _UNDERFLOW
            done |= under
            live &= ~under
            step = np.where(live, direction * h, 0.0)
            ynew, stages = _lane_step(f, s, y, fy, step)
            nfev += 6 * live
            finite = np.isfinite(_row_sum(ynew))
            blown = live & ~finite
            scale = control.atol + control.rtol * np.maximum(np.abs(y), np.abs(ynew))
            ratios = step[:, None] * _ordered_sum(_ERR_ROW, stages) / scale
            errnorm = np.sqrt(_row_sum(ratios * ratios) / d)
            too_big = live & finite & (errnorm > 1.0)
            rejected += blown | too_big
            shrink = np.fmax(0.2, 0.9 * errnorm ** -0.2)
            h = np.where(blown, h * 0.25, np.where(too_big, h * shrink, h))
            ok = live & finite & ~too_big
            accepted += ok
            snew = s + step
            stop = np.zeros(n, dtype=bool)
            if event is not None:
                g1 = np.asarray(event.fn(np.where(ok, snew, s),
                                         np.where(ok[:, None], ynew, y)), dtype=float)
                cross = ok & ~((g_prev == 0.0) | (g_prev * g1 > 0.0))
                # row copies: a view would keep this sweep's whole (N, d)
                # arrays alive, so bracket memory would grow as N**2
                for lane in np.flatnonzero(cross):
                    brackets.append((lane, s[lane], y[lane].copy(), fy[lane].copy(),
                                     h[lane], g_prev[lane]))
                g_prev = np.where(ok, g1, g_prev)
                count += cross
                stop = cross & (count >= terminal)
                status[stop] = _EVENT
                done |= stop
            moved = ok & ~stop
            s = np.where(moved, snew, s)
            y = np.where(moved[:, None], ynew, y)
            fy = np.where(moved[:, None], stages[6], fy)
            if moved.any():
                nodes.append((moved, np.column_stack((s, y))[moved]))
            done |= moved & (np.abs(s1 - s) <= 1e-14 * np.fmax(1.0, np.abs(s1)))
            factor = np.where(errnorm == 0.0, 5.0, np.fmin(5.0, shrink))
            h = np.where(moved, np.fmin(h * factor, control.max_step), h)

        found = [[] for _ in range(n)]  # (s, y), in step order
        for round_ in _by_ordinal(brackets):
            s_ev, y_ev, evals = _locate_lanes(f, event, round_, direction, s, y, fy)
            nfev += evals
            for lane, *_ in round_:
                found[lane].append((s_ev[lane], y_ev[lane].copy()))
        term = status == _EVENT
        if term.any():  # a terminal lane ends at its last event
            s_end, y_end = s.copy(), y.copy()
            for lane in np.flatnonzero(term):
                s_end[lane], y_end[lane] = found[lane][-1]
            nodes.append((term, np.column_stack((s_end, y_end))[term]))

    # every lane has 1 + accepted nodes (a terminal step's node is its event);
    # gather them lane by lane, in step order, into one table, releasing each
    # sweep's chunk once it is copied
    cuts = np.concatenate(([0], np.cumsum(1 + accepted)))
    table = np.empty((cuts[-1], 1 + d))
    fill = cuts[:-1].copy()
    for k, (lanes, rows) in enumerate(nodes):
        nodes[k] = None
        table[fill[lanes]] = rows
        fill[lanes] += 1
    out = []
    for i in range(n):
        rows = table[cuts[i]:cuts[i + 1]].copy()  # the lane's own block
        out.append(Solution(rows[:, 0], rows[:, 1:], found[i],
                            _STATUS[status[i]], int(nfev[i]), int(accepted[i]),
                            int(rejected[i])))
    return out


def _by_ordinal(brackets):
    """Split the brackets into rounds of at most one per lane: the k-th
    round holds each lane's k-th bracket."""
    rounds = []
    seen = {}
    for br in brackets:
        k = seen.get(br[0], 0)
        seen[br[0]] = k + 1
        if k == len(rounds):
            rounds.append([])
        rounds[k].append(br)
    return rounds


def _locate_lanes(f, event, round_, direction, s, y, fy):
    """Bisect one sign-change bracket per lane, all lanes together.

    Candidate states are produced by taking a fresh Runge-Kutta step of the
    candidate size from the bracket's left node, so the located state
    carries the trajectory's own accuracy rather than an interpolant's.
    Lanes without a bracket in this round take zero steps from their final
    state.  Returns the located times and states (per lane) and the
    right-hand-side evaluations each lane spent.
    """
    n = s.size
    s_left, y_left, f_left = s.copy(), y.copy(), fy.copy()
    width, ga = np.zeros(n), np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for lane, s_l, y_l, f_l, h, g0 in round_:
        s_left[lane], y_left[lane], f_left[lane] = s_l, y_l, f_l
        width[lane], ga[lane], active[lane] = h, g0, True
    floor = 4e-16 * np.fmax(1.0, np.abs(s_left))
    bracket_tol = np.fmax(_TIME_TOL, floor)
    a, b = np.zeros(n), width
    s_ev, y_ev = np.zeros(n), np.zeros_like(y)
    evals = np.zeros(n, dtype=np.int64)
    ymid = y_left
    for _ in range(200):
        if not active.any():
            break
        mid = 0.5 * (a + b)
        sigma = np.where(active, direction * mid, 0.0)
        ymid, _ = _lane_step(f, s_left, y_left, f_left, sigma)
        evals += 6 * active
        smid = s_left + sigma
        gm = np.asarray(event.fn(smid, ymid), dtype=float)
        span = b - a
        hit = active & (((np.abs(gm) <= event.value_tol) & (span <= bracket_tol))
                        | (span <= floor))
        s_ev[hit] = smid[hit]
        y_ev[hit] = ymid[hit]
        active &= ~hit
        left = ga * gm <= 0.0
        b = np.where(active & left, mid, b)
        a = np.where(active & ~left, mid, a)
        ga = np.where(active & ~left, gm, ga)
    s_ev[active] = (s_left + direction * 0.5 * (a + b))[active]
    y_ev[active] = ymid[active]
    return s_ev, y_ev, evals
