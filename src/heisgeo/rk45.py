"""Embedded Dormand-Prince 5(4) integration with axis crossings.

Deliberately dependency-free: the verification suite runs step-size
experiments (order checks, halved-step certification) that need direct
control over the error controller, and crossings are landed by Henon's
method (Physica D 5 (1982) 412-414): the same system is integrated onto the
axis with the crossing coordinate as the independent variable, which keeps
the located crossing as accurate as the trajectory itself.

``solve`` integrates one trajectory and locates no crossings.
``solve_lanes`` integrates a set of independent trajectories as lanes of one
vectorised sweep under the same controller, which is much cheaper per
trajectory than looping ``solve``, and can stop each lane at a given sign
change of its first state component.  Both keep mesh values only: to get a
value at some time, integrate to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["StepControl", "Solution", "StepUnderflow", "solve", "solve_lanes",
           "raise_underflow"]

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
class Solution:
    """A trajectory's accepted mesh (times ``ss``, states ``ys``), crossings and counts."""

    ss: np.ndarray
    ys: np.ndarray
    events: list = field(default_factory=list)  # (s, y) crossings, in order
    status: str = "done"
    nfev: int = 0      # right-hand-side evaluations, crossing landings included
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
    h = float(_initial_steps(y[None], fy[None], control, np.array([span]))[0])  # a lane of one
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
            if acc is None:
                acc = c * a
            else:
                acc += c * a  # acc is this call's own array
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
        return np.minimum(np.minimum(control.first_step, span), control.max_step)
    ny = np.sqrt(_row_sum(y0 * y0))
    scale = control.atol + control.rtol * ny
    d0 = np.where(scale > 0, ny / scale, 0.0)
    d1 = np.where(scale > 0, np.sqrt(_row_sum(f0 * f0)) / scale, 0.0)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    return np.minimum(np.minimum(h0, span), control.max_step)  # a NaN step stays NaN


def solve_lanes(f, s0, y0, s1, control=None, crossings=None):
    """Integrate N independent problems ``y' = f(s, y)`` as lanes of one sweep.

    ``y0`` has shape (N, d); ``s0`` and ``s1`` are scalars or (N,) arrays, so
    lanes may run in either direction and to their own end.  ``f(s, Y)``
    takes ``s`` of shape (N,) and ``Y`` of shape (N, d) and is called on all
    lanes every sweep; a finished lane is frozen by a zero step.  Each lane
    keeps its own ``s``, step size and counters, and follows ``solve``'s
    controller: lane i's ``Solution`` has the steps and counts ``solve``
    gives for problem i alone, up to rounding.  A lane that underflows gets
    status ``"underflow"`` (``StepUnderflow.at(sol.ss[-1])`` is the error
    ``solve`` raises) and the other lanes go on.

    ``crossings`` (one count for all lanes or one per lane; ``None`` locates
    nothing) stops each lane at that sign change of ``Y[:, 0]``, with status
    ``"event"``, and its ``events`` list the crossings ``(s, y)`` up to it,
    with ``y[0] == 0``.  During the sweep a sign change only records the
    step's left node; the crossings are landed afterwards, one
    ``_locate_lanes`` batch per crossing ordinal.  A lane whose crossing
    cannot be landed ends at that step's left node with status
    ``"underflow"`` and only the crossings before it.

    The lanes' state is held lane-major: an (N, d) array in Fortran order,
    so each component is one contiguous column and every per-lane broadcast
    runs along the lanes.  ``f`` gets ``Y`` in that order and keeps it by
    building its result with ``np.empty_like(Y)``; the order changes no bit,
    so ``y0`` may come in either order.

    A lane's ``Solution`` keeps its mesh in arrays of its own, so releasing
    one lane frees its nodes.
    """
    control = control or StepControl()
    y = np.array(y0, dtype=float, order="F")  # lane-major: each column is contiguous
    n, d = y.shape
    s = np.array(np.broadcast_to(np.asarray(s0, dtype=float), (n,)))
    s1 = np.array(np.broadcast_to(np.asarray(s1, dtype=float), (n,)))
    _finite_span(s, s1)
    direction = np.where(s1 >= s, 1.0, -1.0)
    end_tol = 1e-14 * np.fmax(1.0, np.abs(s1))
    tiny = 4.0 * np.finfo(float).eps
    # non-finite trial states are rejected below; their warnings are noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fy = np.asarray(f(s, y), dtype=float)
        attempts = np.zeros(n, dtype=np.int64)
        accepted = np.zeros(n, dtype=np.int64)
        status = np.full(n, _DONE)
        done = s1 == s
        rem = np.abs(s1 - s)  # span left, updated as lanes move
        h = _initial_steps(y, fy, control, rem)
        count = np.zeros(n, dtype=np.int64)
        brackets = []  # (lane, s, y) left nodes of sign changes, in sweep order
        # accepted nodes per sweep: (lane mask, s rows, y rows); the state
        # arrays are replaced each sweep, never written to, so a sweep where
        # every lane moved keeps them as they are
        nodes = [(np.ones(n, dtype=bool), s, y)]
        sweeps = 0  # a live lane attempts one step per sweep
        while not done.all():
            if sweeps == _MAX_STEPS:
                raise RuntimeError("maximum number of steps exceeded")
            sweeps += 1
            live = ~done
            h = np.minimum(h, rem)  # a finished lane's h is never used
            under = live & ~(h > tiny * np.fmax(1.0, np.abs(s)))  # NaN too
            if under.any():
                status[under] = _UNDERFLOW
                done |= under
                live &= ~under
            step = np.where(live, direction * h, 0.0)
            ynew, stages = _lane_step(f, s, y, fy, step)
            finite = np.isfinite(_row_sum(ynew))
            scale = control.atol + control.rtol * np.maximum(np.abs(y), np.abs(ynew))
            ratios = step[:, None] * _ordered_sum(_ERR_ROW, stages) / scale
            errnorm = np.sqrt(_row_sum(ratios * ratios) / d)
            ok = live & finite & ~(errnorm > 1.0)
            attempts += live
            accepted += ok
            moved = ok
            if crossings is not None:
                cross = ok & ~((y[:, 0] == 0.0) | (y[:, 0] * ynew[:, 0] > 0.0))
                if cross.any():
                    # row copies: a view would keep this sweep's whole (N, d)
                    # arrays alive, so bracket memory would grow as N**2
                    for lane in np.flatnonzero(cross):
                        brackets.append((lane, s[lane], y[lane].copy()))
                    count += cross
                    stop = cross & (count >= crossings)
                    status[stop] = _EVENT
                    done |= stop
                    moved = ok & ~stop
            if moved.any():
                s = np.where(moved, s + step, s)
                y = np.where(moved[:, None], ynew, y)
                fy = np.where(moved[:, None], stages[6], fy)
                nodes.append((moved, s, y) if moved.all() else (moved, s[moved], y[moved]))
                rem = np.abs(s1 - s)
                done |= moved & (rem <= end_tol)
            # the step factor: an accepted step grows by at most 5 (also at a
            # zero error, where the shrink rule reads inf), a rejected one
            # shrinks by that rule, a non-finite one by 4; h never passes
            # max_step, so only growth can meet the cap
            shrink = np.fmax(0.2, 0.9 * errnorm ** -0.2)
            h = np.fmin(h * np.where(finite, np.fmin(5.0, shrink), 0.25), control.max_step)
        rejected = attempts - accepted
        nfev = 1 + 6 * attempts

        found = [[] for _ in range(n)]  # (s, y), in step order
        lost = {}  # lane -> left node time of the crossing it could not land
        for round_ in _by_ordinal(brackets):
            round_ = [br for br in round_ if br[0] not in lost]
            for (lane, s_l, _), sol in zip(round_, _locate_lanes(f, control, round_, s, y)):
                nfev[lane] += sol.nfev
                if sol.status == "underflow":
                    status[lane], lost[lane] = _UNDERFLOW, s_l
                    continue
                y_ev = sol.ys[-1, 1:].copy()
                y_ev[0] = 0.0
                found[lane].append((s_l + sol.ys[-1, 0], y_ev))
        term = status == _EVENT
        if term.any():  # a terminal lane ends at its last crossing
            s_end, y_end = s.copy(), y.copy()
            for lane in np.flatnonzero(term):
                s_end[lane], y_end[lane] = found[lane][-1]
            nodes.append((term, s_end[term], y_end[term]))

    # every lane has 1 + accepted nodes (a terminal step's node is its
    # crossing); gather them lane by lane, in step order, into one table,
    # releasing each sweep's chunk once it is copied
    cuts = np.concatenate(([0], np.cumsum(1 + accepted)))
    table = np.empty((cuts[-1], 1 + d))
    fill = cuts[:-1].copy()
    for k, (lanes, s_rows, y_rows) in enumerate(nodes):
        nodes[k] = None
        at = fill[lanes]
        table[at, 0] = s_rows
        table[at, 1:] = y_rows
        fill[lanes] += 1
    out = []
    for i in range(n):
        rows = table[cuts[i]:cuts[i + 1]]
        if i in lost:  # it ends at that crossing's left node (a lane stopped
            # there has no crossing node, so its block's last row is unset)
            rows = rows[:np.flatnonzero(rows[:, 0] == lost[i])[0] + 1]
        rows = rows.copy()  # the lane's own block
        out.append(Solution(rows[:, 0], rows[:, 1:], found[i],
                            _STATUS[status[i]], int(nfev[i]), int(accepted[i]),
                            int(rejected[i])))
    return out


def raise_underflow(sols):
    """``sols``, the lane solutions of ``solve_lanes``; the first lane whose
    step size underflowed raises the ``StepUnderflow`` that ``solve`` raises."""
    for sol in sols:
        if sol.status == "underflow":
            raise StepUnderflow.at(sol.ss[-1])
    return sols


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


def _locate_lanes(f, control, round_, s, y):
    """Land one sign change of ``y[:, 0]`` per lane, all lanes in one sweep.

    Henon's method: from each bracket's left node the same system is
    integrated with ``sigma = y[:, 0]`` as the independent variable, state
    ``z = (time since the left node, y)`` and right-hand side
    ``(1, f) / f[:, 0]``, to ``sigma = 0``, under the caller's tolerances.
    The first step tries the whole bracket, so the crossing carries the
    trajectory's own accuracy with no iteration.  The time offset, not the
    absolute time, is integrated, so its tolerance does not grow with |s|.
    Lanes without a bracket in this round get zero span at ``sigma = 0``
    from their final state (not a span of their own final ``y[:, 0]``, which
    may be NaN).  Returns the landing ``Solution`` of each bracket in
    ``round_``, in order; its last state is ``(time offset, y)``.
    """
    s_left, y_left = s.copy(), y.copy()
    sigma0 = np.zeros(s.size)
    for lane, s_l, y_l in round_:
        s_left[lane], y_left[lane], sigma0[lane] = s_l, y_l, y_l[0]

    def g(sigma, z):
        fz = np.asarray(f(s_left + z[:, 0], z[:, 1:]), dtype=float)
        out = np.empty_like(z)
        out[:, 0] = 1.0
        out[:, 1:] = fz
        return out / fz[:, :1]

    whole = StepControl(control.rtol, control.atol, max_step=math.inf, first_step=math.inf)
    sols = solve_lanes(g, sigma0, np.column_stack((np.zeros(s.size), y_left)), 0.0, whole)
    return [sols[lane] for lane, *_ in round_]
