"""Embedded Dormand-Prince 5(4) integration with dense output and events.

Deliberately dependency-free: the verification suite runs step-size
experiments (order checks, halved-step certification) that need direct
control over the error controller, and event times are polished by taking a
single fresh Runge-Kutta step onto each bisection candidate, which keeps the
located crossing as accurate as the trajectory itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["StepControl", "Event", "Solution", "StepUnderflow", "solve"]

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


class StepUnderflow(RuntimeError):
    """Raised when the controller cannot meet the local error tolerance."""


@dataclass
class StepControl:
    rtol: float = 1e-10
    atol: float = 1e-10
    max_step: float = math.inf
    first_step: Optional[float] = None
    max_steps: int = 2_000_000


@dataclass
class Event:
    """Scalar event function; crossings are located where it changes sign.

    ``value_tol`` bounds |fn| at the reported crossing and ``time_tol`` the
    remaining bisection bracket (both must be met: a small value alone is
    not enough at slow, near-tangent crossings).  ``terminal_count`` stops
    the integration after that many crossings.
    """

    fn: Callable[[float, np.ndarray], float]
    value_tol: float = 1e-12
    time_tol: float = 1e-13
    terminal_count: Optional[int] = None


@dataclass
class Solution:
    ss: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    events: list = field(default_factory=list)  # (s, y, event_index)
    status: str = "done"
    nfev: int = 0      # right-hand-side evaluations, event location included
    accepted: int = 0  # accepted steps
    rejected: int = 0  # steps rejected by the error test or for a non-finite state

    def __call__(self, s):
        """Cubic Hermite interpolation on the accepted mesh."""
        ss = self.ss
        if ss[0] <= ss[-1]:
            i = int(np.clip(np.searchsorted(ss, s) - 1, 0, ss.size - 2))
        else:
            i = int(np.clip(np.searchsorted(-ss, -s) - 1, 0, ss.size - 2))
        h = ss[i + 1] - ss[i]
        if h == 0.0:
            return self.ys[i].copy()
        th = (s - ss[i]) / h
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return (
            h00 * self.ys[i]
            + h10 * h * self.fs[i]
            + h01 * self.ys[i + 1]
            + h11 * h * self.fs[i + 1]
        )


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
        return min(control.first_step, span)
    scale = control.atol + control.rtol * np.linalg.norm(y0)
    d0 = np.linalg.norm(y0) / scale if scale > 0 else 0.0
    d1 = np.linalg.norm(f0) / scale if scale > 0 else 0.0
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h0, span, control.max_step)


def solve(f, s0, y0, s1, control=None, events: Sequence[Event] = ()):
    """Integrate ``y' = f(s, y)`` from ``s0`` to ``s1`` (either direction)."""
    control = control or StepControl()
    y = np.asarray(y0, dtype=float).copy()
    s = float(s0)
    direction = 1.0 if s1 >= s0 else -1.0
    span = abs(s1 - s0)
    fy = np.asarray(f(s, y), dtype=float)
    nfev, accepted, rejected = 1, 0, 0
    ss = [s]
    ys = [y.copy()]
    fs = [fy.copy()]
    found = []
    counts = [0] * len(events)
    if span == 0.0:
        return Solution(np.array(ss), np.array(ys), np.array(fs), found, "done",
                        nfev)
    h = _initial_step(y, fy, control, span)
    g_prev = [ev.fn(s, y) for ev in events]
    status = "done"
    for _ in range(control.max_steps):
        h = min(h, abs(s1 - s))
        if h <= 4.0 * np.finfo(float).eps * max(1.0, abs(s)):
            raise StepUnderflow(f"step size underflow at s={s!r}")
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
        snew = s + direction * h
        terminal_hit = None
        for idx, ev in enumerate(events):
            g1 = ev.fn(snew, ynew)
            g0 = g_prev[idx]
            if g0 == 0.0 or g0 * g1 > 0.0:
                g_prev[idx] = g1
                continue
            sev, yev, evals = _locate(f, s, y, fy, direction, h, ev, g0)
            nfev += evals
            g_prev[idx] = g1
            found.append((sev, yev, idx))
            counts[idx] += 1
            if ev.terminal_count is not None and counts[idx] >= ev.terminal_count:
                terminal_hit = (sev, yev)
                break
        if terminal_hit is not None:
            sev, yev = terminal_hit
            ss.append(sev)
            ys.append(yev.copy())
            fs.append(np.asarray(f(sev, yev), dtype=float))
            nfev += 1
            status = "event"
            break
        s, y, fy = snew, ynew, fnew
        ss.append(s)
        ys.append(y.copy())
        fs.append(fy.copy())
        if abs(s1 - s) <= 1e-14 * max(1.0, abs(s1)):
            break
        factor = 5.0 if errnorm == 0.0 else min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
        h = min(h * factor, control.max_step)
    else:
        raise RuntimeError("maximum number of steps exceeded")
    found.sort(key=lambda e: direction * e[0])
    return Solution(np.array(ss), np.array(ys), np.array(fs), found, status,
                    nfev, accepted, rejected)


def _locate(f, s, y, fy, direction, h, ev, g0):
    """Bisect a sign change within one accepted step.

    Candidate states are produced by taking a fresh Runge-Kutta step of the
    candidate size from the step's left node, so the located state carries
    the trajectory's own accuracy rather than the interpolant's.  Returns
    ``(s, y, evals)`` with the number of right-hand-side evaluations spent.
    """
    evals = 0

    def state(sigma):
        nonlocal evals
        if sigma == 0.0:
            return y
        evals += 6
        ynew, _, _ = _rk_step(f, s, y, fy, direction * sigma)
        return ynew

    a, b = 0.0, h
    ga = g0
    bracket_tol = max(ev.time_tol, 4e-16 * max(1.0, abs(s)))
    for _ in range(200):
        mid = 0.5 * (a + b)
        ymid = state(mid)
        gm = ev.fn(s + direction * mid, ymid)
        if (abs(gm) <= ev.value_tol and (b - a) <= bracket_tol) or (
            b - a
        ) <= 4e-16 * max(1.0, abs(s)):
            return s + direction * mid, ymid, evals
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
    return s + direction * 0.5 * (a + b), ymid, evals
