"""Embedded Dormand-Prince 8(5,3) integration with axis crossings.

Deliberately dependency-free: the verification suite runs step-size
experiments (order checks, halved-step certification) that need direct
control over the error controller, and crossings are landed by Henon's
method (Physica D 5 (1982) 412-414): the same system is integrated onto the
axis with the crossing coordinate as the independent variable, which keeps
the located crossing as accurate as the trajectory itself.

The one tableau is the eighth-order pair DOP853 (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., section II.10): twelve
new right-hand-side evaluations per step, the thirteenth stage (f at the new
state) reused as the next step's first, and a local error estimate that
blends the fifth- and third-order differences.  ``solve_lanes`` integrates a
set of independent trajectories as lanes of one vectorised sweep, with one
step controller per lane, and can stop each lane at a given sign change of
its first state component.  ``solve`` is a lane of one of it.  Both keep
mesh values only: to get a value at some time, integrate to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["StepControl", "Solution", "StepUnderflow", "solve", "solve_lanes",
           "raise_underflow"]

# DOP853 tableau as Python floats, for the lanes' ordered stage sums.  _C[i]
# is stage i's node; stage 12 is f at the eighth-order result (FSAL).
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0)
# _A_ROWS[i - 1] holds stage i's weights on stages 0 .. i - 1
_A_ROWS = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
# eighth-order weights on stages 0 .. 11
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
# error weights: eighth order less fifth order, and less third order (whose
# weights differ from _B at stages 0, 8 and 11 only)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_E3 = tuple(b - b3 for b, b3 in zip(_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)))
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


def _finite_span(s0, s1):
    if not (np.isfinite(s0).all() and np.isfinite(s1).all()):
        raise ValueError("s0 and s1 must be finite")


def solve(f, s0, y0, s1, control=None):
    """Integrate ``y' = f(s, y)`` from ``s0`` to ``s1`` (either direction).

    A lane of one of ``solve_lanes``: ``f`` takes a scalar ``s`` and one
    state, and a step size underflow raises ``StepUnderflow``.
    """
    y0 = np.asarray(y0, dtype=float)
    sol, = raise_underflow(solve_lanes(
        lambda s, y: np.asarray(f(s[0], y[0]), dtype=float)[None],
        float(s0), y0[None], float(s1), control))
    return sol


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
    """One DOP853 step per lane of signed sizes ``h`` (N,); returns ``(y8,
    stages)``.  The last stage is taken at the eighth-order result (FSAL),
    so a lane with ``h == 0`` keeps its state exactly."""
    hc = h[:, None]
    stages = [fy]
    for c, row in zip(_C[1:], _A_ROWS):
        stages.append(np.asarray(f(s + c * h, y + hc * _ordered_sum(row, stages)), dtype=float))
    ynew = y + hc * _ordered_sum(_B, stages)
    stages.append(np.asarray(f(s + h, ynew), dtype=float))
    return ynew, stages


def _error_norms(h, stages, scale):
    """Per-lane DOP853 error norm ``|h| e5^2 / sqrt((e5^2 + e3^2 / 100) d)``,
    with ``e5`` and ``e3`` the scaled fifth- and third-order error
    estimates' 2-norms; 0 where both vanish."""
    e5 = _ordered_sum(_E5, stages) / scale
    e3 = _ordered_sum(_E3, stages) / scale
    sq5, sq3 = _row_sum(e5 * e5), _row_sum(e3 * e3)
    deno = sq5 + 0.01 * sq3
    return np.abs(h) * sq5 / np.sqrt(np.where(deno > 0.0, deno, 1.0) * scale.shape[1])


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
    keeps its own ``s``, step size and counters, and its stage sums are
    added term by term, so lane i's ``Solution`` is bitwise the one problem
    i gets as a lane of one, given an ``f`` whose rows do not depend on the
    other lanes.  A lane that underflows gets status ``"underflow"``
    (``StepUnderflow.at(sol.ss[-1])`` is the error ``solve`` raises) and
    the other lanes go on.

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
            errnorm = _error_norms(step, stages, scale)
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
                fy = np.where(moved[:, None], stages[-1], fy)
                nodes.append((moved, s, y) if moved.all() else (moved, s[moved], y[moved]))
                rem = np.abs(s1 - s)
                done |= moved & (rem <= end_tol)
            # the step factor: an accepted step grows by at most 5 (also at a
            # zero error, where the shrink rule reads inf), a rejected one
            # shrinks by that rule, a non-finite one by 4; h never passes
            # max_step, so only growth can meet the cap
            shrink = np.fmax(0.2, 0.9 * errnorm ** -0.125)
            h = np.fmin(h * np.where(finite, np.fmin(5.0, shrink), 0.25), control.max_step)
        rejected = attempts - accepted
        nfev = 1 + 12 * attempts

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
