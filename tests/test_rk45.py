"""Integrator accuracy, events and step-size behavior."""

import math
import time

import numpy as np
import pytest

from heisgeo import rk45
from heisgeo.rk45 import StepControl, StepUnderflow, solve, solve_lanes


def test_exponential_accuracy():
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), 3.0)
    assert sol.ys[-1][0] == pytest.approx(math.exp(3.0), rel=1e-9)


def test_backward_integration():
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), -2.0)
    assert sol.ys[-1][0] == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert sol.ss[-1] == pytest.approx(-2.0, abs=1e-12)


def test_mesh_on_circle():
    f = lambda s, y: np.array([-y[1], y[0]])
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 6.0)
    assert sol.ss.size > 2 and sol.ys.shape == (sol.ss.size, 2)
    for s, y in zip(sol.ss, sol.ys):
        assert y[0] == pytest.approx(math.cos(s), abs=5e-8)
        assert y[1] == pytest.approx(math.sin(s), abs=5e-8)


def test_max_step_is_respected():
    ctrl = StepControl(max_step=0.01)
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), 1.0, ctrl)
    assert np.max(np.diff(sol.ss)) <= 0.01 + 1e-12
    # a larger first step is clamped too
    ctrl = StepControl(max_step=0.01, first_step=0.5)
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), 1.0, ctrl)
    assert np.max(np.diff(sol.ss)) <= 0.01 + 1e-12
    lanes = solve_lanes(lambda s, y: y, 0.0, np.ones((2, 1)), [1.0, -1.0], ctrl)
    assert all(np.max(np.abs(np.diff(sol.ss))) <= 0.01 + 1e-12 for sol in lanes)


def test_eighth_order_convergence():
    """Fixed steps on the circle: halving the step divides the error by
    about 2**8 (262 measured; a seventh-order pair gives at most 128)."""
    f = lambda s, y: np.array([-y[1], y[0]])
    errs = []
    for h in (0.8, 0.4):
        ctrl = StepControl(rtol=1e30, atol=1e30, max_step=h, first_step=h)
        sol = solve(f, 0.0, np.array([1.0, 0.0]), 4.0, ctrl)
        exact = np.array([math.cos(4.0), math.sin(4.0)])
        errs.append(np.linalg.norm(sol.ys[-1] - exact))
    assert errs[0] / errs[1] >= 200.0


def test_tableau_is_consistent():
    """Each row of A sums to its node, within 1e-15 of the row's absolute
    sum (the entries are rounded to doubles); the weights B integrate
    polynomials up to degree 7 exactly, and the error weights E5 and E3
    annihilate those up to degree 4 and 2: the fifth- and third-order
    weights they subtract from B are exact there too."""
    assert len(rk45._A_ROWS) == 11 and len(rk45._C) == 13
    assert sum(a != 0.0 for row in rk45._A_ROWS for a in row) == 50
    assert [sum(w != 0.0 for w in ws) for ws in (rk45._B, rk45._E5, rk45._E3)] == [8, 8, 8]
    for i, row in enumerate(rk45._A_ROWS, start=1):
        assert len(row) == i
        assert abs(math.fsum(row) - rk45._C[i]) <= 1e-15 * math.fsum(map(abs, row)), i
    assert rk45._C[-2] == rk45._C[-1] == 1.0  # the last stage, and FSAL's, at the step's end
    nodes = rk45._C[:12]

    def moment(weights, k):
        return math.fsum(w * c**k for w, c in zip(weights, nodes, strict=True))

    for k in range(8):
        assert abs(moment(rk45._B, k) - 1.0 / (k + 1)) <= 1e-15, k
    for weights, degree in ((rk45._E5, 4), (rk45._E3, 2)):
        for k in range(degree + 1):
            assert abs(moment(weights, k)) <= 1e-15, (degree, k)


def test_blowup_raises_underflow():
    with pytest.raises(StepUnderflow):
        solve(lambda s, y: y * y, 0.0, np.array([1.0]), 5.0)  # blows up at s=1


def test_zero_span():
    sol = solve(lambda s, y: y, 1.0, np.array([2.0]), 1.0)
    assert sol.ss.size == 1 and sol.ys[0][0] == 2.0


def _count_calls(monkeypatch):
    """A circle field for lanes or one state that counts its calls, split into
    the sweep's and the crossing landings' (``_locate_lanes``) calls."""
    calls = {"sweep": 0, "landing": 0}
    phase = ["sweep"]
    locate = rk45._locate_lanes

    def landing(*args):
        phase[0] = "landing"
        try:
            return locate(*args)
        finally:
            phase[0] = "sweep"

    def f(s, y):
        calls[phase[0]] += 1
        return np.stack((-y[..., 1], y[..., 0]), axis=-1)  # one state or (N, 2)

    monkeypatch.setattr(rk45, "_locate_lanes", landing)
    return f, calls


def test_counters_match_rhs_calls(monkeypatch):
    f, calls = _count_calls(monkeypatch)
    ctrl = StepControl(rtol=1e-10, atol=1e-10)
    sol, = solve_lanes(f, 0.0, np.array([[1.0, 0.0]]), 10.0, ctrl, crossings=2)
    assert sol.status == "event" and len(sol.events) == 2
    assert sol.accepted == sol.ss.size - 1  # the last step ends at the crossing
    # a lane of one evaluates f once per call: once at the start and twelve
    # times per step, accepted or rejected, plus each crossing's landing
    # (the terminal crossing's node is mesh values only, so it costs no
    # further evaluation)
    assert calls["sweep"] == 1 + 12 * (sol.accepted + sol.rejected)
    assert calls["landing"] == 2 * (1 + 12)  # one whole-bracket step per crossing
    assert sol.nfev == 1 + 12 * (sol.accepted + sol.rejected) + calls["landing"]
    # a step rejected by the error test is counted, and costs twelve evaluations
    calls["sweep"] = 0
    coarse = StepControl(rtol=1e-10, atol=1e-10, first_step=1.0)
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 3.0, coarse)
    assert sol.rejected >= 1
    assert sol.nfev == calls["sweep"] == 1 + 12 * (sol.accepted + sol.rejected)


# ---------------------------------------------------------------------------
# lanes


def _circle_lanes(s, y):
    return np.column_stack((-y[:, 1], y[:, 0]))


def test_solve_is_a_lane_of_one():
    """The scalar solver is a lane of one of ``solve_lanes``: its mesh and
    counts are bitwise the lane's."""
    rng = np.random.default_rng(11)
    rates = rng.uniform(0.5, 2.0, size=9)
    for _ in range(10):
        y0 = rng.normal(size=9) * rng.uniform(0.1, 10.0)
        s1 = rng.uniform(-2.0, 2.0)
        alone = solve(lambda s, y: -rates * y, 0.0, y0, s1)
        lane, = solve_lanes(lambda s, y: -rates * y, 0.0, y0[None], s1)
        assert _same_solution(alone, lane)
        assert alone.accepted > 1


def test_lanes_match_solve_on_circle():
    """Each lane of a batch stops at its first axis crossing with the steps
    and counts it takes as a lane of one."""
    radii = (1.0, 0.5, 2.0, 3.0)
    y0 = np.array([[r, 0.0] for r in radii])
    lanes = solve_lanes(_circle_lanes, 0.0, y0, 10.0, crossings=1)
    for r, lane in zip(radii, lanes):
        alone, = solve_lanes(_circle_lanes, 0.0, np.array([[r, 0.0]]), 10.0, crossings=1)
        assert lane.status == alone.status == "event"
        (s_ev, y_ev), = lane.events
        assert s_ev == pytest.approx(math.pi / 2, abs=5e-10)
        assert y_ev[0] == 0.0
        assert lane.ss[-1] == s_ev and np.array_equal(lane.ys[-1], y_ev)
        assert (lane.nfev, lane.accepted, lane.rejected) == (
            alone.nfev, alone.accepted, alone.rejected)
        assert lane.ss.shape == alone.ss.shape


def test_lanes_mixed_directions_and_end_times():
    ends = np.array([3.0, -2.0, 0.5, 0.0])
    lanes = solve_lanes(lambda s, y: y, 0.0, np.ones((4, 1)), ends)
    for end, lane in zip(ends, lanes):
        alone = solve(lambda s, y: y, 0.0, np.array([1.0]), end)
        assert lane.status == "done" and lane.ss[-1] == pytest.approx(end, abs=1e-12)
        assert lane.ys[-1][0] == pytest.approx(math.exp(end), rel=1e-9)
        assert (lane.nfev, lane.accepted, lane.rejected) == (
            alone.nfev, alone.accepted, alone.rejected)
    assert lanes[3].ss.size == 1 and lanes[3].nfev == 1  # zero span
    # per-lane start times, and a lane that ends where another starts
    lanes = solve_lanes(lambda s, y: np.ones_like(y), [0.0, 1.0], np.zeros((2, 1)),
                        [1.0, 3.0])
    assert [lane.ys[-1][0] for lane in lanes] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_lanes_own_their_nodes():
    """Each lane's mesh is an array of its own, so releasing a lane frees its
    nodes while the other lanes live on."""
    lanes = solve_lanes(_circle_lanes, 0.0, np.array([[1.0, 0.0], [2.0, 0.0]]), 10.0,
                        crossings=1)
    for a, b in ((0, 1), (1, 0)):
        assert not np.shares_memory(lanes[a].ys, lanes[b].ys)
        assert not np.shares_memory(lanes[a].ss, lanes[b].ys)
    assert all(lane.ys.shape == (lane.ss.size, 2) for lane in lanes)


def test_lane_underflow_does_not_stop_the_others():
    # y' = y^2 from y = 1 blows up at s = 1; from y = 0.1 it stays finite
    lanes = solve_lanes(lambda s, y: y * y, 0.0, np.array([[1.0], [0.1]]), 5.0)
    assert lanes[0].status == "underflow"
    assert lanes[0].ss[-1] == pytest.approx(1.0, abs=1e-9)
    assert str(StepUnderflow.at(1.0)) == "step size underflow at s=1.0"
    assert lanes[1].status == "done" and lanes[1].ss[-1] == pytest.approx(5.0)
    assert lanes[1].ys[-1][0] == pytest.approx(0.1 / (1 - 0.5), rel=1e-9)


def test_lane_counters_match_rhs_calls(monkeypatch):
    """Per lane, ``nfev`` is what that problem counts as a lane of one: the
    identity of ``test_counters_match_rhs_calls``, with the landing
    evaluations counted by the lane of one's right-hand-side calls."""
    radii = (1.0, 0.7, 1.9)
    ctrl = StepControl(rtol=1e-10, atol=1e-10)
    lanes = solve_lanes(_circle_lanes, 0.0, np.array([[r, 0.0] for r in radii]), 10.0,
                        ctrl, crossings=2)
    f, calls = _count_calls(monkeypatch)
    for r, lane in zip(radii, lanes):
        calls["landing"] = 0
        alone, = solve_lanes(f, 0.0, np.array([[r, 0.0]]), 10.0, ctrl, crossings=2)
        assert (lane.nfev, lane.accepted, lane.rejected) == (
            alone.nfev, alone.accepted, alone.rejected)
        assert lane.status == "event" and len(lane.events) == 2
        assert lane.accepted == lane.ss.size - 1
        assert calls["landing"] > 0
        assert lane.nfev == 1 + 12 * (lane.accepted + lane.rejected) + calls["landing"]
    # rejected steps are counted per lane
    lanes = solve_lanes(_circle_lanes, 0.0, np.array([[1.0, 0.0], [0.1, 0.0]]), 3.0,
                        StepControl(rtol=1e-10, atol=1e-10, first_step=1.0))
    for lane in lanes:
        assert lane.rejected >= 1
        assert lane.nfev == 1 + 12 * (lane.accepted + lane.rejected)


def test_landing_that_cannot_be_made_underflows():
    """A fixed step of 2 from (1, 0) brackets the crossing at pi/2 from a left
    node where y0' = 0, so the landing in y0 has no finite right-hand side
    there: the lane underflows at that node and gets no crossing, never a
    non-finite one."""
    fixed = StepControl(rtol=1e30, atol=1e30, max_step=2.0, first_step=2.0)
    lane, = solve_lanes(_circle_lanes, 0.0, np.array([[1.0, 0.0]]), 10.0, fixed,
                        crossings=1)
    assert lane.status == "underflow" and lane.events == []
    assert lane.ss.tolist() == [0.0] and lane.ys.tolist() == [[1.0, 0.0]]
    assert str(StepUnderflow.at(lane.ss[-1])) == "step size underflow at s=0.0"
    # a non-terminal crossing that cannot be landed ends the lane there too
    lane, = solve_lanes(_circle_lanes, 0.0, np.array([[1.0, 0.0]]), 10.0, fixed,
                        crossings=3)
    assert lane.status == "underflow" and lane.events == []
    assert lane.ss.tolist() == [0.0] and lane.accepted >= 2


def test_nan_lane_does_not_spoil_the_others_landings():
    lanes = solve_lanes(_circle_lanes, 0.0, np.array([[math.nan, 0.0], [1.0, 0.0]]), 10.0,
                        crossings=1)
    assert [lane.status for lane in lanes] == ["underflow", "event"]
    (s_ev, y_ev), = lanes[1].events
    assert s_ev == pytest.approx(math.pi / 2, abs=5e-10) and y_ev[0] == 0.0
    assert lanes[0].events == [] and lanes[0].ss.size == 1


# ---------------------------------------------------------------------------
# non-finite input


@pytest.mark.parametrize("s0, s1", [(math.nan, 1.0), (0.0, math.nan),
                                    (0.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_span_is_rejected(s0, s1):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="must be finite"):
        solve(lambda s, y: y, s0, np.array([1.0]), s1)
    with pytest.raises(ValueError, match="must be finite"):
        solve_lanes(lambda s, y: y, s0, np.ones((2, 1)), s1)
    with pytest.raises(ValueError, match="must be finite"):  # one bad lane
        solve_lanes(lambda s, y: y, [0.0, s0], np.ones((2, 1)), [1.0, s1])
    assert time.perf_counter() - start < 1.0


def test_nan_field_underflows_at_once():
    """A NaN right-hand side (so a NaN first step) is a step underflow, not a
    spin through ``max_steps``."""
    start = time.perf_counter()
    with pytest.raises(StepUnderflow, match="at s=0.0"):
        solve(lambda s, y: y * math.nan, 0.0, np.array([1.0]), 1.0)
    lane, = solve_lanes(lambda s, y: y * math.nan, 0.0, np.ones((1, 1)), 1.0)
    assert lane.status == "underflow" and lane.ss.size == 1
    assert (lane.nfev, lane.rejected) == (1, 0)  # no step is tried
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# lane-major state


def _same_solution(a, b):
    return (np.array_equal(a.ss, b.ss) and np.array_equal(a.ys, b.ys)
            and (a.status, a.nfev, a.accepted, a.rejected) == (
                b.status, b.nfev, b.accepted, b.rejected)
            and len(a.events) == len(b.events)
            and all(sa == sb and np.array_equal(ya, yb)
                    for (sa, ya), (sb, yb) in zip(a.events, b.events)))


def _damped_lanes(s, y):
    """A damped rotation in the first two components, a decay in the third;
    the result is built lane-major from ``Y``'s own layout."""
    out = np.empty_like(y)
    out[:, 0] = -y[:, 1] - 0.1 * y[:, 0]
    out[:, 1] = y[:, 0] - 0.1 * y[:, 1]
    out[:, 2] = -0.5 * y[:, 2] * s
    return out


@pytest.mark.parametrize("crossings", [None, 3])
def test_lanes_give_the_same_bits_for_either_memory_order(crossings):
    """The lanes hold their state lane-major, whatever the order of ``y0``:
    C- and Fortran-ordered starts give bitwise the same solutions, with a
    right-hand side that keeps ``Y``'s layout and one that builds C-order
    rows."""
    rng = np.random.default_rng(19)
    y0 = rng.normal(size=(7, 3))
    s1 = rng.uniform(4.0, 9.0, size=7) * np.where(rng.random(7) < 0.5, 1.0, -1.0)
    for f in (_damped_lanes, lambda s, y: np.column_stack(
            (-y[:, 1], y[:, 0], -y[:, 2]))):
        c = solve_lanes(f, 0.0, np.ascontiguousarray(y0), s1, crossings=crossings)
        fortran = solve_lanes(f, 0.0, np.asfortranarray(y0), s1, crossings=crossings)
        assert all(_same_solution(a, b) for a, b in zip(c, fortran, strict=True))
        if crossings is not None:
            assert any(sol.status == "event" for sol in c)


def test_lane_nfev_counts_every_attempted_step():
    """Without crossings a lane evaluates its field once at the start and
    twelve times per attempted step, whether the step is accepted, rejected
    by the error test or rejected for a non-finite state; an underflowing
    lane tries no more steps.  Each lane's counts are the ones it gets
    alone.  A first step of 2 is too long for every lane (the eighth-order
    pair accepts a first step of 1 on the last)."""

    def f(s, y):  # y' = y^2 blows up at s = 1/y0; the second column rotates
        out = np.empty_like(y)
        out[:, 0] = y[:, 0] * y[:, 0]
        out[:, 1] = -y[:, 1]
        return out

    y0 = np.array([[0.1, 1.0], [0.5, 2.0], [1.0, -1.0], [0.2, 0.0]])
    s1 = [5.0, 3.0, 3.0, -4.0]
    coarse = StepControl(rtol=1e-9, atol=1e-9, first_step=2.0)
    lanes = solve_lanes(f, 0.0, y0, s1, coarse)
    assert [lane.status for lane in lanes] == ["done", "underflow", "underflow", "done"]
    assert all(lane.rejected >= 1 for lane in lanes)
    for k, lane in enumerate(lanes):
        assert lane.nfev == 1 + 12 * (lane.accepted + lane.rejected)
        alone, = solve_lanes(f, 0.0, y0[k:k + 1], s1[k], coarse)
        assert _same_solution(lane, alone), k
