"""Integrator accuracy, dense output, events and step-size behavior."""

import math

import numpy as np
import pytest

from heisgeo.rk45 import Event, StepControl, StepUnderflow, solve


def test_exponential_accuracy():
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), 3.0)
    assert sol.ys[-1][0] == pytest.approx(math.exp(3.0), rel=1e-9)


def test_backward_integration():
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), -2.0)
    assert sol.ys[-1][0] == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert sol.ss[-1] == pytest.approx(-2.0, abs=1e-12)


def test_dense_output_on_circle():
    f = lambda s, y: np.array([-y[1], y[0]])
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 6.0)
    for s in np.linspace(0.1, 5.9, 37):
        y = sol(s)
        assert y[0] == pytest.approx(math.cos(s), abs=5e-8)
        assert y[1] == pytest.approx(math.sin(s), abs=5e-8)


def test_event_location_and_terminal():
    f = lambda s, y: np.array([-y[1], y[0]])
    ev = Event(fn=lambda s, y: y[0], value_tol=1e-13, terminal_count=1)
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 10.0, events=[ev])
    assert sol.status == "event"
    s_ev, y_ev, idx = sol.events[0]
    assert idx == 0
    assert s_ev == pytest.approx(math.pi / 2, abs=5e-10)
    assert abs(y_ev[0]) <= 1e-13


def test_event_accept_filter():
    f = lambda s, y: np.array([-y[1], y[0]])
    ev = Event(fn=lambda s, y: y[0], accept=lambda s, y: y[1] < 0)
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 7.0, events=[ev])
    # only the crossing at 3pi/2 (where sin < 0) is kept
    assert len(sol.events) == 1
    assert sol.events[0][0] == pytest.approx(3 * math.pi / 2, abs=5e-9)


def test_max_step_is_respected():
    ctrl = StepControl(max_step=0.01)
    sol = solve(lambda s, y: y, 0.0, np.array([1.0]), 1.0, ctrl)
    assert np.max(np.diff(sol.ss)) <= 0.01 + 1e-12


def test_fifth_order_convergence():
    f = lambda s, y: np.array([-y[1], y[0]])
    errs = []
    for h in (0.2, 0.1):
        ctrl = StepControl(rtol=1e30, atol=1e30, max_step=h, first_step=h)
        sol = solve(f, 0.0, np.array([1.0, 0.0]), 4.0, ctrl)
        exact = np.array([math.cos(4.0), math.sin(4.0)])
        errs.append(np.linalg.norm(sol.ys[-1] - exact))
    assert errs[0] / errs[1] >= 16.0


def test_blowup_raises_underflow():
    with pytest.raises(StepUnderflow):
        solve(lambda s, y: y * y, 0.0, np.array([1.0]), 5.0)  # blows up at s=1


def test_zero_span():
    sol = solve(lambda s, y: y, 1.0, np.array([2.0]), 1.0)
    assert sol.ss.size == 1 and sol.ys[0][0] == 2.0


def test_counters_match_rhs_calls():
    calls = 0

    def f(s, y):
        nonlocal calls
        calls += 1
        return np.array([-y[1], y[0]])

    ev = Event(fn=lambda s, y: y[0], terminal_count=2)
    ctrl = StepControl(rtol=1e-10, atol=1e-10)
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 10.0, ctrl, events=[ev])
    assert sol.status == "event" and len(sol.events) == 2
    assert sol.nfev == calls
    assert sol.accepted == sol.ss.size - 1  # the last step ends at the event
    # a step rejected by the error test is counted, and costs six evaluations
    calls = 0
    coarse = StepControl(rtol=1e-10, atol=1e-10, first_step=1.0)
    sol = solve(f, 0.0, np.array([1.0, 0.0]), 3.0, coarse)
    assert sol.rejected >= 1
    assert sol.nfev == calls == 1 + 6 * (sol.accepted + sol.rejected)
