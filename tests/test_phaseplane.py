"""Phase-plane field, stationary set, orbits, portrait data."""

import io
import math

import numpy as np
import pytest

from heisgeo import phaseplane, verify
from heisgeo.phaseplane import (
    NotPeriodic,
    OnSeparatrix,
    PhaseParams,
    PhasePoint,
    first_integral,
    integrate,
    periodic_orbit,
    periodic_orbits,
    portrait,
    stationary_points,
    upsilon_beta,
    vector_field,
)
from heisgeo.rk45 import StepControl

PP = PhaseParams(2, 1.0)


def test_field_at_stationary_points():
    p1, p2 = stationary_points(PP)
    assert p1 == PhasePoint(0.0, 1.0)
    assert p2.beta == pytest.approx(-1.0 / 3.0, abs=0)
    assert vector_field(PP, p1) == (0.0, 0.0)
    da, db = vector_field(PP, p2)
    assert db == 0.0
    assert abs(da) <= 4 * np.finfo(float).eps  # defect is not a binary fraction


def test_field_on_axis():
    da, db = vector_field(PP, PhasePoint(0.7, 0.0))
    assert db == 0.0
    assert da == pytest.approx(-(0.7**2) - 1.0 / 16.0, rel=1e-15)
    assert da < 0


def test_field_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.normal(size=2) * 2
        da, db = vector_field(PP, PhasePoint(a, b))
        da2, db2 = vector_field(PP, PhasePoint(-a, b))
        assert da2 == da and db2 == -db


def test_upsilon():
    assert upsilon_beta(PP, 1.0) == (0.0,)
    got = upsilon_beta(PP, 2.0)
    assert got[0] == pytest.approx(0.66143782776614764, rel=1e-15)  # sqrt(7)/4
    assert got[1] == -got[0]
    assert upsilon_beta(PP, 0.5) == ()  # between the stationary defects


def test_integrate_stationary_is_constant():
    tr = integrate(PP, PhasePoint(0.0, 1.0), 2.0)
    assert np.max(np.abs(tr.alpha - 0.0)) == 0.0
    assert np.max(np.abs(tr.beta - 1.0)) == 0.0


def test_integrate_enters_positive_tilt():
    # from the axis above the stationary defect the tilt initially grows
    tr = integrate(PP, PhasePoint(0.0, 2.0), 0.5)
    assert np.all(tr.alpha[tr.s > 1e-12] > 0)


def test_integrate_sample_spacing_and_events():
    ctrl = StepControl(rtol=1e-10, atol=1e-10, max_step=0.05)
    tr = integrate(PP, PhasePoint(0.5, 2.0), 6.0, control=ctrl)
    assert np.max(np.diff(tr.s)) <= 0.05 + 1e-12
    assert len(tr.events) >= 2
    assert all(abs(b) > 1e-12 for _, b in tr.events)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_rejects_overflowing_trial_step():
    # a first step of 2 sends log|beta| past the float range in a trial stage
    tr = integrate(PP, PhasePoint(-5.0, 3.0), 20.0,
                   control=StepControl(first_step=2.0))
    assert tr.rejected >= 1
    assert tr.first_integral_drift() <= 1e-8


def test_integrate_crossing_golden():
    """First forward axis crossing from (0.5, 2), frozen after halved-step
    re-integration agreed to 1e-10."""
    gold = verify.golden()["crossing"]["n=2,c=1,alpha0=0.5,beta0=2"]
    tr = integrate(PP, PhasePoint(0.5, 2.0), 6.0)
    s, b = [e for e in tr.events if e[0] > 0][0]
    assert s == pytest.approx(gold["s"], abs=1e-8)
    assert b == pytest.approx(gold["beta"], abs=1e-8)
    assert 0.0 < b < 1.0  # returns to the axis below the stationary defect


def test_derivative_consistency_along_orbit():
    ctrl = StepControl(rtol=1e-10, atol=1e-10, max_step=5e-4)
    tr = integrate(PP, PhasePoint(0.0, 2.0), 2.0, control=ctrl)
    s, a, b = tr.s, tr.alpha, tr.beta
    # second-order three-point derivative on the (nonuniform) sample grid;
    # skip stencils with a near-degenerate step (endpoint landing nodes),
    # where dividing by the tiny step only amplifies state rounding
    h0 = s[1:-1] - s[:-2]
    h1 = s[2:] - s[1:-1]
    ok = (h0 > 1e-5) & (h1 > 1e-5)
    db = (
        h0**2 * b[2:] - h1**2 * b[:-2] + (h1**2 - h0**2) * b[1:-1]
    ) / (h0 * h1 * (h0 + h1))
    rhs = -2 * PP.n * b[1:-1] * a[1:-1]
    assert np.max(np.abs((db - rhs)[ok])) <= 1e-6


# ---------------------------------------------------------------------------
# periodic orbits


def test_periodic_orbit_axis_seed():
    tr = periodic_orbit(PP, PhasePoint(0.0, 2.0))
    assert tr.closure_error <= 1e-8
    assert tr.period == pytest.approx(7.102420511707922, abs=1e-8)  # golden
    lo = min(b for _, b in tr.events)
    hi = max(b for _, b in tr.events)
    assert 0 < lo < 1.0 and hi > 0  # crossing below the stationary defect


def test_periodic_orbit_off_axis_and_crossings():
    tr = periodic_orbit(PP, PhasePoint(0.5, 2.0))
    assert tr.closure_error <= 1e-8 * (1 + math.hypot(0.5, 2.0))
    lo = min(b for _, b in tr.events)
    hi = max(b for _, b in tr.events)
    assert 0.0 < lo < 1.0 < hi


def test_periodic_orbit_negative_defect():
    tr = periodic_orbit(PP, PhasePoint(0.0, -0.6))
    assert tr.closure_error <= 1e-8
    assert np.all(tr.beta < 0)  # stays in the lower half-plane


def test_mirrored_seeds_equal_periods():
    t1, t2 = periodic_orbits(PP, [PhasePoint(0.8, 1.7), PhasePoint(-0.8, 1.7)])
    assert abs(t1.period - t2.period) / t1.period <= 1e-9


def test_orbit_never_crosses_axis():
    seeds = [PhasePoint(0.3, 0.4), PhasePoint(-1.0, 2.5), PhasePoint(0.0, -0.5)]
    for seed, tr in zip(seeds, periodic_orbits(PP, seeds)):
        assert np.all(np.sign(tr.beta) == np.sign(seed.beta))


def test_on_separatrix_raises():
    with pytest.raises(OnSeparatrix):
        periodic_orbit(PP, PhasePoint(0.5, 0.0))
    with pytest.raises(OnSeparatrix):
        integrate(PP, PhasePoint(0.5, 0.0), 1.0)
    with pytest.raises(ValueError):
        periodic_orbit(PP, PhasePoint(0.0, 1.0))


def test_closure_convergence_order(monkeypatch):
    errs = []
    for hmax in (0.2, 0.1):
        ctrl = StepControl(rtol=1e30, atol=1e30, max_step=hmax, first_step=hmax)
        monkeypatch.setattr(phaseplane, "_default_control", lambda: ctrl)
        tr, = periodic_orbits(PP, [PhasePoint(0.0, 2.0)], orbit_tol=10.0)
        errs.append(tr.closure_error)
    assert errs[0] / errs[1] >= 16.0


def test_grid_closure_small_sample():
    pp = PhaseParams(3, 0.5)
    seeds = [PhasePoint(0.3, 0.8), PhasePoint(-0.4, -0.2), PhasePoint(0.1, 1.9)]
    for q0, tr in zip(seeds, periodic_orbits(pp, seeds)):
        assert tr.closure_error <= 1e-8 * (1 + math.hypot(q0.alpha, q0.beta))


@pytest.mark.parametrize("n,c,alpha,beta", [
    (4, 1.0, 3.0, 0.1),
    (5, 0.5, 0.7, -0.3),
    (8, 2.0, 1.3, 6.0),
    (8, 1.0, -1.2, 0.25),
])
def test_high_dimension_orbits_close(n, c, alpha, beta):
    """For n >= 4 the orbits pass far closer to the invariant line than
    double precision resolves in beta itself; they still close."""
    tr = periodic_orbit(PhaseParams(n, c), PhasePoint(alpha, beta))
    assert tr.closure_error <= 1e-8 * (1 + math.hypot(alpha, beta))
    assert tr.first_integral_drift() <= 1e-9
    assert np.all(np.sign(tr.beta) == np.sign(beta))


def test_orbit_is_one_forward_pass():
    tr = periodic_orbit(PP, PhasePoint(0.5, 2.0))
    assert tr.s[0] == 0.0 and np.all(np.diff(tr.s) > 0)
    assert tr.s[-1] == pytest.approx(tr.period, abs=1e-12)
    (s1, _), (s2, _) = tr.events
    assert 0.0 < s1 < s2 < tr.period
    assert tr.period == pytest.approx(2 * (s2 - s1), rel=1e-15)
    assert tr.accepted == len(tr.s) - 1
    assert tr.nfev >= 6 * (tr.accepted + tr.rejected)


def test_batch_equals_each_seed_alone():
    """Lanes are independent: a batch gives bitwise the traces of its seeds
    integrated one at a time, on-axis (one turn) and off-axis starts mixed,
    under one set of parameters or one per seed."""
    pp = PhaseParams(3, 0.5)
    seeds = [PhasePoint(0.3, 0.8), PhasePoint(-0.4, -0.2), PhasePoint(0.0, 1.9),
             PhasePoint(1.3, 0.06), PhasePoint(0.0, -0.5)]
    mixed = [PhaseParams(2, 1.0), PhaseParams(4, 2.0), PhaseParams(8, 1.0), pp,
             PhaseParams(5, 0.5)]
    for params in (pp, mixed):
        batch = periodic_orbits(params, seeds)
        assert len(batch) == len(seeds)
        per_seed = params if isinstance(params, list) else [params] * len(seeds)
        for q0, pq, tb in zip(seeds, per_seed, batch):
            ta = periodic_orbit(pq, q0)
            assert tb.params == ta.params == pq
            assert (tb.period, tb.closure_error) == (ta.period, ta.closure_error)
            assert (tb.nfev, tb.accepted, tb.rejected) == (ta.nfev, ta.accepted, ta.rejected)
            for key in ("s", "alpha", "beta"):
                assert np.array_equal(getattr(tb, key), getattr(ta, key))
            assert tb.events == ta.events


def test_trace_arrays_own_their_data():
    """A trace keeps no view of its rk45 nodes: its tilt is an array of its
    own, not a column of the (alpha, log|beta|) nodes."""
    for tr in (periodic_orbit(PP, PhasePoint(0.5, 2.0)),
               integrate(PP, PhasePoint(0.5, 2.0), 10.0)):
        assert tr.alpha.base is None and tr.alpha.flags.c_contiguous
        assert not np.shares_memory(tr.alpha, tr.s)


def test_batch_raises_for_the_first_bad_seed(monkeypatch):
    good = PhasePoint(0.5, 2.0)
    on_line, stationary = PhasePoint(0.5, 0.0), PhasePoint(0.0, 1.0)
    with pytest.raises(OnSeparatrix):
        periodic_orbits(PP, [good, on_line, stationary])
    with pytest.raises(ValueError, match="stationary"):
        periodic_orbits(PP, [good, stationary, on_line])
    # a seed that fails to close raises before a later invalid seed, with the
    # message it raises alone
    with pytest.raises(NotPeriodic) as batch:
        periodic_orbits(PP, [good, on_line], orbit_tol=1e-20)
    with pytest.raises(NotPeriodic) as alone:
        periodic_orbits(PP, [good], orbit_tol=1e-20)
    assert str(batch.value) == str(alone.value)
    with monkeypatch.context() as m:
        m.setattr(phaseplane, "_S_CAP", 0.1)  # c = 1: no crossing before s = 0.1
        with pytest.raises(NotPeriodic, match="time cap"):
            periodic_orbits(PP, [good, PhasePoint(0.0, 2.0)])
    assert periodic_orbits(PP, []) == []
    assert periodic_orbits([], []) == []
    with pytest.raises(ValueError, match="one per seed"):
        periodic_orbits([PP], [good, good])
    # a stationary point of its own lane's parameters only
    periodic_orbits([PhaseParams(2, 2.0)], [stationary])
    with pytest.raises(ValueError, match="stationary"):
        periodic_orbits([PhaseParams(2, 2.0), PP], [stationary, stationary])


def test_non_finite_seed_is_a_value_error():
    """A NaN or infinite seed is bad input, not a blow-up of its orbit; in a
    batch the first bad seed in input order raises."""
    good, on_line = PhasePoint(0.5, 2.0), PhasePoint(0.5, 0.0)
    for bad in (PhasePoint(math.nan, 1.0), PhasePoint(0.0, math.inf),
                PhasePoint(-math.inf, -0.5), PhasePoint(0.0, math.nan)):
        with pytest.raises(ValueError, match="seed must be finite"):
            periodic_orbits(PP, [bad])
        with pytest.raises(ValueError, match="seed must be finite"):
            integrate(PP, bad, 1.0)
        with pytest.raises(ValueError, match="seed must be finite"):
            periodic_orbits(PP, [good, bad, on_line])
        with pytest.raises(OnSeparatrix):
            periodic_orbits(PP, [good, on_line, bad])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lane_whose_steps_underflow_is_a_blow_up(monkeypatch):
    """A lane with a NaN derivative at its start rejects every step until
    the step size underflows: that orbit blew up, and the batch says so."""
    original = phaseplane._rhs_log

    def nan_at_start(n, c, signs):
        f = original(n, c, signs)

        def g(s, y):
            out = f(s, y)
            out[y[:, 0] == 0.25] = math.nan
            return out

        return g

    monkeypatch.setattr(phaseplane, "_rhs_log", nan_at_start)
    with pytest.raises(NotPeriodic, match="blow-up before the orbit closed: step size underflow"):
        periodic_orbits(PP, [PhasePoint(0.5, 2.0), PhasePoint(0.25, 2.0)])


def test_first_integral_is_conserved():
    tr = integrate(PP, PhasePoint(0.5, 2.0), 6.0)
    assert tr.first_integral_drift() <= 1e-9
    q0 = PhasePoint(-0.3, -0.7)
    assert first_integral(PP, q0.alpha, q0.beta) == pytest.approx(
        abs(q0.beta) ** -0.5 * (0.09 + 1.7**2 / 16.0), rel=1e-15)


# ---------------------------------------------------------------------------
# an independent period: the first integral's quadrature


def _root(g, inside, step):
    """The root of ``g`` between ``inside``, where ``g > 0``, and the first
    point ``inside + k * step`` where ``g <= 0``, bisected to adjacent
    floats."""
    out = inside + step
    while g(out) > 0.0:
        inside, out = out, out + step
    while (mid := 0.5 * (inside + out)) not in (inside, out):
        inside, out = (mid, out) if g(mid) > 0.0 else (inside, mid)
    return out


def _quadrature_period(pp, q0, nodes=32):
    """The period of the orbit through ``q0`` without an ODE.

    In ``w = log|beta|`` the first integral gives ``alpha**2 = G(w) =
    F0 exp(w / n) - (beta - c)**2 / (4 n**2)``, and ``w' = -2 n alpha``, so
    ``T = 2 * integral dw / (2 n sqrt(G))`` between the two roots of ``G``,
    which bracket the stationary defect of the half-plane.  With ``w = mid
    + half cos(theta)`` the integrand is ``half sin(theta) / sqrt(G)``,
    smooth and periodic, so Gauss-Chebyshev converges spectrally."""
    n, c = pp.n, pp.c
    sign = math.copysign(1.0, q0.beta)
    f0 = float(first_integral(pp, q0.alpha, q0.beta))

    def g(w):
        return f0 * math.exp(w / n) - (sign * math.exp(w) - c) ** 2 / (4.0 * n * n)

    centre = math.log(abs(stationary_points(pp)[0 if sign > 0 else 1].beta))
    lo, hi = _root(g, centre, -1.0), _root(g, centre, 1.0)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    thetas = [(2 * k + 1) * math.pi / (2 * nodes) for k in range(nodes)]
    total = math.fsum(half * math.sin(t) / math.sqrt(g(mid + half * math.cos(t)))
                      for t in thetas)
    return 2.0 * math.pi / nodes * total / (2.0 * n)


def test_periods_match_the_first_integral_quadrature():
    """Every seed of the ``lemma6.1-closure`` grid, both half-planes, with
    the golden orbit: the integrated period matches the quadrature within
    1e-10 relative (3.1e-11 measured over the 301 lanes, 1.6e-11 over the
    151 upper ones)."""
    params, seeds = verify._flat(verify._closure_cases())
    traces = periodic_orbits(params, seeds, orbit_tol=math.inf)
    assert len(traces) == 301
    for pp, q0, tr in zip(params, seeds, traces, strict=True):
        assert abs(tr.period - _quadrature_period(pp, q0)) <= 1e-10 * tr.period, (pp, q0)


def test_quadrature_period_matches_golden():
    frozen = verify.golden()["orbit_period"]["n=2,c=1,alpha0=0,beta0=2"]
    assert _quadrature_period(PP, PhasePoint(0.0, 2.0)) == pytest.approx(frozen, rel=1e-10)


def test_no_step_spans_two_axis_crossings():
    """The orbits' step cap leaves every accepted step within a quarter of
    the half-period (at most 0.20 measured), so no step can span two axis
    crossings: on the lemma 6.1 batch of a run at seed 42, and on the
    orbits of ``heisgeo phase`` at its defaults (at most 0.16)."""
    pool = verify._OrbitPool(42)
    params, seeds = verify._flat(sum(pool.cases.values(), []))
    traces = periodic_orbits(params, seeds, orbit_tol=math.inf)
    traces += portrait(PP).orbits
    assert len(traces) == 335
    for tr in traces:
        assert np.max(np.diff(tr.s)) <= 0.25 * (0.5 * tr.period)


# ---------------------------------------------------------------------------
# portrait


def test_portrait_dataset():
    data = portrait(PP)
    kinds = {row[0] for row in data.rows}
    assert "field" in kinds and "upsilon" in kinds and "stationary" in kinds
    orbit_kinds = {k for k in kinds if k.startswith("orbit:")}
    assert len(orbit_kinds) == 10  # five per half-plane
    st_rows = [r for r in data.rows if r[0] == "stationary"]
    assert (st_rows[0][2], st_rows[0][3]) == (0.0, 1.0)
    assert (st_rows[1][2], st_rows[1][3]) == (0.0, -1.0 / 3.0)
    # zero-tilt-rate rows satisfy their defining equation to rounding
    for _, _, a, b in (r for r in data.rows if r[0] == "upsilon"):
        assert abs(-a * a + (b - 1) * (3 * b + 1) / 16.0) <= 1e-12
    # orbits never touch the axis and are nested per half-plane
    per_orbit = {}
    for kind, s, a, b in data.rows:
        if kind.startswith("orbit:"):
            per_orbit.setdefault(kind, []).append(b)
    uppers = sorted(
        (min(bs), max(bs)) for k, bs in per_orbit.items() if min(bs) > 0
    )
    lowers = [(min(bs), max(bs)) for k, bs in per_orbit.items() if max(bs) < 0]
    assert len(uppers) == 5 and len(lowers) == 5
    # sorted by lower extent: the outermost ring comes first and encloses all
    for (lo1, hi1), (lo2, hi2) in zip(uppers, uppers[1:]):
        assert lo2 > lo1 and hi2 < hi1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_portrait_two_field_rows_per_grid_point(n, c):
    data = portrait(PhaseParams(n, c), seeds=[PhasePoint(0.0, 1.5 * c)])
    field = [r for r in data.rows if r[0] == "field"]
    assert len(field) == 2 * 21 * 21
    assert [r[1] for r in field] == [0.0, 1.0] * (21 * 21)
    # the default grid holds the stationary point (0, c): a zero-length arrow
    tips = [(tip[2], tip[3]) for base, tip in zip(field[::2], field[1::2])
            if (base[2], base[3]) == (0.0, c)]
    assert tips == [(0.0, c)]


def test_portrait_csv_format():
    buf = io.StringIO()
    portrait(PP, seeds=[PhasePoint(0.0, 1.5)]).write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "kind,s,alpha,beta"
    parts = lines[1].split(",")
    assert len(parts) == 4
    float(parts[1]), float(parts[2]), float(parts[3])


def test_portrait_of_no_seeds_has_no_orbits():
    """An empty seed list is no orbits, not the default seeds."""
    data = portrait(PP, seeds=[])
    assert data.orbits == []
    assert {row[0] for row in data.rows} == {"field", "upsilon", "stationary"}
