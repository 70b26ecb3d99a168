"""Constant-curvature curves, the radial profile equation, identity checks."""

import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from heisgeo import catalog, flows, surface, verify
from heisgeo.core import HorizontalVector, Point, _J, frame_lift, theta
from heisgeo.rk45 import StepControl, solve_lanes
from heisgeo.flows import (
    CurveState,
    geodesic_flow,
    geodesic_flows,
    identity_check,
    profile_ode,
)
from heisgeo.surface import (
    DomainError,
    NonSymmetric,
    OffSurface,
    PivotDegenerate,
    alpha_directional,
    build_frame,
    frame_many,
    horizontal_gradient,
    report,
    report_many,
)

RNG = np.random.default_rng(90210)


def unit(v):
    v = np.asarray(v, dtype=float)
    return HorizontalVector(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# constant-curvature curves


def test_zero_curvature_is_straight():
    start = CurveState(Point(np.zeros(5)), unit([1.0, 1.0, 0, 0]))
    tr = geodesic_flow(start, 0.0, 2.0)
    assert np.allclose(tr.velocities, tr.velocities[0], atol=1e-12)
    # horizontal coordinates move affinely, the vertical one stays put here
    assert tr.coords[-1][0] == pytest.approx(2.0 / math.sqrt(2), rel=1e-9)
    assert abs(tr.coords[-1][4]) <= 1e-12


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_norm_preservation(lam):
    start = CurveState(Point(RNG.normal(size=5)), unit(RNG.normal(size=4)))
    tr = geodesic_flow(start, lam, 10.0)
    drift = np.max(np.abs(np.linalg.norm(tr.velocities, axis=1) - 1.0))
    assert drift <= 1e-9


def test_velocity_is_horizontal():
    start = CurveState(Point(RNG.normal(size=5)), unit(RNG.normal(size=4)))
    tr = geodesic_flow(start, 1.3, 5.0)
    # the contact form annihilates the coordinate velocity along the curve
    for i in range(0, tr.ss.size - 1, 7):
        p = Point(tr.coords[i])
        v = tr.velocities[i]
        w = np.concatenate([v, [float(p.y @ v[:2] - p.x @ v[2:])]])
        assert abs(theta(p, w)) <= 1e-9


def test_projection_is_circle():
    lam = 1.0
    xy0 = np.array([0.3, -0.2, 0.5, 0.1])
    v0 = unit([0.2, -0.4, 0.8, 0.1])
    start = CurveState(Point(np.concatenate([xy0, [0.0]])), v0)
    tr = geodesic_flow(start, lam, 6.0)
    J = lambda v: np.concatenate([-v[2:], v[:2]])
    center = xy0 + J(v0.coeffs) / (2 * lam)
    radii = np.linalg.norm(tr.coords[:, :4] - center, axis=1)
    assert np.max(np.abs(radii - 1.0 / (2 * lam))) <= 1e-7


def test_confinement_from_equator_until_pole():
    """From the rim, the matching-curvature flow stays on the sphere exactly
    until it reaches a pole (arc pi/(2 lam)) and leaves along the continuation.
    """
    lam = 1.0
    e = catalog.pansu(lam, 2)
    p = Point(np.array([1.0, 0, 0, 0, 0.0]))
    fr = build_frame(e.surface, p)
    pole_s = math.pi / (2 * lam)
    tr = geodesic_flow(CurveState(p, fr.en), lam, 0.999 * pole_s)
    assert max(abs(e.surface.value(c)) for c in tr.coords) <= 1e-7
    # the flow heads for a pole: the radius shrinks and the height moves
    z_end = np.linalg.norm(tr.coords[-1][:4])
    assert z_end < 0.1 and abs(tr.coords[-1][4]) > 0.7
    # past the pole the curve continues onto a translated copy, leaving this one
    tr2 = geodesic_flow(CurveState(p, fr.en), lam, 1.2 * pole_s)
    vals = [e.surface.value(c) for c in tr2.coords if 1 - np.linalg.norm(c[:4]) ** 2 > -1e-3]
    assert max(abs(v) for v in vals) > 1e-4


def test_confinement_with_clearance_starts():
    for lam in (0.5, 1.0):
        e = catalog.pansu(lam, 2)
        for p in verify.confinement_starts(lam, 2, RNG, 5):
            fr = build_frame(e.surface, p)
            tr = geodesic_flow(CurveState(p, fr.en), lam, 3.0)
            assert max(abs(e.surface.value(c)) for c in tr.coords) <= 1e-7


def closed_form_geodesic(start, lam, s):
    """The constant-curvature curve in closed form, with omega = 2 lam:
    v(s) = cos(omega s) v0 + sin(omega s) J v0, z the integral of v, and t
    the integral of the contact lift <z, J v>."""
    n = start.p.n
    z0, t0 = start.p.coords[: 2 * n], start.p.coords[2 * n]
    v0 = start.v.coeffs
    jv0 = np.concatenate([-v0[n:], v0[:n]])
    s = np.asarray(s, dtype=float)[:, None]
    if lam == 0.0:
        z = z0 + s * v0
        t = t0 + s[:, 0] * float(z0 @ jv0)
        v = np.broadcast_to(v0, z.shape)
    else:
        om = 2.0 * lam
        sn, cs = np.sin(om * s), np.cos(om * s)
        v = cs * v0 + sn * jv0
        z = z0 + (sn * v0 + (1.0 - cs) * jv0) / om
        t = (t0 + (sn * jv0 - (1.0 - cs) * v0) @ z0 / om
             + (sn[:, 0] / om - s[:, 0]) / om)
    return np.column_stack((z, t)), v


def random_starts(n, count):
    # a local stream, so the shared RNG's draws in later tests do not move
    rng = np.random.default_rng(7)
    return [CurveState(Point(rng.normal(size=2 * n + 1)), unit(rng.normal(size=2 * n)))
            for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3])
def test_geodesics_match_closed_form(n):
    """One start alone and a batch follow an explicit curve written
    independently, in numpy's trigonometry and dot products."""
    lams = [0.0, 0.5, 1.0, 1.7]
    starts = random_starts(n, len(lams))
    lanes = geodesic_flows(starts, lams, 3.0)
    for start, lam, tr_lane in zip(starts, lams, lanes):
        for tr in (geodesic_flow(start, lam, 3.0), tr_lane):
            assert tr.ss[-1] == pytest.approx(3.0, abs=1e-14)
            coords, v = closed_form_geodesic(start, lam, tr.ss)
            assert np.max(np.abs(tr.coords - coords)) <= 1e-10
            assert np.max(np.abs(tr.velocities - v)) <= 1e-10


def _integrated_geodesics(starts, lams, ss):
    """The program's curve equations integrated at rtol = atol = 1e-12 with
    ``rk45.solve_lanes``, one lane per start and node, each integrated from
    0 to its node: ``v' = 2 lam J v``, ``z' = v``, ``t' = <z, J v>``.
    Returns (starts, nodes, 2n+1) coordinates and (starts, nodes, 2n)
    velocities."""
    n = starts[0].p.n
    y0 = np.array([np.concatenate([st.p.coords, st.v.coeffs]) for st in starts])
    omega = np.repeat(2.0 * np.asarray(lams, dtype=float), ss.size)[:, None]

    def f(s, y):
        z, v = y[:, : 2 * n], y[:, 2 * n + 1 :]
        out = np.empty_like(y)
        out[:, : 2 * n] = v
        out[:, 2 * n] = np.sum(z * _J(v), axis=1)
        out[:, 2 * n + 1 :] = omega * _J(v)
        return out

    sols = solve_lanes(f, 0.0, np.repeat(y0, ss.size, axis=0), np.tile(ss, len(starts)),
                       StepControl(rtol=1e-12, atol=1e-12))
    ends = np.array([sol.ys[-1] for sol in sols]).reshape(len(starts), ss.size, -1)
    return ends[..., : 2 * n + 1], ends[..., 2 * n + 1 :]


@pytest.mark.parametrize("n", [2, 3])
def test_geodesics_match_an_integration(n):
    """The closed-form traces agree within 1e-10 with an independent
    DOP853 integration of the curve equations, at every node."""
    lams = [0.0, 0.5, -1.0, 1.7]
    starts = random_starts(n, len(lams))
    traces = geodesic_flows(starts, lams, 3.0)
    coords, v = _integrated_geodesics(starts, lams, traces[0].ss)
    for i, tr in enumerate(traces):
        assert np.max(np.abs(tr.coords - coords[i])) <= 1e-10
        assert np.max(np.abs(tr.velocities - v[i])) <= 1e-10


@pytest.mark.parametrize("lam", [1e-12, 1e-300, -1e-300])
def test_vertical_term_keeps_its_digits_at_tiny_curvature(lam):
    """From the origin the height is the whole term ``s^2 g(2 lam s)``:
    about ``-lam s^3 / 3``, which a direct ``(sin x - x) / x^2`` would lose
    to cancellation (or to underflow of ``x^2``).  The trace meets the
    series within 1e-15, relative."""
    start = CurveState(Point(np.zeros(5)), unit([0.6, 0.0, 0.0, 0.8]))
    tr = geodesic_flow(start, lam, 3.0)
    s = tr.ss[1:]
    x = 2.0 * lam * s
    series = -lam * s**3 / 3.0 * (1.0 - x * x / 20.0 + x**4 / 840.0)
    assert np.max(np.abs(tr.coords[1:, 4] / series - 1.0)) <= 1e-15
    assert np.all(np.sign(tr.coords[1:, 4]) == -np.sign(lam))


def test_huge_curvature_keeps_unit_speed():
    lam = 1e8
    start = CurveState(Point(RNG.normal(size=5)), unit(RNG.normal(size=4)))
    tr = geodesic_flow(start, lam, 3.0)
    assert np.max(np.abs(np.linalg.norm(tr.velocities, axis=1) - 1.0)) <= 1e-15
    # the planar part: a circle of radius 1 / (2 lam) about z0 + J v0 / (2 lam)
    z0, v0 = start.p.coords[:4], start.v.coeffs
    radii = np.linalg.norm(tr.coords[:, :4] - (z0 + _J(v0) / (2.0 * lam)), axis=1)
    assert np.max(np.abs(radii * (2.0 * lam) - 1.0)) <= 1e-7


@pytest.mark.parametrize("s_max", [3.0, -3.0, 4.0, 0.1, 7.3, 100.0])
def test_geodesic_nodes(s_max):
    """``ceil(|s_max| / 0.05) + 1`` equally spaced nodes, at most 0.05
    apart up to the rounding of the node values, ending at ``s_max``
    exactly."""
    tr = geodesic_flow(random_starts(2, 1)[0], 1.0, s_max)
    assert tr.ss.size == math.ceil(abs(s_max) / 0.05) + 1
    assert tr.ss[0] == 0.0 and tr.ss[-1] == s_max
    steps = np.diff(tr.ss) * math.copysign(1.0, s_max)
    assert np.all(steps > 0.0)
    assert np.max(steps) <= 0.05 + 4 * np.spacing(abs(s_max))
    assert tr.coords.shape == (tr.ss.size, 5) and tr.velocities.shape == (tr.ss.size, 4)


def test_zero_arc_is_the_start():
    start = random_starts(2, 1)[0]
    tr = geodesic_flow(start, 1.0, 0.0)
    assert tr.ss.tolist() == [0.0]
    assert np.array_equal(tr.coords, start.p.coords[None])
    assert np.array_equal(tr.velocities, start.v.coeffs[None])


def test_geodesic_lanes_match_scalar_flows():
    """A batch gives each start bitwise its trace alone, on the same nodes,
    with mixed curvatures or one curvature for all."""
    starts = random_starts(2, 5)
    for lams in ([0.25, 1.0, 4.0, -1.0, 0.0], [1.0] * 5):
        lanes = geodesic_flows(starts, lams, 4.0)
        assert len(lanes) == len(starts)
        for start, lam, tr in zip(starts, lams, lanes):
            ref = geodesic_flow(start, lam, 4.0)
            assert tr.lam == ref.lam == lam
            assert tr.ss.size == ref.ss.size == 81
            assert np.array_equal(tr.ss, ref.ss)
            assert np.array_equal(tr.coords, ref.coords)
            assert np.array_equal(tr.velocities, ref.velocities)


@pytest.mark.parametrize("lam, s_max, match", [
    (1.0, 1e6, "needs more than 2000000 nodes"),
    (1.0, -1e6, "needs more than 2000000 nodes"),
    (1e308, 3.0, "must be finite"),
    (-1e300, 1e10, "must be finite"),
])
def test_long_arcs_and_huge_turning_angles_fail_at_once(lam, s_max, match):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        geodesic_flow(random_starts(2, 1)[0], lam, s_max)
    assert time.perf_counter() - start < 1.0


def test_geodesic_lanes_validate_starts():
    assert geodesic_flows([], [], 1.0) == []
    with pytest.raises(ValueError, match="same dimension"):
        geodesic_flows(random_starts(2, 1) + random_starts(3, 1), [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="one curvature per start"):
        geodesic_flows(random_starts(2, 2), 1.0, 1.0)
    with pytest.raises(ValueError, match="one curvature per start"):
        geodesic_flows(random_starts(2, 2), [1.0] * 3, 1.0)
    bad = CurveState(Point(np.zeros(5)), HorizontalVector(np.array([1.0, 1.0, 0, 0])))
    with pytest.raises(ValueError, match="unit"):
        geodesic_flows(random_starts(2, 1) + [bad], [1.0, 1.0], 1.0)


@pytest.mark.parametrize("lam, s_max", [(math.nan, 3.0), (math.inf, 3.0),
                                        (1.0, math.nan), (1.0, math.inf)])
def test_geodesic_non_finite_input_fails_at_once(lam, s_max):
    start = time.perf_counter()
    st = random_starts(2, 2)
    with pytest.raises(ValueError, match="must be finite"):
        geodesic_flow(st[0], lam, s_max)
    with pytest.raises(ValueError, match="must be finite"):
        geodesic_flows(st, [1.0, lam], s_max)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# radial profile equation


def test_profile_matches_closed_form():
    lams = (0.5, 1.0, 2.0)
    for lam, (grid, vals) in zip(lams, profile_ode(lams)):
        for r, f in zip(grid, vals):
            z = math.sqrt(r)
            h = (lam * z * math.sqrt(1 - lam * lam * r) + math.acos(lam * z)) / (
                2 * lam * lam
            )
            assert abs(f - h * h) <= 1e-6


def test_profile_values_are_integrated_states():
    """Each grid value is bitwise the end state of a lone lane from the outer
    grid radius to its own radius: integrated there, never interpolated, and
    the same whichever other curvatures share the sweep."""
    lams = (0.5, 1.0, 2.0)
    for lam, (grid, vals) in zip(lams, profile_ode(lams)):
        (alone_grid, alone), = profile_ode([lam])
        assert np.array_equal(alone_grid, grid) and np.array_equal(alone, vals)
        lam2 = lam * lam
        r_hi = grid[-1]
        f0 = catalog._psi(1.0 - lam2 * r_hi) / lam**4

        def f(r, y):
            return -np.sqrt(lam2 * r * np.maximum(y[:, 0], 0.0) / (1.0 - lam2 * r))[:, None]

        for i in (0, 97, 198, 199):
            lane, = solve_lanes(f, r_hi, np.array([[f0]]), grid[i],
                                StepControl(rtol=1e-10, atol=1e-12))
            assert lane.status == "done" and lane.ys[-1, 0] == vals[i]
        assert vals[-1] == f0


def test_profile_pole_limit(monkeypatch):
    monkeypatch.setattr(flows, "_PROFILE_SPAN", (1e-3, 1 - 1e-6))  # lam = 1: r_out = 1
    (grid, vals), = profile_ode([1.0])
    target = (math.pi / 4) ** 2
    # the height-squared approaches the pole value like r^(3/2)
    assert abs(vals[0] - target) <= 2 * (math.pi / 4) * grid[0] ** 1.5


def test_profile_reconstructs_curvature():
    lam = 1.0
    (grid, vals), = profile_ode([lam])
    for r, f in zip(grid[:-1], vals[:-1]):
        fp = -math.sqrt(lam * lam * r * max(f, 0.0) / (1 - lam * lam * r))
        k = -fp / (math.sqrt(r) * math.sqrt(fp * fp + f))
        assert k == pytest.approx(lam, abs=1e-6)


def test_profile_domain_error():
    # lam^2 overflows, so the outer radius 1/lam^2 is 0 and no grid fits
    with pytest.raises(DomainError):
        profile_ode([1e200])
    with pytest.raises(DomainError):  # the second curvature's grid only
        profile_ode([1.0, 1e200])


# ---------------------------------------------------------------------------
# interior identities


def moderate(entry, count):
    return verify.moderate_points(entry, RNG, count)


def test_identity_residuals_small_and_quadratic():
    for entry in verify.identity_suite_entries():
        p = moderate(entry, 1)[0]
        res1 = identity_check(entry.surface, p)  # h_fd = 1e-4
        res2 = flows.identity_check_many(entry.surface, [p], h_fd=5e-5)[0]
        for key, r1 in asdict(res1).items():
            r2 = asdict(res2)[key]
            assert r1 <= 1e-5, (entry.name, key)
            if r1 > 1e-9:  # above the rounding floor the step ratio bites
                assert r1 / r2 >= 3.5, (entry.name, key)


def test_identity_cylinder_all_vanish():
    entry = catalog.cylinder(2.0, 2)
    p = entry.sample(RNG, 1)[0]
    res = identity_check(entry.surface, p)
    assert res.max() <= 1e-8


def test_identity_heisenberg_rate_oracle():
    """Tilt rate along the characteristic direction equals the closed form
    derived from the published table (l = 3k): -2k^2 - alpha^2."""
    entry = catalog.heisenberg_sphere(1.0, 2)
    for p in moderate(entry, 5):
        rep = report(entry.surface, p)
        phi = float(flows._en_alpha_rates(frame_many(entry.surface, (p,)))[0])
        assert phi == pytest.approx(-2 * rep.k**2 - rep.alpha**2, abs=1e-10)


def test_identity_pansu_rate_oracle():
    # constant-curvature sphere: tilt rate is -(lam^2 + alpha^2)
    entry = catalog.pansu(1.0, 2)
    for p in moderate(entry, 5):
        rep = report(entry.surface, p)
        phi = float(flows._en_alpha_rates(frame_many(entry.surface, (p,)))[0])
        assert phi == pytest.approx(-(1.0 + rep.alpha**2), abs=1e-9)


def test_leaf_constancy():
    for entry in verify.identity_suite_entries():
        p = moderate(entry, 1)[0]
        assert flows.leaf_constancy(entry.surface, p) <= 1e-6


# ---------------------------------------------------------------------------
# brackets of the invariant complement (``verify._bracket_spans``)


def _spans(entry, points):
    """The ``(rank, en_projection)`` pairs of ``prop4.3`` at points of one
    catalog entry, from one ``report_many`` batch."""
    rank, proj = verify._bracket_spans(report_many(entry.surface, points).h)
    return list(zip(rank.tolist(), proj.tolist()))


def test_bracket_span_rank():
    for entry in (catalog.pansu(1.0, 2), catalog.cylinder(1.0, 2)):
        for rank, proj in _spans(entry, entry.sample(RNG, 4)):
            assert rank == 3  # 2n - 1 for n = 2
            assert proj <= 1 - 1e-6


def test_bracket_span_rank_n3():
    entry = catalog.pansu(1.0, 3)
    for rank, proj in _spans(entry, entry.sample(RNG, 2)):
        assert rank == 5
        assert proj <= 1 - 1e-6


@pytest.mark.parametrize("entry", [catalog.pansu(1.0, 3), catalog.shifted_sphere(0.5, 1.2, 3),
                                   catalog.cylinder(1.0, 2)], ids=["pansu3", "shifted3", "cyl2"])
def test_bracket_spans_rows_equal_batches_of_one(entry):
    """Each entry of a batch of points of both hemispheres and different
    pivots is bitwise that point's batch of one."""
    points = entry.sample(np.random.default_rng(14), 12)
    assert len({p.t > 0 for p in points}) == 2
    if entry.surface.n > 2:
        assert len({build_frame(entry.surface, p).pivots for p in points}) > 1
    assert _spans(entry, points) == [_spans(entry, [p])[0] for p in points]


@pytest.mark.parametrize("n", range(2, 9))
def test_bracket_span_rank_near_the_pole(n):
    """At Pansu points on the sampler's inner margin, |z| = 1e-3 z_max, of
    both hemispheres, the span has rank 2n - 1 for every n up to 8."""
    entry = catalog.pansu(1.0, n)
    rng = np.random.default_rng(100 + n)
    z = catalog.SAMPLER_MARGIN * math.sqrt(entry.profile.r_max)
    height = math.sqrt(entry.profile.f(z * z))
    points = []
    for sign in (1.0, -1.0, 1.0, -1.0):
        d = rng.normal(size=2 * n)
        points.append(Point(np.append(z * d / np.linalg.norm(d), sign * height)))
    for rank, proj in _spans(entry, points):
        assert rank == 2 * n - 1
        assert proj <= 1 - 1e-6


@pytest.mark.parametrize("n", range(2, 9))
def test_bracket_span_projection_is_its_umbilic_closed_form(n):
    """On the umbilic catalog the brackets' parts outside D are multiples of
    (k, alpha, 1), so their matrix has one singular value (the second is at
    most 1e-12 of the first) and the characteristic direction's projection
    is |k| / sqrt(k^2 + alpha^2 + 1)."""
    rng = np.random.default_rng(200 + n)
    for entry in catalog.standard_entries(n):
        batch = report_many(entry.surface, entry.sample(rng, 6))
        sv = np.linalg.svd(surface._transverse_brackets(batch.h), compute_uv=False)
        assert np.all(sv[:, 1:] <= 1e-12 * sv[:, :1]), entry.name
        rank, proj = verify._bracket_spans(batch.h)
        k, a = batch.k, batch.alpha
        assert np.all(rank == 2 * n - 1), entry.name
        assert np.abs(proj - np.abs(k) / np.sqrt(k * k + a * a + 1.0)).max() <= 1e-9, entry.name


def test_resampled_reruns_a_failed_batch_one_item_at_a_time():
    """A batch that succeeds runs once; one that raises reruns item by item,
    skips and counts by type only the failures that mean resample, and
    raises any other failure."""
    fails = {1: PivotDegenerate, 3: flows.ProjectionFailure, 4: PivotDegenerate,
             5: OffSurface}
    calls = []

    def double(items):
        calls.append(list(items))
        for i in items:
            if i in fails:
                raise fails[i]("forced")
        return [2 * i for i in items]

    assert flows.resampled(double, (0, 2)) == ([0, 4], {}) and calls == [[0, 2]]
    calls.clear()
    done, skipped = flows.resampled(double, range(5))
    assert done == [0, 4] and calls == [[0, 1, 2, 3, 4], [0], [1], [2], [3], [4]]
    assert skipped == {"PivotDegenerate": 2, "ProjectionFailure": 1}
    calls.clear()
    assert flows.resampled(double, [1]) == ([], {"PivotDegenerate": 1}) and calls == [[1]]
    assert flows.resampled(double, []) == ([], {}) and calls == [[1]]
    with pytest.raises(OffSurface):
        flows.resampled(double, [0, 1, 5])


def test_resampled_raises_the_batch_failure_when_no_item_fails_alone():
    """A batch failure that no item repeats alone raises; an item skipped
    alone counts as failing, so then the batch's failure does not raise."""
    def batches_fail(items):
        if len(items) > 1:
            raise NonSymmetric("batch only")
        return list(items)

    with pytest.raises(NonSymmetric, match="batch only"):
        flows.resampled(batches_fail, [0, 1, 2])

    def one_skips(items):
        if items == [1]:
            raise PivotDegenerate("forced")
        return batches_fail(items)

    assert flows.resampled(one_skips, [0, 1, 2]) == ([0, 2], {"PivotDegenerate": 1})


def test_non_finite_offset_raises_as_a_point_does(monkeypatch):
    """An offset the projection leaves non-finite (``NaN > tol`` is false, so
    Newton lets it through) raises the ``ValueError`` a ``Point`` raises."""
    e = catalog.pansu(1.0, 2)
    p = e.sample(np.random.default_rng(13), 1)[0]
    project = flows._newton_project

    def leaky(s, coords, *args):
        c = project(s, coords, *args)
        c[-1] = math.nan
        return c

    monkeypatch.setattr(flows, "_newton_project", leaky)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        flows.leaf_constancy(e.surface, p)


def _bracket_rows_one_point_at_a_time(s, p, pivots, h_fd):
    """The complement fields at ``p`` and their brackets in the
    frame-plus-vertical representation, with each bracket's horizontal part
    a central difference of one-point ``frame_many`` fields at
    ``p +- h_fd X``: the finite-difference oracle of the exact brackets."""
    n = p.n

    def field(c, i):
        return frame_many(s, (Point(c),), pivots=pivots).xi_prime[0, i]

    vals = [field(p.coords, i) for i in range(2 * n - 2)]
    rows = [np.concatenate([v, [0.0]]) for v in vals]
    for i in range(2 * n - 2):
        for j in range(i + 1, 2 * n - 2):
            Xi, Xj = vals[i], vals[j]
            wi = frame_lift(HorizontalVector(Xi), p)
            wj = frame_lift(HorizontalVector(Xj), p)
            dji = (field(p.coords + h_fd * wi, j) - field(p.coords - h_fd * wi, j)) / (2.0 * h_fd)
            dij = (field(p.coords + h_fd * wj, i) - field(p.coords - h_fd * wj, i)) / (2.0 * h_fd)
            tau = -2.0 * float(Xi[:n] @ Xj[n:] - Xi[n:] @ Xj[:n])
            rows.append(np.concatenate([dji - dij, [tau]]))
    return np.array(rows)


@pytest.mark.parametrize("entry", [catalog.pansu(1.0, 2), catalog.pansu(1.0, 3),
                                   catalog.cylinder(1.0, 2)], ids=["pansu2", "pansu3", "cyl2"])
def test_bracket_spans_match_the_finite_difference_oracle(entry):
    """The exact spans have the rank of the finite-difference span (step
    1e-5, the same 1e-8 cut) and a projection within 1e-8 of its."""
    points = entry.sample(np.random.default_rng(11), 3)
    for (rank, proj), p in zip(_spans(entry, points), points):
        frame = build_frame(entry.surface, p)
        rows = _bracket_rows_one_point_at_a_time(entry.surface, p, frame.pivots, 1e-5)
        _, sv, vt = np.linalg.svd(rows)
        fd_rank = int(np.sum(sv > 1e-8 * sv[0]))
        fd_proj = float(np.linalg.norm(vt[:fd_rank] @ np.append(frame.en.coeffs, 0.0)))
        assert rank == fd_rank
        assert abs(proj - fd_proj) <= 1e-8


def test_offsets_in_lockstep_match_single_offsets():
    """Both offsets of a central difference flow as one stack; each row is
    bitwise the offset flowed alone."""
    e = catalog.pansu(1.0, 3)
    p = e.sample(np.random.default_rng(8), 1)[0]
    pivots = report(e.surface, p).frame.pivots

    def field(cs):  # the second complement field under forced pivots, over a stack
        points = [Point(c) for c in cs]
        xi = frame_many(e.surface, points, pivots=pivots).xi_prime[:, 1]
        return np.array([frame_lift(HorizontalVector(v), q) for v, q in zip(xi, points)])

    both = flows._surface_offsets(e.surface, p.coords, field, (1e-4, -1e-4))
    for c, h in zip(both, (1e-4, -1e-4)):
        one = flows.surface_offset(e.surface, p.coords, lambda x: field(x[None])[0], h)
        assert np.array_equal(c, one)


# ---------------------------------------------------------------------------
# lockstep checks against one field at a time


def _reference_fields(s, pivots):
    """The checks' unit fields at one point, as they were written before
    the fields shared one frame batch: the characteristic direction, the
    rescaled vertical tangent, and the complement fields under ``pivots``."""
    n = s.n

    def en(c):
        _, grad, _ = s.evaluate(c)
        b = horizontal_gradient(n, c, grad)
        b /= np.linalg.norm(b)
        return frame_lift(HorizontalVector(-_J(b)), Point(c))

    def e2nhat(c):
        _, grad, _ = s.evaluate(c)
        b = horizontal_gradient(n, c, grad)
        gnorm = float(np.linalg.norm(b))
        alpha = -grad[2 * n] / gnorm
        w = alpha * frame_lift(HorizontalVector(b / gnorm), Point(c))
        w[2 * n] += 1.0
        return w / math.sqrt(1.0 + alpha * alpha)

    def xi(i):
        return lambda c: frame_lift(frame_many(s, (Point(c),), pivots).bundle(0).xi_prime[i],
                                    Point(c))

    return en, e2nhat, [xi(i) for i in range(2 * n - 2)]


def _reference_changes(s, p, dirfn, pivots, h_fd):
    """Offsets along one field, each flowed alone, and the changes of k, l
    and alpha between them."""
    cp, cm = (flows.surface_offset(s, p.coords, dirfn, h) for h in (h_fd, -h_fd))
    rp, rm = (report_many(s, [Point(c)], pivots)[0] for c in (cp, cm))
    return cp, cm, [a - b for a, b in ((rp.k, rm.k), (rp.l, rm.l), (rp.alpha, rm.alpha))]


def _reference_rates(s, p, dirfn, pivots, h_fd):
    """``_reference_changes`` as central differences."""
    cp, cm, changes = _reference_changes(s, p, dirfn, pivots, h_fd)
    return cp, cm, [float(d) / (2.0 * h_fd) for d in changes]


def _reference_identities(s, p, h_fd=1e-4):
    """``identity_check`` flowing one field at a time."""
    base = report(s, p)
    pivots = base.frame.pivots
    k0, l0, a0 = base.k, base.l, base.alpha
    en, e2nhat, xis = _reference_fields(s, pivots)

    def en_alpha(c):
        return alpha_directional(s, c, en(c))

    phi0 = en_alpha(p.coords)
    root = math.sqrt(1.0 + a0 * a0)
    cp, cm, (dk, dl, da) = _reference_rates(s, p, en, pivots, h_fd)
    r_en_k = abs(dk - (l0 - 2.0 * k0) * a0)
    r_en_a = abs(da - (k0 * k0 - a0 * a0 - k0 * l0))
    en_en_alpha = (en_alpha(cp) - en_alpha(cm)) / (2.0 * h_fd)
    _, _, (dk, dl, da) = _reference_rates(s, p, e2nhat, pivots, h_fd)
    r_xi = 0.0
    for field in xis:
        xp, xm, diffs = _reference_rates(s, p, field, pivots, h_fd)
        diffs.append((en_alpha(xp) - en_alpha(xm)) / (2.0 * h_fd))
        r_xi = max(r_xi, *map(abs, diffs))
    return {
        "en_k": r_en_k,
        "en_alpha": r_en_a,
        "e2n_k": abs(dk - a0 * (k0 * k0 + phi0 + a0 * a0) / root),
        "e2n_alpha": abs(da + k0 * phi0 / root),
        "e2n_l": abs(dl - (en_en_alpha + 6.0 * a0 * phi0 + 4.0 * a0**3 + a0 * l0 * l0) / root),
        "xi_prime": r_xi,
    }


def _reference_leaf(s, p, h_fd=1e-4):
    """``leaf_constancy`` flowing one field at a time."""
    pivots = report(s, p).frame.pivots
    worst = 0.0
    for field in _reference_fields(s, pivots)[2]:
        _, _, changes = _reference_changes(s, p, field, pivots, h_fd)
        worst = max(worst, *(abs(float(d)) for d in changes))
    return worst


LOCKSTEP_ENTRIES = [catalog.pansu(1.0, 2), catalog.pansu(1.0, 3), catalog.cylinder(2.0, 2),
                    catalog.heisenberg_sphere(1.0, 2), catalog.shifted_sphere(0.5, 1.2, 2)]


@pytest.mark.parametrize("entry", LOCKSTEP_ENTRIES,
                         ids=["pansu2", "pansu3", "cyl2", "heis2", "shifted2"])
def test_lockstep_checks_match_one_field_at_a_time(entry):
    """Every field and sign of a point (and every point of a batch) flows in
    one stack; each residual is bitwise what flowing one field at a time
    gives."""
    pts = verify.moderate_points(entry, np.random.default_rng(21), 2)
    many = flows.identity_check_many(entry.surface, pts)
    leaves = flows.leaf_constancy_many(entry.surface, pts)
    for p, res, leaf in zip(pts, many, leaves):
        assert asdict(res) == _reference_identities(entry.surface, p)
        assert asdict(identity_check(entry.surface, p)) == asdict(res)
        assert leaf == _reference_leaf(entry.surface, p)
        assert flows.leaf_constancy(entry.surface, p) == leaf


def test_newton_projection_rows_match_projected_alone():
    e = catalog.pansu(1.0, 2)
    pts = e.sample(np.random.default_rng(5), 4)
    rows = (np.array([p.coords for p in pts])
            + np.random.default_rng(6).normal(size=(4, 5)) * 1e-6)
    stack = flows._newton_project(e.surface, rows)
    for row, c in zip(rows, stack):
        assert np.array_equal(flows._newton_project(e.surface, row[None])[0], c)
    # of the rows that do not converge, the first raises
    with pytest.raises(flows.ProjectionFailure) as many:
        flows._newton_project(e.surface, rows, maxit=1)
    with pytest.raises(flows.ProjectionFailure) as one:
        flows._newton_project(e.surface, rows[:1], maxit=1)
    assert str(many.value) == str(one.value)
    # a row whose evaluation fails raises only after the rows before it
    outside = np.array([[1.5, 0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(flows.ProjectionFailure):
        flows._newton_project(e.surface, np.vstack([rows[:1], outside]), maxit=1)
    with pytest.raises(DomainError):
        flows._newton_project(e.surface, np.vstack([outside, rows[:1]]), maxit=1)


def test_newton_projection_raises_the_batch_failure_when_every_row_projects_alone():
    e = catalog.pansu(1.0, 2)
    rows = np.array([p.coords for p in e.sample(np.random.default_rng(5), 3)]) + 1e-6

    class BatchesFail:
        def evaluate_many(self, coords):
            if len(coords) > 1:
                raise NonSymmetric("batch only")
            return e.surface.evaluate_many(coords)

    for row in rows:
        flows._newton_project(BatchesFail(), row[None])
    with pytest.raises(NonSymmetric, match="batch only"):
        flows._newton_project(BatchesFail(), rows)


def _nan_in_offset_row(monkeypatch, row):
    """Make the offset reports carry a NaN ``k`` at one row: the checks'
    second ``report_many`` call is the one over the offsets."""
    calls = []
    original = flows.report_many

    def patched(*args, **kwargs):
        rep = original(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 2:
            rep.k[row] = math.nan
        return rep

    monkeypatch.setattr(flows, "report_many", patched)


def test_identity_residuals_max_keeps_nan():
    res = flows.IdentityResiduals(0.0, 1e-9, math.nan, 0.0, 0.0, 0.0)
    assert math.isnan(res.max())


def test_nan_in_a_complement_field_reaches_the_residual(monkeypatch):
    """A NaN change along the second complement field is not hidden by the
    finite ones before it."""
    e = catalog.pansu(1.0, 2)
    p = verify.moderate_points(e, np.random.default_rng(3), 1)[0]
    _nan_in_offset_row(monkeypatch, 6)  # rows: e_n +-, vertical +-, xi_1 +-, xi_2 +-
    res = identity_check(e.surface, p)
    assert math.isnan(res.xi_prime) and math.isnan(res.max())
    assert res.en_k <= 1e-5
    monkeypatch.undo()
    _nan_in_offset_row(monkeypatch, 2)  # rows: xi_1 +-, xi_2 +-
    assert math.isnan(flows.leaf_constancy(e.surface, p))
