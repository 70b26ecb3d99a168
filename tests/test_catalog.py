"""Catalog surfaces: published values, samplers, chart agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import catalog, duals
from heisgeo.core import Point
from heisgeo.surface import DomainError, build_frame, report, report_many

RNG = np.random.default_rng(77)


def radius(p):
    return math.sqrt(float(np.dot(p.x, p.x) + np.dot(p.y, p.y)))


def test_expected_values_on_samples():
    for n in (2, 3):
        for entry in catalog.standard_entries(n):
            for p in entry.sample(RNG, 100):
                rep = report(entry.surface, p)
                assert rep.umbilic, entry.name
                for key, val in (("k", rep.k), ("l", rep.l), ("H", rep.H),
                                 ("alpha", rep.alpha)):
                    assert val == pytest.approx(
                        entry.expected[key](p), abs=1e-8
                    ), (entry.name, key)


def test_samples_are_regular_and_on_surface():
    for entry in catalog.standard_entries(2) + catalog.standard_entries(4):
        for p in entry.sample(RNG, 50):
            u = entry.surface.value(p.coords)
            _, grad, _ = entry.surface.evaluate(p.coords)
            scale = (1 + np.max(np.abs(grad))) * (1 + np.max(np.abs(p.coords)))
            assert abs(u) <= 1e-9 * scale
            build_frame(entry.surface, p)  # raises if singular


def test_sampler_determinism():
    for entry in catalog.standard_entries(3):
        a = entry.sample(np.random.default_rng(123), 5)
        b = entry.sample(np.random.default_rng(123), 5)
        assert len(a) == len(b) == 5
        for p, q in zip(a, b):
            assert np.array_equal(p.coords, q.coords), entry.name


def test_sampled_radii_stay_inside_the_margins_and_both_signs_of_t_occur():
    for n in (2, 3):
        for entry in catalog.standard_entries(n):
            pts = entry.sample(np.random.default_rng(31), 200)
            assert {p.t > 0 for p in pts} == {True, False}, entry.name
            assert all(p.coords.shape == (2 * n + 1,) for p in pts)
            radii = np.array([radius(p) for p in pts])
            if entry.profile is not None:
                z_max = math.sqrt(entry.profile.r_max)
                m = catalog.SAMPLER_MARGIN
                assert radii.min() >= m * z_max * (1 - 1e-12), entry.name
                assert radii.max() <= (1 - m) * z_max * (1 + 1e-12), entry.name
            elif entry.name == "cylinder":
                assert np.abs(radii - entry.params["c"]).max() <= 1e-12


def test_sample_of_none_is_empty_and_draws_nothing():
    for entry in catalog.standard_entries(2):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert entry.sample(rng, 0) == []
        assert rng.bit_generator.state == state


def _one_point_draw(entry, rng):
    """One point drawn as the samplers drew points one at a time: a radial
    family takes a log-uniform radius, then a direction, then the sign of t;
    the cylinder a direction, then t; the hyperplane a normal vector
    projected onto the plane, then t."""
    n = entry.params["n"]
    if entry.profile is not None:
        z_max = math.sqrt(entry.profile.r_max)
        lo, hi = catalog.SAMPLER_MARGIN * z_max, (1 - catalog.SAMPLER_MARGIN) * z_max
        z = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        v = rng.normal(size=2 * n)
        t = math.sqrt(max(entry.profile.f(z * z), 0.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        return np.concatenate([z * (v / np.linalg.norm(v)), [t]])
    if entry.name == "cylinder":
        c = entry.params["c"]
        v = rng.normal(size=2 * n)
        return np.concatenate([c * (v / np.linalg.norm(v)), [rng.uniform(-2 * c, 2 * c)]])
    A = np.asarray(entry.params["A"])
    unit = A / np.linalg.norm(A)
    w = rng.normal(size=2 * n)
    w -= (w @ unit) * unit
    return np.concatenate([w, [rng.uniform(-2.0, 2.0)]])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_draw_of_one_is_the_one_point_draw(n):
    """A stacked draw of one consumes the generator in the one-point order,
    so repeated draws of one (``verify.moderate_points``) give the points,
    bit for bit, that a one-point sampler gives."""
    entries = catalog.standard_entries(n) + [
        catalog.pansu(2.5, n), catalog.hyperplane(np.arange(1.0, 2 * n + 1), n)]
    for entry in entries:
        stacked, single = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(20):
            (p,) = entry.sample(stacked, 1)
            assert np.array_equal(p.coords, _one_point_draw(entry, single)), entry.name


def _log_uniform(lo=0.05, hi=20.0):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _catalog_entries(draw):
    """A catalog surface of any family, n in 2..8, with its parameters
    log-uniform in [0.05, 20] (the shifted sphere's rho0 above sqrt(1.25 lam),
    so that its surface is not empty)."""
    n = draw(st.integers(2, 8))
    family = draw(st.sampled_from(["pansu", "heisenberg-sphere", "shifted-sphere",
                                   "cylinder", "hyperplane"]))
    a = draw(_log_uniform())
    if family == "pansu":
        return catalog.pansu(a, n)
    if family == "heisenberg-sphere":
        return catalog.heisenberg_sphere(a, n)
    if family == "shifted-sphere":
        return catalog.shifted_sphere(a, draw(_log_uniform(math.sqrt(1.25 * a))), n)
    if family == "cylinder":
        return catalog.cylinder(a, n)
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
    coeffs[0] = 1.0  # a nonzero normal
    return catalog.hyperplane(a * np.array(coeffs), n)


@given(entry=_catalog_entries(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_catalog_closed_forms_hold_over_the_parameter_ranges(entry, seed):
    """Every sampled point is umbilic, and k, l, H and alpha match the closed
    forms within 1e-9 (1 + |value|); 2.2e-11 is the worst measured, on
    Pansu spheres at n = 7 and 8."""
    pts = entry.sample(np.random.default_rng(seed), 50)
    batch = report_many(entry.surface, pts)
    assert batch.umbilic.all()
    for key in ("k", "l", "H", "alpha"):
        want = np.array([entry.expected[key](p) for p in pts])
        assert np.all(np.abs(getattr(batch, key) - want) <= 1e-9 * (1 + np.abs(want))), key


# ---------------------------------------------------------------------------
# constant-curvature sphere specifics


def test_pansu_pole_height_and_equator():
    e = catalog.pansu(1.0, 2)
    # height closure: profile at r -> 0 tends to (pi/4)^2, vanishes at r = 1
    assert e.profile.f(1.0 - 1e-14) == pytest.approx(0.0, abs=1e-13)
    assert e.profile.f(1e-12) == pytest.approx((math.pi / 4) ** 2, abs=1e-7)
    # chart height at |z| -> 1 vanishes (sphere meets t = 0 at the equator);
    # the approach is a square root, so exact zero only at the rim itself
    up = e.charts["upper"]
    assert up.value(np.array([1.0, 0, 0, 0, 0.0])) == 0.0
    heights = [up.value(np.array([1.0 - d, 0, 0, 0, 0.0])) for d in (1e-4, 1e-6, 1e-8)]
    assert heights[0] > heights[1] > heights[2] > 0
    assert heights[2] <= 2e-4


def test_pansu_chart_agreement():
    # hemisphere graphs and the global squared chart describe the same
    # geometry wherever both are usable
    e = catalog.pansu(1.0, 2)
    for p in e.sample(RNG, 60):
        if abs(p.t) < 1e-3 or radius(p) > 0.95:  # graphs degenerate there
            continue
        chart = e.charts["upper" if p.t > 0 else "lower"]
        r1 = report(e.surface, p)
        r2 = report(chart, p)  # both charts keep the inward orientation
        assert r2.k == pytest.approx(r1.k, abs=1e-7)
        assert r2.l == pytest.approx(r1.l, abs=1e-7)
        assert r2.alpha == pytest.approx(r1.alpha, abs=1e-7)


def test_pansu_domain_error():
    e = catalog.pansu(1.0, 2)
    with pytest.raises(DomainError):
        e.surface.value(np.array([1.5, 0, 0, 0, 0.0]))
    with pytest.raises(DomainError):
        e.charts["upper"].value(np.array([1.5, 0, 0, 0, 0.0]))
    with pytest.raises(ValueError):
        catalog.pansu(-1.0, 2)


def test_pansu_expected_H():
    for n, lam in ((2, 0.5), (2, 2.0), (3, 1.0)):
        e = catalog.pansu(lam, n)
        for p in e.sample(RNG, 20):
            assert report(e.surface, p).H == pytest.approx(2 * n * lam, abs=1e-8)


# ---------------------------------------------------------------------------
# quartic sphere and shifted family


def test_heisenberg_l_equals_3k():
    e = catalog.heisenberg_sphere(1.0, 2)
    for p in e.sample(RNG, 100):
        rep = report(e.surface, p)
        assert rep.l / rep.k == pytest.approx(3.0, rel=1e-8)


def test_heisenberg_equator_values():
    e = catalog.heisenberg_sphere(1.0, 2)
    rep = report(e.surface, Point(np.array([1.0, 0, 0, 0, 0.0])))
    assert rep.k == pytest.approx(1.0, abs=1e-12)
    assert rep.l == pytest.approx(3.0, abs=1e-12)
    assert rep.alpha == pytest.approx(0.0, abs=1e-12)


def test_heisenberg_pole_is_singular_and_tilt_blows_up():
    from heisgeo.surface import SingularPoint, build_frame

    e = catalog.heisenberg_sphere(1.0, 2)
    with pytest.raises(SingularPoint):
        build_frame(e.surface, Point(np.array([0.0, 0, 0, 0, 0.5])))
    # the tilt grows without bound as the sample radius shrinks
    tilts = []
    for z in (1e-1, 1e-2, 1e-3):
        t = 0.5 * math.sqrt(1 - z**4)
        p = Point(np.array([z, 0, 0, 0, t]))
        tilts.append(abs(report(e.surface, p).alpha))
    assert tilts[0] < tilts[1] < tilts[2]
    assert tilts[2] > 100.0


def test_pansu_chart_height_at_axis():
    e = catalog.pansu(1.0, 2)
    # graph height at the axis is a quarter turn of the unit profile
    assert e.charts["upper"].value(np.array([0, 0, 0, 0, 0.0])) == pytest.approx(
        math.pi / 4, rel=1e-15
    )


def test_shifted_sphere_reduces_to_quartic_at_zero_shift():
    a = catalog.shifted_sphere(0.0, 1.0, 2)
    b = catalog.heisenberg_sphere(1.0, 2)
    for p in a.sample(RNG, 30):
        ra, rb = report(a.surface, p), report(b.surface, p)
        assert ra.k == pytest.approx(rb.k, abs=1e-12)
        assert ra.l == pytest.approx(rb.l, abs=1e-12)


def test_shifted_sphere_derived_values():
    # frozen by hand: k = 0.99/1.008, l = 1.97/1.008 at lam=.5, rho0=1.2, |z|=.7
    e = catalog.shifted_sphere(0.5, 1.2, 2)
    t = 0.5 * math.sqrt(1.2**4 - (0.49 + 0.5) ** 2)
    rep = report(e.surface, Point(np.array([0.7, 0, 0, 0, t])))
    assert rep.k == pytest.approx(0.98214285714285714, abs=1e-12)
    assert rep.l == pytest.approx(1.9543650793650794, abs=1e-12)
    assert rep.l < 3 * rep.k


def test_shifted_sphere_gap_formula():
    e = catalog.shifted_sphere(0.5, 1.2, 2)
    for p in e.sample(RNG, 50):
        rep = report(e.surface, p)
        gap = 3 * rep.k - rep.l
        assert gap == pytest.approx(2 * 0.5 / (1.2**2 * radius(p)), abs=1e-8)
        assert gap > 0


def test_radial_closed_form_matches_dual2():
    # the closed forms (squared-height profiles, the cylinder's quadratic and
    # the hyperplane's linear function) agree with automatic differentiation
    # of the same defining function
    for n in (2, 3, 4):
        for e in (catalog.heisenberg_sphere(1.0, n), catalog.shifted_sphere(0.5, 1.2, n),
                  catalog.cylinder(1.5, n),
                  catalog.hyperplane(np.arange(1.0, 2 * n + 1) - n, n)):
            for p in e.sample(RNG, 20):
                exact = e.surface.grad_hess(p.coords)
                dual = duals.gradient_hessian(e.surface.func, p.coords)
                for a, b in zip(exact, dual):
                    a, b = np.asarray(a), np.asarray(b)
                    assert np.max(np.abs(a - b)) <= 1e-13 * (1 + np.max(np.abs(b))), e.name


# the largest |H - 2n| of the dual path at the 20 points below: the scalar
# dual read 4.1e-10, 5.6e-5 and 1.1e-4 (n = 2, 3, 4), with about 2x headroom;
# the closed form reads at most 9e-11
_POLE_DUAL_BOUND = {2: 1e-9, 3: 1.2e-4, 4: 2.4e-4}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pansu_pole_accuracy_of_the_dual_path(n):
    """Near the poles (lam = 1, |z|^2 = 1e-6) duals through Pansu's ``func``
    lose accuracy: the closed branch of ``catalog._psi`` has derivative terms
    in 1/sqrt(1 - s) that cancel only on paper (``_psi_d1``/``_psi_d2``
    write out the cancelled forms).  The loss may not grow; the closed form
    stays within 1e-9."""
    e = catalog.pansu(1.0, n)
    dual = replace(e.surface, grad_hess=None)
    rng = np.random.default_rng(11)
    r = 1e-6
    pts = []
    for k in range(20):
        d = rng.normal(size=2 * n)
        t = math.sqrt(e.profile.f(r)) * (1.0 if k % 2 == 0 else -1.0)
        pts.append(np.concatenate([math.sqrt(r) * d / np.linalg.norm(d), [t]]))
    pts, H = np.array(pts), 2.0 * n
    assert np.abs(report_many(dual, pts).H - H).max() <= _POLE_DUAL_BOUND[n]
    assert np.abs(report_many(e.surface, pts).H - H).max() <= 1e-9


def _series_before(coeffs, s):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _psi_before(s):
    """``catalog._psi`` as written before the profile shared ``_horner``."""
    if s < catalog._SERIES_CUT:
        return _series_before(catalog._PSI_SERIES, s)
    a = duals.sqrt(s * (1.0 - s)) + duals.arcsin(duals.sqrt(s))
    return a * a * 0.25


def _psi_d1_before(sv):
    if sv < catalog._SERIES_CUT:
        return _series_before([i * c for i, c in enumerate(catalog._PSI_SERIES)][1:], sv)
    sv = min(sv, 1.0 - 1e-13)
    a = math.sqrt(sv * (1.0 - sv)) + math.asin(math.sqrt(sv))
    return 0.5 * a * math.sqrt((1.0 - sv) / sv)


def _psi_d2_before(sv):
    if sv < catalog._SERIES_CUT:
        return _series_before([i * (i - 1) * c for i, c in enumerate(catalog._PSI_SERIES)][2:],
                              sv)
    sv = min(sv, 1.0 - 1e-13)
    a = math.sqrt(sv * (1.0 - sv)) + math.asin(math.sqrt(sv))
    return (1.0 - sv) / (2.0 * sv) - a / (4.0 * math.sqrt(1.0 - sv) * sv**1.5)


def test_psi_profile_is_bitwise_its_written_out_formulas():
    """The squared Pansu profile and its derivatives give the bits of their
    written-out Horner loops and closed forms: across the series cut and up
    to the clamp below the axis s = 1, and on a dual stack for ``_psi``."""
    cut = catalog._SERIES_CUT
    grid = np.concatenate([np.linspace(-cut, 3 * cut, 41),
                           [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)],
                           np.linspace(0.01, 1.0 - 1e-13, 60),
                           [1.0 - 1e-12, np.nextafter(1.0 - 1e-13, 0.0)]]).tolist()
    for new, old in ((catalog._psi, _psi_before), (catalog._psi_d1, _psi_d1_before),
                     (catalog._psi_d2, _psi_d2_before)):
        assert np.array([new(s) for s in grid]).tobytes() == \
            np.array([old(s) for s in grid]).tobytes(), new.__name__
    for part in (np.linspace(-cut, 0.9 * cut, 7), np.linspace(1.1 * cut, 1.0 - 1e-6, 7)):
        seeded = duals.Dual2(part, part[:, None] * [1.0, -2.0], np.ones((7, 2, 2)))
        new, old = catalog._psi(seeded), _psi_before(seeded)
        for attr in ("f", "g", "h"):
            assert getattr(new, attr).tobytes() == getattr(old, attr).tobytes(), attr


def test_shifted_sphere_empty_raises():
    with pytest.raises(DomainError):
        catalog.shifted_sphere(2.0, 1.0, 2)


# ---------------------------------------------------------------------------
# flat examples


def test_cylinder_T_is_tangent():
    e = catalog.cylinder(1.5, 2)
    for p in e.sample(RNG, 30):
        assert build_frame(e.surface, p).alpha == pytest.approx(0.0, abs=1e-14)


def test_hyperplane_validation():
    with pytest.raises(ValueError):
        catalog.hyperplane([0, 0, 0, 0], 2)
    with pytest.raises(ValueError):
        catalog.cylinder(-1.0, 2)


def test_factory_params_and_describe():
    e = catalog.pansu(2.0, 2)
    assert e.params == {"lam": 2.0, "n": 2}
    d = e.describe()
    assert d["name"] == "pansu" and "k" in d["expected"]
    d = catalog.hyperplane(np.eye(4)[0], 2).describe()
    assert d["params"] == {"A": [1.0, 0.0, 0.0, 0.0], "n": 2}


@pytest.mark.parametrize("n", [2, 3])
def test_every_expected_scalar_has_a_printed_formula(n):
    """``catalog show`` prints ``formulas``: each family prints a formula for
    every scalar it checks."""
    for entry in catalog.standard_entries(n):
        assert sorted(entry.formulas) == sorted(entry.expected), entry.name
