"""Adapted frame, second fundamental form, curvature scalars, umbilicity."""

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from heisgeo import catalog, surface
from heisgeo.core import Point, apply_J, frame_lift
from heisgeo.surface import (
    DegenerateProfile,
    DomainError,
    NotSingularCandidate,
    OffSurface,
    PivotDegenerate,
    SingularPoint,
    SurfaceDef,
    build_frame,
    frame_many,
    graph_derivatives,
    jacobi_eigenvalues,
    report,
    report_many,
    rotsym_many,
    singular_jacobian,
)

RNG = np.random.default_rng(20240811)


def entries_n2():
    return catalog.standard_entries(2)


# ---------------------------------------------------------------------------
# frame construction


def test_frame_orthonormal_and_J_adapted():
    for entry in entries_n2() + catalog.standard_entries(3):
        n = entry.params["n"]
        for p in entry.sample(RNG, 20):
            f = build_frame(entry.surface, p)
            vecs = [f.en.coeffs, f.e2n.coeffs] + [v.coeffs for v in f.xi_prime]
            G = np.array(vecs) @ np.array(vecs).T
            assert np.max(np.abs(G - np.eye(2 * n))) <= 1e-10
            # the rotation maps the complement into itself
            span = np.array([v.coeffs for v in f.xi_prime])
            for v in f.xi_prime:
                jv = apply_J(v).coeffs
                res = jv - span.T @ (span @ jv)
                assert np.linalg.norm(res) <= 1e-10
            # tilt makes alpha*e2n + T tangent
            w = f.alpha * frame_lift(f.e2n, p)
            w[-1] += 1.0
            _, grad, _ = entry.surface.evaluate(p.coords)
            assert abs(grad @ w) <= 1e-10 * (1 + np.max(np.abs(grad)))


def test_frame_examples():
    # quartic sphere: alpha = 2t/(rho^2 |z|)
    e = catalog.heisenberg_sphere(1.0, 2)
    t = 0.5 * math.sqrt(1 - 0.8**4)
    f = build_frame(e.surface, Point(np.array([0.8, 0, 0, 0, t])))
    assert f.alpha == pytest.approx(2 * t / 0.8, rel=1e-12)
    # vertical hyperplane: alpha = 0 everywhere
    e = catalog.hyperplane([1, 0, 0, 0], 2)
    for p in e.sample(RNG, 10):
        assert build_frame(e.surface, p).alpha == 0.0
    # equator of the unit-curvature sphere: alpha = 0
    e = catalog.pansu(1.0, 2)
    f = build_frame(e.surface, Point(np.array([1.0, 0, 0, 0, 0.0])))
    assert abs(f.alpha) <= 1e-12


def test_off_surface_and_singular_errors():
    e = catalog.heisenberg_sphere(1.0, 2)
    with pytest.raises(OffSurface):
        build_frame(e.surface, Point(np.array([0.5, 0, 0, 0, 0.01])))
    p = catalog.pansu(1.0, 2)
    with pytest.raises(SingularPoint):
        build_frame(p.surface, Point(np.array([0, 0, 0, 0, math.pi / 4])))


# ---------------------------------------------------------------------------
# shape operator on the closed-form surfaces


def test_pansu_table():
    for n in (2, 3):
        e = catalog.pansu(1.0, n)
        for p in e.sample(RNG, 25):
            rep = report(e.surface, p)
            assert rep.umbilic
            assert np.max(np.abs(rep.eigenvalues - 1.0)) <= 1e-8
            assert rep.l == pytest.approx(2.0, abs=1e-8)
            assert rep.H == pytest.approx(2 * n, abs=1e-8)
            assert rep.xn_residual <= 1e-8


def test_heisenberg_sphere_table():
    e = catalog.heisenberg_sphere(1.0, 2)
    t = 0.5 * math.sqrt(1 - 0.8**4)
    rep = report(e.surface, Point(np.array([0.8, 0, 0, 0, t])))
    assert rep.k == pytest.approx(0.8, abs=1e-10)
    assert rep.l == pytest.approx(2.4, abs=1e-10)
    assert rep.umbilic
    for p in e.sample(RNG, 100):
        rep = report(e.surface, p)
        assert rep.l == pytest.approx(3 * rep.k, abs=1e-8)


def test_cylinder_and_hyperplane():
    e = catalog.cylinder(2.0, 2)
    for p in e.sample(RNG, 20):
        rep = report(e.surface, p)
        assert abs(rep.k - 0.5) <= 1e-10
        assert abs(rep.l - 0.5) <= 1e-10
        assert abs(rep.alpha) <= 1e-10
        assert rep.umbilic
    e = catalog.cylinder(1.0, 2)
    for p in e.sample(RNG, 20):
        rep = report(e.surface, p)
        assert np.max(np.abs(rep.eigenvalues - 1.0)) <= 1e-10
    e = catalog.hyperplane([0.3, -1.2, 0.4, 0.9], 2)
    for p in e.sample(RNG, 20):
        rep = report(e.surface, p)
        assert np.max(np.abs(rep.h)) <= 1e-12
        assert rep.umbilic and rep.H == pytest.approx(0.0, abs=1e-12)


def test_trace_identity_and_umbilic_mean():
    for entry in entries_n2():
        n = 2
        for p in entry.sample(RNG, 30):
            rep = report(entry.surface, p)
            assert rep.H == pytest.approx(float(np.trace(rep.h)), rel=1e-13, abs=1e-13)
            assert rep.H == pytest.approx(rep.l + (2 * n - 2) * rep.k, abs=1e-8)


def test_partial_symmetry_pattern():
    # h is symmetric except across paired slots, where the gap is twice the tilt
    for entry in entries_n2() + catalog.standard_entries(3):
        n = entry.params["n"]
        for p in entry.sample(RNG, 30):
            rep = report(entry.surface, p)
            h, a = rep.h, rep.alpha
            for i in range(2 * n - 1):
                for j in range(2 * n - 1):
                    if abs(i - j) != n:
                        assert abs(h[i, j] - h[j, i]) <= 1e-8
            for b in range(n - 1):
                assert abs(h[b, n + b] - h[n + b, b] - 2 * a) <= 1e-8


def test_orientation_flip_negates_scalars():
    """The same locus cut out by -u has the opposite horizontal normal."""
    for entry in entries_n2():
        gh = entry.surface.grad_hess

        def neg_gh(c, gh=gh):
            u, g, h = gh(c)
            return -u, -np.asarray(g), -np.asarray(h)

        flipped = replace(entry.surface, func=lambda c, f=entry.surface.func: -f(c),
                          grad_hess=gh and neg_gh)
        for p in entry.sample(RNG, 10):
            rep = report(entry.surface, p)
            ref = report(flipped, p)
            assert ref.k == pytest.approx(-rep.k, abs=1e-10)
            assert ref.l == pytest.approx(-rep.l, abs=1e-10)
            assert ref.alpha == pytest.approx(-rep.alpha, abs=1e-12)
            assert ref.spread == pytest.approx(rep.spread, abs=1e-10)
            assert ref.umbilic == rep.umbilic


def test_oracle_equivalence_fd_vs_exact():
    # finite differences reproduce every scalar on well-conditioned points
    for entry in entries_n2():
        fd = entry.surface.with_derivatives("fd")
        for p in _conditioned_points(entry, 8):
            r1 = report(entry.surface, p)
            r2 = report(fd, p)
            for a, b in ((r1.k, r2.k), (r1.l, r2.l), (r1.alpha, r2.alpha), (r1.H, r2.H)):
                assert abs(a - b) <= 1e-5


def _conditioned_points(entry, count):
    """Sampler points kept away from singular radii.

    Second differences lose accuracy where the defining function has large
    higher derivatives (near singular radii the sphere profile is only
    finitely differentiable), so the cross-check lives on the smooth band.
    """
    pts = []
    while len(pts) < count:
        (p,) = entry.sample(RNG, 1)
        z = math.sqrt(float(np.dot(p.x, p.x) + np.dot(p.y, p.y)))
        if entry.name == "pansu":
            lam = entry.params["lam"]
            if not 0.15 / lam <= z <= 0.95 / lam:
                continue
        elif entry.name in ("heisenberg-sphere", "shifted-sphere"):
            if z < 0.1:
                continue
        pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# the array kernel: batches and batches of one


def _same_report(one, batch, i):
    """Every field of a batch-of-one report equals batch entry i, bit for bit."""
    f = one.frame
    return (np.array_equal(one.h, batch.h[i]) and one.k == batch.k[i]
            and one.l == batch.l[i] and one.H == batch.H[i]
            and one.alpha == batch.alpha[i]
            and np.array_equal(one.eigenvalues, batch.eigenvalues[i])
            and one.xn_residual == batch.xn_residual[i]
            and one.spread == batch.spread[i] and one.umbilic == batch.umbilic[i]
            and f.pivots == tuple(batch.frame.pivots[i])
            and np.array_equal(f.en.coeffs, batch[i].frame.en.coeffs)
            and all(np.array_equal(v.coeffs, w.coeffs)
                    for v, w in zip(f.xi_prime, batch[i].frame.xi_prime, strict=True))
            and np.array_equal(f.e2n.coeffs, batch.frame.e2n[i]))


@pytest.mark.parametrize("n", range(2, 9))
def test_report_many_is_batch_invariant(n):
    rng = np.random.default_rng(100 + n)
    for entry in catalog.standard_entries(n):
        pts = entry.sample(rng, 6)
        batch = report_many(entry.surface, pts)
        assert len(batch) == len(pts)
        for i, p in enumerate(pts):
            assert _same_report(report(entry.surface, p), batch, i), (entry.name, i)
            frame = build_frame(entry.surface, p)
            assert _same_report(surface.shape_matrix(entry.surface, frame), batch, i)
        # forced pivots: the first point's sequence for every point
        pivots = batch.frame.pivots[0]
        kept = []
        for p in pts:
            try:
                kept.append((p, report_many(entry.surface, [p], pivots=tuple(pivots))[0]))
            except PivotDegenerate:
                continue
        assert kept
        forced = report_many(entry.surface, [p for p, _ in kept], pivots=pivots)
        for i, (_, one) in enumerate(kept):
            assert _same_report(one, forced, i), (entry.name, i)
        frames = frame_many(entry.surface, [p for p, _ in kept], pivots=pivots)
        assert np.array_equal(frames.xi_prime, forced.frame.xi_prime)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    raise AssertionError("no exception raised")


def test_report_many_raises_the_first_failing_point():
    e = catalog.pansu(1.0, 2)
    good = e.sample(np.random.default_rng(3), 4)
    off = Point(np.array([0.5, 0.0, 0.0, 0.0, 0.01]))        # OffSurface
    pole = Point(np.array([0.0, 0.0, 0.0, 0.0, math.pi / 4]))  # SingularPoint
    outside = Point(np.array([1.5, 0.0, 0.0, 0.0, 0.0]))       # DomainError in evaluate
    for bad, kind in ((off, OffSurface), (pole, SingularPoint), (outside, DomainError)):
        want = _raised(lambda: report(e.surface, bad))
        assert want[0] is kind
        assert _raised(lambda: report_many(e.surface, good[:2] + [bad] + good[2:])) == want
        assert _raised(lambda: frame_many(e.surface, good[:2] + [bad] + good[2:])) == want
    # of several failing points the first in input order wins, whatever its stage
    first = _raised(lambda: report(e.surface, pole))
    assert _raised(lambda: report_many(e.surface, [good[0], pole, outside, off])) == first
    first = _raised(lambda: report(e.surface, off))
    assert _raised(lambda: report_many(e.surface, [good[0], off, pole, good[1]])) == first
    # a collapsing forced pivot
    h = catalog.hyperplane([1.0, 0.0, 0.0, 0.0], 2)
    p = h.sample(np.random.default_rng(4), 1)[0]
    want = _raised(lambda: report_many(h.surface, [p], pivots=(0,))[0])
    assert want[0] is PivotDegenerate
    assert _raised(lambda: report_many(h.surface, [p, p], pivots=(0,))) == want
    # ... which comes first even though the off-surface point after it fails
    # an earlier check
    off = Point(p.coords + np.array([0.1, 0.0, 0.0, 0.0, 0.0]))
    assert _raised(lambda: report(h.surface, off))[0] is OffSurface
    assert _raised(lambda: report_many(h.surface, [p, off], pivots=(0,))) == want


@pytest.mark.parametrize("which", [0, 1, 2], ids=["u", "gradient", "hessian"])
def test_non_finite_derivatives_raise_alone_and_in_a_batch(which):
    """A row whose value, gradient or Hessian is NaN raises ``DomainError``
    alone and in a batch of two, in either order: the kernel never returns
    its NaN row."""
    e = catalog.pansu(1.0, 2)
    good, bad = e.sample(np.random.default_rng(8), 2)
    grad_hess = e.surface.grad_hess

    def nan_at_bad(coords):
        out = [np.array(a, dtype=float) for a in grad_hess(coords)]
        out[which][np.all(coords == bad.coords, axis=-1)] = math.nan
        return tuple(out)

    s = replace(e.surface, grad_hess=nan_at_bad)
    want = _raised(lambda: report(s, bad))
    assert want[0] is DomainError
    for pts in ([bad, good], [good, bad]):
        assert _raised(lambda: report_many(s, pts)) == want
        assert _raised(lambda: frame_many(s, pts)) == want
    assert report_many(s, [good]).umbilic.all()


def test_batch_with_per_point_pivots_raises_the_collapsing_point_alone():
    """Of one forced pivot row per point, only the second point's collapses;
    every batch raises that point's error under its own pivots."""
    h = catalog.hyperplane([1.0, 0.0, 0.0, 0.0], 2)  # e_1 is the normal: pivot 0 collapses
    pts = h.sample(np.random.default_rng(4), 3)
    pivots = [(1,), (0,), (1,)]
    want = _raised(lambda: report_many(h.surface, [pts[1]], pivots=pivots[1])[0])
    assert want[0] is PivotDegenerate
    assert report_many(h.surface, pts[::2], pivots=pivots[::2]).umbilic.all()
    assert _raised(lambda: report_many(h.surface, pts, pivots=pivots)) == want
    assert _raised(lambda: frame_many(h.surface, pts, pivots=pivots)) == want
    coords = np.array([p.coords for p in pts])
    assert _raised(lambda: frame_many(h.surface, coords, pivots)) == want


def test_successful_batch_evaluates_once():
    """A batch that raises nothing takes its derivatives from one
    ``grad_hess`` call: the one-point reruns are for failures only."""
    e = catalog.pansu(1.0, 3)
    calls = []

    def counted(coords):
        calls.append(len(coords))
        return e.surface.grad_hess(coords)

    s = replace(e.surface, grad_hess=counted)
    pts = e.sample(np.random.default_rng(8), 12)
    report_many(s, pts)
    frame_many(s, pts)
    assert calls == [12, 12]


def test_report_many_of_no_points_is_empty():
    e = catalog.pansu(1.0, 3)
    batch = report_many(e.surface, [])
    assert len(batch) == 0
    assert batch.h.shape == (0, 5, 5) and batch.eigenvalues.shape == (0, 4)
    assert batch.k.shape == batch.alpha.shape == batch.umbilic.shape == (0,)
    assert frame_many(e.surface, []).xi_prime.shape == (0, 4, 6)


def _same_stacks(a, b):
    """Every stacked field of two report or frame batches is equal, bit for
    bit."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(x):
            same = _same_stacks(x, y)
        else:
            same = y is None if x is None else np.array_equal(x, y)
        if not same:
            return False
    return True


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_takes_a_coordinate_stack(n):
    """An (N, 2n+1) array and the same points as ``Point`` objects give the
    same batch, field for field; a report's point is built from its row."""
    rng = np.random.default_rng(30 + n)
    for entry in catalog.standard_entries(n):
        pts = entry.sample(rng, 5)
        coords = np.array([p.coords for p in pts])
        batch = report_many(entry.surface, coords)
        assert _same_stacks(batch, report_many(entry.surface, pts)), entry.name
        assert _same_stacks(frame_many(entry.surface, coords), frame_many(entry.surface, pts))
        if entry.profile is not None:
            assert _same_stacks(rotsym_many(entry.profile, coords),
                                rotsym_many(entry.profile, pts)), entry.name
        for i, p in enumerate(pts):
            assert np.array_equal(batch[i].frame.p.coords, p.coords)
        coords[:] = 0.0  # the batch holds its own copy
        assert _same_stacks(batch, report_many(entry.surface, pts))


def test_kernel_rejects_non_finite_and_misshapen_rows():
    e = catalog.pansu(1.0, 2)
    pts = e.sample(np.random.default_rng(6), 3)
    coords = np.array([p.coords for p in pts])
    nan = coords.copy()
    nan[1, 2] = math.nan
    wide = np.hstack([coords, np.zeros((3, 2))])
    finite = (ValueError, "coordinates must be finite")
    width = (ValueError, "surface and point dimensions disagree")
    for fn in (report_many, frame_many):
        assert _raised(lambda: fn(e.surface, nan)) == finite
        assert _raised(lambda: fn(e.surface, wide)) == width
        assert _raised(lambda: fn(e.surface, [pts[0], Point(np.zeros(7))])) == width
    assert _raised(lambda: rotsym_many(e.profile, nan)) == finite


def test_rotsym_many_rows_are_their_batches_of_one():
    """Each row of a mixed batch, over both hemispheres and the equator, is
    bit for bit its batch of one."""
    e = catalog.shifted_sphere(0.5, 1.2, 3)
    equator = Point(np.array([math.sqrt(1.2**2 - 0.5), 0, 0, 0, 0, 0, 0.0]))
    pts = [*e.sample(RNG, 10), equator]
    assert {math.copysign(1.0, p.t) for p in pts} == {1.0, -1.0}
    batch = rotsym_many(e.profile, pts)
    for i, p in enumerate(pts):
        assert _same_report(rotsym_many(e.profile, [p])[0], batch, i)


# ---------------------------------------------------------------------------
# rotationally symmetric closed forms


def test_rotsym_matches_shape_matrix():
    for entry in (catalog.pansu(1.0, 2), catalog.heisenberg_sphere(1.0, 2),
                  catalog.pansu(0.5, 3), catalog.shifted_sphere(0.5, 1.2, 2)):
        for p in entry.sample(RNG, 40):
            rs = rotsym_many(entry.profile, [p])[0]
            sm = report(entry.surface, p)
            assert rs.k == pytest.approx(sm.k, abs=1e-8)
            assert rs.l == pytest.approx(sm.l, abs=1e-8)
            assert rs.alpha == pytest.approx(sm.alpha, abs=1e-8)
            assert rs.umbilic
            # both frames come from the same pivoted Gram-Schmidt complement
            assert rs.frame.pivots == sm.frame.pivots
            for v, w in zip((rs.frame.en, *rs.frame.xi_prime),
                            (sm.frame.en, *sm.frame.xi_prime), strict=True):
                assert np.max(np.abs(v.coeffs - w.coeffs)) <= 1e-10


def test_rotsym_values():
    # unit-curvature sphere at |z| = 0.5: k = 1, l = 2
    e = catalog.pansu(1.0, 2)
    r = 0.25
    t = math.sqrt(e.profile.f(r))
    rep = rotsym_many(e.profile, [Point(np.array([0.5, 0, 0, 0, t]))])[0]
    assert rep.k == pytest.approx(1.0, abs=1e-12)
    assert rep.l == pytest.approx(2.0, abs=1e-12)
    # quartic-sphere profile at |z| = 0.8: k = 0.8, l = 2.4
    e = catalog.heisenberg_sphere(1.0, 2)
    t = 0.5 * math.sqrt(1 - 0.8**4)
    rep = rotsym_many(e.profile, [Point(np.array([0.8, 0, 0, 0, t]))])[0]
    assert rep.k == pytest.approx(0.8, abs=1e-12)
    assert rep.l == pytest.approx(2.4, abs=1e-12)
    # equator: vanishing tilt
    e = catalog.pansu(1.0, 2)
    rep = rotsym_many(e.profile, [Point(np.array([1.0, 0, 0, 0, 0.0]))])[0]
    assert rep.alpha == pytest.approx(0.0, abs=1e-12)


def test_rotsym_degenerate_errors():
    e = catalog.heisenberg_sphere(1.0, 2)
    with pytest.raises(DegenerateProfile):
        rotsym_many(e.profile, [Point(np.array([0.0, 0, 0, 0, 0.5]))])


# ---------------------------------------------------------------------------
# isolated singular point data


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("B", [0.0, 0.5, 2.0])
def test_singular_jacobian_determinant(n, B):
    def quad(c):
        acc = 0.0
        for cc in c:
            acc = acc + cc * cc
        return B * acc

    grad, hess = graph_derivatives(quad, n)
    U, det = singular_jacobian(grad, hess)
    target = (4 * B * B + 1) ** n
    assert det == pytest.approx(target, rel=1e-12)
    assert U.shape == (2 * n, 2 * n)


def test_singular_jacobian_rejects_noncritical():
    def tilted(c):
        return c[0] + c[1] * c[1]

    grad, hess = graph_derivatives(tilted, 2)
    with pytest.raises(NotSingularCandidate):
        singular_jacobian(grad, hess)


def test_pansu_pole_quadratic_fit():
    # graph height near the top is cubic-flat, so the fitted block vanishes
    lam = 1.0
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(400, 4)) * 1e-3
    rows = []
    vals = []
    for xy in pts:
        r = float(xy @ xy)
        z = math.sqrt(r)
        h = (lam * z * math.sqrt(1 - lam * lam * r) + math.acos(lam * z)) / (
            2 * lam * lam
        )
        vals.append(h - math.pi / 4)
        rows.append([xy[i] * xy[j] for i in range(4) for j in range(i, 4)])
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
    hess = np.zeros((4, 4))
    idx = 0
    for i in range(4):
        for j in range(i, 4):
            hess[i, j] += 0.5 * coef[idx] if i != j else coef[idx]
            hess[j, i] = hess[i, j]
            idx += 1
    hess *= 2.0  # coefficients of x_i x_j -> second derivatives
    _, det = singular_jacobian(np.zeros(4), hess)
    assert det > 0.5  # cubic-flat graph: block ~ 0, determinant ~ 1


# ---------------------------------------------------------------------------
# eigen solver


def test_jacobi_against_numpy():
    rng = np.random.default_rng(6)
    for m in (1, 2, 4, 6):
        for _ in range(20):
            a = rng.normal(size=(m, m))
            a = a + a.T
            mine = jacobi_eigenvalues(a)
            ref = np.sort(np.linalg.eigvalsh(a))
            assert np.max(np.abs(mine - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))


def test_report_serialization_fields():
    e = catalog.cylinder(1.0, 2)
    rep = report(e.surface, e.sample(RNG, 1)[0])
    d = rep.to_dict()
    assert set(d) == {
        "point", "alpha", "k", "l", "H", "eigenvalues", "xn_residual",
        "spread", "umbilic",
    }
    assert isinstance(d["umbilic"], bool)
    assert len(d["eigenvalues"]) == 2


def test_surfacedef_validation():
    with pytest.raises(ValueError):
        SurfaceDef(func=lambda c: c[0], n=1)
    with pytest.raises(ValueError):
        SurfaceDef(func=lambda c: c[0], n=2, derivatives="symbolic")


# ---------------------------------------------------------------------------
# stacked evaluation


def _radial_grad_hess_one_point(entry, coords):
    """The radial closed form at one point, as it was written for one point
    before the closures took stacks."""
    n = entry.params["n"]
    f, df, ddf = entry.profile.f, entry.profile.df, entry.profile.ddf
    z, t = coords[: 2 * n], coords[2 * n]
    r = float(z @ z)
    u = f(r) - t * t
    d1, d2 = df(r), ddf(r)
    grad = np.empty(2 * n + 1)
    grad[: 2 * n] = 2.0 * d1 * z
    grad[2 * n] = -2.0 * t
    hess = np.zeros((2 * n + 1, 2 * n + 1))
    hess[: 2 * n, : 2 * n] = 4.0 * d2 * np.outer(z, z) + 2.0 * d1 * np.eye(2 * n)
    hess[2 * n, 2 * n] = -2.0
    return u, grad, hess


def _same_triple(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_evaluate_many_rows_match_one_point_calls(n):
    """Stacked evaluation and stacked ``grad_hess`` give every row the bits
    of a one-point call, in all five families, with duals and in fd mode."""
    from heisgeo.verify import _generic_test_surface

    rng = np.random.default_rng(500 + n)
    gen, height = _generic_test_surface(n)
    xs = rng.normal(size=(12, 2 * n)) * 0.6
    graph = np.array([np.append(x, height(x)) for x in xs])
    cases = [(e.surface, np.array([p.coords for p in e.sample(rng, 12)]), e)
             for e in catalog.standard_entries(n)] + [(gen, graph, None)]
    for s, coords, entry in cases:
        for sd in (s, s.with_derivatives("fd")):
            u, g, h = sd.evaluate_many(coords)
            assert u.shape == (12,) and g.shape == coords.shape and h.shape == (12,) + 2 * (2 * n + 1,)
            for i, c in enumerate(coords):
                assert _same_triple(sd.evaluate(c), (u[i], g[i], h[i])), (s.name, sd.derivatives, i)
        if s.grad_hess is None:
            continue
        stacked = s.grad_hess(coords)
        for i, c in enumerate(coords):
            one = s.grad_hess(c)
            assert _same_triple(one, [a[i] for a in stacked]), (s.name, i)
            if entry.profile is not None:
                assert _same_triple(one, _radial_grad_hess_one_point(entry, c)), (s.name, i)


def _dual_stacks(rng):
    """``(surface, stack)`` pairs that take the dual path: the eq. (7.2)
    extremal, prop2.3's generic graph, and Pansu's ``func`` on a stack that
    straddles ``catalog._psi``'s series cut (|s| < 1e-3, s = 1 - lam^2 |z|^2)."""
    from heisgeo.verify import _extremal, _generic_test_surface

    out = [(_extremal(lam, n), rng.normal(size=(9, 2 * n + 1)))
           for n in (2, 3) for lam in (0.5, 1.0)]
    gen, height = _generic_test_surface(2)
    xs = rng.normal(size=(9, 4)) * 0.6
    out.append((gen, np.array([np.append(x, height(x)) for x in xs])))
    for n in (2, 3):
        e = catalog.pansu(1.0, n)
        s_values = np.array([0.5, 5e-4, -5e-4, 2e-3, 0.999, -9e-4, 1e-3, 0.0])
        d = rng.normal(size=(len(s_values), 2 * n))
        z = d * np.sqrt(1.0 - s_values)[:, None] / np.linalg.norm(d, axis=1)[:, None]
        out.append((replace(e.surface, grad_hess=None),
                    np.column_stack((z, rng.uniform(-0.5, 0.5, len(s_values))))))
    return out


def test_dual_rows_are_their_batch_of_one_rows(monkeypatch):
    """``evaluate_many`` takes a dual surface's stack in one
    ``duals.gradient_hessian`` call, and each row is bitwise the row it
    gives alone: a stack whose rows straddle a value-dependent branch gives
    every row the branch it takes alone."""
    from heisgeo import duals

    calls = []
    stacked = duals.gradient_hessian
    monkeypatch.setattr(duals, "gradient_hessian",
                        lambda func, coords: calls.append(len(coords)) or stacked(func, coords))
    for s, coords in _dual_stacks(np.random.default_rng(40)):
        calls.clear()
        u, g, h = s.evaluate_many(coords)
        assert calls == [len(coords)], s.name
        for i, c in enumerate(coords):
            assert _same_triple(s.evaluate(c), (u[i], g[i], h[i])), (s.name, i)
    # the Pansu rows match the closed form, on both sides of the cut
    e = catalog.pansu(1.0, 3)
    coords = _dual_stacks(np.random.default_rng(40))[-1][1]
    for a, b in zip(e.surface.evaluate_many(coords),
                    replace(e.surface, grad_hess=None).evaluate_many(coords)):
        assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(a)))


def test_dual_chart_domain_check_is_per_row():
    """Pansu's hemisphere chart raises ``DomainError`` outside |z| <= 1/lam.
    A stack mixing rows on both sides raises it, as its outside row does
    alone; the inside rows give their own bits; a batch raises what its
    first failing point raises alone."""
    e = catalog.pansu(1.0, 2)
    chart = e.charts["upper"]
    inside = np.array([p.coords for p in e.sample(np.random.default_rng(41), 4)
                       if p.t > 0.05][:2])
    outside = np.array([1.2, 0.3, 0.0, 0.1, 0.0])
    mixed = np.vstack([inside[:1], outside, inside[1:]])
    want = _raised(lambda: chart.evaluate(outside))
    assert want[0] is DomainError
    assert _raised(lambda: chart.evaluate_many(mixed)) == want
    u, g, h = chart.evaluate_many(inside)
    for i, c in enumerate(inside):
        assert _same_triple(chart.evaluate(c), (u[i], g[i], h[i]))
    pts = [Point(c) for c in mixed]
    assert _raised(lambda: report_many(chart, pts)) == _raised(lambda: report(chart, pts[1]))


def test_evaluate_many_of_no_rows_is_empty():
    for entry in catalog.standard_entries(3):
        u, g, h = entry.surface.evaluate_many(np.empty((0, 7)))
        assert u.shape == (0,) and g.shape == (0, 7) and h.shape == (0, 7, 7)


def _skewed_plane(n=2):
    """The plane x_1 = 0 whose Hessian rows are made asymmetric by the
    second coordinate of the point (asymmetry ``x_2`` where ``x_2 > 0``)."""

    def grad_hess(coords):
        c = np.asarray(coords, dtype=float)
        grad = np.zeros(c.shape)
        grad[..., 0] = 1.0
        hess = np.zeros(c.shape + c.shape[-1:])
        hess[..., 0, 1] = np.maximum(c[..., 1], 0.0)
        return c[..., 0], grad, hess

    return SurfaceDef(func=lambda c: c[0], n=n, name="skewed", grad_hess=grad_hess)


def test_evaluate_many_gate_raises_for_the_first_asymmetric_row():
    from heisgeo.surface import NonSymmetric

    s = _skewed_plane()
    rows = np.array([[0.0, -1.0, 0.3, 0.2, 0.1], [0.0, 0.5, 0.1, 0.0, 0.0],
                     [0.0, 0.25, 0.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0, 0.0]])
    with pytest.raises(NonSymmetric, match="asymmetry 0.5$"):
        s.evaluate_many(rows)
    s.evaluate_many(rows[[0, 3]])  # the symmetric rows pass
    pts = [Point(r) for r in rows]
    want = _raised(lambda: report(s, pts[1]))
    assert want[0] is NonSymmetric
    assert _raised(lambda: report_many(s, pts)) == want
    # a point before the asymmetric one that fails a later stage comes first
    off = Point(np.array([0.1, -1.0, 0.0, 0.0, 0.0]))
    want = _raised(lambda: report(s, off))
    assert want[0] is OffSurface
    assert _raised(lambda: report_many(s, [off] + pts)) == want
