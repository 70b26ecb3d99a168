"""Acceptance gate: one test per criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured residual and its limit.
"""

import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from heisgeo import catalog, verify
from heisgeo.cli import main
from heisgeo.flows import identity_check, identity_check_many
from heisgeo.phaseplane import PhaseParams, PhasePoint, periodic_orbit, periodic_orbits
from heisgeo.surface import report, report_many

SEED = 42


def announce(name, residual, limit, elapsed, budget):
    ok = residual <= limit and (budget is None or elapsed <= budget)
    line = (
        f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
        f"(residual {residual:.3e} <= {limit:.0e}"
    )
    if budget is not None:
        line += f", runtime {elapsed:.1f}s <= {budget:.0f}s"
    print(line + ")")
    assert residual <= limit
    if budget is not None:
        assert elapsed <= budget


def announce_claims(name, results, limit, t0, budget):
    """Every row of a verify claim passes; the worst residual meets ``limit``."""
    elapsed = time.perf_counter() - t0
    failed = [r.to_dict() for r in results if not r.passed]
    assert results and not failed, failed
    announce(name, max(r.residual for r in results), limit, elapsed, budget)


def test_criterion_1_pansu_table():
    t0 = time.perf_counter()
    results = verify.claim_pansu_table(SEED)
    announce_claims("1-pansu-table", results, 1e-8, t0, 5.0)


def test_criterion_2_heisenberg_sphere():
    t0 = time.perf_counter()
    results = verify.claim_heisenberg_table(SEED)
    announce_claims("2-heisenberg-sphere", results, 1e-8, t0, 2.0)


def test_criterion_3_cylinder_hyperplane():
    """The cylinders are ``ex3.4``'s rows: c in {1, 2}, 100 points each,
    |k - 1/c|, |l - 1/c| and |alpha| within 1e-10.  No claim checks the
    flat form at a hyperplane normal off the axes; that check is the
    criterion's own."""
    t0 = time.perf_counter()
    rows = [row for row in verify.claim_flat_examples(SEED) if row.surface == "cylinder"]
    assert [(row.params, row.samples) for row in rows] == [({"c": 1.0}, 100), ({"c": 2.0}, 100)]
    entry = catalog.hyperplane([0.5, -1.0, 0.25, 2.0], 2)
    batch = report_many(entry.surface, entry.sample(np.random.default_rng(SEED), 100))
    assert max(np.abs(batch.h).max(), np.abs(batch.alpha).max()) <= 1e-12
    announce_claims("3-cylinder-hyperplane", rows, 1e-10, t0, 1.0)


def test_criterion_4_interior_identity_suite():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    floor = 1e-9  # below this the residual is rounding, not truncation
    for entry in verify.identity_suite_entries():
        for p in verify.moderate_points(entry, rng, 3):
            res_h = asdict(identity_check(entry.surface, p))  # h_fd = 1e-4
            res_h2 = asdict(identity_check_many(entry.surface, [p], h_fd=5e-5)[0])
            for key, r1 in res_h.items():
                worst = max(worst, r1)
                if r1 > floor:
                    assert r1 / res_h2[key] >= 3.5, (entry.name, key)
    announce("4-interior-identities", worst, 1e-5, time.perf_counter() - t0, 30.0)


def test_criterion_5_orbit_closure():
    """The six grids and the mirrors of their off-axis seeds run as one
    ``periodic_orbits`` batch: a lane's trace is bitwise the same in any
    batch."""
    t0 = time.perf_counter()
    worst_closure = 0.0
    worst_period = 0.0
    params, seeds = [], []
    for n in (2, 3):
        for c in (0.5, 1.0, 2.0):
            pp = PhaseParams(n, c)
            upper, lower = verify._seed_grid(pp)
            assert len(upper) == 25 and len(lower) == 25
            params += [pp] * 50
            seeds += upper + lower
    off_axis = [i for i, q0 in enumerate(seeds) if q0.alpha != 0.0]
    traces = periodic_orbits(params + [params[i] for i in off_axis],
                             seeds + [PhasePoint(-seeds[i].alpha, seeds[i].beta)
                                      for i in off_axis])
    traces, mirrored = traces[:len(seeds)], traces[len(seeds):]
    for q0, tr in zip(seeds, traces):
        scale = 1 + math.hypot(q0.alpha, q0.beta)
        worst_closure = max(worst_closure, tr.closure_error / scale)
        assert np.all(np.sign(tr.beta) == np.sign(q0.beta))
    for i, mirror in zip(off_axis, mirrored, strict=True):
        worst_period = max(worst_period,
                           abs(traces[i].period - mirror.period) / traces[i].period)
    elapsed = time.perf_counter() - t0
    assert worst_period <= 1e-9
    announce("5-orbit-closure", worst_closure, 1e-8, elapsed, 60.0)


def test_criterion_6_portrait_dataset(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = main(["phase", "--n", "2", "--c", "1", "--out", str(out)])
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    stationary = [(float(r[2]), float(r[3])) for r in rows if r[0] == "stationary"]
    assert stationary == [(0.0, 1.0), (0.0, -1.0 / 3.0)]
    worst_upsilon = 0.0
    for r in rows:
        if r[0] == "upsilon":
            a, b = float(r[2]), float(r[3])
            worst_upsilon = max(
                worst_upsilon, abs(-a * a + (b - 1.0) * (3.0 * b + 1.0) / 16.0)
            )
    orbits = {}
    for r in rows:
        if r[0].startswith("orbit:"):
            orbits.setdefault(r[0], []).append(float(r[3]))
    upper = sorted((min(b), max(b)) for b in orbits.values() if min(b) > 0)
    lower = sorted((min(b), max(b)) for b in orbits.values() if max(b) < 0)
    assert len(upper) >= 5 and len(lower) >= 5
    for (lo1, hi1), (lo2, hi2) in zip(upper, upper[1:]):
        assert lo2 > lo1 and hi2 < hi1  # nested
    with capsys.disabled():
        announce("6-portrait-dataset", worst_upsilon, 1e-12, 0.0, None)


def test_criterion_7_geodesic_confinement():
    t0 = time.perf_counter()
    results = verify.claim_geodesic_confinement(SEED)
    announce_claims("7-geodesic-confinement", results, 1e-7, t0, 5.0)


def test_criterion_8_profile_ode():
    t0 = time.perf_counter()
    results = verify.claim_profile_ode(SEED)
    announce_claims("8-profile-ode", results, 1e-6, t0, 1.0)


def test_criterion_9_singular_determinant():
    t0 = time.perf_counter()
    results = verify.claim_det_u(SEED)
    announce_claims("9-singular-determinant", results, 1e-12, t0, None)


def test_criterion_10_extremal_level_sets():
    t0 = time.perf_counter()
    results = (
        verify.claim_yamabe(SEED)
        + verify.claim_pmc_level_set(SEED)
        + verify.claim_shifted_spheres(SEED)
    )
    announce_claims("10-extremal-level-sets", results, 1e-8, t0, 10.0)


def test_criterion_11_oracle_cross_check(monkeypatch):
    """Derivative-path agreement gates the frozen golden values.

    Second differences need bounded higher derivatives, so the agreement is
    measured on the smooth, well-conditioned band of each surface (near the
    singular radii the sphere profile is only finitely differentiable and
    the scalars' conditioning grows like the inverse radius).
    """
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for entry in catalog.standard_entries(2):
        fd = entry.surface.with_derivatives("fd")
        taken = 0
        while taken < 10:
            (p,) = entry.sample(rng, 1)
            z = math.sqrt(float(np.dot(p.x, p.x) + np.dot(p.y, p.y)))
            if entry.name == "pansu" and not 0.15 <= z <= 0.95:
                continue
            if entry.name in ("heisenberg-sphere", "shifted-sphere") and z < 0.1:
                continue
            r1, r2 = report(entry.surface, p), report(fd, p)
            worst = max(
                worst,
                abs(r1.k - r2.k),
                abs(r1.l - r2.l),
                abs(r1.alpha - r2.alpha),
                abs(r1.H - r2.H),
                float(np.max(np.abs(r1.eigenvalues - r2.eigenvalues))),
            )
            taken += 1
    # gate passed: frozen golden values must still recompute
    gold = verify.golden()
    exact_extremal = verify._extremal
    for n, lam in ((2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0)):
        res = verify.yamabe_check(lam, n, count=50, seed=SEED)
        frozen = gold["yamabe_sigma"][f"n={n},lam={lam:g}"]
        assert res.extra["sigma"] == pytest.approx(frozen, rel=1e-6)
        with monkeypatch.context() as m:  # the extremal under FD derivatives
            m.setattr(verify, "_extremal",
                      lambda lam, n: exact_extremal(lam, n).with_derivatives("fd"))
            fd_res = verify.yamabe_check(lam, n, count=50, seed=SEED)
        assert fd_res.extra["sigma"] == pytest.approx(frozen, rel=1e-6)
    tr = periodic_orbit(PhaseParams(2, 1.0), PhasePoint(0.0, 2.0))
    frozen = gold["orbit_period"]["n=2,c=1,alpha0=0,beta0=2"]
    assert tr.period == pytest.approx(frozen, rel=1e-6)
    announce("11-oracle-cross-check", worst, 1e-5, time.perf_counter() - t0, None)
