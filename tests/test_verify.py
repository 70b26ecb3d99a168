"""Claim registry: coverage, seeding, pass/fail wiring, mutation detection."""

import ctypes
import functools
import json
import math
import os
import platform
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heisgeo import catalog, flows, phaseplane, rk45, surface, verify
from heisgeo.core import Point
from heisgeo.phaseplane import PhaseParams, PhasePoint
from heisgeo.surface import PivotDegenerate, build_frame, report_many
from heisgeo.verify import ClaimResult, run_all


def test_registry_covers_every_required_claim():
    required = [
        "prop2.1-symmetry",
        "prop2.2-shape-symmetric",
        "prop2.3-xn-equivalence",
        "prop2.4-umbilic-pattern",
        "prop3.1-rotsym-umbilic",
        "prop3.1-profile-ode",
        "prop4.1-detU",
        "prop4.2-identities",
        "prop4.3-foliation-rank",
        "prop4.4-leaf-constancy",
        "prop4.5-geodesic-confinement",
        "ex3.2-pansu-table",
        "ex3.3-l-eq-3k",
        "ex3.4-cylinder-hyperplane",
        "eq5.4-alpha-axis",
        "eq5.5-stationary",
        "lemma6.1-closure",
        "lemma6.1-symmetry",
        "eq7.2-yamabe-sigma",
        "eq7.3-shifted-l-3k",
        "eq7.4-pmc-level-set",
    ]
    for cid in required:
        assert cid in verify.CLAIMS, cid


def test_claim_result_pass_semantics():
    r = ClaimResult("x", "s", {}, 1e-9, 1e-8, 10, 0)
    assert r.passed
    r = ClaimResult("x", "s", {}, 2e-8, 1e-8, 10, 0)
    assert not r.passed


def test_filtered_run_deterministic():
    rep1 = run_all(7, only="ex3.4")
    rep2 = run_all(7, only="ex3.4")
    assert rep1.to_json() == rep2.to_json()
    assert rep1.passed
    assert all(c.claim_id.startswith("ex3.4") for c in rep1.claims)


def test_seed_changes_sampling_but_not_verdict():
    a = run_all(1, only="ex3.3")
    b = run_all(2, only="ex3.3")
    assert a.passed and b.passed
    assert a.claims[0].residual != b.claims[0].residual


def test_report_json_schema():
    rep = run_all(3, only="prop4.1")
    data = json.loads(rep.to_json())
    assert data["passed"] is True and data["seed"] == 3
    claim = data["claims"][0]
    for key in ("claim_id", "residual", "tolerance", "passed", "samples", "seed"):
        assert key in claim


def test_report_json_with_non_finite_residual_is_valid():
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    row = ClaimResult("x", "<error>", {}, math.inf, 0.0, 0, 0,
                      extra={"error": "NotPeriodic: closure error"})
    data = json.loads(verify.Report(seed=0, claims=[row]).to_json(),
                      parse_constant=reject)
    assert data["passed"] is False
    assert data["claims"][0]["residual"] is None
    assert data["claims"][0]["passed"] is False


def test_nan_residual_fails_its_row():
    """Python's ``max`` skips NaN; a row with a NaN residual must fail and
    report a non-finite residual (``null`` in the JSON)."""
    for residuals in ([math.nan], [1e-9, math.nan], [math.nan, 1e-9]):
        row = verify._row("x", 0, "s", {}, residuals, 1e-8)
        assert math.isnan(row.residual) and not row.passed
        assert row.samples == len(residuals)
        data = json.loads(verify.Report(seed=0, claims=[row]).to_json())
        assert data["claims"][0]["residual"] is None and data["passed"] is False
    assert verify._row("x", 0, "s", {}, [1e-9, 2e-9], 1e-8).residual == 2e-9
    entry = catalog.pansu(1.0, 2)
    cases = [("pansu", {"n": 2}, [(entry, entry.sample(np.random.default_rng(3), 4))])]
    rows = verify._report_claim("x", 0, cases, lambda e, batch: batch.k * math.nan, 1e-8)
    assert len(rows) == 1 and rows[0].samples == 4
    assert math.isnan(rows[0].residual) and not rows[0].passed


def test_closure_batch_rows_match_one_batch_per_grid():
    """The one ``lemma6.1-closure`` batch gives field for field the rows of a
    separate ``periodic_orbits`` batch per ``(n, c)`` grid."""
    cid = "lemma6.1-closure"
    rows = verify.claim_orbit_closure(42)
    grids = [PhaseParams(n, c) for n in (2, 3) for c in (0.5, 1.0, 2.0)]
    assert len(rows) == len(grids) + 1
    for row, pp in zip(rows, grids):
        grid = sum(verify._seed_grid(pp), [])
        ref = verify._closure_row(cid, 42, pp, grid, phaseplane.periodic_orbits(pp, grid))
        assert row.to_dict() == ref.to_dict()
        assert row.passed
    golden = phaseplane.periodic_orbit(PhaseParams(2, 1.0), PhasePoint(0.0, 2.0))
    assert rows[-1].claim_id == cid + "-golden"
    assert rows[-1].extra["period"] == golden.period


@pytest.mark.parametrize("cid", [
    "prop2.1-symmetry", "prop2.2-shape-symmetric", "prop2.3-xn-equivalence",
    "prop2.4-umbilic-pattern", "prop3.1-rotsym-umbilic", "prop4.1-detU",
    "prop4.3-foliation-rank", "ex3.2-pansu-table", "eq5.4-alpha-axis", "eq5.5-stationary",
    "lemma6.1-closure", "eq7.4-pmc-level-set",
])
def test_claims_hold_over_the_dimension_range(monkeypatch, cid):
    """The paper's statements hold for every n >= 2, and ``verify.NS`` is the
    one range the claims stated for each n run over: at ``NS = (5,)`` each
    such claim gives n = 5 rows only, all passing, except prop2.3's generic
    graph and the golden orbit row, which are stated at n = 2."""
    monkeypatch.setattr(verify, "NS", (5,))
    rows = verify.CLAIMS[cid](42)
    assert rows and all(row.passed for row in rows)
    assert any(row.params["n"] == 5 for row in rows)
    for row in rows:
        at_two = row.surface == "generic-graph" or row.claim_id.endswith("-golden")
        assert row.params["n"] == (2 if at_two else 5), row.to_dict()


@pytest.mark.parametrize("claim, bound_mb", [
    # measured peaks 5.15 and 1.86 MB (seed 42), plus 25%
    (verify.claim_orbit_closure, 6.45),
    (verify.claim_geodesic_confinement, 2.35),
])
def test_lane_batches_stay_within_their_memory(claim, bound_mb):
    """Lanes keep mesh values only and are released as they are reduced, so
    the peak traced memory of a lane-batched claim stays bounded."""
    claim(42)  # a first run, so one-time caches are not counted
    tracemalloc.start()
    try:
        claim(42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_mutation_is_detected(monkeypatch):
    """A sign error in the tilt must break the paired-entry symmetry claim."""

    class Corrupted:
        def __init__(self, batch):
            self.h = batch.h
            self.alpha = -batch.alpha  # injected sign error

    def bad_report(surface_def, points):
        return Corrupted(report_many(surface_def, points))

    monkeypatch.setattr(surface, "report_many", bad_report)
    results = verify.claim_partial_symmetry(0)
    assert any(not r.passed for r in results)


def test_claims_without_completed_samples_fail(monkeypatch):
    """Skipped points are not evidence: a row with none completed fails."""

    def degenerate(*args, **kwargs):
        raise PivotDegenerate("forced")

    for name in ("identity_check", "identity_check_many", "leaf_constancy",
                 "leaf_constancy_many"):
        monkeypatch.setattr(flows, name, degenerate)
    monkeypatch.setattr(surface, "report_many", degenerate)  # prop4.3's batches
    results = (verify.claim_interior_identities(0)
               + verify.claim_foliation_rank(0)
               + verify.claim_leaf_constancy(0))
    assert {r.claim_id for r in results} == {
        "prop4.2-identities", "prop4.3-foliation-rank", "prop4.4-leaf-constancy"}
    assert all(r.samples == 0 and not r.passed for r in results)
    per_case = {"prop4.2-identities": 3, "prop4.3-foliation-rank": 10,
                "prop4.4-leaf-constancy": 4}
    assert all(r.extra == {"skipped": {"PivotDegenerate": per_case[r.claim_id]}}
               for r in results)


@pytest.mark.parametrize("seed", [42, 7, 3])
def test_foliation_rank_holds_up_to_n_8(monkeypatch, seed):
    """With ``verify.NS`` widened to 2..8 every ``prop4.3`` row passes: the
    exact brackets leave no spurious dimension near the pole."""
    monkeypatch.setattr(verify, "NS", tuple(range(2, 9)))
    rows = verify.claim_foliation_rank(seed)
    assert [row.params["n"] for row in rows] == [2, 2, *range(3, 9)]
    assert all(row.passed and row.samples == 10 for row in rows)


def test_foliation_rank_evaluates_the_kernel_once_per_case(monkeypatch):
    """``prop4.3`` takes each case's brackets from the form matrices of one
    ``report_many`` batch: one ``grad_hess`` call of the case's 10 points."""
    calls = []

    def counted(factory):
        def make(*args):
            entry = factory(*args)
            exact = entry.surface.grad_hess

            def grad_hess(coords):
                calls.append((entry.name, len(coords)))
                return exact(coords)

            return replace(entry, surface=replace(entry.surface, grad_hess=grad_hess))

        return make

    for name in ("pansu", "cylinder"):
        monkeypatch.setattr(catalog, name, counted(getattr(catalog, name)))
    rows = verify.claim_foliation_rank(42)
    assert all(row.passed for row in rows)
    assert calls == [("pansu", 10), ("cylinder", 10), ("pansu", 10)]


def test_geodesic_confinement_lanes_report_scalar_steps():
    """The batched claim reports, per curvature, the accepted steps that
    scalar flows from the same starts take."""
    rows = verify.claim_geodesic_confinement(5)
    rng = verify._rng(5, "prop4.5-geodesic-confinement")
    for row, lam in zip(rows, (0.5, 1.0)):
        entry = catalog.pansu(lam, 2)
        steps = sum(flows.geodesic_flow(flows.CurveState(p, build_frame(entry.surface, p).en),
                                        lam, 3.0).accepted
                    for p in verify.confinement_starts(lam, 2, rng, 20))
        assert row.passed and row.samples == 20 and row.params == {"lam": lam}
        assert row.extra == {"accepted_steps": steps}


def test_geodesic_confinement_failing_start_frame_is_one_error_row(monkeypatch):
    """The starts' frames force no pivots and project nothing, so none is
    resampled: a failing start frame turns the claim into one error row."""
    original = surface.frame_many

    def degenerate(surface_def, points, pivots=None):
        if surface_def.name == "pansu":
            raise PivotDegenerate("forced")
        return original(surface_def, points, pivots)

    monkeypatch.setattr(surface, "frame_many", degenerate)
    (row,) = run_all(0, only="prop4.5").claims
    assert row.claim_id == "prop4.5-geodesic-confinement" and row.surface == "<error>"
    assert row.extra == {"error": "PivotDegenerate: forced"} and not row.passed


def test_samples_count_completed_points():
    results = verify.claim_xn_shape_equivalence(0)
    assert [r.samples for r in results if r.surface == "catalog"] == [150, 150]
    assert all(0 < r.samples <= 60 for r in results if r.surface == "generic-graph")


def _report_failing_at(monkeypatch, exc, bad):
    """Patch ``surface.report_many`` to raise ``exc`` on every generic-graph
    batch that holds a point numbered in ``bad`` (in sampling order, which is
    the order of the first generic-graph batch)."""
    original = surface.report_many
    order = {}

    def patched(surface_def, points, pivots=None):
        if surface_def.name == "generic-graph":
            if not order:
                order.update((id(p), i) for i, p in enumerate(points))
            if any(order[id(p)] in bad for p in points):
                raise exc("forced")
        return original(surface_def, points, pivots)

    monkeypatch.setattr(surface, "report_many", patched)


@pytest.mark.parametrize("skips, passed", [(30, True), (31, False)])
def test_generic_graph_row_needs_half_of_its_points(monkeypatch, skips, passed):
    """The ``prop2.3`` generic-graph row counts a point whose frame
    degenerates as skipped and fails when fewer than half completed."""
    _report_failing_at(monkeypatch, PivotDegenerate, range(skips))
    *_, row = verify.claim_xn_shape_equivalence(42)
    assert row.surface == "generic-graph" and row.samples == 60 - skips
    assert row.extra == {"witness": row.extra["witness"],
                         "skipped": {"PivotDegenerate": skips}}
    assert row.extra["witness"] > 1e-3 and row.passed is passed


def test_generic_graph_row_raises_other_failures(monkeypatch):
    """Only degenerate frames and failed projections are skipped: any other
    failed report fails the claim."""
    _report_failing_at(monkeypatch, surface.OffSurface, range(1, 60))
    with pytest.raises(surface.OffSurface):
        verify.claim_xn_shape_equivalence(42)


def test_generic_graph_row_needs_a_nonzero_witness(monkeypatch):
    """On a surface whose e_n row vanishes the row proves nothing, so it fails."""
    def plane(n):
        return surface.SurfaceDef(func=lambda c: c[2 * n], n=n, name="plane"), lambda x: 0.0

    monkeypatch.setattr(verify, "_generic_test_surface", plane)
    *_, row = verify.claim_xn_shape_equivalence(42)
    assert row.samples == 60 and list(row.extra) == ["witness"]
    assert row.extra["witness"] < 1e-12 and row.residual == math.inf and not row.passed


def test_yamabe_sigma_matches_golden_and_fd(monkeypatch):
    gold = verify.golden()["yamabe_sigma"]
    exact_extremal = verify._extremal
    for n, lam in ((2, 1.0), (3, 0.5)):
        exact = verify.yamabe_check(lam, n, count=40, seed=5)
        assert exact.residual <= 1e-8  # the quotient is a single constant
        key = f"n={n},lam={lam:g}"
        assert exact.extra["sigma"] == pytest.approx(gold[key], rel=1e-6)
        with monkeypatch.context() as m:  # the extremal under FD derivatives
            m.setattr(verify, "_extremal",
                      lambda lam, n: exact_extremal(lam, n).with_derivatives("fd"))
            fd = verify.yamabe_check(lam, n, count=40, seed=5)
        assert fd.extra["sigma"] == pytest.approx(exact.extra["sigma"], rel=1e-6)


def test_yamabe_scaling_exponent():
    sig = {
        lam: verify.yamabe_check(lam, 2, count=30, seed=9).extra["sigma"]
        for lam in (0.5, 1.0, 2.0)
    }
    e1 = math.log(sig[0.5] / sig[1.0]) / math.log(0.5)
    e2 = math.log(sig[2.0] / sig[1.0]) / math.log(2.0)
    assert e1 == pytest.approx(e2, abs=1e-6)
    assert e1 == pytest.approx(1.0, abs=1e-6)


def test_pmc_level_set_values():
    res = verify.pmc_level_set_check((1.0,), 1.0, 2, count=10, seed=11)
    assert res.passed
    # n=2, sigma=1, lam=1: H = 4 and the level value is (2n lam/sigma)^(2n+1)
    assert (2 * 2 * 1.0 / 1.0) ** 5 == 1024.0


def test_crashed_claim_reports_failure():
    verify.CLAIMS["boom-test"] = lambda seed: (_ for _ in ()).throw(RuntimeError("x"))
    try:
        rep = run_all(0, only="boom-test")
        assert not rep.passed
        assert "error" in rep.claims[0].extra
    finally:
        del verify.CLAIMS["boom-test"]


def test_stationary_claim():
    results = verify.claim_stationary(0)
    assert all(r.passed for r in results)
    assert all(r.extra["min_off_stationary"] > 0 for r in results)


def test_axis_claim():
    assert all(r.passed for r in verify.claim_axis_solution(0))


# ---------------------------------------------------------------------------
# skipped samples and the batch fallback


def test_skipped_samples_are_counted_by_type():
    """A point whose forced pivot collapses is skipped and counted in its
    row's ``extra``; rows without skipped samples carry no count."""
    entry = catalog.cylinder(1.0, 2)
    degenerate = Point(np.array([1.0, 0.0, 0.0, 0.0, 0.3]))  # e_1 lies in span(e_n, e_2n) here
    pts = entry.sample(np.random.default_rng(2), 3)
    cases = [("cylinder", {}, [(entry, pts[:2] + [degenerate] + pts[2:])]),
             ("cylinder", {}, [(entry, pts)])]

    def residuals(e, ps):
        return surface.report_many(e.surface, ps, pivots=(0,)).spread

    with_skip, without = verify._sampled_claim("x", 0, cases, residuals, 1e-6)
    assert with_skip.samples == 3 and with_skip.extra == {"skipped": {"PivotDegenerate": 1}}
    assert without.samples == 3 and without.extra == {}
    assert with_skip.residual == without.residual


@pytest.mark.parametrize("skips, passed", [(1, True), (2, True), (3, False)])
def test_rows_need_half_of_their_attempted_samples(skips, passed):
    entry = catalog.pansu(1.0, 2)
    pts = entry.sample(np.random.default_rng(1), 4)

    def residuals(e, ps):
        if any(p is q for p in ps for q in pts[:skips]):
            raise PivotDegenerate("forced")
        return [1e-9] * len(ps)

    (row,) = verify._sampled_claim("x", 0, [("pansu", {}, [(entry, pts)])], residuals, 1e-8)
    assert row.samples == 4 - skips and row.extra == {"skipped": {"PivotDegenerate": skips}}
    assert row.passed is passed


def test_only_rows_equal_the_full_run_rows(full_run):
    """``--only`` runs each claim by itself with the rows of the full run."""
    rows = full_run(7).claims
    for cid in verify.CLAIMS:
        alone = run_all(7, only=cid).claims
        assert alone, cid
        assert (verify.Report(seed=7, claims=alone).to_json()
                == verify.Report(seed=7, claims=rows[:len(alone)]).to_json()), cid
        rows = rows[len(alone):]
    assert rows == []


REFERENCE_DIR = Path(__file__).resolve().parent / "data"
# what wrote the reference reports.  Their last digits follow the rounding of
# numpy's SIMD loops, of the BLAS kernels and of libm, so another numpy or
# platform may move them, and so may the same numpy on this host restricted
# to AVX2 (NPY_ENABLE_CPU_FEATURES=X86_V3) or another OpenBLAS core
# (OPENBLAS_CORETYPE=Haswell)
REFERENCE_MADE_WITH = ("numpy 2.4.6, Python 3.11.7 (Linux x86_64), AVX512F dispatch on, "
                       "OpenBLAS core SkylakeX")


def _avx512f_dispatch():
    """"on" if the CPU has AVX512F and numpy dispatches its float64 ``exp``
    loop to an AVX-512 target.  ``__cpu_features__`` reports the CPU alone;
    ``__cpu_targets_info__`` also shows a restriction such as
    NPY_ENABLE_CPU_FEATURES."""
    try:
        from numpy._core import _multiarray_umath as umath
        if not umath.__cpu_features__.get("AVX512F", False):
            return "off"
        target = umath.__cpu_targets_info__["exp"]["dd"]["current"]
        return "on" if target.startswith(("X86_V4", "AVX512")) else "off"
    except (ImportError, AttributeError, KeyError):
        return "unknown"


def _openblas_core():
    """The core numpy's bundled OpenBLAS runs its kernels for, or "unknown"."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _made_with():
    """This run's counterpart of ``REFERENCE_MADE_WITH``."""
    return (f"numpy {np.__version__}, Python {platform.python_version()} "
            f"({platform.system()} {platform.machine()}), "
            f"AVX512F dispatch {_avx512f_dispatch()}, OpenBLAS core {_openblas_core()}")


def _moved_rows(old, new):
    """One line per row whose bytes differ between two ``--json`` reports,
    with its old and its new residual."""
    old_rows, new_rows = json.loads(old)["claims"], json.loads(new)["claims"]

    def residual(rows, i):
        return repr(rows[i]["residual"]) if i < len(rows) else "absent"

    lines = []
    for i in range(max(len(old_rows), len(new_rows))):
        a, b = old_rows[i:i + 1], new_rows[i:i + 1]
        if a != b:
            row = (b or a)[0]
            lines.append(f"row {i} {row['claim_id']} [{row['surface']}] {row['params']}: "
                         f"residual {residual(old_rows, i)} -> {residual(new_rows, i)}")
    return lines


@pytest.mark.parametrize("seed", [42, 7, 3])
def test_run_matches_the_reference_report(full_run, seed):
    """A full run gives the committed ``verify run --json`` bytes.  A change
    that moves bytes on purpose rewrites the file and names the moved rows
    and their cause in CHANGES.md."""
    path = REFERENCE_DIR / f"verify-seed{seed}.json"
    got = full_run(seed).to_json() + "\n"
    want = path.read_text()
    if got != want:
        moved = _moved_rows(want, got) or ["no row moved: the report's header or layout did"]
        pytest.fail(f"verify run --seed {seed} differs from {path.name}:\n" + "\n".join(moved)
                    + f"\nthe reference was made with {REFERENCE_MADE_WITH}; this run uses "
                    + _made_with(), pytrace=False)


def test_full_run_lane_sweep_count(monkeypatch):
    """A full run at seed 42 makes 267 lane sweeps, crossing landings
    included: ``lemma6.1-closure`` 153, ``prop4.5`` 62 and
    ``prop3.1-profile-ode`` 52.  Both lemma 6.1 claims take their orbits
    from one shared batch and the three profiles run as one sweep (2,086
    with a batch per claim and a sweep per profile, 1,188 with the fifth-order
    pair).  The run is pinned to one process, so that every sweep is counted
    here and none in a worker."""
    sweeps = []
    original = rk45._lane_step

    def counted(*args):
        sweeps.append(1)
        return original(*args)

    monkeypatch.setattr(rk45, "_lane_step", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rep = run_all(42)
    assert rep.passed and len(rep.claims) == 100
    assert len(sweeps) == 267
    assert verify._orbit_pool.get() is None  # the shared batch does not outlive the run


@pytest.mark.parametrize("bad", ["lemma6.1-closure", "lemma6.1-symmetry"])
def test_failing_shared_orbit_batch_reruns_each_claim_alone(monkeypatch, bad):
    """A bad seed (a NaN tilt), in either claim's part, makes the shared
    lemma 6.1 batch raise; each claim then reruns its
    own batch, so the rows of both claims are their rows under ``--only``:
    only the claim with the bad seed is an error row."""
    if bad == "lemma6.1-closure":
        grid = verify._seed_grid

        def with_nan_seed(pp):
            upper, lower = grid(pp)
            return upper + [PhasePoint(math.nan, pp.c)], lower

        monkeypatch.setattr(verify, "_seed_grid", with_nan_seed)
    else:
        cases = verify._symmetry_cases

        def with_nan_seed(seed):
            (pp, seeds), *rest = cases(seed)
            return [(pp, seeds + [PhasePoint(math.nan, pp.c)]), *rest]

        monkeypatch.setattr(verify, "_symmetry_cases", with_nan_seed)
    both = run_all(42, only="lemma6.1").claims
    alone = {cid: run_all(42, only=cid).claims
             for cid in ("lemma6.1-closure", "lemma6.1-symmetry")}
    assert ([row.to_dict() for row in both]
            == [row.to_dict() for rows in alone.values() for row in rows])
    for cid, rows in alone.items():
        if cid == bad:
            assert len(rows) == 1 and rows[0].extra["error"] == "ValueError: seed must be finite"
        else:
            assert all(row.passed for row in rows)


def _projection_fails_near(monkeypatch, bad):
    """Make every Newton projection of a stack fail when one of its rows is
    near ``bad``, in the batched and the one-point paths alike."""
    original = flows._newton_project

    def patched(s, coords, maxit=10):
        if np.min(np.abs(np.asarray(coords) - bad.coords).max(axis=-1)) < 1e-2:
            raise flows.ProjectionFailure("forced")
        return original(s, coords, maxit)

    monkeypatch.setattr(flows, "_newton_project", patched)


@pytest.mark.parametrize("claim", ["identities", "leaf"])
def test_batch_fallback_skips_what_the_one_point_path_skips(monkeypatch, claim):
    entry = catalog.heisenberg_sphere(1.0, 2)
    pts = verify.moderate_points(entry, np.random.default_rng(9), 4)
    _projection_fails_near(monkeypatch, pts[2])
    if claim == "identities":
        one = lambda e, p: flows.identity_check(e.surface, p).max()
        batch = lambda e, ps: [r.max() for r in flows.identity_check_many(e.surface, ps)]
    else:
        one = lambda e, p: flows.leaf_constancy(e.surface, p)
        batch = lambda e, ps: flows.leaf_constancy_many(e.surface, ps)
    cases = [("heisenberg-sphere", {}, [(entry, pts)])]
    (batched,) = verify._sampled_claim("x", 0, cases, batch, 1e-5)
    (alone,) = verify._sampled_claim("x", 0, cases, lambda e, ps: [one(e, p) for p in ps], 1e-5)
    assert batched.to_dict() == alone.to_dict()
    assert batched.samples == 3 and batched.extra == {"skipped": {"ProjectionFailure": 1}}
    assert batched.residual == verify._worst([one(entry, p) for i, p in enumerate(pts) if i != 2])


def test_batched_claims_match_one_point_claims():
    """``prop4.2`` and ``prop4.4`` rows from one batch per case equal the
    rows that one-point checks give."""
    for claim, name in ((verify.claim_interior_identities, "identity_check_many"),
                        (verify.claim_leaf_constancy, "leaf_constancy_many")):
        batched = [r.to_dict() for r in claim(42)]
        original = getattr(flows, name)

        def single(s, points, *args, original=original, **kwargs):
            # every case's batch result is made of one-point checks
            return [r for p in points for r in original(s, [p], *args, **kwargs)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flows, name, single)
            assert [r.to_dict() for r in claim(42)] == batched


def test_geodesic_residuals_match_surface_values():
    """The confinement residuals over each trace's node stack are bitwise the
    ``SurfaceDef.value`` of every node."""
    rng = np.random.default_rng(4)
    for lam in (0.5, 1.0):
        entry = catalog.pansu(lam, 2)
        starts = [flows.CurveState(p, build_frame(entry.surface, p).en)
                  for p in verify.confinement_starts(lam, 2, rng, 3)]
        for tr in flows.geodesic_flows(starts, [lam] * 3, 3.0):
            stacked = verify._profile_values(entry, tr.coords)
            one = [entry.surface.value(c) for c in tr.coords]
            assert stacked.tolist() == one


# ---------------------------------------------------------------------------
# NaN residuals are not hidden


def _nan_on_call(monkeypatch, module, name, which, value):
    """Make ``module.name`` return ``value`` on the calls numbered in
    ``which`` (counted from 0)."""
    original = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return value if len(calls) - 1 in which else original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def test_det_u_nan_fails_its_row(monkeypatch):
    _nan_on_call(monkeypatch, surface, "singular_jacobian", {1}, (None, math.nan))
    rows = verify.claim_det_u(0)
    assert math.isnan(rows[0].residual) and not rows[0].passed
    assert rows[1].passed


def test_axis_solution_nan_fails_its_row(monkeypatch):
    # one call per (n, c): every tilt of the case at once
    _nan_on_call(monkeypatch, phaseplane, "vector_field", {0}, (math.nan, 0.0))
    rows = verify.claim_axis_solution(0)
    assert math.isnan(rows[0].residual) and not rows[0].passed
    assert all(r.passed for r in rows[1:])


def test_stationary_nan_fails_its_row(monkeypatch):
    # calls per (n, c): the first stationary point, the second, the sample grid
    _nan_on_call(monkeypatch, phaseplane, "vector_field", {1}, (math.nan, math.nan))
    rows = verify.claim_stationary(0)
    assert math.isnan(rows[0].residual) and not rows[0].passed
    assert all(r.passed for r in rows[1:])


def test_closure_row_keeps_a_nan_drift():
    pp = PhaseParams(2, 1.0)
    seeds = sum(verify._seed_grid(pp), [])[:3]
    traces = phaseplane.periodic_orbits(pp, seeds)
    traces[1].first_integral_drift = lambda: math.nan
    row = verify._closure_row("lemma6.1-closure", 0, pp, seeds, traces)
    assert math.isnan(row.extra["first_integral_drift"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the first integral at beta = 0
@pytest.mark.parametrize("bad", [0.0, math.nan], ids=["zero", "nan"])
def test_closure_row_fails_a_trace_off_its_half_plane(bad):
    """The half-plane check guards against a defect that underflowed to 0
    or is NaN: one such sample fails the row with an infinite residual."""
    pp = PhaseParams(2, 1.0)
    upper, lower = verify._seed_grid(pp)
    seeds = upper[:2] + lower[:2]
    assert verify._closure_row("lemma6.1-closure", 0, pp, seeds,
                               phaseplane.periodic_orbits(pp, seeds)).passed
    for k in range(len(seeds)):
        traces = phaseplane.periodic_orbits(pp, seeds)
        traces[k].beta[len(traces[k].beta) // 2] = bad
        row = verify._closure_row("lemma6.1-closure", 0, pp, seeds, traces)
        assert row.residual == math.inf and not row.passed, k


def test_periodic_orbits_reject_a_nan_closure_error(monkeypatch):
    original = phaseplane._trace

    def nan_end(*args, **kwargs):
        tr = original(*args, **kwargs)
        tr.alpha[-1] = math.nan
        return tr

    monkeypatch.setattr(phaseplane, "_trace", nan_end)
    with pytest.raises(phaseplane.NotPeriodic, match="closure error nan"):
        phaseplane.periodic_orbits(PhaseParams(2, 1.0), [PhasePoint(0.0, 2.0)])


# ---------------------------------------------------------------------------
# the task queue: one process or two


def _counted_forks(monkeypatch):
    """Count the calls of ``os.fork``, which still forks."""
    forks = []
    original = os.fork

    def fork():
        forks.append(1)
        return original()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [42, 7, 3])
def test_two_processes_give_the_one_process_report(monkeypatch, seed):
    """A full run forks one worker on a host with 2 or more CPUs, and gives
    the bytes and the ``timings`` keys, in registry order, of the run pinned
    to one process."""
    forks = _counted_forks(monkeypatch)
    forked = 1 if verify._usable_cpus() >= 2 else 0
    two = run_all(seed)
    assert len(forks) == forked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run_all(seed)
    assert len(forks) == forked
    assert two.to_json() == one.to_json()
    assert list(two.timings) == list(one.timings) == list(verify.CLAIMS)
    _no_child_left()


def _two_cpus(monkeypatch):
    """Report two usable CPUs: two in the affinity set and no cgroup quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(verify, "_quota_cpus", lambda: math.inf)


def _cheap(cid):
    """A producer that gives one passing row at once."""
    def produce(seed):
        return [verify._row(cid, seed, "cheap", {}, [0.0], 1.0)]

    return produce


def test_one_process_conditions(monkeypatch):
    """Only a run that holds the shared orbit batch and other claims forks:
    a filtered run without that batch, or with it alone, is too short to
    repay a fork.  The caller also drains the queue alone with one usable
    CPU, by affinity or by a cgroup quota, with no ``os.sched_getaffinity``,
    with another Python thread running or a producer wrapped from outside,
    and when the fork fails."""
    forks = _counted_forks(monkeypatch)
    _two_cpus(monkeypatch)
    for cid in verify.CLAIMS:
        monkeypatch.setitem(verify.CLAIMS, cid, _cheap(cid))
    reference = run_all(0).to_json()
    assert len(forks) == 1
    for only in ("eq5", "prop", "ex3", "lemma6.1", "lemma6.1-closure"):
        run_all(0, only=only)
    assert len(forks) == 1
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert run_all(0).to_json() == reference
    finally:
        stop.set()
        other.join(10.0)
    assert not other.is_alive()
    producer = verify.CLAIMS["eq5.4-alpha-axis"]
    with monkeypatch.context() as patch:
        patch.setitem(verify.CLAIMS, "eq5.4-alpha-axis",
                      functools.wraps(producer)(lambda seed: producer(seed)))
        assert run_all(0).to_json() == reference
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_quota_cpus", lambda: 1.5)
        assert run_all(0).to_json() == reference
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_all(0).to_json() == reference
    with monkeypatch.context() as patch:
        patch.delattr(os, "sched_getaffinity")
        assert run_all(0).to_json() == reference
    assert len(forks) == 1

    def no_fork():
        raise BlockingIOError("fork: Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_all(0).to_json() == reference
    _no_child_left()


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "150000 100000\n"}, 1.5),
    ({"cpu.max": "max 100000\n", "quota": "100000\n", "period": "100000\n"}, math.inf),
    ({"quota": "100000\n", "period": "100000\n"}, 1.0),
    ({"quota": "-1\n", "period": "100000\n"}, math.inf),
    ({"cpu.max": "\n"}, math.inf),
    ({}, math.inf),
])
def test_a_cgroup_quota_caps_the_usable_cpus(monkeypatch, tmp_path, files, cpus):
    """The first readable quota, cgroup v2's one file or v1's two, caps the
    affinity set; without one the set counts alone."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(verify, "_QUOTA_FILES", ((tmp_path / "cpu.max",),
                                                 (tmp_path / "quota", tmp_path / "period")))
    assert verify._quota_cpus() == cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert verify._usable_cpus() == min(3, cpus)


def _exit_3(*args):
    os._exit(3)


def _interrupted(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("death, status", [(_exit_3, "exit status 3"),
                                           (_interrupted, "exit status 1")])
def test_dead_worker_claims_are_error_rows(full_run, worker_first, death, status):
    """A worker that dies in its first claim, by ``os._exit(3)`` or by an
    interrupt, which ends it in ``os._exit(1)``: the report is still
    complete, the caller's rows are the reference rows, and each claim of
    the worker's task is one ``WorkerDied`` row without seconds."""
    reference = full_run(42).claims  # before the producers are wrapped
    worker_first(list(verify.CLAIMS), death)
    rep = run_all(42)
    _no_child_left()
    died = [row.claim_id for row in rep.claims
            if row.extra.get("error") == f"WorkerDied: {status}"]
    # the rows the worker's claims give alone, in the caller
    lost = [row.to_dict() for cid in died for row in run_all(42, only=cid).claims]
    assert len(died) == 1 or died == ["lemma6.1-closure", "lemma6.1-symmetry"]
    assert list(rep.timings) == [cid for cid in verify.CLAIMS if cid not in died]
    assert ([row.to_dict() for row in rep.claims if row.claim_id not in died]
            == [row for row in map(ClaimResult.to_dict, reference)
                if row not in lost])
    assert not rep.passed


def test_interrupt_propagates_from_the_caller_only(monkeypatch):
    """Producers that raise ``KeyboardInterrupt``: ``run_all`` raises it in
    the calling process, and the worker, which ends in ``os._exit``, is
    reaped."""
    parent = os.getpid()
    forks = _counted_forks(monkeypatch)
    _two_cpus(monkeypatch)
    for cid in verify.CLAIMS:
        monkeypatch.setitem(verify.CLAIMS, cid, _interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_all(42)
    assert os.getpid() == parent and len(forks) == 1
    _no_child_left()
