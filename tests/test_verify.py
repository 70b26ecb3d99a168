"""Claim registry: coverage, seeding, pass/fail wiring, mutation detection."""

import json
import math

import pytest

from heisgeo import flows, verify
from heisgeo.surface import PivotDegenerate, report
from heisgeo.verify import ClaimResult, VerifyConfig, run_all


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
    cfg = VerifyConfig(seed=7, only="ex3.4")
    rep1 = run_all(cfg)
    rep2 = run_all(cfg)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.passed
    assert all(c.claim_id.startswith("ex3.4") for c in rep1.claims)


def test_seed_changes_sampling_but_not_verdict():
    a = run_all(VerifyConfig(seed=1, only="ex3.3"))
    b = run_all(VerifyConfig(seed=2, only="ex3.3"))
    assert a.passed and b.passed
    assert a.claims[0].residual != b.claims[0].residual


def test_report_json_schema():
    rep = run_all(VerifyConfig(seed=3, only="prop4.1"))
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


def test_mutation_is_detected():
    """A sign error in the tilt must break the paired-entry symmetry claim."""

    class Corrupted:
        def __init__(self, rep):
            self.h = rep.h
            self.alpha = -rep.alpha  # injected sign error

    def bad_report(surface_def, p):
        return Corrupted(report(surface_def, p))

    results = verify.claim_partial_symmetry(0, count=4, report_fn=bad_report)
    assert any(not r.passed for r in results)


def test_claims_without_completed_samples_fail(monkeypatch):
    """Skipped points are not evidence: a row with none completed fails."""

    def degenerate(*args, **kwargs):
        raise PivotDegenerate("forced")

    for name in ("identity_check", "leaf_constancy", "bracket_span"):
        monkeypatch.setattr(flows, name, degenerate)
    results = (verify.claim_interior_identities(0)
               + verify.claim_foliation_rank(0)
               + verify.claim_leaf_constancy(0))
    assert {r.claim_id for r in results} == {
        "prop4.2-identities", "prop4.3-foliation-rank", "prop4.4-leaf-constancy"}
    assert all(r.samples == 0 and not r.passed for r in results)


def test_samples_count_completed_points():
    results = verify.claim_xn_shape_equivalence(0)
    assert [r.samples for r in results if r.surface == "catalog"] == [150, 150]
    assert all(0 < r.samples <= 60 for r in results if r.surface == "generic-graph")


def test_yamabe_sigma_matches_golden_and_fd():
    gold = verify.golden()["yamabe_sigma"]
    for n, lam in ((2, 1.0), (3, 0.5)):
        exact = verify.yamabe_check(lam, n, count=40, seed=5)
        assert exact.residual <= 1e-8  # the quotient is a single constant
        key = f"n={n},lam={lam:g}"
        assert exact.extra["sigma"] == pytest.approx(gold[key], rel=1e-6)
        fd = verify.yamabe_check(lam, n, count=40, seed=5, mode="fd")
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
        rep = run_all(VerifyConfig(seed=0, only="boom-test"))
        assert not rep.passed
        assert "error" in rep.claims[0].extra
    finally:
        del verify.CLAIMS["boom-test"]


def test_stationary_claim():
    results = verify.claim_stationary(0, count=2000)
    assert all(r.passed for r in results)
    assert all(r.extra["min_off_stationary"] > 0 for r in results)


def test_axis_claim():
    assert all(r.passed for r in verify.claim_axis_solution(0, count=100))
