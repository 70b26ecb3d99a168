"""Negative controls: a broken planar system must make its lemma 6.1 claims
fail, a broken profile sweep its ``prop3.1-profile-ode`` row, a tilted
Pansu sphere the umbilic claims that sample it, a perturbed graph
Hessian the ``prop4.1-detU`` rows, a mistuned curvature the
``prop4.5`` confinement rows, tilted complement chords the ``prop4.4``
rows and a mistuned tilt rate the ``prop4.2`` rows.  Every ``verify`` claim
either has such a mutant or is listed as not yet caught."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heisgeo import catalog, flows, phaseplane, rk45, surface, verify
from test_tooling import _check_allowlist


def _drifted(monkeypatch, eps):
    """Patch the orbit right-hand side so that alpha' gains ``eps * alpha``.

    The term is odd in alpha, so it breaks the reversibility (alpha, s) ->
    (-alpha, -s) that closes every orbit symmetrically.  A constant drift
    (alpha' += eps) would not do: it keeps the field even in alpha, so the
    system stays reversible and its orbits stay closed and symmetric; only
    the golden row, which compares the period with its frozen value, can
    see that one.
    """
    original = phaseplane._rhs_log

    def mutant(n, c, signs):
        f = original(n, c, signs)

        def g(s, y):
            out = f(s, y)
            out[:, 0] += eps * y[:, 0]
            return out

        return g

    monkeypatch.setattr(phaseplane, "_rhs_log", mutant)


# the claims that the drift fails, alone and on their shared orbit batch
ORBIT_CLAIMS = ("lemma6.1-closure", "lemma6.1-symmetry")


@pytest.mark.parametrize("only", [*ORBIT_CLAIMS, "lemma6.1"])
def test_irreversible_drift_fails_the_orbit_claims(monkeypatch, only):
    """At seed 42 the drift is caught from eps = 1e-10 on (3e-11 passes),
    alone and on the shared batch alike.

    ``lemma6.1-closure`` lifts ``periodic_orbits``' closure certificate, so
    its per-(n, c) grid rows see the closure error themselves: at 1e-9
    every grid row fails on its own residual and no row is an error row.
    ``lemma6.1-symmetry`` keeps the certificate, which raises
    ``NotPeriodic``, so that claim reports one failed error row.  With
    both claims (``only="lemma6.1"``) the orbits run as one shared batch,
    and each claim's rows are still the rows it gives alone."""
    assert verify.run_all(42, only=only).passed
    _drifted(monkeypatch, 1e-9)
    rep = verify.run_all(42, only=only)
    assert not rep.passed
    closure = [row for row in rep.claims if row.claim_id.startswith("lemma6.1-closure")]
    symmetry = [row for row in rep.claims if row.claim_id == "lemma6.1-symmetry"]
    if "lemma6.1-closure".startswith(only):
        grid = [row for row in closure if row.claim_id == "lemma6.1-closure"]
        assert len(grid) == 6 and not any(row.passed for row in grid)
        assert not any("error" in row.extra for row in closure)
    if "lemma6.1-symmetry".startswith(only):
        assert len(symmetry) == 1
        assert symmetry[0].extra.get("error", "").startswith("NotPeriodic")
    if only == "lemma6.1":
        alone = [row.to_dict() for cid in ("lemma6.1-closure", "lemma6.1-symmetry")
                 for row in verify.run_all(42, only=cid).claims]
        assert [row.to_dict() for row in rep.claims] == alone


def test_one_profile_perturbed_fails_its_row_only(monkeypatch):
    """Scaling the right-hand side of the lam = 2 lanes of the one profile
    sweep by 1 + eps fails the lam = 2 row and leaves the other rows bitwise
    as they were: each row is cut from its own lanes.  At seed 42 the
    perturbation is caught from eps = 5.02e-9 on (5.01e-9 passes): the
    lam = 2 residual, relative to the profile's largest value, grows as
    about 2.0 eps, on a clean residual of 3.7e-11, against the tolerance
    1e-8.  The test runs eps = 6e-9 (residual 1.2e-8)."""
    cid = "prop3.1-profile-ode"
    clean = verify.run_all(42, only=cid).claims
    assert [row.params["lam"] for row in clean] == [0.5, 1.0, 2.0]
    assert all(row.passed for row in clean)
    original = rk45.solve_lanes

    def mutant(f, s0, y0, s1, control=None, crossings=None):
        assert len(y0) == 600  # the three profiles, 200 lanes each, in one sweep
        hit = (np.arange(600) >= 400)[:, None]  # the lam = 2 profile's lanes

        def g(r, y):
            out = f(r, y)
            return np.where(hit, out * (1.0 + 6e-9), out)

        return original(g, s0, y0, s1, control, crossings)

    monkeypatch.setattr(rk45, "solve_lanes", mutant)
    rows = verify.run_all(42, only=cid).claims
    assert [row.to_dict() for row in rows[:2]] == [row.to_dict() for row in clean[:2]]
    assert not rows[2].passed and rows[2].params == {"lam": 2.0}


def _tilted(monkeypatch, eps):
    """Patch ``catalog.pansu`` so that its surface's ``grad_hess`` gains the
    derivatives of ``eps * (x_1^2 - y_1^2 / 2)`` and keeps its value: the
    point stays on the sphere, but its frame and shape operator see a
    surface that is not umbilic (at lam = 1 the eigenvalue spread is
    about 12 eps at n = 2 and 14 eps at n = 3).  The perturbed Hessian
    stays symmetric."""
    factory = catalog.pansu

    def pansu(lam, n):
        entry = factory(lam, n)
        exact = entry.surface.grad_hess

        def grad_hess(coords):
            u, grad, hess = exact(coords)
            c = np.asarray(coords, dtype=float)
            grad, hess = grad.copy(), hess.copy()
            grad[..., 0] += 2.0 * eps * c[..., 0]
            grad[..., n] -= eps * c[..., n]
            hess[..., 0, 0] += 2.0 * eps
            hess[..., n, n] -= eps
            return u, grad, hess

        return replace(entry, surface=replace(entry.surface, grad_hess=grad_hess))

    monkeypatch.setattr(catalog, "pansu", pansu)


# rows that sample a Pansu sphere: its own rows, the eq7.4 family and the
# prop2.3 rows over the whole catalog
PANSU_ROWS = {"pansu", "pansu-family", "catalog"}


# the claims that the tilt fails, and the smallest tilt on the 1-2-5 grid
# that each is caught from at seed 42
UMBILIC_EPS = {
    "prop2.3-xn-equivalence": 5e-11,
    "prop2.4-umbilic-pattern": 2e-11,
    "prop3.1-rotsym-umbilic": 2e-11,
    "prop4.3-foliation-rank": 1e-7,
    "ex3.2-pansu-table": 2e-12,
    "eq7.4-pmc-level-set": 2e-11,
}

# the claims that the tilt fails at 5e-11
CAUGHT_AT_5E_11 = {cid for cid, eps in UMBILIC_EPS.items() if eps <= 5e-11}


@pytest.mark.parametrize("cid, eps", UMBILIC_EPS.items())
def test_tilted_pansu_fails_the_umbilic_claims(monkeypatch, full_run, cid, eps):
    """At seed 42 each claim is caught from the ``eps`` it runs, on the
    1-2-5 grid: the next smaller step (2e-11 for ``prop2.3``, 5e-8 for
    ``prop4.3``, 1e-12 for ``ex3.2``, 1e-11 for the rest) passes.  The tilt
    catches ``prop4.3`` at its n = 3 row, where the brackets' parts outside
    the complement gain a second direction; its n = 2 rows have a single
    bracket, whose rank cannot drop.  Rows of other surfaces keep their
    bytes.  ``prop2.1`` and ``prop2.2`` pass the tilt up to 1e-6:
    they check identities that every surface with a symmetric Hessian
    keeps (the form's partial symmetry and paired-entry tilt gap, the
    shape operator's symmetry), so they need a mutant of their own kind."""
    clean = [row for row in full_run(42).claims if row.claim_id == cid]
    _tilted(monkeypatch, eps)
    rows = verify.run_all(42, only=cid).claims
    assert len(rows) == len(clean)
    assert not all(row.passed for row in rows)
    for before, after in zip(clean, rows):
        if after.surface not in PANSU_ROWS:
            assert after.to_dict() == before.to_dict(), after.surface


def test_tilted_pansu_reaches_the_worker(monkeypatch, full_run, worker_first):
    """Around a full run on two processes, the tilt at 5e-11 fails the same
    five claims as under ``--only``: every claim's rows are the rows it
    gives alone under the tilt, and rows of other surfaces keep their
    bytes.  The caller runs none of the five before the worker has started
    one, so the worker is shown to run the patched code."""
    clean = full_run(42).claims
    _tilted(monkeypatch, 5e-11)
    alone = [row.to_dict() for cid in verify.CLAIMS
             for row in verify.run_all(42, only=cid).claims]
    worker_first(CAUGHT_AT_5E_11, lambda producer, seed: producer(seed))
    rows = verify.run_all(42).claims
    assert [row.to_dict() for row in rows] == alone
    assert {row.claim_id for row in rows if not row.passed} == CAUGHT_AT_5E_11
    assert len(CAUGHT_AT_5E_11) == 5
    assert len(rows) == len(clean)
    for before, after in zip(clean, rows):
        if after.surface not in PANSU_ROWS:
            assert after.to_dict() == before.to_dict(), after.claim_id


def test_perturbed_graph_hessian_fails_det_u(monkeypatch):
    """Adding ``eps`` to the (x_1, x_1) entry of the graph Hessians that
    ``prop4.1-detU`` reads fails both of its rows (n = 2 and 3): each row's
    relative determinant gap grows as about ``eps / 2``, against the
    tolerance 1e-12.  At seed 42 both rows fail from eps = 5e-12 on
    (2e-12 passes, with a gap of 9.999e-13)."""
    cid = "prop4.1-detU"
    assert all(row.passed for row in verify.run_all(42, only=cid).claims)
    original = surface.graph_derivatives

    def mutant(func, n):
        grad, hess = original(func, n)
        hess = hess.copy()
        hess[0, 0] += 5e-12
        return grad, hess

    monkeypatch.setattr(surface, "graph_derivatives", mutant)
    rows = verify.run_all(42, only=cid).claims
    assert [row.params["n"] for row in rows] == [2, 3]
    assert not any(row.passed for row in rows)


def test_curvature_off_by_eps_fails_geodesic_confinement(monkeypatch):
    """Scaling the curvature of every ``geodesic_flows`` trace by 1 + eps
    takes the curves off the sphere they start on: the confinement residual
    grows as about 50 eps at lam = 0.5 and 4.9 eps at lam = 1, against the
    tolerance 1e-7.  At seed 42 the lam = 0.5 row fails from eps = 5e-9 on
    (2e-9 passes, with a residual of 9.98e-8) and the lam = 1 row from
    5e-8 on (2e-8 passes, with 9.87e-8)."""
    cid = "prop4.5-geodesic-confinement"
    assert all(row.passed for row in verify.run_all(42, only=cid).claims)
    original = flows.geodesic_flows
    for eps, passed in ((5e-9, [False, True]), (5e-8, [False, False])):
        monkeypatch.setattr(flows, "geodesic_flows", lambda starts, lams, s_max, eps=eps:
                            original(starts, np.asarray(lams) * (1.0 + eps), s_max))
        rows = verify.run_all(42, only=cid).claims
        assert [row.params["lam"] for row in rows] == [0.5, 1.0]
        assert [row.passed for row in rows] == passed, eps


def test_complement_chords_tilted_toward_en_fail_leaf_constancy(monkeypatch):
    """Tilting every complement chord by ``eps`` toward the characteristic
    direction e_n makes the leaf differences see e_n's change of k, l and
    alpha, which vanishes only on the flat rows.  At seed 42 the claim is
    caught from eps = 5e-8 on, at the shifted-sphere row (residual 1.87e-6
    against the tolerance 1e-6; 2e-8 passes at 7.47e-7); every curved row
    fails from 2e-7.  The cylinder and hyperplane rows pass at any tilt."""
    cid = "prop4.4-leaf-constancy"
    assert all(row.passed for row in verify.run_all(42, only=cid).claims)
    original = flows._field_values

    def tilted(fb, kinds):
        w = original(fb, kinds)
        w[:, kinds >= 0] += 5e-8 * surface._lifts(fb.coords, fb.en)[:, None]
        return w

    monkeypatch.setattr(flows, "_field_values", tilted)
    rows = verify.run_all(42, only=cid).claims
    assert [row.passed for row in rows] == [True, True, False, True, True]
    assert rows[2].surface == "shifted-sphere"


def test_tilt_rate_off_by_eps_fails_interior_identities(monkeypatch):
    """Adding ``eps`` to every exact tilt rate along e_n moves the base
    rate phi in the three vertical-tangent identities; the offsets'
    difference of the rate cancels it.  At seed 42 the claim is caught from
    eps = 2e-6 on, at the shifted-sphere row (residual 1.09e-5 against the
    tolerance 1e-5; 1e-6 passes at 5.6e-6), and the three curved rows fail
    from 5e-6.  The cylinder row grows as eps / 2 and fails from 5e-5."""
    cid = "prop4.2-identities"
    assert all(row.passed for row in verify.run_all(42, only=cid).claims)
    original = flows._en_alpha_rates
    monkeypatch.setattr(flows, "_en_alpha_rates", lambda fb: original(fb) + 2e-6)
    rows = verify.run_all(42, only=cid).claims
    assert [row.passed for row in rows] == [True, True, False, True]
    assert rows[2].surface == "shifted-sphere"


# the claim ids that each mutant is shown to fail, by the test that shows it
MUTANTS = {
    "test_verify.py::test_mutation_is_detected": ("prop2.1-symmetry",),
    "test_irreversible_drift_fails_the_orbit_claims": ORBIT_CLAIMS,
    "test_one_profile_perturbed_fails_its_row_only": ("prop3.1-profile-ode",),
    "test_tilted_pansu_fails_the_umbilic_claims": tuple(UMBILIC_EPS),
    "test_perturbed_graph_hessian_fails_det_u": ("prop4.1-detU",),
    "test_curvature_off_by_eps_fails_geodesic_confinement": ("prop4.5-geodesic-confinement",),
    "test_complement_chords_tilted_toward_en_fail_leaf_constancy": ("prop4.4-leaf-constancy",),
    "test_tilt_rate_off_by_eps_fails_interior_identities": ("prop4.2-identities",),
}

# the claims that no mutant fails yet
NOT_YET_CAUGHT = (
    "prop2.2-shape-symmetric",
    "ex3.3-l-eq-3k",
    "ex3.4-cylinder-hyperplane",
    "eq5.4-alpha-axis",
    "eq5.5-stationary",
    "eq7.2-yamabe-sigma",
    "eq7.3-shifted-l-3k",
)


def test_every_claim_has_a_mutant_or_is_listed():
    """Every ``verify.CLAIMS`` id is failed by a mutant of ``MUTANTS`` or
    named in ``NOT_YET_CAUGHT``, checked as the tooling allowlists are: a
    claim in neither is a failure, and so is a listed id that is no longer
    a claim or that a mutant now catches."""
    here = Path(__file__).parent
    for test in MUTANTS:
        module, _, name = test.rpartition("::")
        source = (here / module).read_text() if module else Path(__file__).read_text()
        assert f"def {name}(" in source, test
    caught = {cid for cids in MUTANTS.values() for cid in cids}
    claims = set(verify.CLAIMS)
    assert caught <= claims, f"a mutant names no claim: {sorted(caught - claims)}"
    _check_allowlist({cid: cid for cid in claims - caught}, claims, NOT_YET_CAUGHT)
