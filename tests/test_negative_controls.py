"""Negative controls: a broken planar system must make its lemma 6.1 claims fail."""

import pytest

from heisgeo import phaseplane, verify


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


@pytest.mark.parametrize("cid", ["lemma6.1-closure", "lemma6.1-symmetry"])
def test_irreversible_drift_fails_the_orbit_claims(monkeypatch, cid):
    """At seed 42 the drift is caught from eps = 1e-10 on (1e-11 passes).

    ``lemma6.1-closure`` lifts ``periodic_orbits``' closure certificate, so
    its per-(n, c) grid rows see the closure error themselves: at 1e-9
    every grid row fails on its own residual and no row is an error row.
    ``lemma6.1-symmetry`` keeps the certificate, which raises
    ``NotPeriodic``, so that claim reports one failed error row."""
    assert verify.run_all(verify.VerifyConfig(seed=42, only=cid)).passed
    _drifted(monkeypatch, 1e-9)
    rep = verify.run_all(verify.VerifyConfig(seed=42, only=cid))
    assert not rep.passed
    if cid == "lemma6.1-closure":
        grid = [row for row in rep.claims if row.claim_id == cid]
        assert len(grid) == 6 and not any(row.passed for row in grid)
        assert not any("error" in row.extra for row in rep.claims)
    else:
        assert any(row.extra.get("error", "").startswith("NotPeriodic") for row in rep.claims)
