"""Claim-verification runner.

Every numerically checkable statement the toolkit implements is registered
here as a claim with a pinned tolerance; :func:`run_all` executes them with
seeded sampling and aggregates a machine-readable report.  Golden derived
constants live in ``data/golden.json`` and recomputation must stay within
1e-6 relative of the frozen values.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import catalog, flows, phaseplane, surface
from ._io import json_dumps
from .core import Point
from .phaseplane import PhaseParams, PhasePoint
from .surface import SurfaceDef, build_frame, report

__all__ = [
    "ClaimResult",
    "VerifyConfig",
    "Report",
    "run_all",
    "yamabe_check",
    "pmc_level_set_check",
    "CLAIMS",
    "REQUIRED_COVERAGE",
    "golden",
]


@dataclass
class ClaimResult:
    claim_id: str
    surface: str
    params: dict
    residual: float
    tolerance: float
    samples: int
    seed: int
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_dict(self):
        out = {
            "claim_id": self.claim_id,
            "surface": self.surface,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.extra:
            out["extra"] = self.extra
        return out


@dataclass
class VerifyConfig:
    seed: int = 42
    only: Optional[str] = None


@dataclass
class Report:
    seed: int
    claims: list

    @property
    def passed(self):
        return all(c.passed for c in self.claims)

    def to_json(self):
        return json_dumps(
            {
                "seed": self.seed,
                "passed": self.passed,
                "claims": [c.to_dict() for c in self.claims],
            }
        )


def golden():
    with resources.files("heisgeo").joinpath("data/golden.json").open() as fh:
        return json.load(fh)


def _claim_seed(base_seed, claim_id):
    return (int(base_seed) ^ zlib.crc32(claim_id.encode())) & 0xFFFFFFFF


def _rng(base_seed, claim_id):
    return np.random.default_rng(_claim_seed(base_seed, claim_id))


def _sampled_claim(cid, seed, cases, residual, tolerance, row_id=None):
    """One result row per case: the worst residual over its completed points.

    ``cases`` yields ``(surface, params, [(entry, point), ...])``;
    ``residual(entry, point)`` evaluates one point.  A point whose frame or
    projection fails (``PivotDegenerate``, ``ProjectionFailure``) is skipped;
    ``samples`` counts the completed points, and a case with none fails.
    Rows carry ``row_id`` (default ``cid``) and the seed derived from ``cid``.
    """
    out = []
    for name, params, points in cases:
        worst = 0.0
        done = 0
        for entry, p in points:
            try:
                worst = max(worst, residual(entry, p))
            except (surface.PivotDegenerate, flows.ProjectionFailure):
                continue
            done += 1
        out.append(
            ClaimResult(row_id or cid, name, params,
                        worst if done else math.inf, tolerance, done,
                        _claim_seed(seed, cid))
        )
    return out


def _case(name, params, entry, rng, count):
    """A case of ``count`` points drawn from one catalog entry."""
    return name, params, [(entry, p) for p in entry.sample(rng, count)]


def _catalog_cases(rng, count, ns=(2, 3)):
    """One case per standard catalog entry and dimension."""
    return (_case(entry.name, {"n": n}, entry, rng, count)
            for n in ns for entry in catalog.standard_entries(n))


def _zabs(p):
    return math.sqrt(float(np.dot(p.x, p.x) + np.dot(p.y, p.y)))


# ---------------------------------------------------------------------------
# second-fundamental-form claims


def claim_partial_symmetry(seed, count=100, report_fn=None):
    """Partial symmetry of the form matrix and the paired-entry tilt gap."""
    cid = "prop2.1-symmetry"

    def residual(entry, p):
        rep = (report_fn or report)(entry.surface, p)
        h, a = rep.h, rep.alpha
        n = entry.params["n"]
        m = 2 * n - 1
        worst = 0.0
        for i in range(m):
            for j in range(m):
                if abs(i - j) != n:
                    worst = max(worst, abs(h[i, j] - h[j, i]))
        for b in range(n - 1):
            worst = max(worst, abs(h[b, n + b] - h[n + b, b] - 2.0 * a))
        return worst

    cases = _catalog_cases(_rng(seed, cid), count)
    return _sampled_claim(cid, seed, cases, residual, 1e-8)


def claim_shape_symmetric(seed, count=60):
    cid = "prop2.2-shape-symmetric"

    def residual(entry, p):
        rep = report(entry.surface, p)
        S = surface._shape_operator(rep.h, rep.alpha)
        return float(np.max(np.abs(S - S.T)))

    cases = _catalog_cases(_rng(seed, cid), count)
    return _sampled_claim(cid, seed, cases, residual, 1e-8)


def _generic_test_surface(n):
    """A deliberately non-umbilic graph for the nontrivial directions.

    Returns the defining function together with the graph height, so on-graph
    points can be produced without duplicating the polynomial.
    """

    def height(xh):
        g = 0.3 * xh[0] * xh[0] + 0.11 * xh[0] * xh[n + 1] + 0.07 * xh[1] ** 3
        return g + 0.19 * xh[n] * xh[n] + 0.05 * xh[1] * xh[n]

    def func(c):
        return c[2 * n] - height(c)

    return SurfaceDef(func=func, n=n, name="generic-graph"), height


def claim_xn_shape_equivalence(seed, count=60):
    """The shape operator leaks into the characteristic direction exactly as
    much as the obstruction field does, and the leak vanishes on the
    catalog."""
    cid = "prop2.3-xn-equivalence"
    rng = _rng(seed, cid)

    def xn_entries(rep):
        """Largest asymmetry and largest entry of the e_n row of ``h``."""
        nidx = rep.frame.n - 1
        keep = [a for a in range(rep.h.shape[0]) if a != nidx]
        row = rep.h[nidx, keep]
        return (float(np.max(np.abs(row - rep.h[keep, nidx]))),
                float(np.max(np.abs(row))))

    def residual(entry, p):
        rep = report(entry.surface, p)
        return max(rep.xn_residual, *xn_entries(rep))

    cases = (
        ("catalog", {"n": n},
         [(entry, p) for entry in catalog.standard_entries(n)
          for p in entry.sample(rng, 30)])
        for n in (2, 3)
    )
    out = _sampled_claim(cid, seed, cases, residual, 1e-8)
    # nontrivial direction: a surface with a genuinely nonzero obstruction
    n = 2
    gen, height = _generic_test_surface(n)
    worst_eq = 0.0
    largest = 0.0
    done = 0
    for _ in range(count):
        x = rng.normal(size=2 * n) * 0.6
        p = Point(np.concatenate([x, [height(x)]]))
        try:
            rep = report(gen, p)
        except surface.GeometryError:
            continue
        done += 1
        asym, lead = xn_entries(rep)
        worst_eq = max(worst_eq, asym)
        largest = max(largest, lead)
    res = worst_eq if largest > 1e-3 else math.inf  # need a nonzero witness
    out.append(
        ClaimResult(cid, "generic-graph", {"n": n}, res, 1e-8, done,
                    _claim_seed(seed, cid), extra={"witness": largest})
    )
    return out


def claim_umbilic_pattern(seed, count=60):
    cid = "prop2.4-umbilic-pattern"

    def residual(entry, p):
        rep = report(entry.surface, p)
        pattern = surface._umbilic_form(entry.params["n"], rep.k, rep.l, rep.alpha)
        return float(np.max(np.abs(rep.h - pattern)))

    cases = _catalog_cases(_rng(seed, cid), count)
    return _sampled_claim(cid, seed, cases, residual, 1e-8)


# ---------------------------------------------------------------------------
# rotational symmetry claims


def claim_rotsym(seed, count=60):
    cid = "prop3.1-rotsym-umbilic"
    rng = _rng(seed, cid)

    def residual(entry, p):
        rs = surface.rotsym_report(entry.profile, p)
        sm = report(entry.surface, p)
        if not rs.umbilic or not sm.umbilic:
            return math.inf
        return max(abs(rs.k - sm.k), abs(rs.l - sm.l),
                   abs(rs.alpha - sm.alpha), abs(rs.H - sm.H))

    cases = (_case(entry.name, {"n": n}, entry, rng, count)
             for n in (2, 3) for entry in catalog.standard_entries(n)
             if entry.profile is not None)
    return _sampled_claim(cid, seed, cases, residual, 1e-8)


def claim_profile_ode(seed):
    cid = "prop3.1-profile-ode"
    out = []
    for lam in (0.5, 1.0, 2.0):
        grid, vals = flows.profile_ode(lam)
        closed = np.array([_height_squared(lam, r) for r in grid])
        worst = float(np.max(np.abs(vals - closed)))
        out.append(
            ClaimResult(cid, "pansu", {"lam": lam}, worst, 1e-6, grid.size,
                        _claim_seed(seed, cid))
        )
    return out


def _height_squared(lam, r):
    """Independent closed-form squared height of the umbilic sphere."""
    z = math.sqrt(r)
    h = (lam * z * math.sqrt(1.0 - lam * lam * r) + math.acos(lam * z)) / (
        2.0 * lam * lam
    )
    return h * h


# ---------------------------------------------------------------------------
# umbilic-hypersurface property claims


def claim_det_u(seed):
    cid = "prop4.1-detU"
    out = []
    for n in (2, 3):
        worst = 0.0
        for B in (0.0, 0.5, 2.0):

            def quad(c, B=B):
                acc = 0.0
                for cc in c:
                    acc = acc + cc * cc
                return B * acc

            grad, hess = surface.graph_derivatives(quad, n)
            _, det = surface.singular_jacobian(grad, hess)
            target = (4.0 * B * B + 1.0) ** n
            worst = max(worst, abs(det - target) / target)
        out.append(
            ClaimResult(cid, "quadratic-graph", {"n": n}, worst, 1e-12, 3,
                        _claim_seed(seed, cid))
        )
    return out


def moderate_points(entry, rng, count, alpha_cap=2.0, tries=400):
    """Sample regular points with bounded tilt.

    Finite-difference residual constants grow like powers of the tilt (it
    blows up toward singular radii), so derivative checks at a fixed step are
    meaningful on the bounded-tilt part of a surface.
    """
    pts = []
    for _ in range(tries):
        if len(pts) >= count:
            break
        (p,) = entry.sample(rng, 1)
        if abs(entry.expected["alpha"](p)) <= alpha_cap:
            pts.append(p)
    if len(pts) < count:
        raise RuntimeError(f"could not find {count} bounded-tilt points")
    return pts


def identity_suite_entries(n=2):
    return [
        catalog.pansu(1.0, n),
        catalog.heisenberg_sphere(1.0, n),
        catalog.shifted_sphere(0.5, 1.2, n),
        catalog.cylinder(2.0, n),
    ]


def claim_interior_identities(seed, h_fd=1e-4, points=3):
    cid = "prop4.2-identities"
    rng = _rng(seed, cid)
    cases = (
        (entry.name, dict(entry.params),
         [(entry, p) for p in moderate_points(entry, rng, points)])
        for entry in identity_suite_entries()
    )
    return _sampled_claim(
        cid, seed, cases,
        lambda entry, p: flows.identity_check(entry.surface, p, h_fd=h_fd).max(),
        1e-5)


def claim_foliation_rank(seed, points=10):
    cid = "prop4.3-foliation-rank"
    rng = _rng(seed, cid)

    def residual(entry, p):
        rank, proj = flows.bracket_span(entry.surface, p)
        return proj if rank == 2 * entry.params["n"] - 1 else math.inf

    cases = (_case(entry.name, dict(entry.params), entry, rng, points)
             for entry in (catalog.pansu(1.0, 2), catalog.cylinder(1.0, 2),
                           catalog.pansu(1.0, 3)))
    return _sampled_claim(cid, seed, cases, residual, 1.0 - 1e-6)


def claim_leaf_constancy(seed, points=4):
    cid = "prop4.4-leaf-constancy"
    cases = _catalog_cases(_rng(seed, cid), points, ns=(2,))
    return _sampled_claim(
        cid, seed, cases,
        lambda entry, p: flows.leaf_constancy(entry.surface, p), 1e-6)


def confinement_starts(lam, n, rng, count, s_needed=3.05):
    """Sample sphere points whose forward characteristic flow keeps at least
    ``s_needed`` of arc before reaching a pole.

    The flow heads for the pole at negative heights; latitude is measured by
    the angle along the meridian arc, so admissible starts satisfy
    ``(pi - theta)/(2 lam) >= s_needed``.
    """
    theta_max = math.pi - 2.0 * lam * s_needed
    if theta_max <= -math.pi * 0.995:
        raise ValueError("no launch window of that length exists")
    lo = -math.pi * 0.995
    starts = []
    for _ in range(count):
        theta = rng.uniform(lo, theta_max)
        r = (1.0 + math.cos(theta)) / (2.0 * lam * lam)
        t = -(theta + math.sin(theta)) / (4.0 * lam * lam)
        d = np.zeros(2 * n)
        d[: 2 * n] = rng.normal(size=2 * n)
        d /= np.linalg.norm(d)
        starts.append(Point(np.concatenate([math.sqrt(r) * d, [t]])))
    return starts


def claim_geodesic_confinement(seed, count=20, s_max=3.0):
    cid = "prop4.5-geodesic-confinement"
    rng = _rng(seed, cid)

    def residual(entry, p):
        start = flows.CurveState(p, build_frame(entry.surface, p).en)
        tr = flows.geodesic_flow(start, entry.params["lam"], s_max)
        return max(abs(entry.surface.value(c)) for c in tr.coords)

    def cases():
        for lam in (0.5, 1.0):
            entry = catalog.pansu(lam, 2)
            starts = confinement_starts(lam, 2, rng, count)
            yield "pansu", {"lam": lam}, [(entry, p) for p in starts]

    return _sampled_claim(cid, seed, cases(), residual, 1e-7)


# ---------------------------------------------------------------------------
# example tables


def claim_pansu_table(seed, count=100):
    cid = "ex3.2-pansu-table"
    rng = _rng(seed, cid)

    def residual(entry, p):
        rep = report(entry.surface, p)
        if not rep.umbilic:
            return math.inf
        lam, n = entry.params["lam"], entry.params["n"]
        return max(abs(rep.k - lam), abs(rep.l - 2.0 * lam),
                   abs(rep.H - 2.0 * n * lam), rep.xn_residual)

    cases = (_case("pansu", {"n": n, "lam": lam}, catalog.pansu(lam, n), rng, count)
             for n in (2, 3) for lam in (0.5, 1.0, 2.0))
    return _sampled_claim(cid, seed, cases, residual, 1e-8)


def claim_heisenberg_table(seed, count=100):
    cid = "ex3.3-l-eq-3k"
    rng = _rng(seed, cid)

    def residual(entry, p):
        rep = report(entry.surface, p)
        rho = entry.params["rho"]
        return max(abs(rep.l - 3.0 * rep.k),
                   abs(rep.alpha - 2.0 * p.t / (rho * rho * _zabs(p))))

    cases = (_case("heisenberg-sphere", {"rho": rho},
                   catalog.heisenberg_sphere(rho, 2), rng, count)
             for rho in (1.0, 1.3))
    return _sampled_claim(cid, seed, cases, residual, 1e-8)


def claim_flat_examples(seed, count=100):
    cid = "ex3.4-cylinder-hyperplane"
    rng = _rng(seed, cid)

    def cylinder_residual(entry, p):
        rep = report(entry.surface, p)
        c = entry.params["c"]
        return max(abs(rep.k - 1.0 / c), abs(rep.l - 1.0 / c), abs(rep.alpha))

    def hyperplane_residual(entry, p):
        rep = report(entry.surface, p)
        return max(abs(rep.k), abs(rep.l), abs(rep.alpha), abs(rep.H),
                   rep.xn_residual)

    cylinders = (_case("cylinder", {"c": c}, catalog.cylinder(c, 2), rng, count)
                 for c in (1.0, 2.0))
    out = _sampled_claim(cid, seed, cylinders, cylinder_residual, 1e-10)
    hyperplane = [_case("hyperplane", {}, catalog.hyperplane(np.eye(4)[0], 2),
                        rng, count)]
    return out + _sampled_claim(cid, seed, hyperplane, hyperplane_residual, 1e-12)


# ---------------------------------------------------------------------------
# phase-plane claims


def claim_axis_solution(seed, count=200):
    """On the invariant axis the defect rate vanishes identically and the
    tilt rate is strictly negative with the closed quadratic value."""
    cid = "eq5.4-alpha-axis"
    rng = _rng(seed, cid)
    out = []
    for n in (2, 3):
        for c in (0.5, 1.0, 2.0):
            pp = PhaseParams(n, c)
            worst = 0.0
            for _ in range(count):
                a = rng.uniform(-3.0 * c, 3.0 * c)
                da, db = phaseplane.vector_field(pp, PhasePoint(a, 0.0))
                if db != 0.0 or da >= 0.0:
                    worst = math.inf
                scale = 1.0 + a * a + c * c
                worst = max(worst, abs(da + a * a + c * c / (4.0 * n * n)) / scale)
            out.append(
                ClaimResult(cid, "phase", {"n": n, "c": c}, worst, 2e-15,
                            count, _claim_seed(seed, cid))
            )
    return out


def claim_stationary(seed, count=10000):
    """The field vanishes at both stationary points and nowhere else nearby.

    At the first point vanishing is exact; the second point's defect value is
    not a binary fraction, so one unit in the last place is allowed there.
    """
    cid = "eq5.5-stationary"
    rng = _rng(seed, cid)
    out = []
    for n in (2, 3):
        for c in (0.5, 1.0, 2.0):
            pp = PhaseParams(n, c)
            p1, p2 = phaseplane.stationary_points(pp)
            f1 = phaseplane.vector_field(pp, p1)
            f2 = phaseplane.vector_field(pp, p2)
            worst = math.inf if (f1[0] != 0.0 or f1[1] != 0.0) else 0.0
            ulp_budget = 4.0 * np.finfo(float).eps * c
            worst = max(worst, abs(f2[0]) / ulp_budget, abs(f2[1]) / ulp_budget)
            alphas = rng.uniform(-3 * c, 3 * c, size=count)
            betas = rng.uniform(-3 * c, 3 * c, size=count)
            keep = (np.abs(betas) > 1e-6) & (
                np.hypot(alphas - p1.alpha, betas - p1.beta) > 1e-6
            ) & (np.hypot(alphas - p2.alpha, betas - p2.beta) > 1e-6)
            da = -alphas**2 + (betas - c) * ((2 * n - 1) * betas + c) / (4 * n * n)
            db = -2 * n * betas * alphas
            mags = np.hypot(da, db)[keep]
            smallest = float(np.min(mags)) if mags.size else math.inf
            if smallest == 0.0:
                worst = math.inf
            out.append(
                ClaimResult(cid, "phase", {"n": n, "c": c}, worst, 1.0,
                            count, _claim_seed(seed, cid),
                            extra={"min_off_stationary": smallest})
            )
    return out


def _seed_grid(pp):
    """5x5 grid of orbit seeds per half-plane, avoiding the stationary set."""
    c, n = pp.c, pp.n
    upper = [
        PhasePoint(a * c, b * c)
        for a in (-1.2, -0.6, 0.2, 0.7, 1.3)
        for b in (0.25, 0.6, 1.4, 2.2, 3.0)
    ]
    lower = [
        PhasePoint(a * c, -b * c)
        for a in (-1.2, -0.6, 0.2, 0.7, 1.3)
        for b in (0.12, 0.3, 0.55, 0.9, 1.5)
    ]
    return upper, lower


def claim_orbit_closure(seed, ns=(2, 3), cs=(0.5, 1.0, 2.0)):
    cid = "lemma6.1-closure"
    out = []
    for n in ns:
        for c in cs:
            pp = PhaseParams(n, c)
            upper, lower = _seed_grid(pp)
            worst = 0.0
            steps = 0
            drift = 0.0
            crossings_ok = True
            for q0 in upper + lower:
                tr = phaseplane.periodic_orbit(pp, q0)
                worst = max(worst, tr.closure_error / (1.0 + math.hypot(q0.alpha, q0.beta)))
                steps += tr.accepted
                drift = max(drift, tr.first_integral_drift())
                betas = np.array([q.beta for _, q in tr.samples])
                if q0.beta > 0 and not np.all(betas > 0):
                    crossings_ok = False
                if q0.beta < 0 and not np.all(betas < 0):
                    crossings_ok = False
                if q0.beta > 0:
                    lo = min(b for _, b in tr.events)
                    hi = max(b for _, b in tr.events)
                    if not (0.0 < lo < c < hi):
                        crossings_ok = False
            if not crossings_ok:
                worst = math.inf
            out.append(
                ClaimResult(cid, "phase", {"n": n, "c": c}, worst, 1e-8,
                            50, _claim_seed(seed, cid),
                            extra={"accepted_steps": steps,
                                   "first_integral_drift": drift})
            )
    # golden period: frozen after halved-step certification
    gold = golden()["orbit_period"]["n=2,c=1,alpha0=0,beta0=2"]
    tr = phaseplane.periodic_orbit(PhaseParams(2, 1.0), PhasePoint(0.0, 2.0))
    drift = abs(tr.period - gold) / gold
    out.append(
        ClaimResult(cid + "-golden", "phase", {"n": 2, "c": 1.0}, drift,
                    1e-6, 1, _claim_seed(seed, cid),
                    extra={"period": tr.period, "golden": gold})
    )
    return out


def claim_orbit_symmetry(seed, count=6):
    cid = "lemma6.1-symmetry"
    rng = _rng(seed, cid)
    out = []
    for n, c in ((2, 1.0), (3, 0.5)):
        pp = PhaseParams(n, c)
        worst = 0.0
        for _ in range(count):
            a = rng.uniform(0.2, 1.2) * c
            b = rng.uniform(1.2, 2.5) * c
            t1 = phaseplane.periodic_orbit(pp, PhasePoint(a, b))
            t2 = phaseplane.periodic_orbit(pp, PhasePoint(-a, b))
            worst = max(worst, abs(t1.period - t2.period) / t1.period)
        out.append(
            ClaimResult(cid, "phase", {"n": n, "c": c}, worst, 1e-9, count,
                        _claim_seed(seed, cid))
        )
    return out


# ---------------------------------------------------------------------------
# extremal level-set claims


def _extremal(lam, n, mode="exact"):
    def func(c):
        r = catalog._radius2(c, n)
        t = c[2 * n]
        g = 4.0 * t * t + (r + lam) * (r + lam)
        return g ** (-0.5 * n)

    return SurfaceDef(func=func, n=n, name="sobolev-extremal",
                      params={"lam": lam}, derivatives=mode)


def yamabe_check(lam, n, count=200, seed=0, mode="exact"):
    """Constancy of the conformal-factor quotient for the known extremal.

    Returns the claim result; the measured constant rides along in
    ``extra["sigma"]``.
    """
    cid = "eq7.2-yamabe-sigma"
    rng = _rng(seed, f"{cid}:{n}:{lam}")
    sfd = _extremal(lam, n, mode)
    sigmas = []
    for _ in range(count):
        coords = rng.normal(size=2 * n + 1)
        u = sfd.value(coords)
        lap = surface.sublaplacian(sfd, coords)
        sigmas.append(lap / u ** (1.0 + 2.0 / n))
    sigmas = np.array(sigmas)
    mean = float(np.mean(sigmas))
    rel_std = float(np.std(sigmas) / abs(mean))
    return ClaimResult(
        cid, "sobolev-extremal", {"n": n, "lam": lam}, rel_std, 1e-8, count,
        _claim_seed(seed, cid), extra={"sigma": mean}
    )


def claim_yamabe(seed):
    out = []
    gold = golden()["yamabe_sigma"]
    for n in (2, 3):
        for lam in (0.5, 1.0):
            res = yamabe_check(lam, n, seed=seed)
            key = f"n={n},lam={lam:g}"
            drift = abs(res.extra["sigma"] - gold[key]) / abs(gold[key])
            res.extra["golden_drift"] = drift
            if drift > 1e-6:
                res.residual = math.inf
            out.append(res)
    # homogeneity exponent across the scale family
    sig = {lam: yamabe_check(lam, 2, count=50, seed=seed).extra["sigma"]
           for lam in (0.5, 1.0, 2.0)}
    e1 = math.log(sig[0.5] / sig[1.0]) / math.log(0.5)
    e2 = math.log(sig[2.0] / sig[1.0]) / math.log(2.0)
    out.append(
        ClaimResult("eq7.2-yamabe-scaling", "sobolev-extremal", {"n": 2},
                    abs(e1 - e2), 1e-6, 3, _claim_seed(seed, "scaling"),
                    extra={"exponent": 0.5 * (e1 + e2)})
    )
    return out


def claim_shifted_spheres(seed, count=100):
    """The shifted family satisfies l <= 3k strictly, with the algebraic gap
    formula 3k - l = 2*lam/(rho0^2 |z|), and equality exactly at zero shift."""
    cid = "eq7.3-shifted-l-3k"
    rng = _rng(seed, cid)
    floors = {}

    def cases():
        for lam, rho0 in ((0.5, 1.2), (1.0, 1.5)):
            entry = catalog.shifted_sphere(lam, rho0, 2)
            pts = entry.sample(rng, count)
            floors[lam] = lam / (rho0**2 * max(_zabs(p) for p in pts))
            yield ("shifted-sphere", {"lam": lam, "rho0": rho0},
                   [(entry, p) for p in pts])

    def residual(entry, p):
        lam, rho0 = entry.params["lam"], entry.params["rho0"]
        rep = report(entry.surface, p)
        gap = 3.0 * rep.k - rep.l
        if gap < floors[lam]:
            return math.inf
        return abs(gap - 2.0 * lam / (rho0**2 * _zabs(p)))

    out = _sampled_claim(cid, seed, cases(), residual, 1e-8)
    for row in out:
        row.extra = {"floor": floors[row.params["lam"]]}

    def equality_residual(entry, p):
        rep = report(entry.surface, p)
        return abs(3.0 * rep.k - rep.l)

    # equality at zero shift
    equality = [_case("shifted-sphere", {"lam": 0.0},
                      catalog.shifted_sphere(0.0, 1.0, 2), rng, count)]
    return out + _sampled_claim(cid, seed, equality, equality_residual, 1e-10,
                                row_id=cid + "-equality")


def pmc_level_set_check(lams, sigma, n, count=20, seed=0):
    """Mean curvature against the level-set power law on the sphere family."""
    cid = "eq7.4-pmc-level-set"
    rng = _rng(seed, cid)
    u_values = [(2.0 * n * lam / sigma) ** (2 * n + 1) for lam in lams]
    targets = {lam: sigma * u_val ** (1.0 / (2 * n + 1))
               for lam, u_val in zip(lams, u_values)}
    entries = [catalog.pansu(lam, n) for lam in lams]
    cases = [("pansu-family", {"n": n, "sigma": sigma, "lams": list(lams)},
              [(entry, p) for entry in entries for p in entry.sample(rng, count)])]

    def residual(entry, p):
        target = targets[entry.params["lam"]]
        return abs(report(entry.surface, p).H - target) / target

    (res,) = _sampled_claim(cid, seed, cases, residual, 1e-8)
    if any(b <= a for a, b in zip(u_values, u_values[1:])):
        res.residual = math.inf  # the level values must grow with the parameter
    return res


def claim_pmc_level_set(seed):
    return [
        pmc_level_set_check((0.5, 1.0, 2.0), 1.0, 2, seed=seed),
        pmc_level_set_check((0.5, 1.0), 1.0, 3, count=10, seed=seed),
    ]


# ---------------------------------------------------------------------------
# registry


CLAIMS: dict[str, Callable] = {
    "prop2.1-symmetry": claim_partial_symmetry,
    "prop2.2-shape-symmetric": claim_shape_symmetric,
    "prop2.3-xn-equivalence": claim_xn_shape_equivalence,
    "prop2.4-umbilic-pattern": claim_umbilic_pattern,
    "prop3.1-rotsym-umbilic": claim_rotsym,
    "prop3.1-profile-ode": claim_profile_ode,
    "prop4.1-detU": claim_det_u,
    "prop4.2-identities": claim_interior_identities,
    "prop4.3-foliation-rank": claim_foliation_rank,
    "prop4.4-leaf-constancy": claim_leaf_constancy,
    "prop4.5-geodesic-confinement": claim_geodesic_confinement,
    "ex3.2-pansu-table": claim_pansu_table,
    "ex3.3-l-eq-3k": claim_heisenberg_table,
    "ex3.4-cylinder-hyperplane": claim_flat_examples,
    "eq5.4-alpha-axis": claim_axis_solution,
    "eq5.5-stationary": claim_stationary,
    "lemma6.1-closure": claim_orbit_closure,
    "lemma6.1-symmetry": claim_orbit_symmetry,
    "eq7.2-yamabe-sigma": claim_yamabe,
    "eq7.3-shifted-l-3k": claim_shifted_spheres,
    "eq7.4-pmc-level-set": claim_pmc_level_set,
}

REQUIRED_COVERAGE = sorted(CLAIMS.keys())


def run_all(config: VerifyConfig = None) -> Report:
    """Execute the registry (optionally filtered by id prefix)."""
    config = config or VerifyConfig()
    results = []
    for cid, producer in CLAIMS.items():
        if config.only and not cid.startswith(config.only):
            continue
        try:
            results.extend(producer(config.seed))
        except Exception as exc:  # a crashed claim is a failed claim
            results.append(
                ClaimResult(cid, "<error>", {}, math.inf, 0.0, 0,
                            _claim_seed(config.seed, cid),
                            extra={"error": f"{type(exc).__name__}: {exc}"})
            )
    return Report(seed=config.seed, claims=results)
