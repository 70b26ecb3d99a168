"""Claim-verification runner.

Every numerically checkable statement the toolkit implements is registered
here as a claim with a pinned tolerance; :func:`run_all` executes them with
seeded sampling and aggregates a machine-readable report.  Golden derived
constants live in ``data/golden.json`` and recomputation must stay within
1e-6 relative of the frozen values.  Every sampled claim runs its points
as batches under the resample rule of :func:`flows.resampled`.  The
claims run from one task queue on up to two processes (``_run_tasks``).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
import zlib
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from . import catalog, flows, phaseplane, surface
from ._io import json_dumps
from ._stats import worst as _worst
from .core import HorizontalVector, Point
from .phaseplane import PhaseParams, PhasePoint
from .surface import SurfaceDef

__all__ = [
    "ClaimResult",
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
class Report:
    seed: int
    claims: list
    # claim id -> wall seconds in the process that ran it; not in to_json
    timings: dict = field(default_factory=dict)

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


# a row fails when fewer than this share of its attempted samples completed
MIN_COMPLETED_SHARE = 0.5

# the dimensions n that the claims stated for every n >= 2 run at
NS = (2, 3)


def _row(cid, seed, name, params, residuals, tolerance, row_id=None, extra=None,
         skipped=None):
    """A result row: the worst of ``residuals`` over its completed points.

    ``samples`` counts the residuals.  A row fails when fewer than
    ``MIN_COMPLETED_SHARE`` of its attempted samples (completed plus
    ``skipped``) completed, and so when none did, or when a residual is NaN
    (reported as non-finite).  Rows carry ``row_id`` (default ``cid``), the
    seed derived from ``cid``, and ``extra["skipped"]`` when ``skipped``
    counts any skipped sample.
    """
    extra = dict(extra or {})
    attempted = len(residuals)
    if skipped:
        extra["skipped"] = dict(sorted(skipped.items()))
        attempted += sum(skipped.values())
    enough = residuals and len(residuals) >= MIN_COMPLETED_SHARE * attempted
    return ClaimResult(row_id or cid, name, params,
                       _worst(residuals) if enough else math.inf, tolerance,
                       len(residuals), _claim_seed(seed, cid), extra=extra)


def _sampled_claim(cid, seed, cases, residuals, tolerance, row_id=None):
    """One result row per case: the worst residual over its completed points.

    ``cases`` yields ``(surface, params, [(entry, points), ...])``, and
    ``residuals(entry, points)`` gives one residual per point of a sequence
    of points of one entry.  Each group's points are one batch under
    ``flows.resampled``: if it raises, its points rerun as batches of one, a
    point whose frame or projection fails alone is skipped, and any other
    failure raises; see ``_row``.
    """
    rows = []
    for name, params, groups in cases:
        values, skipped = [], Counter()
        for entry, points in groups:
            done, more = flows.resampled(lambda pts: _floats(residuals(entry, pts)), points)
            values += done
            skipped += more
        rows.append(_row(cid, seed, name, params, values, tolerance, row_id,
                         skipped=skipped))
    return rows


def _report_claim(cid, seed, cases, residual, tolerance, row_id=None):
    """``_sampled_claim`` with ``residual(entry, batch)`` over the
    ``surface.report_many`` batch of each group of points.  Reports force no
    pivots, so no point is skipped: a failing report raises."""
    return _sampled_claim(
        cid, seed, cases,
        lambda entry, points: residual(entry, surface.report_many(entry.surface, points)),
        tolerance, row_id)


def _floats(values):
    """Residuals as a list of Python floats."""
    return np.asarray(values, dtype=float).tolist()


def _zabs(coords):
    """Horizontal radii |z| of stacked points (``catalog._zabs`` row by row)."""
    n = coords.shape[1] // 2
    x, y = coords[:, :n], coords[:, n : 2 * n]
    return np.sqrt(surface._dots(x, x) + surface._dots(y, y))


def _case(name, params, entry, rng, count):
    """A case of ``count`` points drawn from one catalog entry."""
    return name, params, [(entry, entry.sample(rng, count))]


def _catalog_cases(rng, count, ns=None):
    """One case per standard catalog entry and dimension in ``ns`` (default
    ``NS``)."""
    return (_case(entry.name, {"n": n}, entry, rng, count)
            for n in ns or NS for entry in catalog.standard_entries(n))


# ---------------------------------------------------------------------------
# second-fundamental-form claims


def claim_partial_symmetry(seed):
    """Partial symmetry of the form matrix and the paired-entry tilt gap."""
    cid = "prop2.1-symmetry"

    def residual(entry, batch):
        h, a = batch.h, batch.alpha
        n = entry.params["n"]
        i, j = np.indices(h.shape[1:])
        asym = np.abs(h - h.transpose(0, 2, 1))[:, np.abs(i - j) != n].max(axis=1)
        b = np.arange(n - 1)
        paired = np.abs(h[:, b, n + b] - h[:, n + b, b] - 2.0 * a[:, None]).max(axis=1)
        return np.maximum(asym, paired)

    cases = _catalog_cases(_rng(seed, cid), 100)
    return _report_claim(cid, seed, cases, residual, 1e-8)


def claim_shape_symmetric(seed):
    cid = "prop2.2-shape-symmetric"

    def residual(entry, batch):
        S = surface._shape_operator(batch.h, batch.alpha)
        return np.abs(S - S.transpose(0, 2, 1)).max(axis=(1, 2))

    cases = _catalog_cases(_rng(seed, cid), 60)
    return _report_claim(cid, seed, cases, residual, 1e-8)


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


def claim_xn_shape_equivalence(seed):
    """The shape operator leaks into the characteristic direction exactly as
    much as the obstruction field does, and the leak vanishes on the
    catalog.  The last row's generic graph has a nonzero e_n row, whose
    largest entry (``extra.witness``) must be nonzero."""
    cid = "prop2.3-xn-equivalence"
    rng = _rng(seed, cid)
    gen, height = _generic_test_surface(2)

    def sample(rng, count):
        return [Point(np.append(x, height(x))) for x in rng.normal(size=(count, 4)) * 0.6]

    generic = catalog.CatalogEntry("generic-graph", gen, {"n": 2}, {}, sample)
    leads = []

    def residual(entry, batch):
        """The e_n row's asymmetry, and on the catalog also its entries."""
        n = entry.params["n"]
        keep = surface._complement_rows(n)
        row = batch.h[:, n - 1, keep]
        asym = np.abs(row - batch.h[:, keep, n - 1]).max(axis=1)
        lead = np.abs(row).max(axis=1)
        if entry is generic:
            leads.append(lead)
            return asym
        return np.maximum(batch.xn_residual, np.maximum(asym, lead))

    cases = [("catalog", {"n": n}, [(entry, entry.sample(rng, 30))
                                    for entry in catalog.standard_entries(n)])
             for n in NS]
    cases.append(_case("generic-graph", {"n": 2}, generic, rng, 60))
    *out, row = _report_claim(cid, seed, cases, residual, 1e-8)
    largest = float(np.concatenate([np.zeros(0), *leads]).max(initial=0.0))
    row.extra = {"witness": largest, **row.extra}
    if not largest > 1e-3:  # need a nonzero witness
        row.residual = math.inf
    return out + [row]


def claim_umbilic_pattern(seed):
    cid = "prop2.4-umbilic-pattern"

    def residual(entry, batch):
        pattern = surface._umbilic_form(entry.params["n"], batch.k, batch.l, batch.alpha)
        return np.abs(batch.h - pattern).max(axis=(1, 2))

    cases = _catalog_cases(_rng(seed, cid), 60)
    return _report_claim(cid, seed, cases, residual, 1e-8)


# ---------------------------------------------------------------------------
# rotational symmetry claims


def claim_rotsym(seed):
    cid = "prop3.1-rotsym-umbilic"
    rng = _rng(seed, cid)

    def residual(entry, batch):
        rs = surface.rotsym_many(entry.profile, batch.frame.coords)
        gap = np.maximum.reduce([np.abs(rs.k - batch.k), np.abs(rs.l - batch.l),
                                 np.abs(rs.alpha - batch.alpha), np.abs(rs.H - batch.H)])
        return np.where(rs.umbilic & batch.umbilic, gap, math.inf)

    cases = (_case(entry.name, {"n": n}, entry, rng, 60)
             for n in NS for entry in catalog.standard_entries(n)
             if entry.profile is not None)
    return _report_claim(cid, seed, cases, residual, 1e-8)


def claim_profile_ode(seed):
    """The profile equation integrates to the closed-form squared height; the
    profiles of all three curvatures run as one ``flows.profile_ode`` sweep.
    A row's residuals are relative to the largest closed-form value on its
    grid, since the profile's size scales as ``lam**-4``."""
    cid = "prop3.1-profile-ode"
    out = []
    lams = (0.5, 1.0, 2.0)
    for lam, (grid, vals) in zip(lams, flows.profile_ode(lams)):
        closed = np.array([_height_squared(lam, r) for r in grid])
        out.append(_row(cid, seed, "pansu", {"lam": lam},
                        _floats(np.abs(vals - closed) / closed.max()), 1e-8))
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
    for n in NS:
        gaps = []
        for B in (0.0, 0.5, 2.0):

            def quad(c, B=B):
                acc = 0.0
                for cc in c:
                    acc = acc + cc * cc
                return B * acc

            grad, hess = surface.graph_derivatives(quad, n)
            _, det = surface.singular_jacobian(grad, hess)
            target = (4.0 * B * B + 1.0) ** n
            gaps.append(abs(det - target) / target)
        out.append(_row(cid, seed, "quadratic-graph", {"n": n}, gaps, 1e-12))
    return out


def moderate_points(entry, rng, count):
    """Sample regular points with tilt at most 2, in at most 400 draws.

    Finite-difference residual constants grow like powers of the tilt (it
    blows up toward singular radii), so derivative checks at a fixed step are
    meaningful on the bounded-tilt part of a surface.
    """
    pts = []
    for _ in range(400):
        if len(pts) >= count:
            break
        (p,) = entry.sample(rng, 1)
        if abs(entry.expected["alpha"](p)) <= 2.0:
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


def claim_interior_identities(seed):
    cid = "prop4.2-identities"
    rng = _rng(seed, cid)
    cases = (
        (entry.name, dict(entry.params), [(entry, moderate_points(entry, rng, 3))])
        for entry in identity_suite_entries()
    )
    return _sampled_claim(
        cid, seed, cases,
        lambda entry, pts: [r.max() for r in
                            flows.identity_check_many(entry.surface, pts)],
        1e-5)


def _bracket_spans(h):
    """``(rank, en_projection)`` stacks of the span of the invariant
    complement D and its brackets at points with form matrices ``h``.

    D is orthogonal to e_n, e_2n and T, so the rank is dim D plus the rank
    of the brackets' parts outside D (``surface._transverse_brackets``),
    which one stacked SVD gives under a cut at 1e-8 of the largest singular
    value; ``en_projection`` is the length of the characteristic direction's
    projection onto the span.  The foliation statement needs rank 2n-1 with
    that projection bounded away from one.
    """
    _, sv, vt = np.linalg.svd(surface._transverse_brackets(h), full_matrices=False)
    kept = sv > 1e-8 * sv[..., :1]
    rank = h.shape[-1] - 1 + kept.sum(axis=-1)  # dim D = 2n - 2
    return rank, np.sqrt(((vt[..., 0] * kept) ** 2).sum(axis=-1))


def claim_foliation_rank(seed):
    cid = "prop4.3-foliation-rank"
    rng = _rng(seed, cid)

    def residual(entry, batch):
        rank, proj = _bracket_spans(batch.h)
        return np.where(rank == 2 * entry.params["n"] - 1, proj, math.inf)

    def entries():
        for n in NS:
            yield catalog.pansu(1.0, n)
            if n == NS[0]:  # one flat control, the cylinder, at the smallest n
                yield catalog.cylinder(1.0, n)

    cases = (_case(entry.name, dict(entry.params), entry, rng, 10) for entry in entries())
    return _report_claim(cid, seed, cases, residual, 1.0 - 1e-6)


def claim_leaf_constancy(seed):
    cid = "prop4.4-leaf-constancy"
    cases = _catalog_cases(_rng(seed, cid), 4, ns=(2,))
    return _sampled_claim(
        cid, seed, cases, lambda entry, pts: flows.leaf_constancy_many(entry.surface, pts), 1e-6)


def confinement_starts(lam, n, rng, count):
    """Sample sphere points whose forward characteristic flow keeps at least
    3.05 of arc before reaching a pole.

    The flow heads for the pole at negative heights; latitude is measured by
    the angle along the meridian arc, so admissible starts satisfy
    ``(pi - theta)/(2 lam) >= 3.05``.
    """
    theta_max = math.pi - 2.0 * lam * 3.05
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


def claim_geodesic_confinement(seed):
    """Characteristic flows of matching curvature stay on the Pansu sphere.

    The starts of each curvature take their characteristic directions from
    one ``frame_many`` batch, whose frames force no pivots and project
    nothing, so no start is resampled: a failing frame fails the claim.  The
    flows of both curvatures run for an arc of 3 as lanes of one
    ``geodesic_flows`` sweep.  A trace's residual is the largest
    defining-function value over its nodes.
    """
    cid = "prop4.5-geodesic-confinement"
    rng = _rng(seed, cid)
    cases = []
    for lam in (0.5, 1.0):
        entry = catalog.pansu(lam, 2)
        points = confinement_starts(lam, 2, rng, 20)
        en = surface.frame_many(entry.surface, points).en
        cases.append((lam, entry, [flows.CurveState(p, HorizontalVector(v))
                                   for p, v in zip(points, en)]))
    traces = iter(flows.geodesic_flows([st for _, _, starts in cases for st in starts],
                                       [lam for lam, _, starts in cases for _ in starts],
                                       3.0))
    out = []
    for lam, entry, starts in cases:
        mine = [next(traces) for _ in starts]
        residuals = [_worst(np.abs(_profile_values(entry, tr.coords)).tolist()) for tr in mine]
        out.append(_row(cid, seed, "pansu", {"lam": lam}, residuals, 1e-7,
                        extra={"accepted_steps": sum(tr.accepted for tr in mine)}))
    return out


def _profile_values(entry, coords):
    """Defining-function values ``f(|z|^2) - t^2`` of a rotationally
    symmetric catalog entry over an (N, 2n+1) stack of coordinates, each
    bitwise ``entry.surface.value`` of its row: the same left-to-right
    radius sum, and the profile ``f`` row by row."""
    n = entry.params["n"]
    r = catalog._radius2(coords.T, n)
    t = coords[:, 2 * n]
    return np.array([entry.profile.f(x) for x in r.tolist()]) - t * t


# ---------------------------------------------------------------------------
# example tables


def claim_pansu_table(seed):
    cid = "ex3.2-pansu-table"
    rng = _rng(seed, cid)

    def residual(entry, batch):
        lam, n = entry.params["lam"], entry.params["n"]
        gap = np.maximum.reduce([np.abs(batch.k - lam), np.abs(batch.l - 2.0 * lam),
                                 np.abs(batch.H - 2.0 * n * lam), batch.xn_residual])
        return np.where(batch.umbilic, gap, math.inf)

    cases = (_case("pansu", {"n": n, "lam": lam}, catalog.pansu(lam, n), rng, 100)
             for n in NS for lam in (0.5, 1.0, 2.0))
    return _report_claim(cid, seed, cases, residual, 1e-8)


def claim_heisenberg_table(seed):
    cid = "ex3.3-l-eq-3k"
    rng = _rng(seed, cid)

    def residual(entry, batch):
        rho = entry.params["rho"]
        coords = batch.frame.coords
        return np.maximum(np.abs(batch.l - 3.0 * batch.k),
                          np.abs(batch.alpha - 2.0 * coords[:, -1] / (rho * rho * _zabs(coords))))

    cases = (_case("heisenberg-sphere", {"rho": rho},
                   catalog.heisenberg_sphere(rho, 2), rng, 100)
             for rho in (1.0, 1.3))
    return _report_claim(cid, seed, cases, residual, 1e-8)


def claim_flat_examples(seed):
    cid = "ex3.4-cylinder-hyperplane"
    rng = _rng(seed, cid)

    def cylinder_residual(entry, batch):
        c = entry.params["c"]
        return np.maximum.reduce([np.abs(batch.k - 1.0 / c), np.abs(batch.l - 1.0 / c),
                                  np.abs(batch.alpha)])

    def hyperplane_residual(entry, batch):
        return np.maximum.reduce([np.abs(batch.k), np.abs(batch.l), np.abs(batch.alpha),
                                  np.abs(batch.H), batch.xn_residual])

    cylinders = (_case("cylinder", {"c": c}, catalog.cylinder(c, 2), rng, 100)
                 for c in (1.0, 2.0))
    out = _report_claim(cid, seed, cylinders, cylinder_residual, 1e-10)
    hyperplane = [_case("hyperplane", {}, catalog.hyperplane(np.eye(4)[0], 2),
                        rng, 100)]
    return out + _report_claim(cid, seed, hyperplane, hyperplane_residual, 1e-12)


# ---------------------------------------------------------------------------
# phase-plane claims


def claim_axis_solution(seed):
    """On the invariant axis the defect rate vanishes identically and the
    tilt rate is strictly negative with the closed quadratic value."""
    cid = "eq5.4-alpha-axis"
    rng = _rng(seed, cid)
    out = []
    for n in NS:
        for c in (0.5, 1.0, 2.0):
            a = rng.uniform(-3.0 * c, 3.0 * c, size=200)
            da, db = phaseplane.vector_field(PhaseParams(n, c), PhasePoint(a, 0.0))
            gaps = np.abs(da + a * a + c * c / (4.0 * n * n)) / (1.0 + a * a + c * c)
            gaps = np.where((db != 0.0) | (da >= 0.0), math.inf, gaps)
            out.append(_row(cid, seed, "phase", {"n": n, "c": c}, _floats(gaps), 2e-15))
    return out


def claim_stationary(seed):
    """The field vanishes at both stationary points and nowhere else nearby.

    At the first point vanishing is exact; the second point's defect value is
    not a binary fraction, so one unit in the last place is allowed there.
    """
    cid = "eq5.5-stationary"
    rng = _rng(seed, cid)
    count = 10000
    out = []
    for n in NS:
        for c in (0.5, 1.0, 2.0):
            pp = PhaseParams(n, c)
            p1, p2 = phaseplane.stationary_points(pp)
            f1 = phaseplane.vector_field(pp, p1)
            f2 = phaseplane.vector_field(pp, p2)
            worst = math.inf if (f1[0] != 0.0 or f1[1] != 0.0) else 0.0
            ulp_budget = 4.0 * np.finfo(float).eps * c
            worst = _worst([worst, abs(f2[0]) / ulp_budget, abs(f2[1]) / ulp_budget])
            alphas = rng.uniform(-3 * c, 3 * c, size=count)
            betas = rng.uniform(-3 * c, 3 * c, size=count)
            keep = (np.abs(betas) > 1e-6) & (
                np.hypot(alphas - p1.alpha, betas - p1.beta) > 1e-6
            ) & (np.hypot(alphas - p2.alpha, betas - p2.beta) > 1e-6)
            da, db = phaseplane.vector_field(pp, PhasePoint(alphas, betas))
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


def _closure_row(cid, seed, pp, seeds, traces):
    """The ``lemma6.1-closure`` row of one ``(n, c)`` grid, from the traces
    of its seeds."""
    errors, drifts = [], []
    steps = 0
    crossings_ok = True
    for q0, tr in zip(seeds, traces, strict=True):
        errors.append(tr.closure_error / (1.0 + math.hypot(q0.alpha, q0.beta)))
        steps += tr.accepted
        drifts.append(tr.first_integral_drift())
        # beta = sign * exp(w) keeps the seed's sign by construction, so the
        # half-plane test guards only against a NaN or an exp(w) underflow
        if not np.all(np.sign(tr.beta) == np.sign(q0.beta)):
            crossings_ok = False
        if q0.beta > 0:
            lo = min(b for _, b in tr.events)
            hi = max(b for _, b in tr.events)
            if not (0.0 < lo < pp.c < hi):
                crossings_ok = False
    worst = _worst(errors) if crossings_ok else math.inf
    return ClaimResult(cid, "phase", {"n": pp.n, "c": pp.c}, worst, 1e-8,
                       len(seeds), _claim_seed(seed, cid),
                       extra={"accepted_steps": steps,
                              "first_integral_drift": _worst(drifts)})


def _closure_cases():
    """``lemma6.1-closure``'s ``(params, seeds)`` cases: each ``(n, c)`` grid
    in row order, and the golden orbit last."""
    grids = [(pp, sum(_seed_grid(pp), [])) for pp in
             (PhaseParams(n, c) for n in NS for c in (0.5, 1.0, 2.0))]
    return grids + [(PhaseParams(2, 1.0), [PhasePoint(0.0, 2.0)])]


def _symmetry_cases(seed):
    """``lemma6.1-symmetry``'s ``(params, seeds)`` cases: six seeds ``(a, b)``
    of each ``(n, c)``, then their mirrors ``(-a, b)``."""
    rng = _rng(seed, "lemma6.1-symmetry")
    cases = []
    for n, c in ((2, 1.0), (3, 0.5)):
        # (alpha, beta) drawn in that order
        pairs = [(rng.uniform(0.2, 1.2) * c, rng.uniform(1.2, 2.5) * c) for _ in range(6)]
        seeds = [PhasePoint(a, b) for a, b in pairs] + [PhasePoint(-a, b) for a, b in pairs]
        cases.append((PhaseParams(n, c), seeds))
    return cases


def _flat(cases):
    """The params and the seeds of ``(params, seeds)`` cases, one entry per
    seed, in order."""
    return ([pp for pp, seeds in cases for _ in seeds],
            [q0 for _, seeds in cases for q0 in seeds])


class _OrbitPool:
    """The lemma 6.1 orbits of one ``run_all`` call at ``seed`` as one batch.

    On the first request the ``(params, seeds)`` cases of both claims run as
    one ``periodic_orbits`` batch without the closure certificate
    (``orbit_tol=inf``), and each claim gets the traces of its own seeds,
    cut by position.  A lane's trace is bitwise the same in any batch, so
    these are the traces of the claim's own batch.  Any request after the
    batch raised gets ``None``: the claim then runs its own batch, so its
    rows are the rows it gives alone.
    """

    def __init__(self, seed):
        self.cases = {"lemma6.1-closure": _closure_cases(),
                      "lemma6.1-symmetry": _symmetry_cases(seed)}
        self.traces = None  # claim id -> traces, once the batch has run

    def take(self, cid):
        if self.traces is None:
            self.traces = {}
            try:
                batch = phaseplane.periodic_orbits(*_flat(sum(self.cases.values(), [])),
                                                   orbit_tol=math.inf)
            except Exception:  # a batch that raises reruns smaller: claim by claim
                return None
            for key, mine in self.cases.items():
                size = sum(len(seeds) for _, seeds in mine)
                self.traces[key], batch = batch[:size], batch[size:]
        return self.traces.get(cid)


# the claims whose orbits one ``_OrbitPool`` batch holds
_POOLED = ("lemma6.1-closure", "lemma6.1-symmetry")

# the shared orbit batch of the running ``run_all`` call, if it runs both
# lemma 6.1 claims
_orbit_pool: ContextVar[Optional[_OrbitPool]] = ContextVar("orbit_pool", default=None)


def claim_orbit_closure(seed):
    """Every grid seed closes, stays in its half-plane and turns on both
    sides of the stationary defect; the reference period matches its golden
    value.

    The whole grid runs as one ``periodic_orbits`` batch without the closure
    certificate, every ``(n, c)`` grid in row order with the golden orbit
    last, and each row takes its traces from the batch by position.  A lane
    sweep runs as many sweeps as its slowest lane needs, so one batch costs
    about as much as its slowest grid.  Inside ``run_all`` with
    ``lemma6.1-symmetry`` the batch also carries that claim's seeds
    (``_OrbitPool``), and its time counts under this claim.
    """
    cid = "lemma6.1-closure"
    cases = _closure_cases()
    pool = _orbit_pool.get()
    traces = pool and pool.take(cid)
    if traces is None:
        traces = phaseplane.periodic_orbits(*_flat(cases), orbit_tol=math.inf)
    period = traces[-1].period
    out, k = [], 0
    for pp, grid in cases[:-1]:
        out.append(_closure_row(cid, seed, pp, grid, traces[k:k + len(grid)]))
        k += len(grid)
    # golden period: frozen after halved-step certification
    frozen = golden()["orbit_period"]["n=2,c=1,alpha0=0,beta0=2"]
    out.append(_row(cid, seed, "phase", {"n": 2, "c": 1.0}, [abs(period - frozen) / frozen],
                    1e-6, row_id=cid + "-golden", extra={"period": period, "golden": frozen}))
    return out


def claim_orbit_symmetry(seed):
    """Mirrored seeds ``(a, b)`` and ``(-a, b)`` have equal periods.

    Both ``(n, c)`` cases run as one certified ``periodic_orbits`` batch.
    Inside ``run_all`` with ``lemma6.1-closure`` the traces come from the
    run's shared orbit batch instead (``_OrbitPool``), and the same closure
    certificate (``phaseplane.closure_failure``) is applied to them in seed
    order, so the rows are the rows of the claim's own batch.
    """
    cid = "lemma6.1-symmetry"
    cases = _symmetry_cases(seed)
    params, seeds = _flat(cases)
    pool = _orbit_pool.get()
    traces = pool and pool.take(cid)
    if traces is None:
        traces = phaseplane.periodic_orbits(params, seeds)
    for q0, tr in zip(seeds, traces):
        exc = phaseplane.closure_failure(q0, tr)
        if exc is not None:
            raise exc
    out, k = [], 0
    for pp, mirrored in cases:
        mine, half = traces[k:k + len(mirrored)], len(mirrored) // 2
        k += len(mirrored)
        out.append(_row(cid, seed, "phase", {"n": pp.n, "c": pp.c},
                        [abs(t1.period - t2.period) / t1.period
                         for t1, t2 in zip(mine[:half], mine[half:])], 1e-9,
                        extra={"accepted_steps": sum(tr.accepted for tr in mine)}))
    return out


# ---------------------------------------------------------------------------
# extremal level-set claims


def _extremal(lam, n):
    def func(c):
        r = catalog._radius2(c, n)
        t = c[2 * n]
        g = 4.0 * t * t + (r + lam) * (r + lam)
        return g ** (-0.5 * n)

    return SurfaceDef(func=func, n=n, name="sobolev-extremal")


def yamabe_check(lam, n, count=200, seed=0):
    """Constancy of the conformal-factor quotient for the known extremal.

    Returns the claim result; the measured constant rides along in
    ``extra["sigma"]``.
    """
    cid = "eq7.2-yamabe-sigma"
    rng = _rng(seed, f"{cid}:{n}:{lam}")
    sfd = _extremal(lam, n)
    coords = rng.normal(size=(count, 2 * n + 1))
    u, _, hess = sfd.evaluate_many(coords)
    laps = surface._sublaplacians(coords, hess)
    # Python floats: numpy's array power rounds differently from libm pow
    sigmas = np.array([lap / v ** (1.0 + 2.0 / n) for lap, v in zip(_floats(laps), _floats(u))])
    mean = float(np.mean(sigmas))
    rel_std = float(np.std(sigmas) / abs(mean))
    return ClaimResult(
        cid, "sobolev-extremal", {"n": n, "lam": lam}, rel_std, 1e-8, count,
        _claim_seed(seed, cid), extra={"sigma": mean}
    )


def claim_yamabe(seed):
    out = []
    gold = golden()["yamabe_sigma"]
    for n in (2, 3):  # not NS: golden.json holds sigma for n = 2 and 3 only
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


def claim_shifted_spheres(seed):
    """The shifted family satisfies l <= 3k strictly, with the algebraic gap
    formula 3k - l = 2*lam/(rho0^2 |z|), and equality exactly at zero shift."""
    cid = "eq7.3-shifted-l-3k"
    rng = _rng(seed, cid)
    floors = {}

    def cases():
        for lam, rho0 in ((0.5, 1.2), (1.0, 1.5)):
            entry = catalog.shifted_sphere(lam, rho0, 2)
            pts = entry.sample(rng, 100)
            floors[lam] = lam / (rho0**2 * max(catalog._zabs(p) for p in pts))
            yield "shifted-sphere", {"lam": lam, "rho0": rho0}, [(entry, pts)]

    def residual(entry, batch):
        lam, rho0 = entry.params["lam"], entry.params["rho0"]
        gap = 3.0 * batch.k - batch.l
        return np.where(gap < floors[lam], math.inf,
                        np.abs(gap - 2.0 * lam / (rho0**2 * _zabs(batch.frame.coords))))

    out = _report_claim(cid, seed, cases(), residual, 1e-8)
    for row in out:
        row.extra = {"floor": floors[row.params["lam"]]}

    def equality_residual(entry, batch):
        return np.abs(3.0 * batch.k - batch.l)

    # equality at zero shift
    equality = [_case("shifted-sphere", {"lam": 0.0},
                      catalog.shifted_sphere(0.0, 1.0, 2), rng, 100)]
    return out + _report_claim(cid, seed, equality, equality_residual, 1e-10,
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
              [(entry, entry.sample(rng, count)) for entry in entries])]

    def residual(entry, batch):
        target = targets[entry.params["lam"]]
        return np.abs(batch.H - target) / target

    (res,) = _report_claim(cid, seed, cases, residual, 1e-8)
    if any(b <= a for a, b in zip(u_values, u_values[1:])):
        res.residual = math.inf  # the level values must grow with the parameter
    return res


def claim_pmc_level_set(seed):
    # three curvatures at the smallest n, two at a sparser sample above it
    return [pmc_level_set_check((0.5, 1.0, 2.0), 1.0, n, seed=seed) if n == NS[0]
            else pmc_level_set_check((0.5, 1.0), 1.0, n, count=10, seed=seed) for n in NS]


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


def run_all(seed: int, only: Optional[str] = None) -> Report:
    """Execute the registry at ``seed``, or its claims whose id starts with
    ``only``.

    A filter that matches no claim id raises ``ValueError``: a run of no
    claims would pass vacuously.  The report's ``timings`` hold each claim's
    wall seconds in the process that ran it, which stay out of its JSON so
    that stays reproducible.  When both ``lemma6.1`` claims run, their
    orbits share one batch for the length of this call (``_OrbitPool``);
    every row is the one the claim gives alone.  The claims run from one
    task queue (``_run_tasks``), and the report lists them in registry
    order.  A run that holds that batch and other claims takes two
    processes when ``_two_processes`` allows; any other run is too short to
    repay a fork, and stays in one.
    """
    chosen = [(cid, producer) for cid, producer in CLAIMS.items()
              if not only or cid.startswith(only)]
    if not chosen:
        raise ValueError(f"no claim id starts with {only!r}")
    tasks = _tasks(chosen)
    pooled = [cid for cid, _ in tasks[0]] == list(_POOLED)
    token = _orbit_pool.set(_OrbitPool(seed) if pooled else None)
    try:
        done = _run_tasks(seed, tasks, pooled and _two_processes(tasks))
    finally:
        _orbit_pool.reset(token)  # the shared orbit batch lives for this call only
    return Report(seed=seed, claims=[row for cid, _ in chosen for row in done[cid][0]],
                  timings={cid: done[cid][1] for cid, _ in chosen
                           if done[cid][1] is not None})


# ---------------------------------------------------------------------------
# the task queue


def _tasks(chosen):
    """The tasks of a run, as lists of ``(cid, producer)``: one per chosen
    claim in registry order, except that the two ``lemma6.1`` claims, when
    both are chosen, are one task, and it goes first.  They share one orbit
    batch (``_OrbitPool``), which is a third of a full run, and the longest
    task first balances two processes best."""
    pair = [claim for claim in chosen if claim[0] in _POOLED]
    if len(pair) < len(_POOLED):
        return [[claim] for claim in chosen]
    return [pair] + [[claim] for claim in chosen if claim not in pair]


def _error_row(seed, cid, error):
    """The one failed row of a claim that did not give its rows."""
    return ClaimResult(cid, "<error>", {}, math.inf, 0.0, 0, _claim_seed(seed, cid),
                       extra={"error": error})


def _drain(seed, tasks, queue):
    """Take task indices from the ``queue`` pipe until it is empty, and
    yield ``{cid: (rows, seconds)}`` of each task's claims, run in order.  A
    crashed claim is a failed claim."""
    while index := os.read(queue, 1):
        done = {}
        for cid, producer in tasks[index[0]]:
            start = perf_counter()
            try:
                rows = list(producer(seed))
            except Exception as exc:
                rows = [_error_row(seed, cid, f"{type(exc).__name__}: {exc}")]
            done[cid] = rows, perf_counter() - start
        yield done


def _two_processes(tasks):
    """Whether ``tasks`` may run on two processes: 2 or more of them, 2 or
    more usable CPUs (``_usable_cpus``), no other Python thread, which a
    fork would not copy, and no producer wrapped from outside (it carries
    ``__wrapped__``, as ``functools.wraps`` leaves it), since what such a
    wrapper records in a forked worker never reaches the caller."""
    return (len(tasks) >= 2 and hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1
            and not any(hasattr(producer, "__wrapped__")
                        for task in tasks for _, producer in task))


# cgroup CPU quota files as a container sees its own cgroup: v2 holds
# "<quota> <period>" (quota "max" for none) in one file, v1 in two (-1 for none)
_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _usable_cpus():
    """The CPUs this process may use: its affinity set (0 where the platform
    has no ``os.sched_getaffinity``), capped by a cgroup CPU quota, which
    shares that many CPUs' time among the set."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 0 if affinity is None else min(len(affinity(0)), _quota_cpus())


def _quota_cpus():
    """The CPUs' worth of time that the first readable of ``_QUOTA_FILES``
    allows, or ``math.inf`` without a quota.  A quota set only on an
    ancestor cgroup is not seen."""
    for paths in _QUOTA_FILES:
        try:
            quota, period = " ".join(Path(path).read_text() for path in paths).split()
            return math.inf if quota in ("max", "-1") else int(quota) / int(period)
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return math.inf


def _run_tasks(seed, tasks, fork):
    """``{cid: (rows, seconds)}`` of every claim of ``tasks``.

    The tasks' indices go into one pipe, one byte each (so at most 256
    tasks), and the calling process and, when ``fork`` is true, one forked
    worker take them until the pipe is empty.  The worker sends each task's
    claims back as it finishes them (``_serve``), and always ends in
    ``os._exit``.  The caller reaps it before returning, and kills it first
    on an error or interrupt.  Each claim the worker took and did not send
    back gets one ``WorkerDied`` error row with the worker's exit status and
    no seconds: nothing is dropped and nothing reruns.
    """
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(tasks))))
    os.close(fill)
    worker, results = 0, None
    try:
        if fork:
            worker, results = _fork_worker(seed, tasks, queue)
        done = {}
        for got in _drain(seed, tasks, queue):
            done.update(got)
        if worker:
            done.update(_received(results))
            _, status = os.waitpid(worker, 0)
            worker = 0
            code = os.waitstatus_to_exitcode(status)
            died = "WorkerDied: " + (f"exit status {code}" if code >= 0 else f"signal {-code}")
            for task in tasks:
                for cid, _ in task:
                    done.setdefault(cid, ([_error_row(seed, cid, died)], None))
        return done
    finally:
        os.close(queue)
        if results is not None:
            results.close()
        if worker:
            os.kill(worker, signal.SIGKILL)
            os.waitpid(worker, 0)


def _fork_worker(seed, tasks, queue):
    """Fork the worker (``_serve``): its pid and the caller's end of the
    results pipe, or ``(0, None)`` if the fork fails, and the caller then
    drains the queue alone."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return 0, None
    if pid == 0:
        _serve(seed, tasks, queue, read, write)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _serve(seed, tasks, queue, read, write):
    """The worker: run tasks from ``queue`` and write each one's
    ``{cid: (rows, seconds)}`` to the ``write`` end of the results pipe as
    an 8-byte length and a pickle.  Never returns: exit status 0 once the
    queue is empty, 1 on anything raised, the interrupt included."""
    status = 1
    try:
        os.close(read)
        with os.fdopen(write, "wb") as out:
            for done in _drain(seed, tasks, queue):
                data = pickle.dumps(done)
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _received(results):
    """The merged ``{cid: (rows, seconds)}`` of every whole message on the
    ``results`` file, read until the worker's end closes; a message cut
    short by the worker's death is dropped."""
    done = {}
    while len(head := results.read(8)) == 8:
        size = int.from_bytes(head, "little")
        data = results.read(size)
        if len(data) < size:
            break
        done.update(pickle.loads(data))
    return done
