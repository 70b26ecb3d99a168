"""The benchmark workloads: seeded inputs, timed ops and output checks.

Each workload builds the inputs of one pass from ``(seed, pass_index)``,
runs them as sequential calls into heisgeo's public functions (one client,
closed loop), and checks the outputs afterwards, outside the timed section.
Importing this module imports numpy and heisgeo, so the set-up probe in
``run.py`` times this import together with ``inputs(seed, 0)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from heisgeo import catalog, cli, flows, phaseplane, surface, verify
from heisgeo.core import Point
from heisgeo.surface import GeometryError, SurfaceDef

FAILURE_KINDS = (
    "NotPeriodic",
    "PivotDegenerate",
    "ProjectionFailure",
    "GeometryError",
    "claim_not_passed",
    "check_failed",
    "other",
)
_NAMED = {
    "NotPeriodic": phaseplane.NotPeriodic,
    "PivotDegenerate": surface.PivotDegenerate,
    "ProjectionFailure": flows.ProjectionFailure,
}


def failure_kind(exc_type):
    """Bucket an exception class into one of ``FAILURE_KINDS``."""
    for name, cls in _NAMED.items():
        if issubclass(exc_type, cls):
            return name
    if issubclass(exc_type, GeometryError):
        return "GeometryError"
    return "other"


def _kind_from_name(type_name):
    """Bucket an exception recorded by name, as verify's crashed claims are."""
    for module in (surface, flows, phaseplane):
        cls = getattr(module, type_name, None)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return failure_kind(cls)
    return "other"


@dataclass
class Op:
    label: str            # input class, e.g. "catalog/n=2" or "geodesic_flow/n=3"
    call: object          # zero-argument callable into heisgeo
    ref: object = None    # what the check compares against


@dataclass
class PassResult:
    start: float                                  # clock at the start of the timed section
    wall: float                                   # timed section, seconds
    ops: int                                      # ops attempted
    latencies: list = field(default_factory=list)  # (label, seconds) per successful op
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (kind, message) per failed op


def _mark_op(tracer, op_id):
    if tracer is not None:
        tracer.current_op = op_id


def run_ops(ops, tracer=None, first_id=0, clock=perf_counter):
    """Run ops back to back; a raising op is recorded as failed, not retried."""
    t_pass = clock()
    res = PassResult(start=t_pass, wall=0.0, ops=len(ops))
    for i, op in enumerate(ops):
        _mark_op(tracer, first_id + i)
        t0 = clock()
        try:
            out = op.call()
        except Exception as exc:  # op boundary: record the type and go on
            res.outputs.append(None)
            res.failures.append((failure_kind(type(exc)),
                                 f"{op.label}: {type(exc).__name__}: {exc}"))
            continue
        res.latencies.append((op.label, clock() - t0))
        res.outputs.append(out)
    res.wall = clock() - t_pass
    return res


class Workload:
    max_passes = None   # an untraced run stops after this many passes, whatever its --seconds

    def summary(self, by_label):
        """Workload-specific entries for the run record."""
        return {}


class OpWorkload(Workload):
    """A workload whose pass is a list of independent ``Op``s."""

    def run(self, ops, tracer=None, first_id=0, clock=perf_counter):
        return run_ops(ops, tracer, first_id, clock)


# ---------------------------------------------------------------------------
# pointwise: one exact-mode report per point


def graph_surface(n):
    """Non-umbilic polynomial graph ``t = g(x, y)`` with no ``grad_hess``.

    Derivatives therefore come from the ``Dual2`` fallback, the path that
    user-supplied surfaces take.  Returns the surface and the graph height.
    """

    def height(c):
        acc = 0.07 * c[1] ** 3 + 0.05 * c[0] * c[n + 1] * c[n]
        for i in range(n):
            acc = acc + (0.3 + 0.05 * i) * c[i] * c[i]
            acc = acc + (0.19 - 0.03 * i) * c[n + i] * c[n + i]
            acc = acc + 0.11 * c[i] * c[n + (i + 1) % n]
        return acc

    def func(c):
        return c[2 * n] - height(c)

    return SurfaceDef(func=func, n=n, name="bench-graph"), height


class Pointwise(OpWorkload):
    """Exact-mode ``surface.report`` on catalog and graph-surface points."""

    trace_passes = 5
    dims = (2, 3, 4)
    per_family = 20   # points per catalog family and n (umbilic)
    per_graph = 50    # points on the graph surface per n (not umbilic)
    tol_expected = 1e-8
    tol_fd = 1e-5

    def __init__(self):
        self.graphs = {n: graph_surface(n) for n in self.dims}

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        ops = []
        for n in self.dims:
            for entry in catalog.standard_entries(n):
                for p in entry.sample(rng, self.per_family):
                    ops.append(Op(f"catalog/n={n}", _report_call(entry.surface, p), (entry, p)))
            sfd, height = self.graphs[n]
            for _ in range(self.per_graph):
                x = rng.normal(size=2 * n) * 0.6
                p = Point(np.concatenate([x, [height(x)]]))
                ops.append(Op(f"graph/n={n}", _report_call(sfd, p), (sfd, p)))
        return ops

    def check(self, ops, res):
        bad = []
        for op, out in zip(ops, res.outputs):
            if out is None:
                continue
            if op.label.startswith("catalog"):
                entry, p = op.ref
                want = {key: entry.expected[key](p) for key in ("k", "l", "H", "alpha")}
                want_umbilic, tol = True, self.tol_expected
            else:
                sfd, p = op.ref
                try:
                    fd = surface.report(sfd.with_derivatives("fd"), p)
                except GeometryError as exc:
                    bad.append(("check_failed", f"{op.label}: FD oracle raised {exc!r}"))
                    continue
                want = {"k": fd.k, "l": fd.l, "H": fd.H, "alpha": fd.alpha}
                want_umbilic, tol = fd.umbilic, self.tol_fd
            wrong = [key for key, val in want.items() if not abs(out[key] - val) <= tol]
            if out["umbilic"] != want_umbilic:
                wrong.append("umbilic")
            if wrong:
                bad.append(("check_failed", f"{op.label} at {list(op.ref[1].coords)}: {wrong}"))
        return bad

    def summary(self, by_label):
        """Share of umbilic (catalog) inputs among the timed reports."""
        umbilic = sum(len(v) for label, v in by_label.items() if label.startswith("catalog"))
        return {"umbilic_share": umbilic / max(sum(len(v) for v in by_label.values()), 1)}


def _report_call(sfd, p):
    def call():
        rep = surface.report(sfd, p)
        return {"k": rep.k, "l": rep.l, "H": rep.H, "alpha": rep.alpha,
                "umbilic": rep.umbilic}

    return call


# ---------------------------------------------------------------------------
# identities: dependent single-point chains and an event-free rk45 flow


class Identities(OpWorkload):
    """Interior identities, leaf constancy and geodesic confinement runs."""

    trace_passes = 4
    dims = (2, 3)
    points = 1        # bounded-tilt points per identity-suite entry and n
    starts = 2        # confinement starts on the lam=1 sphere per n
    lam = 1.0
    s_max = 3.0
    tol_identity = 1e-5
    tol_leaf = 1e-6
    tol_drift = 1e-7

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        ops = []
        for n in self.dims:
            for entry in verify.identity_suite_entries(n):
                for p in verify.moderate_points(entry, rng, self.points):
                    ops.append(Op(f"identity_check/n={n}",
                                  _call(flows, "identity_check", entry.surface, p)))
                    ops.append(Op(f"leaf_constancy/n={n}",
                                  _call(flows, "leaf_constancy", entry.surface, p)))
            sphere = catalog.pansu(self.lam, n)
            for p in verify.confinement_starts(self.lam, n, rng, self.starts):
                state = flows.CurveState(p, surface.build_frame(sphere.surface, p).en)
                ops.append(Op(f"geodesic_flow/n={n}",
                              _call(flows, "geodesic_flow", state, self.lam, self.s_max),
                              sphere.surface))
        return ops

    def check(self, ops, res):
        bad = []
        for op, out in zip(ops, res.outputs):
            if out is None:
                continue
            kind = op.label.split("/")[0]
            if kind == "identity_check":
                value, tol = out.max(), self.tol_identity
            elif kind == "leaf_constancy":
                value, tol = out, self.tol_leaf
            else:
                value = max(abs(op.ref.value(c)) for c in out.coords)
                tol = self.tol_drift
            if not value <= tol:
                bad.append(("check_failed", f"{op.label}: residual {value:g} > {tol:g}"))
        return bad


def _call(module, attr, *args):
    """Call ``module.attr`` looked up at call time, so traced bindings apply."""
    return lambda: getattr(module, attr)(*args)


# ---------------------------------------------------------------------------
# verify: the claim suite through the command-line entry point


class Verify(Workload):
    """``heisgeo verify run --seed <seed> --json <file>`` run in-process.

    Every claim result is one op for the attempted and failed counts.  Claim
    results are not comparable units of latency, so the latency sample is
    the whole command, the request a user waits on; per-claim times come
    from a traced run (``verify.claim.<id>.ms``).  The ``--json`` bytes of
    every pass are compared with the first pass of the process: in a traced
    run, the untraced pass with the traced one.
    """

    trace_passes = 1
    max_passes = 1      # one pass takes 19-35 s

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.first_bytes = None

    def inputs(self, seed, k):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"verify-{os.getpid()}.json")
        return ["verify", "run", "--seed", str(seed), "--json", path]

    def run(self, argv, tracer=None, first_id=0, clock=perf_counter):
        _mark_op(tracer, "cli")
        sink = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv)
        wall = clock() - t0
        try:
            with open(argv[-1], "rb") as fh:
                data = fh.read()
            os.remove(argv[-1])
        except FileNotFoundError:   # the command failed before writing a report
            data = b'{"claims": []}'
        report = json.loads(data)
        return PassResult(start=t0, wall=wall, ops=len(report["claims"]),
                          latencies=[("verify run", wall)], outputs=[status, data, report])

    def check(self, argv, res):
        status, data, report = res.outputs
        bad = []
        for claim in report["claims"]:
            if claim["passed"]:
                continue
            err = claim.get("extra", {}).get("error")
            kind = _kind_from_name(err.split(":")[0]) if err else "claim_not_passed"
            bad.append((kind, f"{claim['claim_id']} [{claim['surface']}] "
                              f"residual={claim['residual']} {err or ''}".rstrip()))
        ids = {c["claim_id"] for c in report["claims"]}
        for cid in verify.REQUIRED_COVERAGE:
            if cid not in ids:
                bad.append(("check_failed", f"required claim {cid} missing"))
        if status != 0 and not bad:
            bad.append(("other", f"exit status {status} with every claim passing"))
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            bad.append(("check_failed", "--json bytes differ from the first pass"))
        return bad


def make(name, out_dir):
    if name == "pointwise":
        return Pointwise()
    if name == "identities":
        return Identities()
    if name == "verify":
        return Verify(out_dir)
    raise ValueError(f"unknown workload {name!r}")
