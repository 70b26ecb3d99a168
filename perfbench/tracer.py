"""Span tracing installed from outside heisgeo, and the per-layer metrics.

``Tracer.install`` wraps heisgeo's public functions at every binding a
caller uses: the module attribute, each ``from ... import`` copy in other
heisgeo modules, class attributes, the closed-form ``grad_hess`` that catalog
factories attach, and the verify claim registry.  Each call records a span
(name, start, end, parent span, op id); spans stay in memory until
``dump``.  Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
from time import perf_counter

SETUP = "setup"   # op id of spans made while building inputs
CHECK = "check"   # op id of spans made by the output checks

# (span name, module, attribute) of the wrapped module-level functions
FUNCTIONS = (
    ("duals.gradient_hessian", "heisgeo.duals", "gradient_hessian"),
    ("duals.fd_gradient_hessian", "heisgeo.duals", "fd_gradient_hessian"),
    ("surface.build_frame", "heisgeo.surface", "build_frame"),
    ("surface.shape_matrix", "heisgeo.surface", "shape_matrix"),
    ("surface.jacobi_eigenvalues", "heisgeo.surface", "jacobi_eigenvalues"),
    ("surface.report", "heisgeo.surface", "report"),
    ("rk45.solve", "heisgeo.rk45", "solve"),
    ("phaseplane.periodic_orbit", "heisgeo.phaseplane", "periodic_orbit"),
    ("flows.identity_check", "heisgeo.flows", "identity_check"),
    ("flows.leaf_constancy", "heisgeo.flows", "leaf_constancy"),
    ("flows.surface_offset", "heisgeo.flows", "surface_offset"),
    ("flows.geodesic_flow", "heisgeo.flows", "geodesic_flow"),
    ("_io.json_dumps", "heisgeo._io", "json_dumps"),
)
METHODS = (
    ("surface.evaluate", "heisgeo.surface", "SurfaceDef", "evaluate"),
    ("catalog.sample", "heisgeo.catalog", "CatalogEntry", "sample"),
)
CATALOG_FACTORIES = ("pansu", "heisenberg_sphere", "shifted_sphere", "cylinder", "hyperplane")

# spans of these names also count outside the timed section
EXTRA_PHASES = {"catalog.sample": (SETUP,), "duals.fd_gradient_hessian": (CHECK,)}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stack = []
        self.current_op = SETUP
        self.notes = {}     # span index -> umbilic flag (report) or accepted steps (solve)
        self.rhs = {}       # rk45.solve span index -> right-hand-side evaluations

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, note=None, op=None):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            if op is not None:
                outer, self.current_op = self.current_op, op
            ops.append(self.current_op)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if op is not None:
                    self.current_op = outer
            if note is not None:
                self.notes[idx] = note(out)
            return out

        return traced

    def _wrap_solve(self, solve):
        traced = self.wrap("rk45.solve", solve, note=lambda sol: len(sol.ss) - 1)

        def solve_counting(f, *args, **kwargs):
            calls = 0

            def counted(s, y):
                nonlocal calls
                calls += 1
                return f(s, y)

            idx = len(self.names)
            try:
                return traced(counted, *args, **kwargs)
            finally:
                self.rhs[idx] = calls

        return functools.wraps(solve)(solve_counting)

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            entry = factory(*args, **kwargs)
            gh = entry.surface.grad_hess
            if gh is None:
                return entry
            sfd = dataclasses.replace(entry.surface,
                                      grad_hess=self.wrap("catalog.grad_hess", gh))
            return dataclasses.replace(entry, surface=sfd)

        return make

    def install(self):
        """Wrap every traced target in the imported heisgeo package.

        A target missing from heisgeo raises, so no layer silently reads 0.
        """
        import heisgeo  # noqa: F401  (imports every submodule)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "heisgeo" or name.startswith("heisgeo.")]
        for span, mod_name, attr in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            if span == "rk45.solve":
                new = self._wrap_solve(orig)
            elif span == "surface.report":
                new = self.wrap(span, orig, note=lambda rep: bool(rep.umbilic))
            else:
                new = self.wrap(span, orig)
            _rebind(modules, orig, new)
        for span, mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = getattr(cls, attr)
            setattr(cls, attr, self.wrap(span, orig))
        catalog = sys.modules["heisgeo.catalog"]
        for attr in CATALOG_FACTORIES:
            orig = getattr(catalog, attr)
            _rebind(modules, orig, self._wrap_factory(orig))
        registry = sys.modules["heisgeo.verify"].CLAIMS
        for cid, producer in list(registry.items()):
            registry[cid] = self.wrap(f"verify.claim.{cid}", producer, op=cid)

    # -- results -------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i], "end": self.ends[i],
                                     "parent": self.parents[i], "op": self.ops[i]}) + "\n")

    def metrics(self, timed_ops, traced_wall, untraced_wall, claim_ids):
        """Per-layer metrics over the timed section (see ``EXTRA_PHASES``)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        children = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
                children.setdefault(p, []).append(i)

        by_name = self._counted()

        def calls(name):
            return len(by_name.get(name, ()))

        def self_ms(name):
            return 1e3 * sum(dur[i] - covered[i] for i in by_name.get(name, ()))

        out = {}
        for name in ("duals.gradient_hessian", "duals.fd_gradient_hessian",
                     "catalog.grad_hess", "surface.evaluate", "surface.build_frame",
                     "surface.shape_matrix", "surface.jacobi_eigenvalues", "surface.report",
                     "rk45.solve", "phaseplane.periodic_orbit", "flows.identity_check",
                     "flows.leaf_constancy", "flows.surface_offset", "flows.geodesic_flow"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_ms"] = self_ms(name)
        out["catalog.sample.self_ms"] = self_ms("catalog.sample")
        out["io.json_dumps.self_ms"] = self_ms("_io.json_dumps")
        out["surface.evaluate.per_op"] = calls("surface.evaluate") / max(timed_ops, 1)

        reports = by_name.get("surface.report", ())
        umbilic = [dur[i] for i in reports if self.notes.get(i) is True]
        generic = [dur[i] for i in reports if self.notes.get(i) is False]
        out["surface.report.umbilic_p50_us"] = 1e6 * quantile(umbilic, 0.5)
        out["surface.report.generic_p50_us"] = 1e6 * quantile(generic, 0.5)
        out["surface.report.umbilic_share"] = len(umbilic) / max(len(umbilic) + len(generic), 1)

        solves = by_name.get("rk45.solve", ())
        rhs = sum(self.rhs.get(i, 0) for i in solves)
        accepted = sum(self.notes.get(i, 0) for i in solves)
        out["rk45.rhs_evals"] = rhs
        out["rk45.accepted_steps"] = accepted
        out["rk45.useful_ratio"] = 6.0 * accepted / rhs if rhs else 0.0

        orbits = by_name.get("phaseplane.periodic_orbit", ())
        orbit_ms = [1e3 * dur[i] for i in orbits]
        out["phaseplane.periodic_orbit.p50_ms"] = quantile(orbit_ms, 0.5)
        out["phaseplane.periodic_orbit.p90_ms"] = quantile(orbit_ms, 0.9)
        retried = sum(1 for i in orbits
                      if sum(self.names[c] == "rk45.solve" for c in children.get(i, ())) >= 4)
        out["phaseplane.retry_share"] = retried / len(orbits) if orbits else 0.0

        for cid in claim_ids:
            spans = by_name.get(f"verify.claim.{cid}", ())
            out[f"verify.claim.{cid}.ms"] = 1e3 * sum(dur[i] for i in spans)

        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.spans_s"] = sum(dur[i] - covered[i] for i in range(n)
                                   if self.ops[i] not in (SETUP, CHECK))
        return out

    def _counted(self):
        """Span indices by name, kept to the phases the metrics count."""
        by_name = {}
        for i, name in enumerate(self.names):
            op = self.ops[i]
            if op in (SETUP, CHECK) and op not in EXTRA_PHASES.get(name, ()):
                continue
            by_name.setdefault(name, []).append(i)
        return by_name

    def mean_us(self):
        """Mean inclusive microseconds per counted call of each span name."""
        return {name: 1e6 * sum(self.ends[i] - self.starts[i] for i in idx) / len(idx)
                for name, idx in sorted(self._counted().items())}


def _rebind(modules, orig, new):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def quantile(values, q):
    """Quantile ``q`` (a multiple of 0.01) of ``values``; 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
