"""Command-line front end.

Subcommands: ``report`` (pointwise surface geometry as JSON), ``catalog``
(list/show the example surfaces), ``phase`` (portrait CSV), ``geodesic``
(curve CSV), ``identities`` (interior-identity residuals as JSON: the
sampled points run as one ``identity_check_many`` batch under the resample
rule of ``flows.resampled``) and ``verify run`` (the claim suite).  Exit
status: 0 success, 1 claim failure, 2 usage error (bad arguments or
parameter values, NaN included, a parameter whose derived constant
overflows or is 0, an ``identities --points`` count below 1, a ``verify run
--only`` prefix that matches no claim, or a step size that underflows;
reported as one ``error:`` line).  Output floats carry 17
significant digits and runs are byte-reproducible for fixed arguments and
seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import catalog, flows, phaseplane, verify
from ._io import fmt, json_dumps
from ._stats import worst
from .core import HorizontalVector, Point
from .phaseplane import NotPeriodic, OnSeparatrix, PhaseParams, PhasePoint
from .rk45 import StepUnderflow
from .surface import GeometryError, report

USAGE_ERROR = 2


class _CliError(Exception):
    pass


def _parse_floats(text, expect=None, what="value list"):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"could not parse {what}: {exc}") from exc
    if expect is not None and len(vals) != expect:
        raise _CliError(f"{what} needs {expect} comma-separated floats")
    return np.array(vals)


# each ``--surface`` name and the catalog entry its flags build
_SURFACES = {
    "pansu": lambda a: catalog.pansu(a.lam, a.n),
    "heisenberg-sphere": lambda a: catalog.heisenberg_sphere(a.rho, a.n),
    "shifted-sphere": lambda a: catalog.shifted_sphere(a.lam, a.rho0, a.n),
    "cylinder": lambda a: catalog.cylinder(a.c, a.n),
    "hyperplane": lambda a: catalog.hyperplane(
        _parse_floats(a.coeffs, expect=2 * a.n, what="hyperplane coefficients")
        if a.coeffs else np.eye(2 * a.n)[0], a.n),
}


def _resolve_out(path):
    """Relative output paths land in HEISGEO_OUT_DIR when it is set."""
    base = os.environ.get("HEISGEO_OUT_DIR", "")
    if path and base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write(path, text):
    if path:
        with open(_resolve_out(path), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_report(args):
    entry = _SURFACES[args.surface](args)
    coords = _parse_floats(args.point, expect=2 * args.n + 1, what="point")
    s = entry.surface.with_derivatives(args.derivatives)
    u = s.value(coords)
    if abs(u) > 1e-3:
        raise _CliError(
            f"point is too far off the surface (|u|={abs(u):.3g} > 1e-3)"
        )
    if u != 0.0:  # one Newton step absorbs rounded user input
        _, grad, _ = s.evaluate(coords)
        g2 = float(grad @ grad)
        if g2 > 0.0:
            coords = coords - (u / g2) * grad
    rep = report(s, Point(coords))
    _write(args.out, json_dumps(rep.to_dict()) + "\n")
    return 0


def _cmd_catalog(args):
    entries = [e.describe() for e in catalog.standard_entries(args.n)]
    if args.action == "list":
        _write(args.out, json_dumps(entries) + "\n")
        return 0
    matches = [e for e in entries if e["name"] == args.name]
    if not matches:
        raise _CliError(f"unknown catalog entry {args.name!r}")
    _write(args.out, json_dumps(matches[0]) + "\n")
    return 0


def _cmd_phase(args):
    pp = PhaseParams(args.n, args.c)
    seeds = None
    if args.seeds:
        rows = []
        with open(args.seeds) as fh:
            header = fh.readline()
            if header.strip().lower() not in ("alpha,beta", ""):
                rows.append(header)
            rows.extend(fh)
        seeds = [
            PhasePoint(*_parse_floats(line, expect=2, what="seed"))
            for line in rows
            if line.strip()
        ]
        if not seeds:
            raise _CliError(f"no seed rows in {args.seeds}")
    try:
        data = phaseplane.portrait(pp, seeds=seeds)
    except (ValueError, OnSeparatrix, NotPeriodic) as exc:
        raise _CliError(f"{type(exc).__name__}: {exc}") from exc
    if args.out:
        with open(_resolve_out(args.out), "w") as fh:
            data.write_csv(fh)
    else:
        data.write_csv(sys.stdout)
    return 0


def _cmd_geodesic(args):
    start = _parse_floats(args.start, what="start point")
    if start.size % 2 == 0 or start.size < 5:
        raise _CliError("start point needs 2n+1 coordinates with n >= 2")
    n = start.size // 2
    v = _parse_floats(args.velocity, expect=2 * n, what="velocity")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise _CliError("velocity must be nonzero")
    state = flows.CurveState(Point(start), HorizontalVector(v / norm))
    trace = flows.geodesic_flow(state, args.lam, args.smax)
    heads = (
        ["s"]
        + [f"x{i+1}" for i in range(n)]
        + [f"y{i+1}" for i in range(n)]
        + ["t"]
        + [f"v{i+1}" for i in range(2 * n)]
    )
    lines = [",".join(heads)]
    for i, s in enumerate(trace.ss):
        row = [s, *trace.coords[i], *trace.velocities[i]]
        lines.append(",".join(fmt(x) for x in row))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_identities(args):
    if not (args.step > 0 and math.isfinite(args.step)):
        raise _CliError("--step must be finite and positive")
    if args.points <= 0:  # a check of no points would pass vacuously
        raise _CliError("--points must be positive")
    entry = _SURFACES[args.surface](args)
    pts = entry.sample(np.random.default_rng(args.seed), args.points)
    # verify's resample rule: a point whose frame or projection fails is
    # skipped; any other GeometryError (a derivative bug) reaches main
    done, skipped = flows.resampled(
        lambda batch: zip(batch, flows.identity_check_many(entry.surface, batch, h_fd=args.step)),
        pts)
    rows = [{"point": list(p.coords), "residuals": asdict(res)} for p, res in done]
    keys = rows[0]["residuals"] if rows else ()
    payload = {
        "surface": entry.name,
        "params": {k: v for k, v in entry.params.items()},
        "step": args.step,
        "seed": args.seed,
        "skipped": sum(skipped.values()),
        "max_residuals": {key: worst(row["residuals"][key] for row in rows) for key in keys},
        "points": rows,
    }
    _write(args.out, json_dumps(payload) + "\n")
    return 0


def _cmd_verify(args):
    rep = verify.run_all(args.seed, only=args.only)
    if args.json:
        _write(args.json, rep.to_json() + "\n")
    if args.timings:  # wall clock, so never in the reproducible report
        _write(args.timings, json_dumps(rep.timings) + "\n")
    for claim in rep.claims:
        status = "pass" if claim.passed else "FAIL"
        sys.stdout.write(
            f"{status} {claim.claim_id} [{claim.surface}] "
            f"residual={fmt(claim.residual)} tol={fmt(claim.tolerance)}\n"
        )
    sys.stdout.write("all claims passed\n" if rep.passed else "claim failures\n")
    return 0 if rep.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="heisgeo",
        description="Curvature and umbilicity toolkit for level-set "
        "hypersurfaces of the Heisenberg group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_surface_flags(p):
        p.add_argument("--surface", required=True, choices=list(_SURFACES))
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--rho", type=float, default=1.0)
        p.add_argument("--rho0", type=float, default=1.2)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--coeffs", type=str, default="")

    p = sub.add_parser("report", help="pointwise geometry report as JSON")
    add_surface_flags(p)
    p.add_argument("--point", required=True,
                   help="comma-separated x_1..x_n,y_1..y_n,t")
    p.add_argument("--derivatives", choices=["exact", "fd"], default="exact")
    p.add_argument("--out", default="")

    p = sub.add_parser("catalog", help="list or show example surfaces")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default="")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default="")

    p = sub.add_parser("phase", help="phase-portrait dataset as CSV")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--seeds", default="", help="CSV of alpha,beta seed rows")
    p.add_argument("--out", default="")

    p = sub.add_parser("geodesic", help="constant-curvature curve as CSV")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--start", required=True,
                   help="comma-separated x_1..x_n,y_1..y_n,t")
    p.add_argument("--velocity", required=True,
                   help="comma-separated 2n frame coefficients")
    p.add_argument("--smax", type=float, default=3.0)
    p.add_argument("--out", default="")

    p = sub.add_parser("identities", help="interior-identity residuals as JSON")
    add_surface_flags(p)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="")

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("action", choices=["run"])
    p.add_argument("--only", default="", help="claim-id prefix filter")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", default="", help="write the JSON report here")
    p.add_argument("--timings", default="",
                   help="write each claim's wall seconds here as JSON, timed in the "
                        "process that ran it; with two processes they overlap")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handlers = {
        "report": _cmd_report,
        "catalog": _cmd_catalog,
        "phase": _cmd_phase,
        "geodesic": _cmd_geodesic,
        "identities": _cmd_identities,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (GeometryError, StepUnderflow) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
