"""Numerical toolkit for the extrinsic geometry of hypersurfaces in the
Heisenberg group: adapted frames, second fundamental form, umbilicity,
constant-curvature flows, the tilt/defect phase plane, and a claim
verification suite over the closed-form example surfaces."""

from . import catalog, core, duals, flows, phaseplane, rk45, surface, verify
from .core import HorizontalVector, Point, TangentVector
from .surface import SurfaceDef, build_frame, report, shape_matrix

__version__ = "0.1.0"

__all__ = [
    "catalog",
    "core",
    "duals",
    "flows",
    "phaseplane",
    "rk45",
    "surface",
    "verify",
    "Point",
    "HorizontalVector",
    "TangentVector",
    "SurfaceDef",
    "build_frame",
    "shape_matrix",
    "report",
]
