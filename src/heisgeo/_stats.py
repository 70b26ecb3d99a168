"""Reductions shared by the claim runner, the flows and the CLI."""

from __future__ import annotations

import math

__all__ = ["worst"]


def worst(residuals):
    """The largest of ``residuals`` (0 for none), or NaN if any is NaN:
    Python's ``max`` skips a NaN unless it comes first, and a NaN residual
    must not be hidden."""
    out = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        out = max(out, r)
    return out
