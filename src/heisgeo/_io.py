"""Deterministic text serialization: floats at 17 significant digits."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fmt", "json_dumps"]


def fmt(x) -> str:
    """A float as a 17-significant-digit decimal literal."""
    return format(float(x), ".17g")


def json_dumps(obj, indent=0) -> str:
    """Minimal JSON writer with 17-significant-digit floats.

    The standard encoder prints shortest round-trip floats; reports pin the
    17-digit form instead so output bytes are stable across platforms.
    Non-finite floats, which JSON cannot represent, are written as ``null``.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [json_dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": ' + json_dumps(v, indent + 2) for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")
