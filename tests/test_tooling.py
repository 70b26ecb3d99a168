"""Every heisgeo name the benchmark tracer wraps still exists, and the
package source keeps its line length."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TABLES = ("FUNCTIONS", "METHODS", "CATALOG_FACTORIES")


def _tracer_tables():
    """The tracer's target tables, read from its source without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_tracer_targets_exist():
    tables = _tracer_tables()
    assert sorted(tables) == sorted(TABLES)
    for span, module, attr in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, module, cls, attr in tables["METHODS"]:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, attr, None)), span
    catalog = importlib.import_module("heisgeo.catalog")
    for attr in tables["CATALOG_FACTORIES"]:
        assert callable(getattr(catalog, attr, None)), attr
    # the claim registry the tracer wraps claim by claim
    assert isinstance(importlib.import_module("heisgeo.verify").CLAIMS, dict)


def test_source_lines_fit_98_columns():
    long = [f"{path.name}:{i}" for path in sorted((ROOT / "src" / "heisgeo").glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 98]
    assert not long, long
