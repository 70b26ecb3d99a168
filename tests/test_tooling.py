"""Every heisgeo name the benchmark tracer wraps still exists, the package
source keeps its line length, every public function is used and every
option of one is set."""

import ast
import importlib
import inspect
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



def _trees():
    """The parsed modules of ``src/heisgeo``, ``tests`` and ``perfbench``."""
    files = [*(ROOT / "src" / "heisgeo").glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return {path: ast.parse(path.read_text()) for path in files}


def _definitions(tree):
    """``(name, line, is_method)`` of a module's public functions and of the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno, True) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _references(tree):
    """``(names, attributes)`` a module uses.  Names are read variables and
    imported names; attributes are attribute accesses.  Identifier strings
    count as both (the benchmark tracer names its targets as strings), except
    in ``__all__``, which lists a name without using it."""
    names, attrs = set(), set()
    body = [node for node in tree.body if not (
        isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__")]
    for node in (sub for top in body for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
            attrs.add(node.value)
    return names, attrs


def test_every_public_function_is_used():
    """A public function or method of ``src/heisgeo`` that nothing in
    ``src``, ``tests`` or ``perfbench`` uses is dead code.  A function counts
    as used when its name is read, imported or accessed as an attribute (the
    claim functions are read by the ``CLAIMS`` registry); a method only when
    it is accessed as an attribute.  Dunders and private names are exempt."""
    trees = _trees()
    names, attrs = set(), set()
    for tree in trees.values():
        more_names, more_attrs = _references(tree)
        names |= more_names
        attrs |= more_attrs
    unused = [f"{path.name}:{line} {name}" for path, tree in sorted(trees.items())
              if path.parent.name == "heisgeo"
              for name, line, is_method in _definitions(tree)
              if not name.startswith("_")
              and name not in attrs and (is_method or name not in names)]
    assert not unused, unused


def _defaulted_parameters(tree):
    """``(name, line, parameter, position)`` of every defaulted parameter of a
    module's public functions and of the public methods of its classes.  A
    method's positions do not count ``self`` (or ``cls``); a keyword-only
    parameter has position None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs, skip = [node], 0
        elif isinstance(node, ast.ClassDef):
            funcs, skip = [item for item in node.body if isinstance(item, ast.FunctionDef)], 1
        else:
            continue
        for fn in (fn for fn in funcs if not fn.name.startswith("_")):
            positional = [*fn.args.posonlyargs, *fn.args.args]
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield fn.name, fn.lineno, arg.arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn.name, fn.lineno, arg.arg, None


def _passed(trees):
    """``{name: (positions, keywords)}`` that the calls of ``trees`` pass to
    a callee of that name, called as ``name(...)`` or ``obj.name(...)``: the
    most positional arguments of any call, and every keyword.  A call with
    ``*args`` or ``**kwargs`` passes everything (``None``)."""
    passed = {}
    for node in (sub for tree in trees for sub in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name is None or passed.get(name, ()) is None:
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            passed[name] = None
        else:
            positions, keywords = passed.get(name, (0, set()))
            passed[name] = (max(positions, len(node.args)),
                            keywords | {k.arg for k in node.keywords})
    return passed


def test_every_option_is_set():
    """A defaulted parameter of a public function or method of
    ``src/heisgeo`` that no call in ``src``, ``tests`` or ``perfbench``
    passes, by keyword or by position, is an option nothing sets: it should
    be a constant.  Calls match by the callee's name; a call with ``*args``
    or ``**kwargs`` counts as passing everything.  Every claim producer is a
    fixed statement of one seed."""
    trees = _trees()
    passed = _passed(trees.values())
    unset = []
    for path, tree in sorted(trees.items()):
        if path.parent.name != "heisgeo":
            continue
        for name, line, param, position in _defaulted_parameters(tree):
            got = passed.get(name, (0, set()))
            if got is not None and param not in got[1] and (position is None
                                                            or position >= got[0]):
                unset.append(f"{path.name}:{line} {name}.{param}")
    assert not unset, unset
    verify = importlib.import_module("heisgeo.verify")
    many = [cid for cid, producer in verify.CLAIMS.items()
            if len(inspect.signature(producer).parameters) != 1]
    assert not many, many
