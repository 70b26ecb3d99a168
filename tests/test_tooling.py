"""Every heisgeo name the benchmark tracer wraps still exists, the package
source keeps its line length, and the program (``src`` and ``perfbench``,
not the tests) uses every public function and sets every option of one,
apart from a short list of documented library API."""

import ast
import importlib
import importlib.util
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


# Library API that no command or claim calls: the group and frame
# operations of ``core`` and its contact form ``theta``, the elementary
# functions that ``duals`` offers user-written surfaces (``exp``, ``log``),
# a free phase-plane integration, and the tilt derivative that the main
# theorem's end-to-end check will need.
LIBRARY_FUNCTIONS = (
    "core.from_xyt", "core.identity", "core.group_mul", "core.inverse",
    "core.frame_vector", "core.apply_J", "core.dtheta", "core.levi",
    "core.covariant_derivative", "core.theta", "duals.exp", "duals.log",
    "phaseplane.integrate", "surface.alpha_directional",
)
LIBRARY_OPTIONS = ("core.covariant_derivative.mode", "phaseplane.integrate.control")


def _trees():
    """The parsed modules of the program: ``src/heisgeo`` and ``perfbench``.
    The tests are not callers: an option or function only they reach is
    kept alive by its tests alone."""
    files = [*(ROOT / "src" / "heisgeo").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return {path: ast.parse(path.read_text()) for path in files}


def _package(trees):
    """``(module, tree)`` of each ``src/heisgeo`` module, by name."""
    return [(path.stem, tree) for path, tree in sorted(trees.items())
            if path.parent.name == "heisgeo"]


def _check_allowlist(found, defined, allowlist):
    """``found`` (``{key: where}``) must be exactly ``allowlist``: every
    other key is a failure, and so is a listed key that is no longer
    defined or that the program now reaches."""
    listed = set(allowlist)
    assert not listed - defined, f"allowlisted but no longer defined: {sorted(listed - defined)}"
    reached = sorted(listed - set(found))
    assert not reached, f"the program reaches these now; drop them from the allowlist: {reached}"
    extra = [where for key, where in sorted(found.items()) if key not in listed]
    assert not extra, extra


# Top-level function names that two modules of ``src/heisgeo`` may both
# define.
SHARED_NAMES = ()


def test_no_function_is_defined_in_two_modules():
    """A top-level function name that two modules of ``src/heisgeo`` define,
    private or not, is a second copy of a helper: keep one and import it,
    unless the name is listed in ``SHARED_NAMES``."""
    places, defined = {}, set()
    for module, tree in _package(_trees()):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                places.setdefault(node.name, []).append(f"{module}.py:{node.lineno}")
    twice = {name: f"{name}: {' '.join(where)}" for name, where in places.items()
             if len(where) > 1}
    _check_allowlist(twice, defined, SHARED_NAMES)


def _definitions(tree):
    """``(name, line, is_method)`` of a module's public functions and of the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno, True) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _dotted(path):
    """The dotted module name of a program file: ``heisgeo.surface``,
    ``heisgeo`` for the package's ``__init__``, ``perfbench.tracer``."""
    package = path.parent.name
    return package if path.stem == "__init__" else f"{package}.{path.stem}"


def _bindings(tree, module):
    """``({name: dotted target}, modules)`` of the names a module's imports
    bind, at any depth: ``from . import m`` binds ``m`` to ``heisgeo.m``,
    ``from .m import f as g`` binds ``g`` to ``heisgeo.m.f`` and ``import
    heisgeo.m`` binds ``heisgeo``.  ``modules`` holds the names bound to a
    module: every name an ``import`` binds, and a ``from`` name that is a
    submodule (``from . import m``, ``from importlib import resources``)."""
    package = module if module == "heisgeo" else module.rsplit(".", 1)[0]
    bound, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                bound[name] = alias.name if alias.asname else name
                modules.add(name)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [package if node.level else "", node.module]))
            for alias in node.names:
                name = alias.asname or alias.name
                bound[name] = f"{base}.{alias.name}"
                if _is_module(bound[name]):
                    modules.add(name)
    return bound, modules


def _is_module(target):
    """Whether the dotted ``target`` names a module (or package)."""
    try:
        return importlib.util.find_spec(target) is not None
    except ImportError:  # a name inside a module that is not a package
        return False


def _resolve(node, bound, module):
    """The dotted target an expression reads, or None: a bare name is what
    an import bound it to, else a name of its own module; ``x.a`` is the
    target of ``x`` followed by ``a``."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, f"{module}.{node.id}")
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound, module)
        return base and f"{base}.{node.attr}"
    return None


def _on_module(node, modules):
    """Whether the attribute chain ``node`` (``x.a.b``) starts at a name
    that an import bound to a module, as ``np.linalg.norm`` does."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def _walk(tree):
    """Every node of a module, except its ``__all__``, which lists a name
    without using it."""
    body = [node for node in tree.body if not (
        isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__")]
    return (sub for top in body for sub in ast.walk(top))


def _references(tree, module):
    """``(reads, attributes, strings)`` of a module.  Reads are the dotted
    targets of its read names and attribute chains (a function is used where
    its own module or an importer reads it, not where its ``__init__``
    re-exports it); attributes are the names ``a`` of its read attributes
    ``x.a`` whose chain does not start at an imported module; strings are
    its string constants (the benchmark tracer names its targets as
    strings)."""
    bound, modules = _bindings(tree, module)
    reads, attrs, strings = set(), set(), set()
    for node in _walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            reads.add(_resolve(node, bound, module))
            if isinstance(node, ast.Attribute) and not _on_module(node, modules):
                attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return reads, attrs, strings


def test_every_public_function_is_used():
    """A public function or method of ``src/heisgeo`` that nothing in
    ``src`` or ``perfbench`` uses is dead code, unless it is listed library
    API.  A function of module ``m`` counts as used where ``m`` reads its
    bare name, where another module reads the name it imported from ``m``
    or reads it as an attribute of ``m`` bound by an import, and where a
    string names it (the claim functions are read by the ``CLAIMS``
    registry).  The package's ``__init__`` re-exports are not uses.  A
    method ``name`` counts as used where an attribute ``x.name`` is read
    whose chain does not start at an imported module (``np.linalg.norm`` is
    no use of a method ``norm``), and where a string names it.  Dunders and
    private names are exempt."""
    trees = _trees()
    refs = [_references(tree, _dotted(path)) for path, tree in trees.items()]
    reads, attrs, strings = (set().union(*parts) for parts in zip(*refs))
    defined, unused = set(), {}
    for module, tree in _package(trees):
        for name, line, is_method in _definitions(tree):
            if name.startswith("_"):
                continue
            key = f"{module}.{name}"
            defined.add(key)
            used = name in attrs if is_method else f"heisgeo.{key}" in reads
            if not (used or name in strings):
                unused[key] = f"{module}.py:{line} {name}"
    _check_allowlist(unused, defined, LIBRARY_FUNCTIONS)


def _defaulted_parameters(tree):
    """``(name, line, parameter, position, is_method)`` of every defaulted
    parameter of a module's public functions and of the public methods of
    its classes.  A method's positions do not count ``self`` (or ``cls``); a
    keyword-only parameter has position None."""
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
                yield fn.name, fn.lineno, arg.arg, i - skip, bool(skip)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn.name, fn.lineno, arg.arg, None, bool(skip)


def _passed(trees):
    """``{callee: (positions, keywords)}`` that the calls of ``trees`` pass:
    the most positional arguments of any call, and every keyword.  A call
    ``x.name(...)`` whose chain does not start at an imported module is a
    method call, keyed by ``name``; any other callee is keyed by its dotted
    target, as the function guard resolves it (``heisgeo.m.f`` for ``f`` in
    ``m``, an ``f`` imported from ``m``, or ``m.f`` through an imported
    ``m``).  A starred argument (``*args``, ``**kwargs``) passes nothing,
    and no positional argument after a ``*args`` counts, since its position
    is unknown."""
    passed = {}
    for path, tree in trees.items():
        module = _dotted(path)
        bound, modules = _bindings(tree, module)
        for node in _walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and not _on_module(func, modules):
                callee = func.attr
            else:
                callee = _resolve(func, bound, module)
            if callee is None:
                continue
            leading = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                leading += 1
            positions, keywords = passed.get(callee, (0, set()))
            passed[callee] = (max(positions, leading),
                              keywords | {k.arg for k in node.keywords if k.arg is not None})
    return passed


def test_every_option_is_set():
    """A defaulted parameter of a public function or method of
    ``src/heisgeo`` that no call in ``src`` or ``perfbench`` passes, by
    keyword or by position, is an option nothing sets: it should be a
    constant, unless it is listed library API.  A function ``f`` of module
    ``m`` is called where a callee resolves to ``heisgeo.m.f``; a method
    ``name`` where a call ``x.name(...)`` has a chain that does not start
    at an imported module (see ``_passed``).  Every claim producer is a
    fixed statement of one seed."""
    trees = _trees()
    passed = _passed(trees)
    defined, unset = set(), {}
    for module, tree in _package(trees):
        for name, line, param, position, is_method in _defaulted_parameters(tree):
            key = f"{module}.{name}.{param}"
            defined.add(key)
            callee = name if is_method else f"heisgeo.{module}.{name}"
            positions, keywords = passed.get(callee, (0, set()))
            if param not in keywords and (position is None or position >= positions):
                unset[key] = f"{module}.py:{line} {name}.{param}"
    _check_allowlist(unset, defined, LIBRARY_OPTIONS)
    verify = importlib.import_module("heisgeo.verify")
    many = [cid for cid, producer in verify.CLAIMS.items()
            if len(inspect.signature(producer).parameters) != 1]
    assert not many, many
