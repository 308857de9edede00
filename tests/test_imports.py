"""Every name a library module imports is used in that module.

``__init__.py`` is exempt: its imports are the package's public names.
Library modules also call no numpy helper that only wraps a C entry point
in Python code (see ``NUMPY_HELPERS``).
"""

import ast
import os

import pytest

import slopekit

PACKAGE = os.path.dirname(slopekit.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_found():
    source = ("import os\nimport numpy as np\nfrom math import inf, nan\n"
              "print(np.zeros(1), inf)\n")
    assert unused_imports(source) == [(1, "os"), (3, "nan")]


def unreferenced_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private function, class or
    constant that no module of ``sources`` (module name -> source) refers
    to anywhere but at its definition."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined.extend((module, node.lineno, name) for name in names
                           if name.startswith("_")
                           and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in used)


def test_no_unreferenced_private_names():
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources[module] = fh.read()
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_found():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE, _TOP = 1, 2\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _dead():\n    return 0\n"
                 "class _Marker:\n    pass\n"
                 "def public():\n    return __name__\n"),
        "b.py": ("from .a import _helper\nimport a\n"
                 "print(_helper(), a._TOP)\n"),
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 5, "_dead"), ("a.py", 7, "_Marker")]


# numpy helper -> the C entry point it wraps, which the library calls instead:
# at n <= 12 each helper costs microseconds against well under one of work
NUMPY_HELPERS = {
    "flatnonzero": "m.nonzero()[0]",
    "argwhere": "zip(*m.nonzero())",
    "ix_": "x.take(r, 0).take(c, 1)",
    "array_equal": "(a == b).all()",
    "all": "x.all()",
    "any": "x.any()",
}


def numpy_helper_calls(source: str) -> list:
    """(line, name) of each call of a ``NUMPY_HELPERS`` name through np or
    numpy, or imported from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in NUMPY_HELPERS):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in NUMPY_HELPERS)
    return sorted(found)


def test_no_numpy_python_helpers():
    source = ("import numpy as np\nfrom numpy import ix_, stack\n"
              "np.all(x); x.all(); np.flatnonzero(m); m.nonzero()\n"
              "numpy.argwhere(m); np.array_equal(a, b); np.any(x); np.stack(y)\n")
    assert numpy_helper_calls(source) == [
        (2, "ix_"), (3, "all"), (3, "flatnonzero"), (4, "any"),
        (4, "argwhere"), (4, "array_equal")]
    found = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module)) as fh:
            calls = numpy_helper_calls(fh.read())
        if calls:
            found[module] = calls
    assert found == {}


# Where a distance matrix enters the program, so that MetricSpace checks it:
# (module, enclosing function).  Every other space, a subspace, is built
# from a matrix that one of these has already checked.
MATRIX_ENTRIES = {("metric_space.py", "grid_space"),
                  ("metric_space.py", "_closure_space"),
                  ("instances.py", "_space_from_spec")}


def metric_space_builds(source: str) -> list:
    """(enclosing function, line) of each ``MetricSpace(...)`` call; a method
    is named with its class, module level is ""."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "MetricSpace"
                    or getattr(child.func, "attr", None) == "MetricSpace"):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_metric_space_built_only_where_a_matrix_enters():
    source = ("def grid_space():\n    return MetricSpace(p, d)\n"
              "class MetricSpace:\n    def subspace(self):\n"
              "        return object.__new__(MetricSpace), MetricSpace(p, d)\n"
              "space = metric_space.MetricSpace(p, d)\n")
    assert metric_space_builds(source) == [
        ("grid_space", 2), ("MetricSpace.subspace", 5), ("", 6)]
    found = set()
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module)) as fh:
            found.update((module, scope)
                         for scope, _ in metric_space_builds(fh.read()))
    assert found == MATRIX_ENTRIES


# Rules written in one place, (module, function, rule): a level must be
# positive (or nonnegative), a point must lie in dom f, and a field must
# be proper (not identically +inf).
RULE_HOMES = {("config.py", "_require_level", "level"),
              ("slope_core.py", "_require_in_dom", "dom"),
              ("slope_core.py", "_require_proper", "proper")}


def _raises(node) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(node))


def _is_level_test(test) -> bool:
    """``not x > 0`` or ``not x >= 0`` (or 0 < x, 0 <= x): one comparison."""
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Compare)
            and len(test.operand.ops) == 1):
        return False
    cmp = test.operand
    zero = [isinstance(n, ast.Constant) and n.value == 0
            and not isinstance(n.value, bool)
            for n in (cmp.left, cmp.comparators[0])]
    return ((zero[1] and isinstance(cmp.ops[0], (ast.Gt, ast.GtE)))
            or (zero[0] and isinstance(cmp.ops[0], (ast.Lt, ast.LtE))))


def _is_proper_test(test) -> bool:
    """``not <anything>.is_proper()``."""
    return (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Call)
            and getattr(test.operand.func, "attr", None) == "is_proper")


def rule_copies(source: str) -> list:
    """(enclosing function, line, rule) of each spelling of a one-place
    rule: an ``if`` with a level test whose body raises ("level"), a
    raise whose message says "outside dom f" ("dom"), and an ``if not
    ....is_proper()`` whose body raises or a raise of ``ImproperFieldError``
    ("proper")."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.If) and _is_level_test(child.test)
                    and any(map(_raises, child.body))):
                found.append((".".join(scope), child.lineno, "level"))
            if isinstance(child, ast.Raise) and child.exc and any(
                    isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and "outside dom f" in n.value
                    for n in ast.walk(child.exc)):
                found.append((".".join(scope), child.lineno, "dom"))
            if (isinstance(child, ast.If) and _is_proper_test(child.test)
                    and any(map(_raises, child.body))) or (
                    isinstance(child, ast.Raise) and child.exc and any(
                        "ImproperFieldError" in (getattr(n, "id", None),
                                                 getattr(n, "attr", None))
                        for n in ast.walk(child.exc))):
                found.append((".".join(scope), child.lineno, "proper"))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_level_and_domain_refusals_written_once():
    source = (
        "def f(x):\n"
        "    if not x > 0:   # nan too\n"
        "        raise ValueError(x)\n"
        "    if not x >= 0:\n"
        "        y = 1\n"
        "    if not 0 < x < 1:\n"
        "        raise ValueError(x)\n"
        "    if not (x > 0 and x < 1):\n"
        "        raise ValueError(x)\n"
        "    if not x > 1:\n"
        "        raise ValueError(x)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        if not 0.0 <= x:\n"
        "            if x:\n"
        "                raise ValueError(f'{x} is bad')\n"
        "        raise DomainError(f'point {x!r} is outside dom f')\n"
        "def h(problems):\n"
        "    problems.append('outside dom f')\n"
        "    raise DomainError('start point is outside dom f')\n"
        "def k(f, g):\n"
        "    if not f.is_proper():\n"
        "        raise ParameterError('base field must be proper')\n"
        "    if not g.is_proper():\n"
        "        return None\n"
        "    if f.is_proper():\n"
        "        raise ValueError(f)\n"
        "    if not g._dom.size:\n"
        "        raise errors.ImproperFieldError('g is identically +inf')\n")
    assert rule_copies(source) == [
        ("f", 2, "level"), ("C.g", 14, "level"), ("C.g", 17, "dom"),
        ("h", 20, "dom"), ("k", 22, "proper"), ("k", 29, "proper")]
    found = set()
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module)) as fh:
            found.update((module, scope, rule)
                         for scope, _, rule in rule_copies(fh.read()))
    assert found - RULE_HOMES == set()


# dom f is computed once, where every field is built (slope_core._adopt);
# the modules that read it use the field's mask and indices instead.
DOM_READERS = ("slope_core.py", "variational.py", "suite.py")


def dom_tests(source: str) -> list:
    """(enclosing function, line) of each ``isfinite`` call and each ``==``,
    ``!=``, ``in`` or ``not in`` comparison with ``INF`` outside ``_adopt``;
    ``<`` and the other orderings are allowed."""
    found = []

    def is_inf(node):
        return isinstance(node, ast.Name) and node.id == "INF"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if child.name != "_adopt":
                    visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and "isfinite" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append((".".join(scope), child.lineno))
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                       and (is_inf(a) or is_inf(b))
                       for op, a, b in zip(child.ops, operands,
                                           operands[1:])):
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_dom_f_computed_only_where_a_field_is_built():
    source = (
        "def _adopt(a):\n"
        "    return np.isfinite(a), a == INF\n"
        "def f(v, x):\n"
        "    if not math.isfinite(x) or x != INF:\n"
        "        return INF in v, [y for y in v if y != INF]\n"
        "    return 0 < x < INF, v < INF, INF == v, x is INF, isfinite(x)\n"
        "class C:\n"
        "    def g(self, v):\n"
        "        return 0 <= v[0] == INF\n")
    assert dom_tests(source) == [
        ("f", 4), ("f", 4), ("f", 5), ("f", 5), ("f", 6), ("f", 6),
        ("C.g", 9)]
    found = {}
    for module in DOM_READERS:
        with open(os.path.join(PACKAGE, module)) as fh:
            sites = dom_tests(fh.read())
        if sites:
            found[module] = sites
    assert found == {}


def _has_tol(node) -> bool:
    """``tol``, ``-tol``, or a sum or difference with ``tol`` as a term."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _has_tol(node.left) or _has_tol(node.right)
    return isinstance(node, ast.Name) and node.id == "tol"


def tolerance_comparisons(source: str) -> list:
    """(enclosing function, line) of each comparison with an operand that
    is ``tol``, ``-tol`` or a sum or difference with ``tol`` as a term.

    Every such comparison goes through ``config._exceeds``, ``_within``,
    ``_below`` or ``_at_least``.  Two keep their own spelling and name no
    such operand: ``slope_core._crit_rows`` re-checks eps-Crit in place
    against the relative slack tol * (1 + d), which through a helper would
    take one more n x |rows| buffer, and ``metric_space._certifies``
    compares in exact rationals, not floats.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare) and any(
                    map(_has_tol, [child.left, *child.comparators])):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_tolerance_compared_only_in_config():
    source = (
        "def f(a, b, tol):\n"
        "    return a > b + tol, a <= tol, -tol <= a, a < b - c - tol\n"
        "class C:\n"
        "    def g(self, a, b, tol):\n"
        "        return (tol + a < b, a > 2 * tol, a == b, _exceeds(a, b, tol),\n"
        "                a >= -(b + tol), a > b + tol_)\n")
    assert tolerance_comparisons(source) == [
        ("f", 2), ("f", 2), ("f", 2), ("f", 2), ("C.g", 5), ("C.g", 6)]
    with open(os.path.join(PACKAGE, "slope_core.py")) as fh:
        source = fh.read()
    # a copy of the package with one comparison spelled inline again
    line = source[:source.index("_within(slopes(f), eps, tol)")].count("\n")
    injected = source.replace("_within(slopes(f), eps, tol)",
                              "(slopes(f) <= eps + tol)")
    assert injected != source
    assert tolerance_comparisons(injected) == [("_crit_rows", line + 1)]
    found = {}
    for module in MODULES + ["__init__.py"]:
        if module != "config.py":
            with open(os.path.join(PACKAGE, module)) as fh:
                sites = tolerance_comparisons(fh.read())
            if sites:
                found[module] = sites
    assert found == {}


# Calls with one home each, (module, function): numpy's error state is set
# only by config._quiet, the one floating-point policy, and a seeded
# generator is built only by instances._rng, which reads the seed first.
CALL_HOMES = {"errstate": {("config.py", "_quiet")},
              "default_rng": {("instances.py", "_rng")}}


def calls_of(name: str, source: str) -> list:
    """(enclosing function, line) of each call of ``name``, bare or as an
    attribute such as ``np.errstate`` or ``np.random.default_rng``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_call_with_one_home_is_found():
    source = (
        "def f():\n"
        "    with np.errstate(over='ignore'):\n"
        "        return np.errstate\n"
        "class C:\n"
        "    def g(self):\n"
        "        return errstate(all='ignore'), np.random.default_rng(0)\n"
        "rng = default_rng(1)\n")
    assert calls_of("errstate", source) == [("f", 2), ("C.g", 6)]
    assert calls_of("default_rng", source) == [("C.g", 6), ("", 7)]
    # copies of the package with one site that picks its own flags, and
    # one generator built from an unread seed
    for name, module, scope, site, copy in [
            ("errstate", "slope_core.py", "add_fields",
             "with _quiet():   # a sum may round to ±inf",
             'with np.errstate(over="ignore"):'),
            ("default_rng", "instances.py", "gen_random_pl",
             "rng = _rng(seed)\n    k = int(",
             "rng = np.random.default_rng(seed)\n    k = int(")]:
        with open(os.path.join(PACKAGE, module)) as fh:
            source = fh.read()
        line = source[:source.index(site)].count("\n") + 1
        injected = source.replace(site, copy)
        assert injected != source
        assert (set(calls_of(name, injected)) - set(calls_of(name, source))
                == {(scope, line)})


@pytest.mark.parametrize("name", CALL_HOMES)
def test_call_made_only_at_its_home(name):
    found = set()
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module)) as fh:
            found.update((module, scope)
                         for scope, _ in calls_of(name, fh.read()))
    assert found == CALL_HOMES[name]
