"""Every name a package module imports is used in that module, every
module-level private name is used somewhere in the package, every public
function, class and method is called from outside the unit tests, every
parameter default is overridden by some such call but not by all of
them, no module but ``rng.py`` makes a random generator, and no module
decodes binary input around ``atomic.read_array``.

AST scans.  A name bound by ``import`` or ``from ... import`` counts as
used when the module loads it anywhere (as a bare name or as the base of
an attribute chain), or, in ``__init__.py``, when ``__all__`` lists it.
A private name (``_x``) bound by a top-level ``def``, ``class`` or
assignment counts as used when any package module loads it as a bare
name, reads it as an attribute (``T._EPS``) or imports it.  A public
top-level ``def`` or ``class``, or a public method of a top-level class,
counts as used when the package, a non-test perfbench module, the
acceptance tests or the gradient checker references its name that way;
API surface that only unit tests call fails the scan.  A parameter with a
default counts as passed when some call to its function's name (its
class's name, for ``__init__``) in that same code passes it by keyword,
by position or through ``*``/``**``; a constructor parameter named in
``spec_fields`` counts as passed, because checkpoints load those with
``**``.  An option that only unit tests set fails the scan.  So does a
default that every real call overrides, public or private: that default
is dead, and a caller that forgets the argument (a seed, say) would get
it silently.  Real calls to a public name are those in the package and
in the code above; real calls to a private name are those in the
package.  A call through a ``random`` module (``np.random.default_rng``,
``np.random.seed``, ``random.random``) or of a generator constructor by
name makes, seeds or draws from a generator outside the streams
``rng.py`` derives from a run's seed, and fails the scan anywhere else.
An import of ``struct``, or a ``.read(...)`` call whose size is not a
literal, fails the scan in any module: a size that comes from a file goes
through ``read_array``, which checks it against the file before reading.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oneshotid"
MODULES = sorted(SRC.glob("*.py"))
# Code, besides the package, whose references keep a public name in use.
CALLERS = ([p for p in sorted((ROOT / "perfbench").glob("*.py"))
            if not p.name.startswith("test_")]
           + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "gradcheck.py"])


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_a_stray_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from .x import a, b\n__all__ = ['a']\n") == [(1, "b")]
    assert unused_imports("import numpy as np\nnp.zeros(1)\n") == []


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unreferenced_private_names(sources):
    """(module, line, name) of each private top-level name in ``sources``
    ({module: source text}) that no module references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in _private_definitions(tree) if name not in used)


def test_package_uses_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_private_names(sources) == []


def test_scan_finds_a_stray_private_name():
    sources = {"a.py": "def _f():\n    pass\n_K = 1\n_J: int = 2\n__all__ = []\n",
               "b.py": "from .a import _J\nimport a\na._K\n"}
    assert unreferenced_private_names(sources) == [("a.py", 1, "_f")]


def _public_definitions(tree):
    """(line, qualified name, name) of each public top-level def or class
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.lineno, f"{node.name}.{item.name}", item.name


def unreferenced_public_names(sources, callers):
    """(module, line, qualified name) of each public definition in
    ``sources`` ({module: source text}) that neither ``sources`` nor any
    text in ``callers`` references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {name for tree in [*trees.values(), *map(ast.parse, callers)]
            for name in _references(tree)}
    return sorted((module, line, qualname) for module, tree in trees.items()
                  for line, qualname, name in _public_definitions(tree) if name not in used)


def test_public_names_are_used_outside_unit_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unreferenced_public_names(sources, callers) == []


def test_scan_finds_a_public_name_only_unit_tests_use():
    sources = {"a.py": ("def f():\n    pass\ndef g():\n    pass\n"
                        "class C:\n    def m(self):\n        pass\n"
                        "    def n(self):\n        pass\n    def _p(self):\n        pass\n"),
               "b.py": "from .a import f\n"}
    assert unreferenced_public_names(sources, ["a.C().m()\n"]) == [
        ("a.py", 3, "g"), ("a.py", 8, "C.n")]


def _spec_fields(cls):
    for node in cls.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "spec_fields" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _defaulted_parameters(tree, private=False):
    """(line, label, call name, position, parameter) of each parameter with
    a default of a public top-level function, a public method of a
    top-level class or a public class's ``__init__`` (with ``private``, of
    the private ones instead).  ``position`` is the parameter's index among
    a call's positional arguments, or None when it is keyword-only; a
    constructor parameter named in its class's ``spec_fields`` is left
    out."""
    def chosen(name):
        return name.startswith("_") == private and not name.startswith("__")

    funcs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and chosen(node.name):
            funcs.append((node, node.name, node.name, 0, set()))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__" and chosen(node.name):
                    funcs.append((item, node.name, node.name, 1, _spec_fields(node)))
                elif chosen(item.name):
                    funcs.append((item, f"{node.name}.{item.name}", item.name, 1, set()))
    for func, label, name, skip, exempt in funcs:
        positional = [*func.args.posonlyargs, *func.args.args]
        first_default = len(positional) - len(func.args.defaults)
        defaulted = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first_default]
        defaulted += [(None, a.arg) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
                      if d is not None]
        for position, param in defaulted:
            if param not in exempt:
                yield func.lineno, label, name, position, param


def _calls(tree):
    """(called name, positional count, keyword names) of each call; a call
    with ``*`` or ``**`` arguments counts as passing every parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            yield name, 0, None
        else:
            yield name, len(node.args), {k.arg for k in node.keywords}


def unpassed_defaults(sources, callers):
    """(module, line, label, parameter) of each defaulted parameter in
    ``sources`` ({module: source text}) that no call in ``sources`` or in
    ``callers`` passes by keyword, by position or through ``*``/``**``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = {}
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        for name, n_positional, keywords in _calls(tree):
            calls.setdefault(name, []).append((n_positional, keywords))

    def passed(name, position, param):
        return any(keywords is None or param in keywords
                   or (position is not None and n_positional > position)
                   for n_positional, keywords in calls.get(name, ()))

    return sorted((module, line, label, param) for module, tree in trees.items()
                  for line, label, name, position, param in _defaulted_parameters(tree)
                  if not passed(name, position, param))


def test_defaulted_parameters_are_passed_outside_unit_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unpassed_defaults(sources, callers) == []


def test_scan_finds_a_default_only_unit_tests_pass():
    sources = {"a.py": ("def f(x, y=1, z=2, *, k=3):\n    pass\n"
                        "def g(x=0):\n    pass\n"
                        "class C:\n    spec_fields = ('s',)\n"
                        "    def __init__(self, s=1, t=2):\n        pass\n"
                        "    def m(self, u=1, v=2):\n        pass\n"),
               "b.py": "from .a import f\nf(0, 1)\nC()\n"}
    callers = ["a.C().m(v=4)\n", "args = ()\nf(*args)\n"]
    assert unpassed_defaults(sources, callers) == [
        ("a.py", 3, "g", "x"), ("a.py", 7, "C", "t"), ("a.py", 9, "C.m", "u")]
    assert unpassed_defaults(sources, ["a.C().m(v=4)\n"]) == [
        ("a.py", 1, "f", "k"), ("a.py", 1, "f", "z"), ("a.py", 3, "g", "x"),
        ("a.py", 7, "C", "t"), ("a.py", 9, "C.m", "u")]


def _non_call_references(tree):
    """Names ``tree`` loads, as a bare name or an attribute, other than as
    the function of a call."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if id(node) in called:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def dead_defaults(sources, callers):
    """(module, line, label, parameter) of each defaulted parameter in
    ``sources`` ({module: source text}) that every call passes, by keyword
    or by position.  Calls to a public name come from ``sources`` and
    ``callers``; calls to a private name come from ``sources`` only.  A
    function that is never called, is called with ``*`` or ``**``, or is
    referenced other than by a call in that same code (so it may be called
    elsewhere) is left out."""
    trees = {module: ast.parse(text) for module, text in sources.items()}

    def index(scope):
        calls, values = {}, set()
        for tree in scope:
            for name, n_positional, keywords in _calls(tree):
                calls.setdefault(name, []).append((n_positional, keywords))
            values.update(_non_call_references(tree))
        return calls, values

    scopes = {True: index(trees.values()),
              False: index([*trees.values(), *map(ast.parse, callers)])}

    def always_passed(private, name, position, param):
        calls, values = scopes[private]
        return name not in values and bool(calls.get(name)) and all(
            keywords is not None and (param in keywords
                                      or (position is not None and n_positional > position))
            for n_positional, keywords in calls[name])

    return sorted((module, line, label, param) for module, tree in trees.items()
                  for private in (False, True)
                  for line, label, name, position, param in _defaulted_parameters(tree, private)
                  if always_passed(private, name, position, param))


def _tree_dead_defaults(private):
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    return [entry for entry in dead_defaults(sources, callers)
            if entry[2].rsplit(".", 1)[-1].startswith("_") == private]


def test_private_defaults_are_not_always_passed():
    assert _tree_dead_defaults(private=True) == []


def test_public_defaults_are_not_always_passed():
    assert _tree_dead_defaults(private=False) == []


def test_scan_finds_a_default_every_call_passes():
    sources = {"a.py": ("def _f(x, y=1, z=2):\n    pass\n"
                        "def _g(x=0):\n    pass\n"
                        "def _h(x=0):\n    pass\n"
                        "def _k(x=0):\n    pass\n"
                        "class C:\n    def _m(self, u=1, *, v=2):\n        pass\n"),
               "b.py": ("from .a import _f, _g, _h\n_f(0, 1)\n_f(0, y=2, z=3)\n"
                        "_g(1)\nhook = _g\n_h(*[1])\nC()._m(4, v=5)\n")}
    assert dead_defaults(sources, []) == [
        ("a.py", 1, "_f", "y"), ("a.py", 10, "C._m", "u"), ("a.py", 10, "C._m", "v")]


def test_scan_finds_a_public_default_only_unit_tests_rely_on():
    # Only unit tests would call f without a seed; g has a caller that omits
    # it; h is referenced as a value, so it may be called anywhere.  Calls
    # from callers do not count for the private _p.
    sources = {"a.py": ("def f(x, seed=0):\n    pass\n"
                        "def g(x, seed=0):\n    pass\n"
                        "def h(x, seed=0):\n    pass\n"
                        "def _p(x, seed=0):\n    pass\n"),
               "b.py": ("from .a import f, g, h, _p\n"
                        "f(1, seed=2)\ng(1, 2)\nh(1, seed=3)\n_p(1, 2)\n")}
    callers = ["f(4, seed=5)\ng(6)\nhook = h\nh(7, 8)\n_p(9)\n"]
    assert dead_defaults(sources, callers) == [
        ("a.py", 1, "f", "seed"), ("a.py", 7, "_p", "seed")]
    assert dead_defaults(sources, []) == [
        ("a.py", 1, "f", "seed"), ("a.py", 3, "g", "seed"), ("a.py", 5, "h", "seed"),
        ("a.py", 7, "_p", "seed")]


_GENERATOR_NAMES = ("default_rng", "RandomState", "SeedSequence")


def _dotted(node):
    """``a.b.c`` for a name or an attribute chain on one, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def generator_calls(source):
    """(line, dotted name) of each call in ``source`` through a ``random``
    module, or of a generator constructor by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = _dotted(node.func) if isinstance(node, ast.Call) else None
        if name and ("random" in name.split(".")[:-1]
                     or name.rsplit(".", 1)[-1] in _GENERATOR_NAMES):
            found.append((node.lineno, name))
    return sorted(found)


def test_only_the_rng_module_makes_generators():
    assert [(p.name, line, name) for p in MODULES if p.name != "rng.py"
            for line, name in generator_calls(p.read_text(encoding="utf-8"))] == []


def test_scan_finds_a_stray_generator():
    source = ("import random\nimport numpy as np\nfrom numpy.random import default_rng\n"
              "rng = np.random.default_rng(0)\nnp.random.seed(1)\nrandom.seed(2)\n"
              "default_rng()\nrng.random(3)\nrng.uniform(0, 1)\nderive_rng(4, 'x')\n")
    assert generator_calls(source) == [
        (4, "np.random.default_rng"), (5, "np.random.seed"), (6, "random.seed"),
        (7, "default_rng")]


def unchecked_reads(source):
    """(line, source text) of each import of ``struct`` in ``source``, and of
    each ``.read(...)`` call given a size that is not a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            stray = any(alias.name == "struct" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            stray = node.module == "struct"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "read":
            sizes = [*node.args, *(k.value for k in node.keywords)]
            stray = not all(isinstance(size, ast.Constant) for size in sizes)
        else:
            continue
        if stray:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_binary_input_is_read_through_read_array():
    assert [(p.name, line, text) for p in MODULES
            for line, text in unchecked_reads(p.read_text(encoding="utf-8"))] == []


def test_scan_finds_an_unchecked_read():
    source = ("import struct\nfrom struct import unpack\nimport os, json\n"
              "f.read(8)\nf.read(4 * n)\nf.read(size=n)\nf.read()\nf.readinto(a)\n"
              "read(n)\n")
    assert unchecked_reads(source) == [
        (1, "import struct"), (2, "from struct import unpack"), (5, "f.read(4 * n)"),
        (6, "f.read(size=n)")]
