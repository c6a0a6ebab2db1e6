"""Every name a package module imports is used in that module, every
module-level private name is used somewhere in the package, and every
public function, class and method is called from outside the unit tests.

AST scans.  A name bound by ``import`` or ``from ... import`` counts as
used when the module loads it anywhere (as a bare name or as the base of
an attribute chain), or, in ``__init__.py``, when ``__all__`` lists it.
A private name (``_x``) bound by a top-level ``def``, ``class`` or
assignment counts as used when any package module loads it as a bare
name, reads it as an attribute (``T._EPS``) or imports it.  A public
top-level ``def`` or ``class``, or a public method of a top-level class,
counts as used when the package, a non-test perfbench module, the
acceptance tests or the gradient checker references its name that way;
API surface that only unit tests call fails the scan.
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
