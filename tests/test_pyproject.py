"""The Python floor in ``pyproject.toml`` admits only versions that can run
the package: while a module calls ``.add_note(`` (``BaseException.add_note``,
new in Python 3.11 by PEP 678), ``requires-python`` must start at 3.11 or
later."""

import ast
import pathlib
import re
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "oneshotid").glob("*.py"))


def python_floor(pyproject):
    """(major, minor) of the ``>=X.Y`` requires-python of ``pyproject``
    (TOML text)."""
    spec = tomllib.loads(pyproject)["project"]["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec.strip()).groups()
    return int(major), int(minor)


def calls_add_note(source):
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_note" for node in ast.walk(ast.parse(source)))


def test_requires_python_covers_add_note():
    if any(calls_add_note(p.read_text(encoding="utf-8")) for p in MODULES):
        assert python_floor((ROOT / "pyproject.toml").read_text(encoding="utf-8")) >= (3, 11)


def test_scan_reads_the_floor_and_finds_add_note():
    assert python_floor('[project]\nrequires-python = ">=3.10"\n') == (3, 10)
    assert calls_add_note("try:\n    pass\nexcept Exception as e:\n    e.add_note('x')\n")
    assert not calls_add_note("add_note = 1\nnotes = []\n")
