"""The library imports the standard library and itself alone, and uses every
name it imports; the tests add their declared extras (pytest, mpmath) and
their own helper modules."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HELPERS = {path.stem for path in (ROOT / "tests").glob("*.py")}


def _imported(path):
    """The top-level package of every absolute import statement in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def _strays(directory, allowed):
    return sorted((str(path.relative_to(directory)), name)
                  for path in directory.rglob("*.py")
                  for name in _imported(path) if name not in allowed)


def _unused(path):
    """Names a file imports and never reads; names in its __all__ count as read."""
    bound, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return bound - used


def _unused_imports(directory):
    return sorted((str(path.relative_to(directory)), name)
                  for path in directory.rglob("*.py") for name in _unused(path))


def test_library_imports_only_the_standard_library():
    assert _strays(ROOT / "src" / "genusforge", sys.stdlib_module_names | {"genusforge"}) == []


def test_library_uses_every_name_it_imports():
    assert _unused_imports(ROOT / "src" / "genusforge") == []


def test_tests_import_only_the_declared_extras():
    allowed = sys.stdlib_module_names | {"genusforge", "pytest", "mpmath"} | HELPERS
    assert _strays(ROOT / "tests", allowed) == []


def test_a_stray_import_is_seen(tmp_path):
    (tmp_path / "stray.py").write_text("import json\nfrom sympy.abc import x\n"
                                       "def f():\n    import numpy as np\n")
    assert _strays(tmp_path, sys.stdlib_module_names) == [("stray.py", "numpy"),
                                                          ("stray.py", "sympy")]


def test_an_unused_import_is_seen(tmp_path):
    (tmp_path / "stray.py").write_text(
        "from __future__ import annotations\nimport os.path\nimport json as js\n"
        "from fractions import Fraction\nfrom math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x: Fraction):\n    return os.path.join(str(pi), x)\n")
    assert _unused_imports(tmp_path) == [("stray.py", "js")]
