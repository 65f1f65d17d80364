"""Every module-level import in the package is used by its module, and
every private function or class is read outside its own body."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hlf"


def _unused_imports(source):
    """Names bound by module-level imports that the module never reads,
    with their line numbers."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nimport re as r\nx = 1\n") \
        == [(1, "os"), (2, "r")]
    assert _unused_imports("from a.b import c, d\nc(d)\n") == []
    assert _unused_imports("import os.path\nos.sep\n") == []
    assert _unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def _orphans(sources):
    """(file, line, name) of each `_`-prefixed function or class, at module
    or class level, that no code in sources reads outside its own body.
    A read is a loaded name or attribute of that name; dunders are left
    out."""
    defs, reads = [], []
    for path, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree]
        while scopes:
            for node in scopes.pop().body:
                if isinstance(node, ast.ClassDef):
                    scopes.append(node)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                        and node.name.startswith("_") \
                        and not node.name.endswith("__"):
                    defs.append((path, node))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.append((path, n.id, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.append((path, n.attr, n.lineno))
    return sorted((path, d.lineno, d.name) for path, d in defs
                  if not any(name == d.name and not (
                      path == where and d.lineno <= line <= d.end_lineno)
                      for where, name, line in reads))


def test_the_check_sees_an_orphaned_private_name():
    source = ("def _gone(k):\n    return _gone(k - 1)\n\n"
              "class A:\n    def _kept(self):\n        pass\n"
              "    def _dead(self):\n        return self._kept()\n"
              "    def __init__(self):\n        pass\n\n"
              "class _Shape:\n    pass\n")
    assert _orphans({"m.py": source}) == [
        ("m.py", 1, "_gone"), ("m.py", 7, "_dead"), ("m.py", 12, "_Shape")]
    assert _orphans({"m.py": source, "n.py": "_gone(1)\nA()._dead\n_Shape\n"}) \
        == []


def test_every_private_name_has_a_reader():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _orphans(sources) == []
