"""Every name a cikit module imports is read somewhere in that module, every
module it imports is cikit's own or the standard library's, every function it
defines is named somewhere in the project, and every slot of its classes is
read somewhere in the project."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cikit"


def unused_imports(source: str):
    """Names bound by the module's imports that no expression reads and no
    ``__all__`` entry re-exports, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from .fields import FieldError, QQ as Q\n__all__ = ['json']\nprint(Q)\n")
    assert unused_imports(source) == ["os", "FieldError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str):
    """Top-level names of the modules the module's imports (at any depth)
    load that are neither relative (cikit's own), ``cikit`` nor in the
    standard library, in order of import."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module)
    return [name for name in (m.split(".")[0] for m in modules)
            if name != "cikit" and name not in sys.stdlib_module_names]


def test_the_scan_finds_a_third_party_import():
    source = ("from __future__ import annotations\nimport os.path, click\n"
              "from . import poly\nfrom .fields import QQ\nfrom cikit import harness\n"
              "def f():\n    import numpy.linalg\n    from concurrent import futures\n")
    assert non_stdlib_imports(source) == ["click", "numpy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_imports_only_the_standard_library(path):
    # cikit has no runtime dependency: an installed CLI loads nothing else
    assert non_stdlib_imports(path.read_text()) == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def unreferenced_functions(defining: dict, reading: list):
    """(name, file) for each undecorated, non-dunder function or method
    defined in the ``defining`` sources ({file name: source}) that no
    ``Name``, ``Attribute`` or import alias in the ``reading`` sources
    names, sorted."""
    named = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return sorted(
        (node.name, file)
        for file, source in defining.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.decorator_list
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    )


def test_the_scan_finds_an_unreferenced_function():
    defining = {"m.py": ("def used(): pass\ndef imported(): pass\ndef dead(): pass\n"
                         "@command\ndef cli(): pass\nclass C:\n    def __init__(self): pass\n"
                         "    def method(self): pass\n    def unused_method(self): pass\n")}
    reading = [*defining.values(), "from m import imported\nused()\nC().method()\n"]
    assert unreferenced_functions(defining, reading) == [("dead", "m.py"),
                                                         ("unused_method", "m.py")]


def test_every_function_under_src_is_named_somewhere():
    defining = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    reading = [path.read_text() for top in ("src", "tests", "cibench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert unreferenced_functions(defining, reading) == []


def write_only_slots(defining: dict, reading: list):
    """(class, slot, file) for each ``__slots__`` name of a class defined in
    the ``defining`` sources ({file name: source}) that no attribute load in
    the ``reading`` sources reads, sorted."""
    read = {node.attr for source in reading for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        (cls.name, slot.value, file)
        for file, source in defining.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for slot in stmt.value.elts
        if isinstance(slot, ast.Constant) and slot.value not in read
    )


def test_the_scan_finds_a_write_only_slot():
    defining = {"m.py": ("class C:\n    __slots__ = ('kept', 'stored', 'elsewhere')\n"
                         "    def __init__(self):\n        self.kept = self.stored = 1\n"
                         "        self.elsewhere = 2\n    def get(self):\n"
                         "        return self.kept\n")}
    reading = [*defining.values(), "print(C().elsewhere)\n"]
    assert write_only_slots(defining, reading) == [("C", "stored", "m.py")]


def test_every_slot_under_src_is_read_somewhere():
    defining = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    reading = [path.read_text() for top in ("src", "tests", "cibench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert write_only_slots(defining, reading) == []
