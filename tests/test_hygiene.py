"""Static checks on the package source: every module-level import is used, every
public module-level name is read somewhere, every name exported in
``qcens.__all__`` resolves, and so does every name the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import pytest

import qcens

from conftest import load_perfbench

PACKAGE = Path(qcens.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
READERS = sorted({*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")})


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (``__future__`` aside) that no code reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in bound if name not in read]


def test_unused_import_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from math import pi, tau\n\ndef f() -> int:\n    return os.path.sep, tau\n")
    assert unused_imports(source) == ["line 3: regex", "line 4: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_public_names(defining: dict, reading: dict) -> list[str]:
    """``module: name`` for each public name that a module of ``defining`` binds at
    module level (def, class or assignment) and that no file of ``reading`` reads
    (a name, an attribute or an imported name) outside the name's own definition.
    Both map a file name to its source."""
    reads = []  # (file, line, name)
    for file, source in reading.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((file, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((file, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                reads.append((file, node.lineno, node.name))
    unread = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            unread += [f"{module}: {name}" for name in names if not name.startswith("_")
                       and not any(n == name and not (f == module and line in own)
                                   for f, line, n in reads)]
    return unread


def test_unread_name_check_finds_names_read_only_in_their_definition():
    module = ("import math\nUSED = 1\nUNUSED, PAIRED = 2, 3\n_PRIVATE = 4\n\n"
              "def recurse(n):\n    return recurse(n - 1) + USED\n\n"
              "class Box:\n    def box(self):\n        return Box\n\n"
              "def called():\n    return math.pi\n")
    user = "from m import called\nimport m\n\nm.PAIRED\n"
    assert unread_public_names({"m": module}, {"m": module, "user": user}) == [
        "m: UNUSED", "m: recurse", "m: Box"]


def test_every_public_module_level_name_is_read():
    reading = {path.as_posix(): path.read_text() for path in READERS}
    defining = {path.as_posix(): path.read_text() for path in MODULES}
    assert unread_public_names(defining, reading) == []


def test_every_exported_name_resolves():
    assert [name for name in qcens.__all__ if not hasattr(qcens, name)] == []
    assert len(set(qcens.__all__)) == len(qcens.__all__)


def test_every_benchmark_tracer_hook_resolves():
    """A renamed hook fails here, not only in a traced benchmark run."""
    tracer = load_perfbench("tracer")
    missing = []
    for _, where, attr, _ in tracer.HOOKS:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if attr not in vars(getattr(owner, cls) if cls else owner):
            missing.append(f"{where}.{attr}")
    assert missing == []
