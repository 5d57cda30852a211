"""Static checks on the package source: every module-level import is used, and
every name exported in ``qcens.__all__`` resolves."""

import ast
from pathlib import Path

import pytest

import qcens

MODULES = sorted(p for p in Path(qcens.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


def test_every_exported_name_resolves():
    assert [name for name in qcens.__all__ if not hasattr(qcens, name)] == []
    assert len(set(qcens.__all__)) == len(qcens.__all__)
