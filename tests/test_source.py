"""The package's source carries no dead imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "schmidt_forge"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module binds by import but never reads; names in its
    ``__all__`` and ``from __future__ import annotations`` are exempt."""
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = set(imported) - read - exported - {"annotations"}
    return [f"{name} (line {imported[name]})" for name in sorted(dead)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_dead_import_is_reported():
    tree = ast.parse("from __future__ import annotations\nimport os, sys as system\n"
                     "from .spectrum import frontier\n__all__ = ['frontier']\nprint(os)\n")
    assert _unused_imports(tree) == ["system (line 2)"]
