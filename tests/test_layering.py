"""The linear-algebra backend is chosen in one place, `complexes.Ring`."""

import ast
from pathlib import Path

import pytest

import homcart

SRC = Path(homcart.__file__).resolve().parent


def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", ["complexes.py", "squares.py", "suite.py"])
def test_modp_is_used_only_inside_ring(module):
    tree = _parse(module)
    inside_ring = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Ring"
        for node in ast.walk(cls)
    }
    outside = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "modp" and id(node) not in inside_ring
    ]
    assert outside == [], f"modp referenced outside Ring at lines {outside}"
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("modp")
        for node in ast.walk(tree)
    )


def test_squares_never_names_int64():
    hits = [
        node.lineno
        for node in ast.walk(_parse("squares.py"))
        if isinstance(node, ast.Attribute) and node.attr == "int64"
    ]
    assert hits == []
