"""The linear-algebra backend is chosen in one place, `complexes.Ring`,
Smith forms are taken only by `Ring` and `complexes.Subquotient`, the
squares search walks classes in one generator, whatever the ring, the unit
lemma's matrices share one field layer, primality is decided in `modp`, and
the blocks of graded maps are checked in one function of `complexes` and
read from JSON in one function of `jsonio`."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import homcart

SRC = Path(homcart.__file__).resolve().parent
ROOT = SRC.parents[1]


def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _uses_outside(tree: ast.Module, name: str, scopes: tuple[str, ...]) -> list[int]:
    """Lines where `name` is read outside the bodies of the given classes
    and functions."""
    inside = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.ClassDef, ast.FunctionDef)) and scope.name in scopes
        for node in ast.walk(scope)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name and id(node) not in inside
    ]


@pytest.mark.parametrize("module", ["complexes.py", "squares.py", "suite.py"])
def test_modp_is_used_only_inside_ring(module):
    tree = _parse(module)
    outside = _uses_outside(tree, "modp", ("Ring",))
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


def test_squares_walks_classes_in_one_place():
    tree = _parse("squares.py")
    outside = _uses_outside(tree, "product", ("_walk",))
    assert outside == [], f"product referenced outside _walk at lines {outside}"
    assert "is_small_prime_field" not in ast.unparse(tree)


def test_smith_forms_only_in_ring_and_subquotient():
    outside = _uses_outside(_parse("complexes.py"), "smith_normal_form", ("Ring", "Subquotient"))
    assert outside == [], f"smith_normal_form referenced at lines {outside}"
    for module in ("squares.py", "suite.py"):
        names = [
            node.id if isinstance(node, ast.Name) else node.name
            for node in ast.walk(_parse(module))
            if isinstance(node, (ast.Name, ast.alias))
        ]
        assert "smith_normal_form" not in names, module


@pytest.mark.parametrize("name", ["FpMatrix", "QMatrix"])
def test_field_matrices_are_named_only_in_their_own_class_bodies(name):
    outside = _uses_outside(_parse("unitlemma.py"), name, (name,))
    assert outside == [], f"{name} referenced outside its class at lines {outside}"


def test_primality_is_decided_only_in_modp():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "modp.py":
            continue
        tree = _parse(path.name)
        tests = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.replace("_", "") == "isprime"
        ]
        assert tests == [], f"{path.name} defines {tests}"
    # factoring serves only the residue CRT
    outside = _uses_outside(_parse("unitlemma.py"), "_prime_factors", ("_residue_alpha",))
    assert outside == [], f"_prime_factors referenced at lines {outside}"


def test_benchmark_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"homcart.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"homcart.{module}.{name}"


def _functions_around(tree: ast.Module, hit) -> list[str]:
    """The qualified name of the innermost function around each node for
    which hit(node) holds."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_block_shapes_are_checked_in_one_function():
    def shape_error(node):
        return (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ComplexError"
            and "has shape" in ast.unparse(node.exc.args[0])
        )

    sites = _functions_around(_parse("complexes.py"), shape_error)
    assert len(set(sites)) == 1, f"block shapes checked in {sorted(set(sites))}"


def test_blocks_are_read_from_json_in_one_function():
    def matrix_load(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_json"
            and getattr(node.func.value, "id", None) == "IntMatrix"
        )

    sites = _functions_around(_parse("jsonio.py"), matrix_load)
    assert len(set(sites)) == 1, f"IntMatrix.from_json called in {sorted(set(sites))}"
