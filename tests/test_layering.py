"""The linear-algebra backend is chosen in one place, `complexes.Ring`,
whose `smith` is the one place where `complexes` decomposes a matrix (a
Smith form, or `modp.diagonalize` over F_p), `complexes.Subquotient` runs
one algorithm for every ring, with no int64 branch, the squares search walks classes in one generator, whatever the ring, and reads
every class it tries in Hom groups built at one site, the unit lemma's
matrices share one field layer, primality is decided in `modp`, and
the blocks of graded maps are checked in one function of `complexes` and
read from JSON in one function of `jsonio`, and contractions, solves,
kernels and quotients have one algorithm for every ring: no Hom-system
fallback, no recursion, one kernel formula (`intmat.smith_kernel`), and
homology read off cokernels, with no kernel basis and no `Subquotient`;
`intmat` copies only outside data and the working array of a Smith form."""

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


def test_squares_builds_hom_groups_at_one_site():
    calls = [
        node.lineno
        for node in ast.walk(_parse("squares.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hom_group"
    ]
    assert len(calls) == 1, f"hom_group called at lines {calls}"


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


def test_complexes_decomposes_matrices_only_in_ring_smith():
    def decomposition(node):
        return (isinstance(node, ast.Name) and node.id == "smith_normal_form") or (
            isinstance(node, ast.Attribute) and node.attr == "diagonalize"
        )

    sites = _functions_around(_parse("complexes.py"), decomposition)
    assert sites and set(sites) == {"Ring.smith"}, f"matrices decomposed in {sorted(set(sites))}"


def test_subquotient_has_one_algorithm_for_every_ring():
    tree = _parse("complexes.py")
    subquotient = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Subquotient")
    assert not _names(subquotient) & {"is_small_prime_field", "modp", "independent_columns"}
    ring = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Ring")
    assert "independent_columns" not in {n.name for n in ring.body if isinstance(n, ast.FunctionDef)}


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


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(_parse(module)) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_contractions_solve_no_hom_system():
    names = {n.id for n in ast.walk(_function("complexes.py", "is_contractible")) if isinstance(n, ast.Name)}
    assert "homotopic" not in names


def test_solve_linear_does_not_recurse():
    calls = [
        n.lineno
        for n in ast.walk(_function("intmat.py", "solve_linear"))
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "solve_linear"
    ]
    assert calls == [], f"solve_linear calls itself at lines {calls}"


def _names(node: ast.AST) -> set[str]:
    """Names and attribute names read inside node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_homology_reads_cokernels_only():
    names = _names(_function("complexes.py", "homology"))
    assert "Subquotient" not in names and "kernel" not in names


def test_kernels_have_one_formula():
    ring = next(n for n in ast.walk(_parse("complexes.py")) if isinstance(n, ast.ClassDef) and n.name == "Ring")
    kernel = next(n for n in ring.body if isinstance(n, ast.FunctionDef) and n.name == "kernel")
    assert "solve" not in _names(kernel)
    assert "smith_kernel" in _names(kernel)
    assert "smith_kernel" in _names(_function("intmat.py", "solve_linear"))


def test_intmat_copies_only_outside_data_and_the_smith_working_array():
    def copy(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("astype", "copy")

    sites = _functions_around(_parse("intmat.py"), copy)
    assert sites and set(sites) <= {"_to_object_array", "smith_normal_form"}, f"arrays copied in {sorted(set(sites))}"
