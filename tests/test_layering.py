"""The linear-algebra backend is chosen in one place, `complexes.Ring`,
whose `smith` is the one place where `complexes` decomposes a matrix (a
Smith form, or `modp.diagonalize` over F_p), `complexes.Subquotient` runs
one algorithm for every ring, with no int64 branch, the squares search walks
classes in one generator, whatever the ring, called once for the unit
classes and once for the constraint solutions, and reads every class it
tries in Hom groups built at one site, the unit lemma's matrices share one
field layer, primality is decided in `modp`, and
the blocks of graded maps from outside data are checked in one function of
`complexes`, reached from the three public constructors alone, while the
arrays the ring builds enter by a private constructor and a private `Ring`
reduction that only `complexes` calls, and every defining equation, of
outside data or of a map made from ring arrays, is checked in one walk
behind one check helper, and blocks are read from JSON in one
function of `jsonio`, and contractions, solves,
kernels and quotients have one algorithm for every ring: no Hom-system
fallback, no recursion, one kernel formula (`intmat.smith_kernel`), and
homology read off cokernels, with no kernel basis and no `Subquotient`;
`intmat` copies only outside data and the working array of a Smith form,
and has one matrix type, `IntMatrix`; the Prop. 2 replay takes
its linear algebra from `Ring` alone, with no `unitlemma` import, and
neither it nor the random generators ask whether the ring is a prime
field; a block of a residue ring is made only by `Ring`, and `complexes`
assembles Hom matrices without `np.kron`; the unit lemma solves rational
dependence on the Smith kernel, modular inverses come from `pow`,
triangles and squares are frozen records of their maps, the paper's
template files are read at one site and their identities proved in one
loop, `complexes` solves through `Ring.smith` and never names
`solve_linear`, and the squares search reduces no chain map: its one
refutation loop, over each scheduled modulus and then Z, tests each unit
class on the constraint system it has built, and `Ring.inverse` takes one
path on every ring, with no F_p branch; `modp.rref` takes (a, p) alone and
bounds its elimination on row lists by a module constant, with no
environment read."""

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


def test_squares_walks_classes_from_two_sites():
    def walks(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_walk"

    sites = _functions_around(_parse("squares.py"), walks)
    assert sorted(sites) == ["_unit_classes", "_walk_solutions"], f"_walk called in {sites}"


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


@pytest.mark.parametrize("module", ["squares.py", "suite.py", "jsonio.py", "cli.py", "triangles.py"])
def test_ring_made_blocks_enter_only_inside_complexes(module):
    """No other module names the trusted constructor, its check, the stored
    arrays or the ring's reduction and blocks, so outside data cannot skip
    the checks."""
    names = _names(_parse(module))
    assert not {"_of", "_checked", "_set_blocks", "_blocks", "_own", "_block"} & names, module


def _calls(tree: ast.AST, attr: str) -> set[str]:
    """The functions around each read of the attribute `attr`."""
    return set(_functions_around(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == attr))


def test_outside_data_keeps_the_checked_path():
    tree = _parse("complexes.py")
    classes = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def method(cls, name):
        return next(n for n in classes[cls].body if isinstance(n, ast.FunctionDef) and n.name == name)

    inits = {"Complex.__init__", "ChainMap.__init__", "Homotopy.__init__"}
    for cls in ("Complex", "ChainMap", "Homotopy"):
        init = _names(method(cls, "__init__"))
        assert "_set_blocks" in init and "_checked" in init and "_of" not in init, cls
    assert not {"_set_blocks", "_layout", "_first_violation", "_checked", "matrix", "_own"} & _names(
        method("_GradedMap", "_of")
    )
    # outside blocks are read and reduced only behind the public constructors
    assert _calls(tree, "_set_blocks") == inits
    # every equation is checked by one helper, around the one walk: by the
    # constructors and by each function that builds from ring arrays
    assert _calls(tree, "_first_violation") == {"_GradedMap._checked"}
    assert _calls(tree, "_checked") == inits | {
        "cone_map",
        "HomComplex.chain_map",
        "homotopic",
        "is_contractible",
        "is_homotopy_equivalence",
        "homotopy_inverse",
        "random_complex",
    }
    # no function that builds from ring arrays calls a public constructor:
    # `reduce_mod` alone does, on the blocks of a map over Z
    public = {"Complex", "ChainMap", "Homotopy"}
    built = _functions_around(tree, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) in public)
    assert set(built) == {"reduce_mod"}, built
    # the integer rule is skipped only on arrays that ring arithmetic made,
    # or that an outside block holds, which `Ring._own` reduces once; an
    # edge block is made only by `Ring._block`
    assert _calls(tree, "_own") == {
        "ChainMap.compose",
        "ChainMap._parallel",
        "shift",
        "cone_complex",
        "HomComplex.unvec",
        "is_contractible",
        "random_complex",
        "_GradedMap._set_blocks",
        "Ring.matrix",
    }
    assert _calls(tree, "_block") == {"_GradedMap.component", "_GradedMap.components", "Ring.matrix", "Ring.inverse"}


def test_the_ring_owns_its_fresh_blocks_in_one_method():
    tree = _parse("complexes.py")
    assert _calls(tree, "_wrap") == {"Ring._block", "Ring.smith"}
    built = _functions_around(tree, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "IntMatrix")
    assert built == ["Ring.matrix"], built
    calls = {n.func.attr for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert not {"reduce_mod", "canon"} & calls
    intmatrix = next(n for n in ast.walk(_parse("intmat.py")) if isinstance(n, ast.ClassDef) and n.name == "IntMatrix")
    methods = {n.name for n in intmatrix.body if isinstance(n, ast.FunctionDef)}
    assert not {"identity", "scale", "transpose", "reduce_mod", "_new", "_like", "_same_kind"} & methods


def test_defining_equations_are_checked_in_one_function():
    """A walk that finds a violated equation multiplies blocks (`@`, or
    `_residual`) in a loop over degrees and leaves it with the failing one."""

    def multiplies(node):
        return any(
            isinstance(n, ast.MatMult) or (isinstance(n, ast.Attribute) and n.attr == "_residual")
            for n in ast.walk(node)
        )

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def leaves_with_degree(loop, targets):
        return any(
            (isinstance(n, ast.Return) and isinstance(n.value, ast.Name) and n.value.id in targets)
            or (isinstance(n, ast.Raise) and any(k.arg == "degree" for k in getattr(n.exc, "keywords", ())))
            for n in ast.walk(loop)
        )

    def walk(node):
        if isinstance(node, ast.For):
            return multiplies(node) and leaves_with_degree(node, names(node.target))
        if isinstance(node, ast.GeneratorExp):
            targets = set().union(*(names(g.target) for g in node.generators))
            return getattr(node.elt, "id", None) in targets and any(multiplies(c) for g in node.generators for c in g.ifs)
        return False

    sites = _functions_around(_parse("complexes.py"), walk)
    assert sites == ["_GradedMap._first_violation"], f"defining equations checked in {sites}"


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
    allowed = {"_to_object_array", "smith_normal_form"}
    assert sites and set(sites) <= allowed, f"arrays copied in {sorted(set(sites))}"


def test_the_replay_and_the_generators_ask_no_primality_question():
    tree = _parse("suite.py")
    imports = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not any(module and module.endswith("unitlemma") for module in imports)
    assert not _names(tree) & {"is_prime_field", "is_small_prime_field"}
    for name in ("random_complex", "random_chain_map"):
        checks = {n for n in _names(_function("complexes.py", name)) if "prime" in n}
        assert not checks, f"{name} names {sorted(checks)}"


def test_complexes_assembles_hom_matrices_without_kron():
    hits = [n.lineno for n in ast.walk(_parse("complexes.py")) if isinstance(n, ast.Attribute) and n.attr == "kron"]
    assert hits == [], f"np.kron at lines {hits}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_residue_blocks_are_built_only_inside_ring(module):
    """There is no second matrix type, and no module but `complexes`
    reduces or makes a block of a ring."""
    tree = _parse(module)
    assert "ResidueMatrix" not in _names(tree) | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    if module != "complexes.py":
        assert not {"_own", "_block"} & _names(tree), module


def test_rational_dependence_runs_no_elimination_of_its_own():
    solve = _function("unitlemma.py", "_solve_dependence")
    loops = [n.lineno for n in ast.walk(solve) if isinstance(n, (ast.For, ast.While))]
    assert loops == [], f"_solve_dependence loops at lines {loops}"
    assert {"smith_normal_form", "smith_solve", "solve"} <= _names(solve)


def test_modular_inverses_come_from_pow():
    for path in sorted(SRC.glob("*.py")):
        assert "inv_mod" not in _names(_parse(path.name)), path.name
        assert "inv_mod" not in {n.name for n in ast.walk(_parse(path.name)) if isinstance(n, ast.FunctionDef)}


@pytest.mark.parametrize(
    "module, classes, setattr_calls",
    [("triangles.py", ("Triangle", "TriangleMorphism"), 0), ("squares.py", ("CommutativeSquare",), 1)],
)
def test_triangles_and_squares_are_frozen_records(module, classes, setattr_calls):
    tree = _parse(module)
    guards = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "__setattr__"]
    assert guards == [], f"{module} defines __setattr__ at lines {guards}"
    calls = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "__setattr__" and getattr(n.value, "id", None) == "object"
    ]
    assert len(calls) == setattr_calls, f"object.__setattr__ at lines {calls}"
    records = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name in classes]
    assert len(records) == len(classes)
    for cls in records:
        frozen = [
            kw
            for d in cls.decorator_list
            if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
            for kw in d.keywords
            if kw.arg == "frozen" and getattr(kw.value, "value", None) is True
        ]
        assert frozen, f"{cls.name} is not a frozen dataclass"


def test_template_identities_are_proved_in_one_loop():
    def calls(node, attr):
        return isinstance(node, ast.Call) and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None))

    def iterates_grid(node):
        loops = [node.iter] if isinstance(node, ast.For) else [g.iter for g in getattr(node, "generators", ())]
        return any(calls(it, "grid") for it in loops)

    tree = _parse("suite.py")
    loops = _functions_around(tree, iterates_grid)
    assert len(loops) == 1, f"grid iterated in {loops}"
    reads = _functions_around(tree, lambda node: calls(node, "read_bytes"))
    assert len(reads) == 1, f"data files read in {reads}"
    # each identity is checked inline, on the objects built once per point
    lambdas = [f for f in _functions_around(tree, lambda node: isinstance(node, ast.Lambda)) if "_identities" in f]
    assert lambdas == [], f"lambdas in {lambdas}"


def test_complexes_never_names_solve_linear():
    tree = _parse("complexes.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "solve_linear" not in _names(tree) | imported


def test_the_search_reduces_no_chain_map():
    outside = _uses_outside(_parse("squares.py"), "reduce_mod", ("reduce_square",))
    assert outside == [], f"reduce_mod named outside reduce_square at lines {outside}"


def test_the_refutation_loop_asks_the_constraint_system_not_homotopic():
    search = _function("squares.py", "find_compatible_equivalence")
    loops = [n for n in ast.walk(search) if isinstance(n, ast.For) and "schedule" in _names(n.iter)]
    assert len(loops) == 1
    assert "homotopic" not in _names(loops[0]) and "holds_mod" in _names(loops[0])


def test_the_search_asks_its_constraint_questions_through_one_decomposition():
    assert not {"Zmod", "asarray"} & _names(_parse("squares.py"))
    search = _function("squares.py", "find_compatible_equivalence")
    loops = [n for n in ast.walk(search) if isinstance(n, ast.For) and ({"schedule", "classes"} & _names(n.iter))]
    assert len(loops) == 1  # one refutation loop: each scheduled modulus, then Z
    assert ast.unparse(loops[0].iter) == "(*schedule, None) if classes else ()"
    for loop in loops:
        names = _names(loop)
        assert "holds_mod" in names and not {"solve", "homotopic", "Zmod", "asarray"} & names
    holds_mod = _function("squares.py", "holds_mod")
    assert "smith" not in _names(holds_mod)  # it reads the one decomposition, taking none itself


def test_ring_inverse_has_one_path_for_every_ring():
    ring = next(n for n in ast.walk(_parse("complexes.py")) if isinstance(n, ast.ClassDef) and n.name == "Ring")
    inverse = next(n for n in ring.body if isinstance(n, ast.FunctionDef) and n.name == "inverse")
    assert not {"is_small_prime_field", "modp", "_section_mod_p"} & _names(inverse)


def test_rref_picks_its_elimination_by_a_constant_not_a_knob():
    tree, rref = _parse("modp.py"), _function("modp.py", "rref")
    args = rref.args
    assert [a.arg for a in args.args] == ["a", "p"]
    assert not (args.posonlyargs or args.kwonlyargs or args.defaults or args.vararg or args.kwarg)
    constants = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    limit = constants.get("_LIST_MAX_WORK")
    assert isinstance(limit, ast.Constant) and type(limit.value) is int
    assert "_LIST_MAX_WORK" in _names(rref)
    assert not {"os", "environ", "getenv"} & _names(tree)
