import hashlib
import itertools
import json
import random
import time
from functools import cached_property

import pytest

import homcart.squares as squares
from homcart.complexes import (
    ZZ,
    ChainMap,
    Complex,
    ComplexError,
    Homotopy,
    Zmod,
    cone,
    hom_group,
    homology,
    homotopic,
    identity_map,
    is_homotopy_equivalence,
    random_chain_map,
    random_complex,
    reduce_mod,
    shift,
    zero_map,
)
from homcart.intmat import IntMatrix
from homcart.jsonio import square_from_json
from homcart.squares import (
    DEFAULT_CONFIG,
    CommutativeSquare,
    Constraint,
    NotCommutative,
    PositionMismatch,
    SearchConfig,
    _coefficient_order,
    diagonal,
    find_compatible_equivalence,
    fits_vertical_iso,
    is_homotopy_cartesian,
    reduce_square,
    rotation_comparison,
    square_from_cone,
)
from homcart.suite import build_star, fuzz_prop2, lemma2, verify_paper
from homcart.triangles import Triangle, standard_triangle

from helpers import cmap, cpx, one_term, two_term, z_squares
from oracles import constraints_hold_mod


def middle_square(a: int) -> CommutativeSquare:
    b_obj = cpx({-1: 1, 0: 2}, {-1: [[-a ** 3], [a * a]]})
    c_obj = two_term(a * a, degrees=(-1, 0))
    bprime = two_term(a * a, degrees=(-1, 0))
    cprime = one_term(degree=-1)
    g = cmap(b_obj, c_obj, {-1: [[a]], 0: [[-1, 0]]})
    gprime = cmap(bprime, cprime, {-1: [[a]]})
    b = cmap(b_obj, bprime, {-1: [[1]], 0: [[0, 1]]})
    c = cmap(c_obj, cprime, {-1: [[1 + a]]})
    return CommutativeSquare(g, gprime, b, c)


def vertical_triangle_b(a: int) -> Triangle:
    x = cpx({0: 1, 1: 1}, {0: [[-a * a]]})
    y = one_term()
    zp = cpx({-1: 1, 0: 2}, {-1: [[-a ** 3], [a * a]]})
    f = cmap(x, y, {0: [[-a ** 3]]})
    g = cmap(y, zp, {0: [[1], [0]]})
    h = cmap(zp, shift(x), {-1: [[1]], 0: [[0, 1]]})
    return Triangle(f, g, h)


def vertical_triangle_c(a: int) -> Triangle:
    x = one_term()
    y = one_term()
    zp = two_term(a * a, degrees=(-1, 0))
    f = cmap(x, y, {0: [[a * a]]})
    g = cmap(y, zp, {0: [[1 - a]]})
    h = cmap(zp, shift(x), {-1: [[1 + a]]})
    return Triangle(f, g, h)


def test_diagonal_blocks_of_middle_square():
    sq = middle_square(3)
    seq = diagonal(sq)
    assert seq.first.component(-1) == IntMatrix([[1], [3]])
    assert seq.first.component(0) == IntMatrix([[0, 1], [-1, 0]])
    assert seq.second.component(-1) == IntMatrix([[3, -4]])


def test_a_square_that_does_not_commute_is_refused():
    # Z corners of rank 1: c o g = 0 and g' o b = 1 are not homotopic
    z = one_term()
    one, zero = cmap(z, z, {0: [[1]]}), cmap(z, z, {0: [[0]]})
    with pytest.raises(NotCommutative, match="c o g is not homotopic to g' o b"):
        CommutativeSquare(one, one, one, zero)


def test_a_residue_block_over_z_does_not_make_a_square_commute():
    # read mod 3, c o g = 2 * 2 would be 1 = g' o b
    z = Complex(ZZ, {0: 1}, {})
    g = c = ChainMap(z, z, {0: Zmod(3).matrix([[2]])})
    one = identity_map(z)
    with pytest.raises(NotCommutative):
        CommutativeSquare(g, one, one, c)


def test_diagonal_identity_square():
    c = two_term(5)
    b = cmap(c, c, {0: [[2]], 1: [[2]]})
    sq = CommutativeSquare(identity_map(c), identity_map(c), b, b)
    seq = diagonal(sq)
    assert seq.first.component(0) == IntMatrix([[2], [1]])
    assert seq.second.component(0) == IntMatrix([[1, -2]])


def test_diagonal_zero_square():
    c = one_term()
    z = zero_map(c, c)
    sq = CommutativeSquare(z, z, z, z)
    seq = diagonal(sq)
    assert seq.first.is_zero() and seq.second.is_zero()


def test_find_compatible_equivalence_trivial_identity():
    d = two_term(7)
    v = find_compatible_equivalence(d, d, [])
    assert v.is_yes
    assert v.witness == identity_map(d)


def test_cone_square_yes_with_identity_exactly():
    b_obj = two_term(3)
    b = cmap(b_obj, one_term(), {0: [[2]]})
    g = cmap(b_obj, one_term(), {0: [[5]]})
    sq = square_from_cone(b, g)
    verdict = is_homotopy_cartesian(sq)
    assert verdict.is_yes
    assert verdict.witness == identity_map(verdict.witness.source)
    assert "third_map" in verdict.details


@pytest.mark.parametrize("a", [3, 4, 5, 7])
def test_middle_square_not_cartesian(a):
    verdict = is_homotopy_cartesian(middle_square(a))
    assert verdict.is_no
    assert verdict.modulus == a * a
    assert verdict.exhausted == 2


@pytest.mark.parametrize("a", [3, 4, 5, 7])
def test_vertical_iso_refuted(a):
    sq = middle_square(a)
    verdict = fits_vertical_iso(sq, vertical_triangle_b(a), vertical_triangle_c(a))
    assert verdict.is_no
    assert verdict.modulus == a * a
    assert verdict.exhausted == 2


def test_vertical_iso_trivial_yes():
    c = two_term(4)
    b = cmap(c, c, {0: [[3]], 1: [[3]]})
    sq = CommutativeSquare(identity_map(c), identity_map(c), b, b)
    t = standard_triangle(b)
    verdict = fits_vertical_iso(sq, t, t)
    assert verdict.is_yes
    assert verdict.witness == identity_map(t.z)


def test_vertical_iso_position_mismatch():
    sq = middle_square(3)
    t = standard_triangle(sq.g)
    with pytest.raises(PositionMismatch):
        fits_vertical_iso(sq, t, t)


@pytest.mark.parametrize("m", [4, 9, 25])
def test_yes_instance_survives_reduction(m):
    b_obj = two_term(3)
    b = cmap(b_obj, one_term(), {0: [[2]]})
    g = cmap(b_obj, one_term(), {0: [[5]]})
    sq = square_from_cone(b, g)
    reduced = reduce_square(sq, m)
    verdict = is_homotopy_cartesian(reduced)
    assert verdict.is_yes


@pytest.mark.parametrize("p", [1048583, 1048573])
def test_cone_square_yes_over_primes_near_the_int64_limit(p):
    # 1048583 > 2^20 is solved exactly, 1048573 < 2^20 in int64
    star = build_star(3)
    sq = square_from_cone(reduce_mod(star.morphism.q, p), reduce_mod(star.upper.g, p))
    verdict = is_homotopy_cartesian(sq)
    assert verdict.is_yes
    assert verdict.witness is not None and verdict.equivalence is not None
    assert verdict.constraint_witnesses and all(w is not None for w in verdict.constraint_witnesses)


def test_middle_square_over_prime_base_ring_yes():
    # over F_3 the obstruction disappears: every unit of Z/9... over the
    # field F_3 the reduced square becomes decidable and turns out cartesian
    sq = reduce_square(middle_square(3), 3)
    verdict = is_homotopy_cartesian(sq)
    assert verdict.kind in ("yes", "no")  # decided, never unknown
    assert verdict.is_yes


def test_random_cone_squares_over_f2_yes():
    rng = random.Random(12)
    ring = Zmod(2)
    done = 0
    while done < 10:
        b_src = random_complex(ring, rng, n_degrees=3, max_rank=2)
        b_tgt = random_complex(ring, rng, n_degrees=3, max_rank=2)
        c_tgt = random_complex(ring, rng, n_degrees=3, max_rank=2)
        if not (b_src.total_rank() and b_tgt.total_rank() and c_tgt.total_rank()):
            continue
        b = random_chain_map(b_src, b_tgt, rng)
        g = random_chain_map(b_src, c_tgt, rng)
        sq = square_from_cone(b, g)
        verdict = is_homotopy_cartesian(sq)
        assert verdict.is_yes
        done += 1


def test_perturbed_cone_square_over_z_is_refuted_or_unknown_never_wrong():
    # distorting c by a non-unit scalar must not produce a bogus Yes
    b_obj = two_term(9)
    b = cmap(b_obj, one_term(), {0: [[3]]})
    g = cmap(b_obj, one_term(), {0: [[1]]})
    sq = square_from_cone(b, g)
    verdict = is_homotopy_cartesian(sq)
    assert verdict.is_yes
    bad = CommutativeSquare(sq.g, sq.gprime.scale(0), sq.b, sq.c.scale(0))
    bad_verdict = is_homotopy_cartesian(bad)
    assert not bad_verdict.is_yes


def _finite_end_square() -> CommutativeSquare:
    empty = Complex(ZZ, {}, {})
    bprime = two_term(9)
    c_obj = two_term(1)
    cprime = two_term(9)
    return CommutativeSquare(
        zero_map(empty, c_obj),
        cmap(bprime, cprime, {0: [[3]], 1: [[3]]}),
        zero_map(empty, bprime),
        zero_map(c_obj, cprime),
    )


def test_refutation_with_finite_endomorphism_ring():
    # with an empty initial corner the decision reduces to whether the
    # diagonal's second map is an equivalence; its class multiplies the top
    # homology by 3, while homology groups match, so only exhausting the six
    # units of the Z/9 endomorphism ring can certify the refutation
    verdict = is_homotopy_cartesian(_finite_end_square())
    assert verdict.is_no
    assert verdict.modulus == 9
    assert verdict.exhausted == 6


def test_homology_is_computed_once_per_complex(monkeypatch):
    import homcart.squares as squares

    seen = []
    real = squares.homology

    def once(c):
        assert c not in seen, f"homology of {c!r} computed twice"
        seen.append(c)
        return real(c)

    square = build_star(3).middle
    monkeypatch.setattr(squares, "homology", once)
    verdict = is_homotopy_cartesian(square)
    assert verdict.is_no and verdict.modulus == 9
    assert seen


def test_each_map_is_tested_for_equivalence_once(monkeypatch):
    import homcart.squares as squares

    seen = []
    real = squares.is_homotopy_equivalence

    def once(f):
        assert f not in seen, "one map tested twice for being an equivalence"
        seen.append(f)
        return real(f)

    monkeypatch.setattr(squares, "is_homotopy_equivalence", once)
    square = build_star(3).middle
    assert is_homotopy_cartesian(square).is_no
    assert seen
    # the hint and g; -g is an equivalence exactly when g is, so it is not tested
    assert len(seen) == 2
    seen.clear()
    t_b, t_c = lemma2(1, 3, b=-27).triangle, lemma2(4, 3).triangle
    assert fits_vertical_iso(square, t_b, t_c).is_no
    assert seen
    assert len(seen) == 1  # g alone: no hint is given


def test_hom_group_of_a_pair_is_built_once(monkeypatch):
    import homcart.squares as squares

    seen = []
    real = squares.hom_group

    def once(x, y):
        assert (x, y) not in seen, f"hom_group({x!r}, {y!r}) built twice"
        seen.append((x, y))
        return real(x, y)

    monkeypatch.setattr(squares, "hom_group", once)
    # at a = 2 the search passes the refutation step and the integral enumeration
    verdict = is_homotopy_cartesian(build_star(2).middle)
    assert verdict.is_yes and verdict.details["source"] == "integral enumeration"
    assert seen


def test_z_decision_builds_no_hom_group_but_hom_of_cone_and_target(monkeypatch):
    import homcart.squares as squares

    built = []
    real = squares.hom_group

    def spy(x, y):
        built.append((x, y))
        return real(x, y)

    monkeypatch.setattr(squares, "hom_group", spy)
    square = build_star(3).middle
    assert is_homotopy_cartesian(square).is_no
    assert built == [(cone(diagonal(square).first)[0], square.cprime_obj)]


def _unit_multiples_via_end(base):
    """u o base for every endomorphism class u of t = base.target that can be
    a unit, listed in End(t) = hom_group(t, t): +-1 plus torsion when End(t)
    has free rank 1, every class when it is finite."""
    t = base.target
    end = hom_group(t, t)
    assert end.group.free_rank <= 1
    starts = [identity_map(t), -identity_map(t)] if end.group.free_rank else [zero_map(t, t)]
    out = []
    for start in starts:
        for coeffs in itertools.product(*(range(o) for o in end.group.invariant_factors)):
            u = start
            for c, rep in zip(coeffs, end.torsion_reps):
                u = u + rep.scale(c)
            out.append(u.compose(base))
    return out


def _z_unit_class_square():
    from homcart.jsonio import square_from_json

    return square_from_json(Z_UNIT_CLASS_SQUARE)


@pytest.mark.parametrize("a", [*range(3, 9), "z-unit-class"])
def test_unit_classes_read_in_hom_dt_are_the_unit_multiples_of_the_base(monkeypatch, a):
    import homcart.squares as squares

    seen = []
    real = squares._unit_classes

    def spy(d, t, hom):
        classes = real(d, t, hom)
        seen.append((d, t, hom, classes))
        return classes

    monkeypatch.setattr(squares, "_unit_classes", spy)
    if a == "z-unit-class":
        assert is_homotopy_cartesian(_z_unit_class_square()).is_yes
        assert len(seen) == 1
    else:
        square = build_star(a).middle
        assert is_homotopy_cartesian(square).is_no
        assert fits_vertical_iso(square, lemma2(1, a, b=-(a**3)).triangle, lemma2(4, a).triangle).is_no
        assert len(seen) == 2
    for d, t, hom, classes in seen:
        assert (hom.x, hom.y) == (d, t)
        base = next(phi for phi in classes if is_homotopy_equivalence(phi) is not None)
        got = [hom.lookup(phi) for phi in classes]
        assert len(set(got)) == len(got)
        assert set(got) == {hom.lookup(phi) for phi in _unit_multiples_via_end(base)}


def test_coefficient_order_is_cut_at_the_walk_cap():
    for cap in (1, 2, 7, 256, 4096):
        assert len(_coefficient_order(10**12, cap)) <= cap + 1
        for k in (1, 2, 3):
            cut = itertools.islice(itertools.product(*[_coefficient_order(5, cap)] * k), cap)
            full = itertools.islice(itertools.product(*[_coefficient_order(5, 10**6)] * k), cap)
            assert list(cut) == list(full)
    assert _coefficient_order(2, 10**6) == [0, 1, -1, 2, -2]


def test_a_huge_coefficient_bound_changes_nothing():
    square = build_star(3).middle
    start = time.perf_counter()
    verdict = is_homotopy_cartesian(square, SearchConfig(coeff_bound=10**9))
    assert time.perf_counter() - start < 5.0
    assert verdict.to_json() == is_homotopy_cartesian(square).to_json()


def test_cartesian_check_builds_each_cone_once(monkeypatch):
    import homcart.complexes as complexes
    import homcart.squares as squares

    built = []
    real = complexes.cone

    def once(f):
        assert f not in built, f"cone of {f!r} built twice"
        built.append(f)
        return real(f)

    square = build_star(3).middle
    monkeypatch.setattr(complexes, "cone", once)
    monkeypatch.setattr(squares, "cone", once)
    assert is_homotopy_cartesian(square).is_no
    assert diagonal(square).first in built


def test_rotation_comparison_builds_each_cone_once(monkeypatch):
    import sys

    import homcart.complexes as complexes

    built = []
    real = complexes.cone

    def once(f):
        assert f not in built, f"cone of {f!r} built twice"
        built.append(f)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("homcart") and getattr(module, "cone", None) is real:
            monkeypatch.setattr(module, "cone", once)
    t = lemma2(2, 3).triangle
    assert rotation_comparison(t).is_yes
    assert t.g in built


# a Z square whose solution box holds no equivalence: Hom(cone, C') is
# Z + Z/2 with 4 unit classes, 2 of which satisfy the constraint over Z
Z_UNIT_CLASS_SQUARE = {
    "corners": {
        "B": {"ring": "Z", "degrees": {"2": 2}, "differentials": {}},
        "C": {
            "ring": "Z",
            "degrees": {"-1": 2, "0": 3, "1": 2, "2": 2},
            "differentials": {
                "-1": [["0", "2"], ["1", "-1"], ["-1", "2"]],
                "0": [["-1", "2", "2"], ["2", "-4", "-4"]],
                "1": [["-2", "-1"], ["-4", "-2"]],
            },
        },
        "B_prime": {
            "ring": "Z",
            "degrees": {"1": 1, "2": 3, "3": 2},
            "differentials": {"1": [["2"], ["0"], ["-1"]], "2": [["-1", "-1", "-2"], ["1", "-1", "2"]]},
        },
        "C_prime": {
            "ring": "Z",
            "degrees": {"-1": 2, "0": 3, "1": 3, "2": 3, "3": 2},
            "differentials": {
                "-1": [["0", "2"], ["1", "-1"], ["-1", "2"]],
                "0": [["0", "0", "0"], ["-1", "2", "2"], ["2", "-4", "-4"]],
                "1": [["2", "0", "0"], ["0", "0", "0"], ["-1", "0", "0"]],
                "2": [["-1", "-1", "-2"], ["1", "-1", "2"]],
            },
        },
    },
    "maps": {
        "g": {"components": {"2": [["1", "0"], ["0", "1"]]}},
        "g_prime": {
            "components": {
                "1": [["1"], ["0"], ["0"]],
                "2": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "3": [["1", "0"], ["0", "1"]],
            }
        },
        "b": {"components": {}},
        "c": {
            "components": {
                "-1": [["-3", "10"], ["-3", "8"]],
                "0": [["0", "4", "10"], ["1", "0", "0"], ["1", "-2", "1"]],
                "1": [["0", "0"], ["0", "2"], ["12", "2"]],
            }
        },
    },
    "witness": {},
}


def test_z_search_tries_the_unit_classes_when_its_box_decides_nothing():
    square = _z_unit_class_square()
    verdict = is_homotopy_cartesian(square)
    assert verdict.is_yes and verdict.details["source"] == "unit class"
    seq = diagonal(square)
    _, incl, _ = cone(seq.first)
    assert is_homotopy_equivalence(verdict.witness) is not None
    diff = verdict.witness.compose(incl) - seq.second
    assert homotopic(diff, zero_map(diff.source, diff.target)) is not None
    assert is_homotopy_cartesian(square, SearchConfig(coeff_bound=20)).is_yes


def test_z_search_refutes_when_no_unit_class_satisfies_the_constraints():
    # phi ~ 3 on Z: the units +-1 pass mod 2 but not over Z
    z = one_term()
    con = Constraint(required=cmap(z, z, {0: [[3]]}))
    verdict = find_compatible_equivalence(z, z, [con], SearchConfig(extra_moduli=(2,)))
    assert verdict.is_no and verdict.modulus is None and verdict.exhausted == 2
    assert "over Z" in verdict.reason


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, SearchConfig(extra_moduli=(3,))], ids=["no moduli", "mod 3"])
def test_a_no_over_z_returns_before_the_box(monkeypatch, config):
    # phi ~ 2 on Z: the units +-1 are listed with or without a modulus, and
    # fail over Z, so the coefficient box is never walked
    walked = []
    real = squares._walk_solutions
    monkeypatch.setattr(squares, "_walk_solutions", lambda *args: walked.append(args) or real(*args))
    x = one_term()
    verdict = find_compatible_equivalence(x, x, [Constraint(required=identity_map(x).scale(2))], config)
    assert verdict.to_json() == {
        "verdict": "no",
        "exhausted": 2,
        "reason": "no equivalence class satisfies the constraints over Z",
    }
    assert walked == []


@pytest.mark.parametrize(
    "fields, read",
    [
        ({"coeff_bound": 2.0}, None),
        ({"max_enum": 4096.0}, None),
        ({"extra_moduli": (9.0,)}, None),
        ({"extra_moduli": [5]}, SearchConfig(extra_moduli=(5,))),
    ],
    ids=["float coeff_bound", "float max_enum", "float modulus", "list of moduli"],
)
def test_search_config_reads_its_fields_by_the_integer_rule(fields, read):
    if read is None:
        with pytest.raises(ValueError, match=next(iter(fields))):
            SearchConfig(**fields)
        return
    config = SearchConfig(**fields)
    assert config == read  # a list would differ from the tuple
    assert is_homotopy_cartesian(build_star(3).middle, config).is_no  # a key of the verdict memo


# a Z square whose Hom(cone, C') is Z^2 + Z/2, so no unit class is listed,
# with torsion in the homology of B and C': the coefficient box decides yes
Z_FREE_RANK_2_SQUARE = {
    "corners": {
        "B": {"ring": "Z", "degrees": {"2": 1, "3": 1}, "differentials": {"2": [["2"]]}},
        "C": {"ring": "Z", "degrees": {"0": 1}, "differentials": {}},
        "B_prime": {"ring": "Z", "degrees": {"3": 1}, "differentials": {}},
        "C_prime": {
            "ring": "Z",
            "degrees": {"0": 1, "1": 2, "2": 2, "3": 1},
            "differentials": {"1": [["-2", "0"], ["-4", "1"]]},
        },
    },
    "maps": {
        "g": {"components": {}},
        "g_prime": {"components": {"3": [["1"]]}},
        "b": {"components": {}},
        "c": {"components": {"0": [["1"]]}},
    },
    "witness": {},
}


def test_z_search_at_free_rank_2_tests_only_the_hint_and_the_box(monkeypatch):
    import homcart.squares as squares
    from homcart.jsonio import square_from_json

    tested = []
    real = squares.is_homotopy_equivalence

    def spy(f):
        tested.append(f)
        return real(f)

    monkeypatch.setattr(squares, "is_homotopy_equivalence", spy)
    square = square_from_json(Z_FREE_RANK_2_SQUARE)
    hom = hom_group(cone(diagonal(square).first)[0], square.cprime_obj)
    assert (hom.group.free_rank, hom.group.invariant_factors) == (2, (2,))
    verdict = is_homotopy_cartesian(square)
    assert verdict.details["source"] == "integral enumeration"
    assert verdict.to_json() == {
        "verdict": "yes",
        "witness": {"0": [["-1"]], "1": [["-1"], ["-4"]], "2": [["-1"], ["0"]], "3": [["1"]]},
    }
    # the cone-map hint and the first class of the box; no class of
    # Hom(cone, C') is tried for a base equivalence
    assert len(tested) == 2


def _fuzz_square(index=0):
    from homcart.suite import fuzz_prop2

    return next(itertools.islice(fuzz_prop2(3, trials=index + 1, seed=5), index, None)).square


def _witness_variants():
    """Two squares with the same maps B = C = B' = Z[0] -> C' = Z[-1] and the
    witnesses 0 and 1, both valid since every differential is zero."""
    z, zl = one_term(), one_term(degree=-1)
    g, c = identity_map(z), zero_map(z, zl)
    plain = CommutativeSquare(g, c, g, c)
    other = CommutativeSquare(g, c, g, c, witness=Homotopy(c, c, {0: IntMatrix([[1]])}))
    return plain, other


def test_equal_squares_compare_and_hash_equal():
    first, second = _fuzz_square(), _fuzz_square()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != _fuzz_square(1)
    plain, other = _witness_variants()
    assert plain != other and hash(plain) == hash(other)


def test_an_equal_square_gets_the_same_verdict_without_a_search(monkeypatch):
    import homcart.squares as squares

    first = _fuzz_square()
    verdict = is_homotopy_cartesian(first)
    assert verdict.is_yes and "third_map" in verdict.details

    def unsearched(*args, **kwargs):
        raise AssertionError("an equal square was searched again")

    monkeypatch.setattr(squares, "find_compatible_equivalence", unsearched)
    assert is_homotopy_cartesian(_fuzz_square()) is verdict


def test_another_witness_or_config_is_decided_afresh(monkeypatch):
    import homcart.squares as squares

    calls = []
    real = squares.find_compatible_equivalence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(squares, "find_compatible_equivalence", counting)
    plain, other = _witness_variants()
    verdicts = [is_homotopy_cartesian(plain), is_homotopy_cartesian(other)]
    verdicts.append(is_homotopy_cartesian(plain, SearchConfig(coeff_bound=3)))
    assert len(calls) == 3
    assert len({id(v) for v in verdicts}) == 3
    assert is_homotopy_cartesian(plain) is verdicts[0]
    assert len(calls) == 3


def test_the_memo_dies_with_its_squares():
    import gc

    import homcart.squares as squares

    gc.collect()
    before = len(squares._verdicts)
    first, second = _fuzz_square(), _fuzz_square()
    is_homotopy_cartesian(first)
    is_homotopy_cartesian(second)
    is_homotopy_cartesian(first, SearchConfig(coeff_bound=3))
    assert len(squares._verdicts) == before + 1
    del first, second
    gc.collect()
    assert len(squares._verdicts) == before


def test_an_equal_square_built_by_other_paths_hits_the_verdict_memo():
    for square in (_fuzz_square(1), square_from_cone(build_star(4).morphism.q, build_star(4).upper.g)):
        verdict = is_homotopy_cartesian(square)
        before = len(squares._verdicts)
        again = CommutativeSquare(
            square.g.compose(identity_map(square.b_obj)),
            identity_map(square.cprime_obj).compose(square.gprime),
            -(-square.b),
            square.c + zero_map(square.c_obj, square.cprime_obj),
            witness=square.witness,
        )
        assert again == square and hash(again) == hash(square)
        assert is_homotopy_cartesian(again) is verdict
        assert len(squares._verdicts) == before


def test_squares_from_cones_that_differ_only_in_g_hash_apart():
    # c, b, g' and the witness of square_from_cone are the same at every a:
    # only g tells these squares apart, so the hash must read it
    squares_ = []
    for a in range(3, 13):
        star = build_star(a)
        squares_.append(square_from_cone(star.morphism.q, star.upper.g))
    assert len({hash(sq) for sq in squares_}) == 10


def test_a_memo_hit_among_many_live_squares_of_one_shape_compares_few(monkeypatch):
    # 200 live squares Z[0] -> Z[0] differing only in b = c = (k): the hash
    # reads the maps, so a lookup compares its own entry, not the whole bucket
    z = one_term()

    def square(k):
        unit = cmap(z, z, {0: [[1]]})
        return CommutativeSquare(unit, unit, cmap(z, z, {0: [[k]]}), cmap(z, z, {0: [[k]]}))

    live = [square(k) for k in range(2, 202)]
    verdicts = [is_homotopy_cartesian(sq) for sq in live]
    calls = []
    real = CommutativeSquare.__eq__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(CommutativeSquare, "__eq__", counting)
    for k, verdict in zip(range(2, 202), verdicts):
        assert is_homotopy_cartesian(square(k)) is verdict
    assert len(calls) <= 2 * len(live)


def test_one_square_decided_from_many_threads_gets_one_verdict():
    import json
    import sys
    from concurrent.futures import ThreadPoolExecutor

    square = _fuzz_square(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            verdicts = list(pool.map(lambda _: is_homotopy_cartesian(square), range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len({id(v) for v in verdicts}) == 1
    assert len({json.dumps(v.to_json(), sort_keys=True) for v in verdicts}) == 1


@pytest.mark.parametrize(
    "ring, expected",
    [
        (ZZ, (None, 0, "constraints have no chain-level solution over Z")),
        (Zmod(4), (4, 0, "constraints unsatisfiable")),
        (Zmod(3), (3, 0, "constraints unsatisfiable")),
    ],
    ids=["Z", "Z/4", "F_3"],
)
def test_unsatisfiable_constraints_are_refuted_before_any_walk(ring, expected):
    # phi o 0 ~ 1 has no solution: on a one-term complex Hom^-1 is 0
    d = one_term(ring)
    verdict = find_compatible_equivalence(d, d, [Constraint(required=identity_map(d), precompose=zero_map(d, d))])
    assert verdict.is_no
    assert (verdict.modulus, verdict.exhausted, verdict.reason) == expected


def test_the_enumeration_cap_yields_unknown_and_the_default_decides():
    trial = next(itertools.islice(fuzz_prop2(2, 200, 42), 2, None))
    assert trial.index == 2
    capped = is_homotopy_cartesian(trial.square, SearchConfig(max_enum=1))
    assert capped.is_unknown and capped.reason == "class enumeration needs 2 > cap"
    assert is_homotopy_cartesian(trial.square).is_yes


def test_a_borrowed_witness_is_checked_against_the_squares_own_maps():
    # X = [Z --1--> Z] is contractible: c g = 1 and g' b = 0 are homotopic
    x = two_term(1)
    one, zero = identity_map(x), zero_map(x, x)
    contraction = {1: IntMatrix([[1]])}
    with pytest.raises(ComplexError):
        CommutativeSquare(one, zero, one, one, witness=CommutativeSquare(one, one, one, one).witness)
    # a homotopy 2 ~ 1 has the components of 1 ~ 0: rebound to this square's maps
    square = CommutativeSquare(one, zero, one, one, witness=Homotopy(one + one, one, contraction))
    assert square.witness.lhs == one and square.witness.rhs == zero
    assert square.witness.components() == contraction


def test_squares_are_immutable():
    square = middle_square(3)
    for name in ("g", "witness", "b_obj", "ring"):
        with pytest.raises(AttributeError):
            setattr(square, name, getattr(square, name))


def test_a_square_spanning_a_million_degrees_is_decided_from_its_degrees():
    # corners Z in degrees 0 and 10^6 only: nothing may step through the span
    x = cpx({0: 1, 10**6: 1})

    def scalar(k):
        return cmap(x, x, {0: [[k]], 10**6: [[k]]})

    start = time.perf_counter()
    verdict = is_homotopy_cartesian(CommutativeSquare(scalar(1), scalar(2), scalar(1), scalar(2)))
    elapsed = time.perf_counter() - start
    assert verdict.to_json() == {"verdict": "unknown", "reason": "search bounds exhausted without a decision"}
    assert elapsed < 0.5, f"decided in {elapsed:.2f} s"


def _z_searches(monkeypatch, run) -> list[tuple]:
    """(d, t, constraints, config, corners) of every search over Z that
    run() makes through the module attribute."""
    calls, real = [], squares.find_compatible_equivalence

    def spy(d, t, constraints, config=DEFAULT_CONFIG, hints=(), corners=()):
        if d.ring.is_integers:
            calls.append((d, t, constraints, config, corners))
        return real(d, t, constraints, config, hints, corners)

    with monkeypatch.context() as patch:
        patch.setattr(squares, "find_compatible_equivalence", spy)
        run()
    return calls


def _refutation_answers(d, t, constraints, config, corners) -> list[tuple[bool, bool]]:
    """(the system's answer, the oracle's) for every listed unit class that
    is an equivalence and every scheduled modulus of one search; the
    oracle reduces each constraint difference mod m and asks `homotopic`."""
    tops = [m for c in (*corners, d, t) for m in squares._torsion_exponents(homology(c))]
    schedule = list(dict.fromkeys(tops + list(config.extra_moduli)))
    listed = (squares._unit_classes(d, t, hom_group(d, t)) if schedule else None) or ()
    classes = [phi for phi in listed if is_homotopy_equivalence(phi) is not None]
    system = squares._ConstraintSystem(d, t, constraints)
    return [(system.holds_mod(phi, m), constraints_hold_mod(phi, constraints, m)) for m in schedule for phi in classes]


def test_the_refutation_on_the_system_agrees_with_the_oracle_on_the_paper(monkeypatch):
    answers = []
    for a in [*range(3, 31), 10**6]:
        searches = _z_searches(monkeypatch, lambda: verify_paper(a))
        assert len(searches) == 2, a  # the middle square and the vertical comparison
        for search in searches:
            answers += _refutation_answers(*search)
    assert answers and all(got == want for got, want in answers)


def _big_entry_squares() -> tuple[CommutativeSquare, CommutativeSquare]:
    """The cone square of b : [Z --3--> Z] -> Z with b_0 = 3 (2^64 + 1),
    whose schedule is (3,) and whose constraint system holds b_0, and the
    same square with g' and c scaled by 0, which no unit class satisfies
    mod 3: b_0 and 3 vanish there, so the cone inclusion is not
    null-homotopic."""
    b_obj = two_term(3)
    sq = square_from_cone(cmap(b_obj, one_term(), {0: [[3 * (2**64 + 1)]]}), zero_map(b_obj, Complex(ZZ, {}, {})))
    return sq, CommutativeSquare(sq.g, sq.gprime.scale(0), sq.b, sq.c.scale(0))


_Z_FIXTURES = {
    "middle square": lambda: [is_homotopy_cartesian(middle_square(a)) for a in (3, 4, 5, 7)],
    "vertical comparison": lambda: [
        fits_vertical_iso(middle_square(a), vertical_triangle_b(a), vertical_triangle_c(a)) for a in (3, 4, 5, 7)
    ],
    "cone square": lambda: is_homotopy_cartesian(
        square_from_cone(cmap(two_term(3), one_term(), {0: [[2]]}), cmap(two_term(3), one_term(), {0: [[5]]}))
    ),
    "perturbed cone square": test_perturbed_cone_square_over_z_is_refuted_or_unknown_never_wrong,
    "finite endomorphism ring": lambda: is_homotopy_cartesian(_finite_end_square()),
    "vertical identity": test_vertical_iso_trivial_yes,
    "unit class square": lambda: is_homotopy_cartesian(_z_unit_class_square()),
    "free rank 2 square": lambda: is_homotopy_cartesian(square_from_json(Z_FREE_RANK_2_SQUARE)),
    "phi ~ 3 mod 2": lambda: squares.find_compatible_equivalence(
        one_term(), one_term(), [Constraint(required=cmap(one_term(), one_term(), {0: [[3]]}))], SearchConfig(extra_moduli=(2,))
    ),
    "witness variants": lambda: [is_homotopy_cartesian(sq) for sq in _witness_variants()],
    "big entries": lambda: [is_homotopy_cartesian(sq) for sq in _big_entry_squares()],
}


@pytest.mark.parametrize("fixture", _Z_FIXTURES)
def test_the_refutation_on_the_system_agrees_with_the_oracle_on_the_z_fixtures(monkeypatch, fixture):
    searches = _z_searches(monkeypatch, _Z_FIXTURES[fixture])
    assert searches
    for search in searches:
        for got, want in _refutation_answers(*search):
            assert got == want


def test_the_refutation_reduces_entries_above_int64_before_a_small_prime_solve(monkeypatch):
    answers = []
    for search in _z_searches(monkeypatch, lambda: [is_homotopy_cartesian(sq) for sq in _big_entry_squares()]):
        d, t, constraints, _, corners = search
        assert 3 in {m for c in (*corners, d, t) for m in squares._torsion_exponents(homology(c))}
        assert max(abs(v) for v in squares._ConstraintSystem(d, t, constraints).a.flat) > 2**63
        answers += _refutation_answers(*search)
    assert {want for _, want in answers} == {True, False}
    assert all(got == want for got, want in answers)


def _z_answers(d, t, constraints) -> list[tuple[bool, bool]]:
    """(the system's answer over Z, `homotopic`'s) for every listed unit
    class of one search that is an equivalence, schedule or none."""
    listed = squares._unit_classes(d, t, hom_group(d, t)) or ()
    system = squares._ConstraintSystem(d, t, constraints)
    return [
        (system.holds_mod(phi), all(homotopic(con.apply(phi), con.required) is not None for con in constraints))
        for phi in listed
        if is_homotopy_equivalence(phi) is not None
    ]


STREAM_DIGEST = "53cf0df3f58e40ea3f29737cfcf2a1cd26c5dbcd58dc7966e9bd4ca8768987da"


def test_the_constraint_system_agrees_with_the_oracles_on_a_stream_of_z_squares(monkeypatch):
    config = SearchConfig(max_enum=256)  # the default cap spends seconds in some squares' box
    stream = [square for seed in (11, 12, 13) for square in z_squares(seed, 50)]
    verdicts = []
    searches = _z_searches(monkeypatch, lambda: verdicts.extend(is_homotopy_cartesian(sq, config) for sq in stream))
    assert len(searches) == len(stream)
    # the verdicts, witnesses and sources of the whole stream, pinned
    pinned = json.dumps([[v.to_json(), v.details.get("source")] for v in verdicts], sort_keys=True)
    assert hashlib.sha256(pinned.encode()).hexdigest() == STREAM_DIGEST
    mod_m = [answer for search in searches for answer in _refutation_answers(*search)]
    over_z = [answer for d, t, constraints, _, _ in searches for answer in _z_answers(d, t, constraints)]
    for answers in (mod_m, over_z):
        assert {want for _, want in answers} == {True, False}
        assert all(got == want for got, want in answers)


def test_each_search_of_the_paper_decomposes_its_homotopy_block_once(monkeypatch):
    decomposed, real = [], squares._ConstraintSystem._homotopy_smith.func
    counted = cached_property(lambda system: decomposed.append(system) or real(system))
    counted.__set_name__(squares._ConstraintSystem, "_homotopy_smith")
    monkeypatch.setattr(squares._ConstraintSystem, "_homotopy_smith", counted)
    search = squares.find_compatible_equivalence
    for a in (3, 12, 10**6):
        per_search = []

        def spy(*args, **kwargs):
            before = len(decomposed)
            verdict = search(*args, **kwargs)
            per_search.append((verdict.exhausted, len(decomposed) - before))
            return verdict

        with monkeypatch.context() as patch:
            patch.setattr(squares, "find_compatible_equivalence", spy)
            verify_paper(a)
        # two classes asked on each of the two searches, one decomposition each
        assert per_search == [(2, 1), (2, 1)], a


def _identity_square(**maps):
    a = one_term()
    return CommutativeSquare(**{name: maps.get(name, identity_map(a)) for name in ("g", "gprime", "b", "c")})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _identity_square(b=identity_map(two_term(2))), "vertical maps do not match the top row"),
        (lambda: _identity_square(gprime=identity_map(two_term(2))), "bottom row does not match the vertical maps"),
        (
            lambda: squares._ConstraintSystem(one_term(), one_term(), [Constraint(identity_map(two_term(2)))]),
            "constraint shapes do not compose",
        ),
        (lambda: find_compatible_equivalence(one_term(), one_term(Zmod(3)), []), "search across different rings"),
    ],
    ids=["top-row", "bottom-row", "constraint-shapes", "across-rings"],
)
def test_squares_refuses_what_does_not_fit(build, message):
    with pytest.raises(ComplexError, match=message):
        build()
