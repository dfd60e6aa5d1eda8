import random

import pytest

from homcart.complexes import (
    Zmod,
    identity_map,
    random_chain_map,
    random_complex,
    reduce_mod,
    shift,
    zero_map,
)
from homcart.intmat import IntMatrix
from homcart.squares import (
    CommutativeSquare,
    PositionMismatch,
    diagonal,
    find_compatible_equivalence,
    fits_vertical_iso,
    is_homotopy_cartesian,
    reduce_square,
    rotation_comparison,
    square_from_cone,
)
from homcart.suite import build_star, lemma2
from homcart.triangles import Triangle, standard_triangle

from helpers import cmap, cpx, one_term, two_term


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


def test_refutation_with_finite_endomorphism_ring():
    # with an empty initial corner the decision reduces to whether the
    # diagonal's second map is an equivalence; its class multiplies the top
    # homology by 3, while homology groups match, so only exhausting the six
    # units of the Z/9 endomorphism ring can certify the refutation
    from homcart.complexes import Complex, ZZ

    empty = Complex(ZZ, {}, {})
    bprime = two_term(9)
    c_obj = two_term(1)
    cprime = two_term(9)
    sq = CommutativeSquare(
        zero_map(empty, c_obj),
        cmap(bprime, cprime, {0: [[3]], 1: [[3]]}),
        zero_map(empty, bprime),
        zero_map(c_obj, cprime),
    )
    verdict = is_homotopy_cartesian(sq)
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
    seen.clear()
    t_b, t_c = lemma2(1, 3, b=-27).triangle, lemma2(4, 3).triangle
    assert fits_vertical_iso(square, t_b, t_c).is_no
    assert seen


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
