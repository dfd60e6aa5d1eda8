import random

import numpy as np
import pytest

from homcart.complexes import (
    ZZ,
    ChainMap,
    ComplexError,
    HomComplex,
    Zmod,
    cone,
    identity_map,
    is_contractible,
    random_chain_map,
    random_complex,
    shift,
    zero_map,
)
from homcart.triangles import (
    Triangle,
    TriangleMorphism,
    rotate,
    rotation_witness,
    standard_triangle,
    verify_distinguished_with_witness,
    verify_triangle_morphism,
)

from helpers import cmap, composites_null, cpx, identity_morphism, one_term, two_term


def random_z_chain_map(x, y, rng, bound=2):
    """A random integer combination of the Smith kernel basis of D(0)."""
    hom = HomComplex(x, y)
    basis = ZZ.kernel(hom.D(0))
    v = np.zeros(basis.shape[0], dtype=object)
    for k in basis.T:
        v = v + rng.randint(-bound, bound) * k
    return ChainMap(x, y, hom.unvec(v))


def corpus(rng):
    """Small integer complexes and maps exercising the triangle layer."""
    shapes = [
        one_term(),
        two_term(3),
        two_term(-9, degrees=(0, 1)),
        cpx({-1: 1, 0: 2}, {-1: [[-27], [9]]}),
        cpx({0: 2, 1: 1}, {0: [[2, 4]]}),
    ]
    maps = []
    for x in shapes:
        for y in shapes:
            maps.append(random_z_chain_map(x, y, rng))
    return [f for f in maps if f.source.total_rank() and f.target.total_rank()]


def test_standard_triangle_shape_and_composites():
    f = cmap(two_term(-9), one_term(), {0: [[5]]})
    t = standard_triangle(f)
    assert t.z.rank(-1) == 1 and t.z.rank(0) == 2
    # projection o inclusion vanishes on the nose
    assert t.h.compose(t.g).is_zero()
    assert composites_null(t)


def test_standard_triangle_identity_z_corner_contractible():
    t = standard_triangle(identity_map(two_term(4)))
    assert is_contractible(t.z) is not None


def test_standard_triangle_zero_map_split():
    x = one_term()
    t = standard_triangle(zero_map(x, x))
    assert composites_null(t)


def test_rotate_rule():
    f = cmap(two_term(-9), one_term(), {0: [[5]]})
    t = standard_triangle(f)
    r = rotate(t)
    assert r.x == t.y and r.y == t.z and r.z == shift(t.x)
    assert r.f == t.g and r.g == t.h
    assert r.h == -t.f.shift()


def test_rotate_cubed_is_negated_shift():
    f = cmap(two_term(-9), one_term(), {0: [[5]]})
    t = standard_triangle(f)
    r3 = rotate(rotate(rotate(t)))
    assert r3.x == shift(t.x) and r3.y == shift(t.y) and r3.z == shift(t.z)
    assert r3.f == -t.f.shift()
    assert r3.g == -t.g.shift()
    assert r3.h == -t.h.shift()


def test_verify_standard_with_identity_witness_on_corpus():
    rng = random.Random(17)
    for f in corpus(rng):
        t = standard_triangle(f)
        cn, _, _ = cone(f)
        check = verify_distinguished_with_witness(t, identity_map(cn))
        assert check.ok, check.failures


def test_rotation_witness_verifies_on_corpus():
    rng = random.Random(23)
    for f in corpus(rng)[:12]:
        t = standard_triangle(f)
        w = rotation_witness(t)
        check = verify_distinguished_with_witness(rotate(t), w)
        assert check.ok, check.failures


def test_verify_rejects_wrong_witness():
    f = cmap(two_term(-9), one_term(), {0: [[5]]})
    t = standard_triangle(f)
    cn, _, _ = cone(f)
    bad = identity_map(cn).scale(0)
    check = verify_distinguished_with_witness(t, bad)
    assert not check.ok
    assert check.failures


def test_identity_morphism_verifies():
    f = cmap(two_term(-9), one_term(), {0: [[5]]})
    t = standard_triangle(f)
    check = verify_triangle_morphism(identity_morphism(t))
    assert check.ok
    assert all(w is not None for w in check.square_witnesses)


def test_morphism_with_broken_component_fails():
    f = cmap(two_term(5), one_term(), {0: [[1]]})
    t = standard_triangle(f)
    # scaling just the middle component breaks at least one square
    m = TriangleMorphism(t, t, identity_map(t.x), identity_map(t.y).scale(2), identity_map(t.z))
    check = verify_triangle_morphism(m)
    assert not check.ok


def test_triangle_shape_validation():
    f = cmap(two_term(5), one_term(), {0: [[1]]})
    t = standard_triangle(f)
    with pytest.raises(ComplexError):
        Triangle(t.f, t.g, t.g)


def test_triangles_compare_by_their_maps_and_morphisms_by_identity():
    t = standard_triangle(cmap(two_term(5), one_term(), {0: [[1]]}))
    same = Triangle(*t.maps())
    assert same is not t and same == t and hash(same) == hash(t)
    assert (same.x, same.y, same.z) == (t.f.source, t.f.target, t.g.target)
    m = identity_morphism(t)
    assert m == m and m != identity_morphism(t)


def test_triangles_and_their_morphisms_are_immutable():
    t = standard_triangle(cmap(two_term(5), one_term(), {0: [[1]]}))
    m = identity_morphism(t)
    for obj, name in ((t, "f"), (t, "x"), (m, "p"), (m, "source")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_rotation_witness_over_prime_field():
    rng = random.Random(31)
    ring = Zmod(3)
    done = 0
    while done < 6:
        x = random_complex(ring, rng, n_degrees=3, max_rank=2)
        y = random_complex(ring, rng, n_degrees=3, max_rank=2)
        if not x.total_rank() or not y.total_rank():
            continue
        f = random_chain_map(x, y, rng)
        t = standard_triangle(f)
        w = rotation_witness(t)
        check = verify_distinguished_with_witness(rotate(t), w)
        assert check.ok, check.failures
        done += 1


def test_triangles_are_built_and_rotated_without_solving(monkeypatch):
    def refuse(*args):
        raise AssertionError("a triangle solved a homotopy system")

    rng = random.Random(43)
    built = []
    with monkeypatch.context() as m:
        m.setattr("homcart.triangles.homotopic", refuse)
        for f in corpus(rng):
            t = standard_triangle(f)
            built += [t, rotate(t), rotate(rotate(t))]
    assert all(composites_null(t) for t in built)



# the standard triangle of 0 : R -> [R --2--> R], whose three objects differ
_T = standard_triangle(zero_map(one_term(), two_term(2)))


def _morphism(p, q, r):
    return TriangleMorphism(_T, _T, *(identity_map(getattr(_T, end)) for end in (p, q, r)))


def _unrotatable():
    """A triangle whose h o g is the identity of R[1], not null-homotopic."""
    x = one_term()
    return rotation_witness(Triangle(zero_map(x, shift(x)), identity_map(shift(x)), identity_map(shift(x))))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Triangle(_T.f, _T.h, _T.h), "g does not start where f ends"),
        (lambda: Triangle(_T.f, _T.g, zero_map(_T.z, _T.x)), "h does not end at the shift of the source"),
        (lambda: _morphism("y", "y", "z"), "first component has wrong endpoints"),
        (lambda: _morphism("x", "x", "z"), "second component has wrong endpoints"),
        (lambda: _morphism("x", "y", "y"), "third component has wrong endpoints"),
        (
            lambda: verify_distinguished_with_witness(_T, identity_map(one_term())),
            "witness must map the cone of f to the third object",
        ),
        (_unrotatable, "h o g is not null-homotopic"),
    ],
    ids=["g-after-f", "h-into-shift", "morphism-first", "morphism-second", "morphism-third", "witness-ends", "rotation"],
)
def test_triangles_refuses_what_does_not_fit(build, message):
    with pytest.raises(ComplexError, match=message):
        build()
