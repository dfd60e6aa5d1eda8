"""Shared builders and checks for the test suite."""

import random
from functools import reduce

import numpy as np

from homcart.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Ring,
    ZZ,
    direct_sum,
    homotopic,
    identity_map,
    pair,
    zero_map,
)
from homcart.intmat import IntMatrix
from homcart.squares import CommutativeSquare, square_from_cone
from homcart.triangles import Triangle, TriangleMorphism

# strings that int() reads as 10, 3 and 7 but that are no decimal integers
NOT_DECIMAL = ("1_0", "\u0663", " 7")


def cpx(ranks: dict[int, int], diffs: dict[int, list[list[int]]] | None = None, ring: Ring = ZZ) -> Complex:
    mats = {i: IntMatrix(m) for i, m in (diffs or {}).items()}
    return Complex(ring, ranks, mats)


def cmap(src: Complex, tgt: Complex, comps: dict[int, list[list[int]]]) -> ChainMap:
    return ChainMap(src, tgt, {i: IntMatrix(m) for i, m in comps.items()})


def one_term(ring: Ring = ZZ, degree: int = 0) -> Complex:
    """[R] concentrated in one degree."""
    return cpx({degree: 1}, ring=ring)


def two_term(d: int, degrees: tuple[int, int] = (0, 1), ring: Ring = ZZ) -> Complex:
    """[R --d--> R] in consecutive degrees."""
    lo, hi = degrees
    assert hi == lo + 1
    return cpx({lo: 1, hi: 1}, {lo: [[d]]}, ring=ring)


def identity_morphism(t: Triangle) -> TriangleMorphism:
    """The morphism t -> t whose three components are identities."""
    return TriangleMorphism(t, t, identity_map(t.x), identity_map(t.y), identity_map(t.z))


def composites_null(t: Triangle) -> bool:
    """Whether g f, h g and f[1] h are null-homotopic, each decided by `homotopic`."""
    return all(
        homotopic(second.compose(first), zero_map(first.source, second.target)) is not None
        for first, second in ((t.f, t.g), (t.g, t.h), (t.h, t.f.shift()))
    )


def _unimodular(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A random n x n integer matrix of determinant +-1 and its inverse,
    from sign flips and row additions with multipliers in -2..2."""
    p, q = np.eye(n, dtype=object), np.eye(n, dtype=object)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            p[i], q[:, i] = -p[i], -q[:, i]
        else:
            s = rng.randint(-2, 2)
            p[i], q[:, j] = p[i] + s * p[j], q[:, j] - s * q[:, i]
    return p, q


def _z_piece(rng) -> Complex:
    """Z[-i] or (Z --k--> Z)[-i], with i in 0..2 and k in {2, 3, 4, 6}."""
    i = rng.randint(0, 2)
    return one_term(degree=i) if rng.random() < 0.5 else two_term(rng.choice((2, 3, 4, 6)), (i, i + 1))


def _z_object(rng) -> Complex:
    """A sum of 1-3 pieces `_z_piece` in a random unimodular basis."""
    x = reduce(direct_sum, [_z_piece(rng) for _ in range(rng.randint(1, 3))])
    bases = {i: _unimodular(rng, x.rank(i)) for i in x.degrees()}
    diffs = {i: IntMatrix(bases[i + 1][0] @ x.differential(i).array @ bases[i][1]) for i in x.degrees() if x.rank(i + 1)}
    return Complex(ZZ, {i: x.rank(i) for i in x.degrees()}, diffs)


def _z_chain_map(x: Complex, y: Complex, rng) -> ChainMap:
    """A combination, coefficients in -2..2, of a basis of the chain maps x -> y."""
    hom = HomComplex(x, y)
    basis = ZZ.kernel(hom.D(0))
    coeffs = np.array([rng.randint(-2, 2) for _ in range(basis.shape[1])], dtype=object)
    return ChainMap(x, y, hom.unvec(basis @ coeffs))


def z_squares(seed: int, count: int):
    """A seeded stream of `count` commutative squares over Z.

    B, C and B' are `_z_object`s, b : B -> B' and g : B -> C are
    `_z_chain_map`s, and C' = cone((b; g)) by `square_from_cone`; then, in
    30% of the squares g' and c are composed with a random endomorphism of
    C', and in 20% with the inclusion of C' into C' + `_z_piece`.
    """
    rng = random.Random(seed)
    for _ in range(count):
        b_obj, c_obj, bprime_obj = _z_object(rng), _z_object(rng), _z_object(rng)
        square = square_from_cone(_z_chain_map(b_obj, bprime_obj, rng), _z_chain_map(b_obj, c_obj, rng))
        post = identity_map(square.cprime_obj)
        if rng.random() < 0.3:
            post = _z_chain_map(square.cprime_obj, square.cprime_obj, rng)
        if rng.random() < 0.2:
            t = square.cprime_obj
            post = pair(identity_map(t), zero_map(t, _z_piece(rng))).compose(post)
        if post != identity_map(square.cprime_obj):
            square = CommutativeSquare(square.g, post.compose(square.gprime), square.b, post.compose(square.c))
        yield square
