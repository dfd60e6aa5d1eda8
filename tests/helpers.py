"""Shared builders and checks for the test suite."""

from homcart.complexes import ChainMap, Complex, Ring, ZZ, homotopic, identity_map, zero_map
from homcart.intmat import IntMatrix
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
