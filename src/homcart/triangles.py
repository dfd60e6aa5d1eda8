"""Candidate triangles, rotation, and verification of distinguishedness.

A triangle is its three maps (X --f--> Y --g--> Z --h--> X[1]), checked to
compose; nothing is solved on construction, so a Triangle is a *candidate*,
not a certificate.  `composites_null` decides on demand whether g f, h g and
f[1] h are null-homotopic.  Distinguishedness is certified either by being
a standard cone triangle, by an explicit comparison witness u : cone(f) -> Z
(`verify_distinguished_with_witness`), or by rotation from a certified
triangle (`rotation_witness` produces the rotated witness, which is then
checked, never assumed).

Rotation follows (X, Y, Z; f, g, h) |-> (Y, Z, X[1]; g, h, -f[1]); this is
the unique sign choice consistent with the built-in datasets, pinned by the
reproduction tests.
"""

from dataclasses import dataclass

from .complexes import (
    ChainMap,
    ComplexError,
    Homotopy,
    cone,
    cone_complex,
    cone_map,
    homotopic,
    identity_map,
    is_homotopy_equivalence,
    shift,
    zero_map,
)


class Triangle:
    """Composable triple (f, g, h): the triangle is its three maps, and
    nothing is solved at construction."""

    __slots__ = ("x", "y", "z", "f", "g", "h")

    def __init__(self, f: ChainMap, g: ChainMap, h: ChainMap):
        if g.source != f.target:
            raise ComplexError("g does not start where f ends")
        if h.source != g.target:
            raise ComplexError("h does not start where g ends")
        if h.target != shift(f.source):
            raise ComplexError("h does not end at the shift of the source")
        object.__setattr__(self, "x", f.source)
        object.__setattr__(self, "y", f.target)
        object.__setattr__(self, "z", g.target)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    def __setattr__(self, *a):
        raise AttributeError("Triangle is immutable")

    @property
    def composites_null(self) -> bool:
        """Whether g f, h g and f[1] h are null-homotopic, solved on each read."""
        return all(
            homotopic(second.compose(first), zero_map(first.source, second.target)) is not None
            for first, second in ((self.f, self.g), (self.g, self.h), (self.h, self.f.shift()))
        )

    def maps(self) -> tuple[ChainMap, ChainMap, ChainMap]:
        return (self.f, self.g, self.h)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangle)
            and self.f == other.f
            and self.g == other.g
            and self.h == other.h
        )

    def __hash__(self):
        return hash((self.f, self.g, self.h))

    def __repr__(self):
        return f"Triangle({self.x!r} -> {self.y!r} -> {self.z!r})"


def standard_triangle(f: ChainMap) -> Triangle:
    """(X, Y, cone(f); f, inclusion, projection)."""
    _, incl, proj = cone(f)
    return Triangle(f, incl, proj)


def rotate(t: Triangle) -> Triangle:
    """(Y, Z, X[1]; g, h, -f[1])."""
    return Triangle(t.g, t.h, -t.f.shift())


@dataclass(frozen=True)
class DistinguishedCheck:
    """Outcome of comparing a triangle against the cone of its first map."""

    ok: bool
    failures: tuple[str, ...]
    equivalence: Homotopy | None          # contraction of cone(u)
    second_map_witness: Homotopy | None   # g ~ u o inclusion
    third_map_witness: Homotopy | None    # projection ~ h o u


def verify_distinguished_with_witness(t: Triangle, u: ChainMap) -> DistinguishedCheck:
    """Certify t distinguished via u : cone(f) -> Z.

    Accepts exactly when u is a homotopy equivalence, g is homotopic to
    u o inclusion, and the cone projection is homotopic to h o u.  The three
    checks are reported independently.
    """
    cn, incl, proj = cone(t.f)
    if u.source != cn or u.target != t.z:
        raise ComplexError("witness must map the cone of f to the third object")
    failures = []
    equivalence = is_homotopy_equivalence(u)
    if equivalence is None:
        failures.append("witness is not a homotopy equivalence")
    second = homotopic(t.g, u.compose(incl))
    if second is None:
        failures.append("second map is not homotopic to witness o inclusion")
    third = homotopic(proj, t.h.compose(u))
    if third is None:
        failures.append("cone projection is not homotopic to third map o witness")
    return DistinguishedCheck(
        ok=not failures,
        failures=tuple(failures),
        equivalence=equivalence,
        second_map_witness=second,
        third_map_witness=third,
    )


def rotation_witness(t: Triangle) -> ChainMap:
    """Candidate comparison map cone(g) -> X[1] for the rotation of t.

    This is the cone map of h and a null-homotopy theta of h o g,
    with component [h_i | theta_(i+1)] in degree i.  For standard triangles
    it is the certifying witness on the nose; for general triangles theta
    may be under-determined, so callers must check the candidate
    (`verify_distinguished_with_witness` on rotate(t)) or search the full
    witness space with the constrained-equivalence engine
    (`squares.rotation_comparison`).  Nothing is ever assumed unverified.
    """
    theta = homotopic(t.h.compose(t.g), zero_map(t.y, t.h.target))
    if theta is None:
        raise ComplexError("h o g is not null-homotopic; triangle cannot rotate with a witness")
    return cone_map(cone_complex(t.g), t.h, theta)


class TriangleMorphism:
    """Componentwise map (p, q, r) between candidate triangles.

    Construction validates shapes only; `verify_triangle_morphism` produces
    (or refuses) the three commuting homotopies.
    """

    __slots__ = ("source", "target", "p", "q", "r")

    def __init__(self, source: Triangle, target: Triangle, p: ChainMap, q: ChainMap, r: ChainMap):
        if p.source != source.x or p.target != target.x:
            raise ComplexError("first component has wrong endpoints")
        if q.source != source.y or q.target != target.y:
            raise ComplexError("second component has wrong endpoints")
        if r.source != source.z or r.target != target.z:
            raise ComplexError("third component has wrong endpoints")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def __setattr__(self, *a):
        raise AttributeError("TriangleMorphism is immutable")


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    failing_squares: tuple[str, ...]
    square_witnesses: tuple[Homotopy | None, Homotopy | None, Homotopy | None]


def verify_triangle_morphism(m: TriangleMorphism) -> MorphismCheck:
    """Homotopy-commutativity of the three squares of a triangle morphism."""
    s, t = m.source, m.target
    w1 = homotopic(m.q.compose(s.f), t.f.compose(m.p))
    w2 = homotopic(m.r.compose(s.g), t.g.compose(m.q))
    w3 = homotopic(m.p.shift().compose(s.h), t.h.compose(m.r))
    failing = tuple(
        name
        for name, w in (("first", w1), ("second", w2), ("third", w3))
        if w is None
    )
    return MorphismCheck(ok=not failing, failing_squares=failing, square_witnesses=(w1, w2, w3))


def identity_morphism(t: Triangle) -> TriangleMorphism:
    return TriangleMorphism(t, t, identity_map(t.x), identity_map(t.y), identity_map(t.z))
