"""Commutative squares and the homotopy-cartesian decision procedure.

A square (g, g', b, c) commutes up to a stored homotopy witness.  Its
diagonal sequence B --(b; g)--> B'+C --(g', -c)--> C' is part of a
distinguished triangle exactly when some homotopy equivalence
cone((b; g)) -> C' is compatible with (g', -c) under the cone inclusion;
`is_homotopy_cartesian` decides this via the shared constrained-equivalence
search `find_compatible_equivalence`, and `fits_vertical_iso` decides the
vertical comparison of two given triangles with the same engine.

Verdicts are three-valued.  Yes carries a fully re-verified witness.
NoCertified(m) is a refutation certificate: the finite set of equivalence
classes d -> t (+-g plus torsion when Hom(d, t) has free rank 1, the
generalization of a sign choice when the endomorphism ring is Z) was
exhausted and none satisfies the compatibility constraints mod m, or over Z
when m is None; reduction preserves equivalences and homotopies, so no
integral witness can exist.  One loop asks every class mod each scheduled m,
then over Z, on the one `_ConstraintSystem` the search has built, by a
back-substitution through the one Smith form over Z of its homotopy block H;
no chain map is reduced, and of each pair +-phi only phi is tested for being
an equivalence.
Unknown reports a search bound.  Searches over Z are not claimed complete;
over a finite base ring and within enumeration caps they are.

Every finite set of maps the search tries is a set of homotopy classes, read
off a `Subquotient` the search builds anyway and walked by the one generator
`_walk`: the unit classes, listed straight off hom_group(d, t) (composing
with an equivalence identifies End(t) with Hom(d, t), so no second Hom group
is built), and the classes of constraint solutions, the `Subquotient` of the
solution set by the null-homotopic maps, all of them over Z/m and a
coefficient box of them over Z.

`is_homotopy_cartesian` computes a verdict once per square value and search
config: while the square it was first computed for is alive, an equal
square (equal maps and witness blocks) under an equal config gets the same
Verdict object, so returned verdicts are shared and never changed.  The
memo holds its squares weakly and has no other bound.
"""

import threading
import weakref
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice, product

import numpy as np

from .complexes import (
    ChainMap,
    Complex,
    ComplexError,
    HomComplex,
    Homotopy,
    Subquotient,
    cone,
    cone_homotopy,
    cone_map,
    copair,
    hom_group,
    homology,
    homotopic,
    homotopy_inverse,
    identity_map,
    is_homotopy_equivalence,
    pair,
    reduce_mod,
    shift,
    zero_map,
)
from .intmat import FGAbelianGroup, _integer, smith_solve
from .triangles import Triangle, rotate


class PositionMismatch(ValueError):
    """The given triangles do not contain the square's vertical maps."""


class NotCommutative(ValueError):
    """The four maps of a square do not commute up to homotopy."""


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the constrained-equivalence search.

    coeff_bound (at least 0) limits integer coefficients in the Yes-side
    enumeration.  max_enum caps the walk over Z/m of all constraint-solution
    classes (more yields Unknown, never a wrong verdict); the box over Z
    walks at most min(max_enum, 4096), and the refutation's unit classes are
    capped by MAX_CANDIDATES = 256 alone.  extra_moduli are appended to the
    refutation schedule.  Fields are read by the integer rule (a float
    raises ValueError); extra_moduli is stored as a tuple of ints.
    """

    coeff_bound: int = 2
    max_enum: int = 1 << 20
    extra_moduli: tuple[int, ...] = ()

    def __post_init__(self):
        # the fields as read, written once at construction, before any is checked
        ints = {name: _integer(getattr(self, name), name) for name in ("coeff_bound", "max_enum")}
        vars(self).update(ints, extra_moduli=tuple(_integer(m, "extra_moduli entry") for m in self.extra_moduli))
        if self.coeff_bound < 0:
            raise ValueError("coefficient bound must be nonnegative")
        if self.max_enum < 1:
            raise ValueError("caps must be at least 1")
        if any(m < 2 for m in self.extra_moduli):
            raise ValueError("moduli must be at least 2")


DEFAULT_CONFIG = SearchConfig()

# cap on the unit classes listed for the refutation
MAX_CANDIDATES = 256


@dataclass(frozen=True)
class Constraint:
    """Requirement (postcompose o phi o precompose) ~ required."""

    required: ChainMap
    precompose: ChainMap | None = None
    postcompose: ChainMap | None = None

    def apply(self, phi: ChainMap) -> ChainMap:
        out = phi
        if self.precompose is not None:
            out = out.compose(self.precompose)
        if self.postcompose is not None:
            out = self.postcompose.compose(out)
        return out

    def source(self, d: Complex) -> Complex:
        return self.precompose.source if self.precompose is not None else d

    def target(self, t: Complex) -> Complex:
        return self.postcompose.target if self.postcompose is not None else t


@dataclass(frozen=True)
class Verdict:
    """Yes(witness) | NoCertified(modulus, exhaustion) | Unknown(bound)."""

    kind: str  # "yes" | "no" | "unknown"
    witness: ChainMap | None = None
    equivalence: Homotopy | None = None
    constraint_witnesses: tuple[Homotopy, ...] = ()
    modulus: int | None = None
    exhausted: int | None = None
    reason: str = ""
    details: dict = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def to_json(self) -> dict:
        out = {"verdict": self.kind}
        if self.modulus is not None:
            out["modulus"] = self.modulus
        if self.exhausted is not None:
            out["exhausted"] = self.exhausted
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness.blocks_to_json()
        return out


@dataclass(frozen=True, eq=False, repr=False)
class CommutativeSquare:
    """Square (g: B->C, g': B'->C', b: B->B', c: C->C') with witness c g ~ g' b.

    The corners and the ring are read off the maps.  A given witness is
    re-checked against this square's c o g and g' o b; none given, one is
    solved for.  Two squares are equal when their four maps and their
    witness blocks are.  The hash reads the four maps, which equal squares
    share, so live squares that differ in any map fall into different
    buckets of the verdict memo; the witness is left to equality."""

    g: ChainMap
    gprime: ChainMap
    b: ChainMap
    c: ChainMap
    witness: Homotopy | None = None

    b_obj = property(lambda self: self.g.source)
    c_obj = property(lambda self: self.g.target)
    bprime_obj = property(lambda self: self.gprime.source)
    cprime_obj = property(lambda self: self.gprime.target)
    ring = property(lambda self: self.g.source.ring)

    def __post_init__(self):
        g, gprime, b, c, witness = self.g, self.gprime, self.b, self.c, self.witness
        if b.source != g.source or c.source != g.target:
            raise ComplexError("vertical maps do not match the top row")
        if gprime.source != b.target or gprime.target != c.target:
            raise ComplexError("bottom row does not match the vertical maps")
        lhs, rhs = c.compose(g), gprime.compose(b)
        if witness is None:
            witness = homotopic(lhs, rhs)
            if witness is None:
                raise NotCommutative("c o g is not homotopic to g' o b")
        elif witness.lhs != lhs or witness.rhs != rhs:
            witness = Homotopy(lhs, rhs, witness.components())
        object.__setattr__(self, "witness", witness)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CommutativeSquare)
            and self.g == other.g
            and self.gprime == other.gprime
            and self.b == other.b
            and self.c == other.c
            and self.witness.components() == other.witness.components()
        )

    def __hash__(self):
        return hash((self.g, self.gprime, self.b, self.c))


@dataclass(frozen=True)
class DiagonalSequence:
    """B --(b; g)--> B'+C --(g', -c)--> C' with a null-homotopy of the composite."""

    first: ChainMap
    second: ChainMap
    null_witness: Homotopy


def diagonal(square: CommutativeSquare) -> DiagonalSequence:
    first = pair(square.b, square.g)
    second = copair(square.gprime, -square.c)
    composite = second.compose(first)
    null = Homotopy(
        composite,
        zero_map(square.b_obj, square.cprime_obj),
        {i: -m for i, m in square.witness.components().items()},
    )
    return DiagonalSequence(first, second, null)


# ---------------------------------------------------------------------------
# constrained-equivalence search


class _ConstraintSystem:
    """Linear system deciding `post o phi o pre ~ required` jointly.

    Unknowns are phi in Hom^0(d, t) followed by one homotopy in Hom^-1(w, v)
    per constraint.  The matrix is [[D(0), 0], [C, -D(-1)]], with one row of
    blocks [C_k, ..., -D_k(-1), ...] per constraint, C_k the matrix of
    phi |-> post o phi o pre; the solution set projected to the phi
    coordinates is the set of constraint-satisfying chain maps.
    """

    def __init__(self, d: Complex, t: Complex, constraints: list[Constraint]):
        self.d, self.t = d, t
        self.ring = d.ring
        for con in constraints:
            w, v = con.source(d), con.target(t)
            if con.required.source != w or con.required.target != v:
                raise ComplexError("constraint shapes do not compose")
        self.hom = HomComplex(d, t)
        self.n_phi = self.hom.dim(0)
        homs = [HomComplex(con.source(d), con.target(t)) for con in constraints]
        row, col = self.hom.dim(1), self.n_phi
        shape = (row + sum(h.dim(0) for h in homs), col + sum(h.dim(-1) for h in homs))
        a = np.zeros(shape, dtype=self.ring.dtype)
        a[:row, :col] = self.hom.D(0)
        rhs = [np.zeros(row, dtype=self.ring.dtype)]
        for con, h in zip(constraints, homs):
            rows = slice(row, row + h.dim(0))
            a[rows, : self.n_phi] = self.hom.compose_matrix(con.precompose, con.postcompose)
            a[rows, col : col + h.dim(-1)] = -h.D(-1)
            rhs.append(h.vec(con.required))
            row, col = rows.stop, col + h.dim(-1)
        self.a, self.b = a, np.concatenate(rhs)

    def phi_of(self, x) -> ChainMap:
        return ChainMap(self.d, self.t, self.hom.unvec(x[: self.n_phi]))

    @cached_property
    def _homotopy_smith(self):
        # H: the constraint rows, those past the D(0) block, at the homotopy columns
        return self.ring.smith(self.a[self.hom.dim(1) :, self.n_phi :])

    def holds_mod(self, phi: ChainMap, m: int | None = None) -> bool:
        """Whether phi satisfies every constraint over Z, or mod m: whether
        H h = r = b - C vec(phi) solves, read off the one Smith form U H V = D
        over Z, valid mod every m because U and V are unimodular."""
        rows, n = self.hom.dim(1), self.n_phi
        r = self.b[rows:] - self.a[rows:, :n] @ self.hom.vec(phi)
        u, diag, v, _ = self._homotopy_smith
        return smith_solve(u, diag, v, r.reshape(-1, 1), m) is not None


def _verify_yes(phi, constraints, equivalent, details) -> Verdict | None:
    """Independent recomputation of every witness; None when phi fails."""
    equivalence = equivalent(phi)
    if equivalence is None:
        return None
    cws = []
    for con in constraints:
        diff = con.apply(phi) - con.required
        w = homotopic(diff, zero_map(diff.source, diff.target))
        if w is None:
            return None
        cws.append(w)
    return Verdict(
        kind="yes",
        witness=phi,
        equivalence=equivalence,
        constraint_witnesses=tuple(cws),
        details=details,
    )


def _torsion_exponents(h: dict[int, FGAbelianGroup]) -> list[int]:
    return sorted({g.exponent() for g in h.values() if g.exponent() > 1})


def _homology_isomorphic(hd: dict[int, FGAbelianGroup], ht: dict[int, FGAbelianGroup]) -> bool:
    return all(hd.get(i, FGAbelianGroup(0)) == ht.get(i, FGAbelianGroup(0)) for i in set(hd) | set(ht))


def _walk(base: np.ndarray, reps, ranges, cap: int, modulus: int | None = None):
    """base + sum_j c_j rep_j for the first `cap` coefficient tuples c of
    product(*ranges), in that order; reduced mod `modulus` when one is given."""
    for coeffs in islice(product(*ranges), cap):
        v = base
        for c, rep in zip(coeffs, reps):
            if c:
                v = v + c * rep
        yield v % modulus if modulus else v


def _coefficient_order(bound: int, cap: int) -> list[int]:
    """-bound..bound by increasing absolute value, positive first, cut after
    absolute value cap // 2: at most cap + 1 entries, and the first cap."""
    b = min(bound, cap // 2)
    return [0] + [s for k in range(1, b + 1) for s in (k, -k)]


def _class_ranges(group: FGAbelianGroup, bound: int, cap: int) -> list:
    """Coefficients on the free then the torsion representatives of `group`,
    the free ones within -bound..bound; each cut to what `cap` tuples of
    their product reach, since `product` copies every range it is given."""
    return [_coefficient_order(bound, cap)] * group.free_rank + [range(min(o, cap)) for o in group.invariant_factors]


def _unit_classes(d: Complex, t: Complex, hom) -> list[ChainMap] | None:
    """Every class of hom = hom_group(d, t) that can be a homotopy
    equivalence: at free rank 1, g plus torsion, g the free generator,
    followed by the negation of each of those maps; every class at free rank
    0; None if they are not finitely enumerable here (free rank >= 2).

    Composing with an equivalence e is a group isomorphism End(t) -> Hom(d, t)
    taking 1 to e.  The torsion of End(t) is an ideal whose quotient, at free
    rank 1, is Z generated by 1, so the units are +-1 plus torsion, the
    equivalences are +-e plus torsion, and e = +-g modulo torsion.
    """
    g = hom.group
    if g.free_rank > 1 or (1 + g.free_rank) * g.torsion_order() > MAX_CANDIDATES:
        return None
    reps = hom.classes.free_reps + hom.classes.torsion_reps
    ranges = [(1,)] * g.free_rank + [range(o) for o in g.invariant_factors]
    walk = _walk(np.zeros(hom.hom.dim(0), dtype=object), reps, ranges, MAX_CANDIDATES)
    plus = [ChainMap(d, t, hom.hom.unvec(v), check=False) for v in walk]
    return plus + [-phi for phi in plus] * g.free_rank


def _walk_solutions(system, sol, constraints, config, equivalent) -> Verdict:
    """Try each class of constraint-satisfying maps modulo null-homotopic
    ones, the cosets of im D(-1) in the solution set, once: every class over
    Z/m, so that exhausting them certifies a no; over Z, where the search is
    not complete, those with free coefficients in the box, up to a cap."""
    m, n = system.ring.modulus, system.n_phi
    x0, kern = sol
    classes = Subquotient(system.ring, kern[:n], system.hom.D(-1))
    if m:
        cap, source = classes.group.torsion_order(), "enumeration"
        if cap > config.max_enum:
            return Verdict(kind="unknown", reason=f"class enumeration needs {cap} > cap")
    else:
        cap, source = min(config.max_enum, 4096), "integral enumeration"
    reps = classes.free_reps + classes.torsion_reps
    for v in _walk(x0[:n], reps, _class_ranges(classes.group, config.coeff_bound, cap), cap, m):
        res = _verify_yes(system.phi_of(v), constraints, equivalent, {"source": source})
        if res is not None:
            return res
    if m:
        return Verdict(
            kind="no", modulus=m, exhausted=cap, reason="all constraint-satisfying classes fail to be equivalences"
        )
    return Verdict(kind="unknown", reason="search bounds exhausted without a decision")


def find_compatible_equivalence(
    d: Complex,
    t: Complex,
    constraints: list[Constraint],
    config: SearchConfig = DEFAULT_CONFIG,
    hints: tuple[ChainMap, ...] = (),
    corners: tuple[Complex, ...] = (),
) -> Verdict:
    """Decide existence of a homotopy equivalence phi : d -> t satisfying
    every constraint (post o phi o pre) ~ required.

    The hints are tried first, followed by the identity when d == t and no
    hint is already the identity; then the constraint system is solved once.
    Over Z, one loop asks the listed equivalence classes d -> t
    (`_unit_classes`; of each pair +-phi only phi is tested for being an
    equivalence) on the constraint system (`_ConstraintSystem.holds_mod`)
    mod each modulus of the schedule (the torsion exponents of the homology
    of the corners, of d and of t, then config.extra_moduli), then over Z;
    the first place where every class fails gives a certified no.  Then,
    over every ring, the classes of constraint solutions are walked: all of
    them over Z/m, so the search is complete within the enumeration cap, and
    a bounded box of them over Z.  When the box decides nothing over Z but
    classes are listed, the first that holds over Z is the yes.  Unknown is
    returned when every bound is exhausted.  Each map is tested for being
    an equivalence, each complex's homology is computed and hom_group(d, t)
    is built at most once per call; no other Hom group is.
    """
    if d.ring != t.ring:
        raise ComplexError("search across different rings")
    if d == t and all(h != identity_map(d) for h in hints):
        hints = tuple(hints) + (identity_map(d),)
    # one answer per map for the whole search
    equivalent = cache(lambda phi: is_homotopy_equivalence(phi))
    for phi in hints:
        v = _verify_yes(phi, constraints, equivalent, {"source": "candidate"})
        if v is not None:
            return v
    system = _ConstraintSystem(d, t, constraints)
    sol = system.ring.solve(system.a, system.b)
    if sol is None:
        over_z = d.ring.is_integers
        reason = "constraints have no chain-level solution over Z" if over_z else "constraints unsatisfiable"
        return Verdict(kind="no", modulus=d.ring.modulus, exhausted=0, reason=reason)
    if not d.ring.is_integers:
        return _walk_solutions(system, sol, constraints, config, equivalent)

    homologies = {}
    for c in (*corners, d, t):
        if c not in homologies:
            homologies[c] = homology(c)
    if not _homology_isomorphic(homologies[d], homologies[t]):
        return Verdict(
            kind="no", modulus=None, exhausted=0, reason="homology obstruction: no equivalence exists at all"
        )

    # refutation: the equivalence classes d -> t vs the constraints, mod each m, then over Z
    moduli = [m for c in (*corners, d, t) for m in _torsion_exponents(homologies[c])]
    schedule = list(dict.fromkeys(moduli + list(config.extra_moduli)))
    hom = hom_group(d, t)
    classes = _unit_classes(d, t, hom)
    if classes is not None:
        # -phi is an equivalence exactly when phi is: test the first map of each +-pair
        units = [phi for phi in classes[: len(classes) // (1 + hom.group.free_rank)] if equivalent(phi) is not None]
        classes = units + [-phi for phi in units] * hom.group.free_rank
        if not classes:
            raise AssertionError(
                "no listed class is an equivalence, yet H(d) = H(t): over Z, a hereditary ring, bounded free"
                " complexes are equivalent when their homologies are, and every class that can be one is listed"
            )
    for m in (*schedule, None) if classes else ():
        if not any(system.holds_mod(phi, m) for phi in classes):
            reason = "no equivalence class satisfies the constraints " + ("over Z" if m is None else "mod m")
            return Verdict(kind="no", modulus=m, exhausted=len(classes), reason=reason)
    # a yes of the box holds over Z, so its class is listed: the loop cannot have refuted it
    verdict = _walk_solutions(system, sol, constraints, config, equivalent)
    if not verdict.is_unknown or classes is None:
        return verdict
    # the loop has shown that some listed equivalence class holds over Z
    phi = next(phi for phi in classes if system.holds_mod(phi))
    res = _verify_yes(phi, constraints, equivalent, {"source": "unit class"})
    if res is None:
        raise AssertionError("an equivalence class that satisfies the constraint system failed its re-verification")
    return res


# square -> {config: verdict}; an entry dies with the square it was stored for
_verdicts = weakref.WeakKeyDictionary()
_verdicts_lock = threading.Lock()


def is_homotopy_cartesian(square: CommutativeSquare, config: SearchConfig = DEFAULT_CONFIG) -> Verdict:
    """Decide whether the square's diagonal sequence extends to a
    distinguished triangle.

    Builds the cone on the first diagonal map with its canonical inclusion
    iota and searches for an equivalence cone -> C' compatible with the
    second diagonal map; on Yes, the third map of the triangle is the cone
    projection transported through the witness.

    A verdict is computed once per square value and config: while the
    square it was first computed for is alive, deciding an equal square
    (same maps, same witness) under the same config returns the same
    Verdict object.  Returned verdicts are thus shared, and are never
    changed after they are returned.
    """
    with _verdicts_lock:
        known = _verdicts.get(square, {}).get(config)
    if known is not None:
        return known
    verdict = _decide_cartesian(square, config)
    with _verdicts_lock:
        return _verdicts.setdefault(square, {}).setdefault(config, verdict)


def _decide_cartesian(square: CommutativeSquare, config: SearchConfig) -> Verdict:
    seq = diagonal(square)
    cn, incl, proj = cone(seq.first)
    # the canonical candidate, with candidate o incl = second on the nose: the
    # cone map of second and the stored null-homotopy of the composite
    verdict = find_compatible_equivalence(
        cn,
        square.cprime_obj,
        [Constraint(required=seq.second, precompose=incl)],
        config=config,
        hints=(cone_map(cn, seq.second, seq.null_witness),),
        corners=(square.b_obj, square.c_obj, square.bprime_obj, square.cprime_obj),
    )
    if verdict.is_yes:
        inv = homotopy_inverse(verdict.witness, verdict.equivalence)
        verdict.details["third_map"] = proj.compose(inv)
    return verdict


def rotation_comparison(t: Triangle, config: SearchConfig = DEFAULT_CONFIG) -> Verdict:
    """Search a certificate for rotate(t): an equivalence cone(g) -> X[1]
    compatible with both rotated maps.

    The cheap candidate is tried first: the cone map of h and a solved
    null-homotopy theta of h o g, the map `triangles.rotation_witness(t)`,
    built on the one cone(g) this search uses.  When it falls short (theta
    can be under-determined for non-standard triangles) the shared
    constrained-equivalence engine takes over.  A yes-witness passes
    `verify_distinguished_with_witness` on rotate(t) by construction of the
    constraints.
    """
    cn, incl, proj = cone(t.g)
    xs = shift(t.x)
    theta = homotopic(t.h.compose(t.g), zero_map(t.y, xs))
    hints = () if theta is None else (cone_map(cn, t.h, theta),)
    return find_compatible_equivalence(
        cn,
        xs,
        [
            Constraint(required=t.h, precompose=incl),
            Constraint(required=proj, postcompose=-t.f.shift()),
        ],
        config=config,
        hints=hints,
        corners=(t.x, t.y, t.z),
    )


def square_from_cone(b: ChainMap, g: ChainMap) -> CommutativeSquare:
    """The tautologically homotopy-cartesian square on b : B -> B', g : B -> C.

    C' is the cone of (b; g) and the bottom/right maps are read off the cone
    inclusion; the stored commuting witness is the canonical one, so the
    completion candidate of the diagonal is the identity on the nose.
    """
    if b.source != g.source:
        raise ComplexError("b and g must share their source")
    bprime, c_obj = b.target, g.target
    first = pair(b, g)
    cn, incl, _ = cone(first)
    inj_b = pair(identity_map(bprime), zero_map(bprime, c_obj))
    inj_c = pair(zero_map(c_obj, bprime), identity_map(c_obj))
    gprime = incl.compose(inj_b)
    c_map = -incl.compose(inj_c)
    # canonical witness: c g - g' b = -incl o first, so the negated cone homotopy
    k = cone_homotopy(incl, first)
    witness = Homotopy(c_map.compose(g), gprime.compose(b), {i: -m for i, m in k.components().items()})
    return CommutativeSquare(g, gprime, b, c_map, witness=witness)


def reduce_square(square: CommutativeSquare, m: int) -> CommutativeSquare:
    """Entrywise reduction of a square (and its witness) into Z/m."""
    return CommutativeSquare(
        reduce_mod(square.g, m),
        reduce_mod(square.gprime, m),
        reduce_mod(square.b, m),
        reduce_mod(square.c, m),
        witness=reduce_mod(square.witness, m),
    )


def _position_in(tri: Triangle, m: ChainMap) -> int | None:
    for slot, candidate in enumerate(tri.maps()):
        if candidate == m:
            return slot
    return None


def fits_vertical_iso(
    square: CommutativeSquare,
    t_b: Triangle,
    t_c: Triangle,
    config: SearchConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Decide whether the square extends to a morphism of the two given
    triangles whose third component is a homotopy equivalence.

    t_b must contain the vertical map b, and t_c the vertical map c, in
    matching positions; both triangles are rotated until those maps come
    first, and the two connecting squares become constraints on the
    comparison map between the third objects.
    """
    slot_b = _position_in(t_b, square.b)
    slot_c = _position_in(t_c, square.c)
    if slot_b is None or slot_c is None or slot_b != slot_c:
        raise PositionMismatch("triangles must contain b and c in matching positions")
    rb, rc = t_b, t_c
    for _ in range(slot_b):
        rb = rotate(rb)
        rc = rotate(rc)
    if rb.f != square.b or rc.f != square.c:
        raise PositionMismatch("rotation did not align the vertical maps")
    dz, tz = rb.z, rc.z
    i_b, p_b = rb.g, rb.h
    i_c, p_c = rc.g, rc.h
    constraints = [
        Constraint(required=i_c.compose(square.gprime), precompose=i_b),
        Constraint(required=square.g.shift().compose(p_b), postcompose=p_c),
    ]
    corners = (square.b_obj, square.c_obj, square.bprime_obj, square.cprime_obj, dz, tz)
    return find_compatible_equivalence(dz, tz, constraints, config=config, corners=corners)
