"""Commutative squares and the homotopy-cartesian decision procedure.

A square (g, g', b, c) commutes up to a stored homotopy witness.  Its
diagonal sequence B --(b; g)--> B'+C --(g', -c)--> C' is part of a
distinguished triangle exactly when some homotopy equivalence
cone((b; g)) -> C' is compatible with (g', -c) under the cone inclusion;
`is_homotopy_cartesian` decides this via the shared constrained-equivalence
search `find_compatible_equivalence`, and `fits_vertical_iso` decides the
vertical comparison of two given triangles with the same engine.

Verdicts are three-valued.  Yes carries a fully re-verified witness.
NoCertified(m) is a refutation certificate: the finite set of candidate
equivalence classes (all unit multiples of a base equivalence, the
generalization of a sign choice when the endomorphism ring is Z) was
exhausted and none satisfies the compatibility constraints mod m; reduction
preserves equivalences and homotopies, so no integral witness can exist.
Unknown reports a search bound.  Searches over Z are not claimed complete;
over a finite base ring and within enumeration caps they are.

Every finite set of maps the search tries is a base vector plus a box of
coefficients on representatives, walked by the one generator `_walk`: the
classes of solutions over Z/m (a `Subquotient` of the solution set by the
null-homotopic maps, in int64 over small primes), the base-equivalence and
unit candidates (representatives of `hom_group`), and the bounded integral
enumeration (raw kernel columns of the constraint system).
"""

from dataclasses import dataclass, field
from functools import cache
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
from .intmat import FGAbelianGroup
from .triangles import Triangle, rotate


class PositionMismatch(ValueError):
    """The given triangles do not contain the square's vertical maps."""


class NotCommutative(ValueError):
    """The four maps of a square do not commute up to homotopy."""


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the constrained-equivalence search.

    coeff_bound (at least 0) limits integer coefficients in the Yes-side
    enumeration; max_enum caps any class enumeration (overflow yields
    Unknown, never a wrong verdict); extra_moduli are appended to the
    refutation schedule.
    """

    coeff_bound: int = 2
    max_enum: int = 1 << 20
    extra_moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coeff_bound < 0:
            raise ValueError("coefficient bound must be nonnegative")
        if self.max_enum < 1:
            raise ValueError("caps must be at least 1")
        if any(m < 2 for m in self.extra_moduli):
            raise ValueError("moduli must be at least 2")


DEFAULT_CONFIG = SearchConfig()

# cap on the refutation candidate set: base equivalences tried, unit classes
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
            out["witness"] = {
                str(i): m.to_json() for i, m in self.witness.components().items()
            }
        return out


class CommutativeSquare:
    """Square (g: B->C, g': B'->C', b: B->B', c: C->C') with witness c g ~ g' b."""

    __slots__ = ("b_obj", "c_obj", "bprime_obj", "cprime_obj", "g", "gprime", "b", "c", "witness")

    def __init__(self, g: ChainMap, gprime: ChainMap, b: ChainMap, c: ChainMap, witness: Homotopy | None = None):
        if b.source != g.source or c.source != g.target:
            raise ComplexError("vertical maps do not match the top row")
        if gprime.source != b.target or gprime.target != c.target:
            raise ComplexError("bottom row does not match the vertical maps")
        lhs = c.compose(g)
        rhs = gprime.compose(b)
        if witness is None:
            witness = homotopic(lhs, rhs)
            if witness is None:
                raise NotCommutative("c o g is not homotopic to g' o b")
        else:
            if witness.lhs != lhs or witness.rhs != rhs:
                witness = Homotopy(lhs, rhs, witness.components())
        object.__setattr__(self, "b_obj", g.source)
        object.__setattr__(self, "c_obj", g.target)
        object.__setattr__(self, "bprime_obj", gprime.source)
        object.__setattr__(self, "cprime_obj", gprime.target)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "gprime", gprime)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, *a):
        raise AttributeError("CommutativeSquare is immutable")

    @property
    def ring(self):
        return self.b_obj.ring


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
        if t.ring != d.ring:
            raise ComplexError("search across different rings")
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

    def solve(self):
        """(particular, kernel columns) in raw coordinates, or None."""
        return self.ring.solve(self.a, self.b)

    def phi_of(self, x) -> ChainMap:
        return ChainMap(self.d, self.t, self.hom.unvec(x[: self.n_phi]))


def _constraint_holds(phi: ChainMap, con: Constraint, modulus: int) -> bool:
    diff = reduce_mod(con.apply(phi) - con.required, modulus)
    return homotopic(diff, zero_map(diff.source, diff.target)) is not None


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


def _walk(base: np.ndarray, reps, ranges, modulus: int | None = None):
    """base + sum_j c_j rep_j for each coefficient tuple c of product(*ranges),
    in that order; reduced mod `modulus` when one is given."""
    for coeffs in product(*ranges):
        v = base
        for c, rep in zip(coeffs, reps):
            if c:
                v = v + c * rep
        yield v % modulus if modulus else v


def _decide_over_modular_ring(system, sol, constraints, config, equivalent) -> Verdict:
    """Walk every class of constraint-satisfying maps modulo null-homotopic
    ones, the cosets of im D(-1) in the solution set, once each."""
    m, n = system.ring.modulus, system.n_phi
    if sol is None:
        return Verdict(kind="no", modulus=m, exhausted=0, reason="constraints unsatisfiable")
    x0, kern = sol
    classes = Subquotient(system.ring, kern[:n], system.hom.D(-1))
    count = classes.group.torsion_order()
    if count > config.max_enum:
        return Verdict(kind="unknown", reason=f"class enumeration needs {count} > cap")
    ranges = [range(o) for o in classes.group.invariant_factors]
    for v in _walk(x0[:n], classes.torsion_reps, ranges, m):
        res = _verify_yes(system.phi_of(v), constraints, equivalent, {"source": "enumeration"})
        if res is not None:
            return res
    return Verdict(
        kind="no", modulus=m, exhausted=count, reason="all constraint-satisfying classes fail to be equivalences"
    )


def _coefficient_order(bound: int) -> list[int]:
    """-bound..bound by increasing absolute value, positive first."""
    return sorted(range(-bound, bound + 1), key=lambda v: (abs(v), -v))


def _equivalence_candidates(d: Complex, t: Complex, config, hints, equivalent, hom_dt) -> ChainMap | None:
    """Some homotopy equivalence d -> t over Z, or None within bounds;
    `hom_dt()` gives hom_group(d, t)."""
    for phi in hints:
        if phi.source == d and phi.target == t and equivalent(phi) is not None:
            return phi
    hom = hom_dt()
    ranges = [_coefficient_order(config.coeff_bound)] * hom.group.free_rank
    ranges += [range(o) for o in hom.group.invariant_factors]
    walk = _walk(np.zeros(hom.hom.dim(0), dtype=object), hom.classes.free_reps + hom.classes.torsion_reps, ranges)
    for v in islice(walk, MAX_CANDIDATES):
        phi = ChainMap(d, t, hom.hom.unvec(v), check=False)
        if equivalent(phi) is not None:
            return phi
    return None


def _unit_candidates(t: Complex) -> list[ChainMap] | None:
    """All endomorphism classes that can be units, as chain maps; None if
    the unit group is not finitely enumerable here (free rank >= 2)."""
    end = hom_group(t, t)
    g = end.group
    if g.free_rank > 1 or (1 + g.free_rank) * g.torsion_order() > MAX_CANDIDATES:
        return None
    # with free rank 1, units reduce to +-1 in End/torsion, whose ring is Z
    # generated by the identity class
    reps = [end.hom.vec(identity_map(t))] * g.free_rank + end.classes.torsion_reps
    ranges = [(1, -1)] * g.free_rank + [range(o) for o in g.invariant_factors]
    walk = _walk(np.zeros(end.hom.dim(0), dtype=object), reps, ranges)
    return [ChainMap(t, t, end.hom.unvec(v), check=False) for v in walk]


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
    Over a modular base ring every class of solutions is then walked, so the
    search is complete within the enumeration cap.  Over Z: for each modulus
    in the schedule (the torsion exponents of the homology of the corners,
    of d and of t, then config.extra_moduli; each complex's homology is
    computed once), the finite set of equivalence classes (unit multiples of
    a base equivalence) is checked against the constraints mod m, yielding a
    certified refutation when all fail; finally a bounded integral
    enumeration hunts for a witness.  Unknown is returned when every bound
    is exhausted without a decision.  Each map is tested for being an
    equivalence, and hom_group(d, t) is built, at most once per call.
    """
    if d.ring != t.ring:
        raise ComplexError("search across different rings")
    if d == t and all(h != identity_map(d) for h in hints):
        hints = tuple(hints) + (identity_map(d),)
    # one answer per map, and at most one hom_group(d, t), for the whole search
    equivalent = cache(lambda phi: is_homotopy_equivalence(phi))
    hom_dt = cache(lambda: hom_group(d, t))
    for phi in hints:
        v = _verify_yes(phi, constraints, equivalent, {"source": "candidate"})
        if v is not None:
            return v
    system = _ConstraintSystem(d, t, constraints)
    sol = system.solve()
    if not d.ring.is_integers:
        return _decide_over_modular_ring(system, sol, constraints, config, equivalent)
    if sol is None:
        return Verdict(
            kind="no", modulus=None, exhausted=0, reason="constraints have no chain-level solution over Z"
        )

    homologies = {}
    for c in (*corners, d, t):
        if c not in homologies:
            homologies[c] = homology(c)
    if not _homology_isomorphic(homologies[d], homologies[t]):
        return Verdict(
            kind="no", modulus=None, exhausted=0, reason="homology obstruction: no equivalence exists at all"
        )

    # modular refutation: unit multiples of a base equivalence vs constraints
    moduli = [m for c in (*corners, d, t) for m in _torsion_exponents(homologies[c])]
    schedule = list(dict.fromkeys(moduli + list(config.extra_moduli)))
    if schedule:
        base = _equivalence_candidates(d, t, config, hints, equivalent, hom_dt)
        units = _unit_candidates(t) if base is not None else None
        if base is not None and units is not None:
            classes = [u.compose(base) for u in units]
            classes = [phi for phi in classes if equivalent(phi) is not None]
            for m in schedule:
                if any(
                    all(_constraint_holds(phi, con, modulus=m) for con in constraints)
                    for phi in classes
                ):
                    continue
                return Verdict(
                    kind="no",
                    modulus=m,
                    exhausted=len(classes),
                    reason="no equivalence class satisfies the constraints mod m",
                )

    # bounded integral enumeration on the constraint solution set: the first
    # few raw kernel columns, one try per homotopy class
    x0, kern = sol
    n = system.n_phi
    hom = hom_dt()
    ncols = min(kern.shape[1], 10)
    walk = _walk(x0[:n], list(kern[:n, :ncols].T), [_coefficient_order(config.coeff_bound)] * ncols)
    seen_classes = set()
    for v in islice(walk, min(config.max_enum, 4096)):
        phi = system.phi_of(v)
        key = hom.lookup(phi)
        if key in seen_classes:
            continue
        seen_classes.add(key)
        res = _verify_yes(phi, constraints, equivalent, {"source": "integral enumeration"})
        if res is not None:
            return res
    return Verdict(kind="unknown", reason="search bounds exhausted without a decision")


def is_homotopy_cartesian(square: CommutativeSquare, config: SearchConfig = DEFAULT_CONFIG) -> Verdict:
    """Decide whether the square's diagonal sequence extends to a
    distinguished triangle.

    Builds the cone on the first diagonal map with its canonical inclusion
    iota and searches for an equivalence cone -> C' compatible with the
    second diagonal map; on Yes, the third map of the triangle is the cone
    projection transported through the witness.
    """
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
