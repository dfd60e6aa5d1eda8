"""Bounded complexes of finitely generated free modules over Z or Z/m.

Grading is cohomological: the differential in degree i maps degree i to
degree i+1 and is stored as a matrix of shape rank(i+1) x rank(i).  A chain
map f : X -> Y has components f_i of shape rank_Y(i) x rank_X(i) satisfying
d_Y(i) f_i = f_{i+1} d_X(i).  A homotopy h between parallel maps f and g has
components h_i : X^i -> Y^(i-1) with f_i - g_i = d_Y(i-1) h_i + h_{i+1} d_X(i);
the witness equation is checked on construction.  The shift X[1] has
rank(i) = rank_X(i+1) and differential -d_X(i+1).

Over a modular ring all entries are kept canonical in [0, m); equality of
matrices is therefore plain equality.  Homology is computed over Z only;
residue-ring questions are answered by lifting and modular solving.

Every linear question about maps is asked of the Hom complex (Weibel, An
Introduction to Homological Algebra, 2.7): Hom(X, Y)^n is the product over i
of Hom(X^i, Y^(i+n)), with differential D(n) phi = d_Y phi - (-1)^n phi d_X.
Chain maps are its cocycles Z^0, null-homotopic maps its coboundaries B^0,
and Hom in the homotopy category is H^0.

`_layout(X, Y, n)` is the one definition of the blocks of a degree-n map
X -> Y: a rank_Y(i+n) x rank_X(i) block X^i -> Y^(i+n) for each i where both
ranks are nonzero, in increasing i.  Differentials are maps of degree 1,
chain maps of degree 0 and homotopies of degree -1.  `Complex`, `ChainMap`
and `Homotopy` keep one block per layout entry, zero where none was given,
so equal maps compare equal however they were written.  `HomComplex` lays
out Hom^n as one vector of the same blocks, each read row-major.

`pair` and `copair` are the maps into and out of a direct sum, and
`cone_map(cn, g, k)` is the map out of cn = cone(f) given by g and a
null-homotopy k of g o f (the cone's universal property).  The cone's block
layout, Y^i + X^(i+1) with differential [[d_Y, f], [0, -d_X]] (Weibel 1.5),
is known to `cone_complex`, `cone`, `cone_map` and `cone_homotopy`, and to
the pair that reads an equivalence off a contraction of its cone,
`is_homotopy_equivalence` and `homotopy_inverse`: `cone_homotopy` is the
canonical null-homotopy [0; 1] of incl o f.

Contractions are built from sections, s with d s d = d (`Ring.section`),
over every ring: an exact complex is contracted by
h(i+1) = s(i) (1 - s(i+1) d(i+1)), and the cone of a map f that is
invertible in every degree by [[0, 0], [f_i^-1, 0]] in degree i.  Over
Z/m, d has a section exactly when each invariant factor d_k of its Smith
form is a unit modulo m / gcd(d_k, m).

Hom groups and the classes of the squares search are subquotients,
computed by one routine for every ring: `Subquotient(ring, top, b)` is
span(top) / (im b + m Z^n), with representatives and a `lookup` of class
coordinates, read off two decompositions, of top and of the relations in
its coordinates.  `homology` needs no representatives and reads each H^i
off the Smith forms of d(i-1) and d(i) alone.

`Ring` is the linear-algebra backend of these vectors and matrices: prime
fields F_p with p <= 2^20 are solved in int64 by `modp`, and every other
ring (Z, Z/m, larger primes) by the exact Smith kernel of `intmat`.  Its
one decomposition of a matrix, u a v = D diagonal, is `Ring.smith`: the
Smith form, or `modp.diagonalize` over F_p, where three questions take
one cheaper rref instead: `solve` of [a | b], `kernel` of a, `section` of
[d | 1].
`Ring.asarray` puts a matrix into its backend's form; no other code
converts between the two.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import modp
from .intmat import (
    DimensionMismatch,
    FGAbelianGroup,
    IntMatrix,
    cokernel,
    det,
    smith_kernel,
    smith_normal_form,
    smith_solve,
    solve_linear,
)


class ComplexError(ValueError):
    """A complex, chain map or homotopy failed its defining equations."""

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: Z when modulus is None, else Z/m (m >= 2).

    Also the linear-algebra backend for matrices over the ring; see the
    module docstring for which rings are solved in int64.
    """

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    @property
    def is_integers(self) -> bool:
        return self.modulus is None

    @cached_property
    def is_prime_field(self) -> bool:
        return self.modulus is not None and modp.is_prime(self.modulus)

    @cached_property
    def is_small_prime_field(self) -> bool:
        """F_p with p <= 2^20, the rings solved in int64 by `modp`."""
        return self.modulus is not None and self.modulus <= modp.P_MAX and self.is_prime_field

    @property
    def dtype(self):
        """numpy dtype of backend arrays."""
        return np.int64 if self.is_small_prime_field else object

    def asarray(self, a) -> np.ndarray:
        """An integer matrix or vector in backend form: int64 reduced mod p
        on a small prime field, exact Python ints otherwise."""
        a = np.asarray(a.array if isinstance(a, IntMatrix) else a)
        if self.is_small_prime_field:
            return (a % self.modulus).astype(np.int64)
        return np.asarray(a, dtype=object)

    def solve(self, a: np.ndarray, b: np.ndarray):
        """(x, kernel) with a @ x = b and columns of kernel spanning ker a,
        or None when there is no solution."""
        if self.is_small_prime_field:
            return modp.solve(a, b, self.modulus)
        n = a.shape[1]
        if n == 0:
            if np.count_nonzero(b):
                return None
            return np.zeros(0, dtype=object), np.zeros((0, 0), dtype=object)
        got = solve_linear(IntMatrix(a), list(b), modulus=self.modulus)
        if got is None:
            return None
        x, ker = got
        return x, np.array(ker, dtype=object).reshape(len(ker), n).T

    def smith(self, a) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """The one decomposition of a matrix: backend arrays (u, diag, v,
        uinv) with u a v = D diagonal, D's diagonal `diag` and uinv = u^-1.
        Over a small prime field from `modp.diagonalize`, D = diag(1, ..., 1,
        0, ...); otherwise the Smith form over Z of a reduced into [0, m)."""
        if self.is_small_prime_field:
            u, v, uinv, r = modp.diagonalize(self.asarray(a), self.modulus)
            return u, [1] * r + [0] * (min(a.shape) - r), v, uinv
        s = smith_normal_form(self.canon(IntMatrix(a)))
        return s.u.array, s.diagonal(), s.v.array, s.uinv.array

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Columns spanning {x : a @ x = 0}: a basis over Z and over a small
        prime field, a generating set over the other modular rings: read off
        `smith(a)`, or over a small prime field off one rref of a, cheaper."""
        if self.is_small_prime_field:
            return modp.kernel(a, self.modulus)
        if a.shape[0] == 0 or a.shape[1] == 0:
            return np.eye(a.shape[1], dtype=object)
        _, diag, v, _ = self.smith(a)
        return smith_kernel(diag, v, self.modulus)

    def section(self, d: IntMatrix):
        """(s, r) with d s d = d and r = rank d, s as a backend array, or
        None when d has no section.

        s = V T U from the decomposition U d V = D of `smith(d)`, with T
        diagonal and D T D = D: over Z, V[:, :r] U[:r, :] when every nonzero
        d_k is 1; over Z/m, t_k = d_k^-1 modulo m / gcd(d_k, m) when every
        d_k is a unit there, and r counts the d_k nonzero mod m.  Over a
        small prime field one rref E [d | 1] = [R | E] is cheaper than the
        decomposition and gives s directly: row k of s at the k-th pivot
        column of R is row k of E, for k < r.
        """
        rows, cols = d.shape
        if rows == 0 or cols == 0:
            return np.zeros((cols, rows), dtype=self.dtype), 0
        if self.is_small_prime_field:
            r, pivots = modp.rref(np.hstack([self.asarray(d), np.eye(rows, dtype=np.int64)]), self.modulus)
            rank = sum(1 for j in pivots if j < cols)
            s = np.zeros((cols, rows), dtype=np.int64)
            s[pivots[:rank]] = r[:rank, cols:]
            return s, rank
        (u, diag, v, _), m = self.smith(d.array), self.modulus
        if m is None:
            rank = sum(1 for x in diag if x)
            if any(x != 1 for x in diag[:rank]):
                return None
            return v[:, :rank] @ u[:rank, :], rank
        mods = [m // math.gcd(x, m) for x in diag]  # d_k must be a unit modulo m / gcd(d_k, m)
        if any(math.gcd(x, q) != 1 for x, q in zip(diag, mods)):
            return None
        t = np.array([pow(x, -1, q) for x, q in zip(diag, mods)], dtype=object)
        k = len(diag)
        return (v[:, :k] * t) @ u[:k, :] % m, sum(1 for x in diag if x % m)

    def canon(self, m: IntMatrix) -> IntMatrix:
        return m if self.modulus is None else m.reduce_mod(self.modulus)

    def __str__(self):
        return "Z" if self.modulus is None else f"Z/{self.modulus}"

    def to_json(self):
        return "Z" if self.modulus is None else {"mod": self.modulus}

    @classmethod
    def from_json(cls, data) -> "Ring":
        if data == "Z":
            return cls(None)
        if isinstance(data, dict) and "mod" in data:
            return cls(int(str(data["mod"]), 10))
        raise ValueError(f"unrecognized ring descriptor: {data!r}")


ZZ = Ring(None)


def Zmod(m: int) -> Ring:
    return Ring(int(m))


def _layout(x: "Complex", y: "Complex", n: int) -> list[tuple[int, int, int, int]]:
    """(i, rows, cols, offset) of each block Hom(x^i, y^(i+n)) of a degree-n
    map x -> y, one for each i where both ranks are nonzero, by increasing i."""
    out, off, target = [], 0, y._ranks
    for i, c in x._ranks.items():
        r = target.get(i + n)
        if r:
            out.append((i, r, c, off))
            off += r * c
    return out


class _GradedMap:
    """A degree-n map x -> y, kept as one block X^i -> Y^(i+n), reduced by the
    ring, for each entry of `_layout(x, y, n)`; `_ends` gives (x, y, n)."""

    __slots__ = ("_blocks",)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set_blocks(self, given: dict, what: str):
        """Store the given blocks, and a zero block for each layout entry
        given none.  A block of the wrong shape, or a nonzero block outside
        the layout, raises ComplexError at its degree."""
        x, y, n = self._ends()
        canon, blocks = x.ring.canon, {}
        for i, r, c, _ in _layout(x, y, n):
            m = given.get(i)
            if m is None:
                blocks[i] = IntMatrix.zeros(r, c)
            elif m.shape != (r, c):
                raise ComplexError(f"{what} at degree {i} has shape {m.shape}, expected {(r, c)}", degree=i)
            else:
                blocks[i] = canon(m)
        for i, m in given.items():
            if i not in blocks and not m.is_zero():
                raise ComplexError(f"nonzero {what} at degree {i} maps to or from rank 0", degree=int(i))
        object.__setattr__(self, "_blocks", blocks)

    def component(self, i: int) -> IntMatrix:
        """The block X^i -> Y^(i+n); zero outside the layout."""
        got = self._blocks.get(i)
        if got is not None:
            return got
        x, y, n = self._ends()
        return IntMatrix.zeros(y.rank(i + n), x.rank(i))

    def components(self) -> dict[int, IntMatrix]:
        return dict(self._blocks)

    def blocks_to_json(self) -> dict:
        """The nonzero blocks, keyed by degree: the one JSON writer of
        differentials, chain maps and homotopies."""
        return {str(i): m.to_json() for i, m in self._blocks.items() if not m.is_zero()}


class Complex(_GradedMap):
    """Bounded complex of free modules, validated on construction."""

    __slots__ = ("ring", "_ranks")

    def __init__(self, ring: Ring, ranks: dict[int, int], differentials: dict[int, IntMatrix]):
        clean_ranks = dict(sorted((int(i), int(r)) for i, r in ranks.items() if int(r) != 0))
        if any(r < 0 for r in clean_ranks.values()):
            raise ComplexError("negative rank")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_ranks", clean_ranks)
        self._set_blocks(differentials, "differential")
        for i, d in self._blocks.items():
            if i + 1 in self._blocks and not ring.canon(self._blocks[i + 1] @ d).is_zero():
                raise ComplexError(f"differentials do not compose to zero at degree {i}", degree=i)

    def _ends(self):
        return self, self, 1

    differential = _GradedMap.component

    def degrees(self) -> list[int]:
        return list(self._ranks)

    def rank(self, i: int) -> int:
        return self._ranks.get(i, 0)

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def is_zero(self) -> bool:
        return not self._ranks

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Complex)
            and self.ring == other.ring
            and self._ranks == other._ranks
            and self._blocks == other._blocks
        )

    def __hash__(self):
        return hash((self.ring, tuple(self._ranks.items())))

    def __repr__(self):
        parts = ", ".join(f"{i}:{r}" for i, r in self._ranks.items())
        return f"Complex({self.ring}; ranks {{{parts}}})"


class ChainMap(_GradedMap):
    """Degreewise map between complexes over the same ring."""

    __slots__ = ("source", "target")

    def __init__(self, source: Complex, target: Complex, components: dict[int, IntMatrix], check: bool = True):
        if source.ring != target.ring:
            raise ComplexError("chain map between different rings")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        self._set_blocks(components, "component")
        if check:
            bad = self.first_chain_violation()
            if bad is not None:
                raise ComplexError(f"chain condition fails at degree {bad}", degree=bad)

    def _ends(self):
        return self.source, self.target, 0

    def first_chain_violation(self) -> int | None:
        ring = self.source.ring
        for i in sorted(set(self.source.degrees()) | set(self.target.degrees())):
            if self.source.rank(i) == 0 or self.target.rank(i + 1) == 0:
                continue
            lhs = self.target.differential(i) @ self.component(i)
            rhs = self.component(i + 1) @ self.source.differential(i)
            if not ring.canon(lhs - rhs).is_zero():
                return i
        return None

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply `other` first)."""
        if other.target != self.source:
            raise DimensionMismatch("chain maps do not compose")
        comps = {i: self.component(i) @ m for i, m in other._blocks.items() if self.target.rank(i)}
        return ChainMap(other.source, self.target, comps, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._require_parallel(other)
        return ChainMap(
            self.source, self.target,
            {i: m + other._blocks[i] for i, m in self._blocks.items()},
            check=False,
        )

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        self._require_parallel(other)
        return ChainMap(
            self.source, self.target,
            {i: m - other._blocks[i] for i, m in self._blocks.items()},
            check=False,
        )

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, {i: -m for i, m in self._blocks.items()}, check=False)

    def scale(self, k: int) -> "ChainMap":
        return ChainMap(self.source, self.target, {i: m.scale(k) for i, m in self._blocks.items()}, check=False)

    def shift(self) -> "ChainMap":
        """f[1] : X[1] -> Y[1], components f[1]_i = f_{i+1}."""
        return ChainMap(
            shift(self.source), shift(self.target),
            {i - 1: m for i, m in self._blocks.items()},
            check=False,
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self._blocks.values())

    def _require_parallel(self, other: "ChainMap"):
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatch("chain maps are not parallel")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self._blocks == other._blocks
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(self._blocks.items())))

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, {i: IntMatrix.identity(c.rank(i)) for i in c.degrees()}, check=False)


def zero_map(x: Complex, y: Complex) -> ChainMap:
    return ChainMap(x, y, {}, check=False)


class Homotopy(_GradedMap):
    """Witness that two parallel chain maps agree in the homotopy category.

    Components h_i : X^i -> Y^(i-1); the defining equation
    f_i - g_i = d_Y(i-1) h_i + h_{i+1} d_X(i) is verified on construction.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: ChainMap, rhs: ChainMap, components: dict[int, IntMatrix], check: bool = True):
        lhs._require_parallel(rhs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        self._set_blocks(components, "homotopy component")
        if check:
            bad = self._first_violation()
            if bad is not None:
                raise ComplexError(f"homotopy witness equation fails at degree {bad}", degree=bad)

    def _ends(self):
        return self.lhs.source, self.lhs.target, -1

    def _first_violation(self) -> int | None:
        x, y = self.lhs.source, self.lhs.target
        ring = x.ring
        for i in sorted(set(x.degrees()) | set(y.degrees())):
            if x.rank(i) == 0 or y.rank(i) == 0:
                continue
            rest = self.lhs.component(i) - self.rhs.component(i)
            if y.rank(i - 1) > 0:
                rest = rest - y.differential(i - 1) @ self.component(i)
            if x.rank(i + 1) > 0:
                rest = rest - self.component(i + 1) @ x.differential(i)
            if not ring.canon(rest).is_zero():
                return i
        return None

    def __repr__(self):
        return f"Homotopy({self.lhs!r} ~ {self.rhs!r})"


def shift(c: Complex) -> Complex:
    """c[1]: rank(i) = rank_c(i+1) and differential(i) = -d_c(i+1)."""
    ranks = {i - 1: r for i, r in c._ranks.items()}
    return Complex(c.ring, ranks, {i - 1: -d for i, d in c._blocks.items()})


def direct_sum(x: Complex, y: Complex) -> Complex:
    if x.ring != y.ring:
        raise ComplexError("direct sum over different rings")
    ranks = {i: x.rank(i) + y.rank(i) for i in {*x.degrees(), *y.degrees()}}
    diffs = {
        i: IntMatrix.block(
            [
                [x.differential(i), IntMatrix.zeros(x.rank(i + 1), y.rank(i))],
                [IntMatrix.zeros(y.rank(i + 1), x.rank(i)), y.differential(i)],
            ]
        )
        for i in ranks
        if i + 1 in ranks
    }
    return Complex(x.ring, ranks, diffs)


def cone_complex(f: ChainMap) -> Complex:
    """The mapping cone of f : X -> Y as a complex: degree i is
    Y^i + X^(i+1) with differential [[d_Y, f], [0, -d_X]]."""
    x, y = f.source, f.target
    ranks = {i: y.rank(i) + x.rank(i + 1) for i in {*y.degrees(), *(d - 1 for d in x.degrees())}}
    diffs = {
        i: IntMatrix.block(
            [
                [y.differential(i), f.component(i + 1)],
                [IntMatrix.zeros(x.rank(i + 2), y.rank(i)), -x.differential(i + 1)],
            ]
        )
        for i in ranks
        if i + 1 in ranks
    }
    return Complex(x.ring, ranks, diffs)


def cone(f: ChainMap) -> tuple[Complex, ChainMap, ChainMap]:
    """Mapping cone of f : X -> Y.

    Returns (`cone_complex(f)`, inclusion of Y, projection to X[1]).  The
    composite projection o inclusion is zero on the nose.
    """
    x, y = f.source, f.target
    cn = cone_complex(f)
    incl = ChainMap(
        y, cn,
        {
            i: IntMatrix.vstack([IntMatrix.identity(y.rank(i)), IntMatrix.zeros(x.rank(i + 1), y.rank(i))])
            for i in y.degrees()
        },
        check=False,
    )
    proj = ChainMap(
        cn, shift(x),
        {
            i: IntMatrix.hstack([IntMatrix.zeros(x.rank(i + 1), y.rank(i)), IntMatrix.identity(x.rank(i + 1))])
            for i in cn.degrees()
            if x.rank(i + 1) > 0
        },
        check=False,
    )
    return cn, incl, proj


def cone_map(cn: Complex, g: ChainMap, k: Homotopy) -> ChainMap:
    """The map cn -> W out of cn = cone(f), f : X -> Y, induced by
    g : Y -> W and a null-homotopy k of g o f, with component
    [g_i | k_(i+1)] in degree i.

    It takes the cone that the caller has built with `cone(f)`.  It
    restricts to g along the cone inclusion.  It is checked as a chain map,
    which holds exactly when k is a null-homotopy of g o f.
    """
    x, y, w = k.lhs.source, g.source, g.target
    degs = set(cn.degrees()) | set(y.degrees()) | {i - 1 for i in x.degrees()}
    if k.lhs.target != w or any(cn.rank(i) != y.rank(i) + x.rank(i + 1) for i in degs):
        raise ComplexError("cone_map needs cn = cone(f) for f : X -> Y, g : Y -> W and k : X -> W[-1]")
    comps = {i: IntMatrix.hstack([g.component(i), k.component(i + 1)]) for i in cn.degrees() if w.rank(i)}
    return ChainMap(cn, w, comps)


def cone_homotopy(incl: ChainMap, f: ChainMap) -> Homotopy:
    """The null-homotopy of incl o f, for f : X -> Y and its cone inclusion
    incl : Y -> cone(f), with component [0; 1] : X^i -> Y^(i-1) + X^i.

    It holds on the nose, by the cone's differential, so it is built
    unchecked; `cone_map` and `Homotopy` re-check it wherever it is used.
    """
    x, y = f.source, f.target
    comps = {
        i: IntMatrix.vstack([IntMatrix.zeros(y.rank(i - 1), x.rank(i)), IntMatrix.identity(x.rank(i))])
        for i in x.degrees()
    }
    return Homotopy(incl.compose(f), zero_map(x, incl.target), comps, check=False)


def pair(f: ChainMap, g: ChainMap) -> ChainMap:
    """(f; g) : X -> Y + Z for f : X -> Y and g : X -> Z."""
    if f.source != g.source:
        raise ComplexError("paired maps must share their source")
    x, mid = f.source, direct_sum(f.target, g.target)
    comps = {i: IntMatrix.vstack([f.component(i), g.component(i)]) for i in x.degrees() if mid.rank(i)}
    return ChainMap(x, mid, comps, check=False)


def copair(f: ChainMap, g: ChainMap) -> ChainMap:
    """(f, g) : Y + Z -> W for f : Y -> W and g : Z -> W."""
    if f.target != g.target:
        raise ComplexError("copaired maps must share their target")
    mid, w = direct_sum(f.source, g.source), f.target
    comps = {i: IntMatrix.hstack([f.component(i), g.component(i)]) for i in mid.degrees() if w.rank(i)}
    return ChainMap(mid, w, comps, check=False)


# ---------------------------------------------------------------------------
# the Hom complex


def _size(layout) -> int:
    return sum(r * c for _, r, c, _ in layout)


class HomComplex:
    """Hom(x, y) with the layout and differential of the module docstring.

    Matrices and vectors are in the ring's backend form (`Ring.asarray`),
    with entries not necessarily reduced.
    """

    def __init__(self, x: Complex, y: Complex):
        if x.ring != y.ring:
            raise ComplexError("Hom between different rings")
        self.x, self.y, self.ring = x, y, x.ring
        self._dx = {i: self.ring.asarray(d) for i, d in x._blocks.items()}
        self._dy = {i: self.ring.asarray(d) for i, d in y._blocks.items()}

    def layout(self, n: int) -> list[tuple[int, int, int, int]]:
        return _layout(self.x, self.y, n)

    def dim(self, n: int) -> int:
        return _size(self.layout(n))

    def vec(self, f: "ChainMap") -> np.ndarray:
        """Vector of a chain map x -> y in Hom^0."""
        parts = [self.ring.asarray(f.component(i)).reshape(-1) for i, _, _, _ in self.layout(0)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=self.ring.dtype)

    def unvec(self, v, n: int = 0) -> dict[int, IntMatrix]:
        """Components of the degree-n map with vector v."""
        return {i: IntMatrix(np.asarray(v[off : off + r * c]).reshape(r, c)) for i, r, c, off in self.layout(n)}

    def D(self, n: int) -> np.ndarray:
        """Matrix of phi |-> d_y phi - (-1)^n phi d_x from Hom^n to Hom^(n+1)."""
        src, tgt = self.layout(n), self.layout(n + 1)
        pos = {i: (r, c, off) for i, r, c, off in src}
        sign, dt = (1 if n % 2 else -1), self.ring.dtype
        out = np.zeros((_size(tgt), _size(src)), dtype=dt)
        for i, r, c, row in tgt:
            rows = slice(row, row + r * c)
            if i in pos:
                sr, sc, off = pos[i]
                out[rows, off : off + sr * sc] = np.kron(self._dy[i + n], np.eye(c, dtype=dt))
            if i + 1 in pos:
                sr, sc, off = pos[i + 1]
                out[rows, off : off + sr * sc] = sign * np.kron(np.eye(r, dtype=dt), self._dx[i].T)
        return out

    def compose_matrix(self, pre: "ChainMap | None", post: "ChainMap | None") -> np.ndarray:
        """Matrix of phi |-> post o phi o pre from Hom^0(x, y) to Hom^0(w, v),
        for pre : w -> x and post : y -> v; None stands for an identity."""
        w = pre.source if pre is not None else self.x
        v = post.target if post is not None else self.y
        src, tgt, ring = self.layout(0), _layout(w, v, 0), self.ring
        pos = {i: (r, c, off) for i, r, c, off in src}
        out = np.zeros((_size(tgt), _size(src)), dtype=ring.dtype)
        for i, r, c, row in tgt:
            if i in pos:
                sr, sc, off = pos[i]
                left = ring.asarray(post.component(i)) if post is not None else np.eye(r, dtype=ring.dtype)
                right = ring.asarray(pre.component(i)) if pre is not None else np.eye(c, dtype=ring.dtype)
                out[row : row + r * c, off : off + sr * sc] = np.kron(left, right.T)
        return out


def homotopic(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A verified homotopy between parallel maps f and g, if one exists.

    Equal maps get the zero homotopy, verified like any other, without
    building or solving anything.  Otherwise decided by solving
    D(-1) h = f - g in the Hom complex.
    """
    f._require_parallel(g)
    if f == g:
        return Homotopy(f, g, {})
    hom = HomComplex(f.source, f.target)
    sol = hom.ring.solve(hom.D(-1), hom.vec(f) - hom.vec(g))
    if sol is None:
        return None
    return Homotopy(f, g, hom.unvec(sol[0], -1))


def is_contractible(c: Complex) -> Homotopy | None:
    """A contraction (identity null-homotopic) if the complex is
    contractible: h(i+1) = s(i) (1 - s(i+1) d(i+1)) from a section s(i) of
    each differential (`Ring.section`).

    1 - s(i+1) d(i+1) maps into ker d(i+1), which is im d(i) when c is
    exact, and there d(i) s(i) is 1, so d h + h d = 1.  A contractible
    complex is exact and d = d h d, so a missing section means None.  Over
    Z and the small prime fields ranks test exactness first, rank d(i-1) +
    rank d(i) = rank(i), and a failed contraction check raises; over the
    other Z/m that check decides exactness, and a failure returns None.
    """
    degs = c.degrees()
    if not degs:
        return Homotopy(identity_map(c), zero_map(c, c), {}, check=False)
    ring = c.ring
    by_rank = ring.is_integers or ring.is_small_prime_field
    sections, ranks = {}, {}
    for i in range(degs[0], degs[-1] + 1):
        got = ring.section(c.differential(i))
        if got is None or (by_rank and ranks.get(i - 1, 0) + got[1] != c.rank(i)):
            return None
        sections[i], ranks[i] = got
    comps = {}
    for i, _, _, _ in _layout(c, c, -1):
        kerproj = ring.asarray(np.eye(c.rank(i), dtype=ring.dtype) - sections[i] @ ring.asarray(c.differential(i)))
        comps[i] = IntMatrix(sections[i - 1] @ kerproj)
    try:
        return Homotopy(identity_map(c), zero_map(c, c), comps)
    except ComplexError:
        if by_rank:
            raise
        return None


def _inverse_components(f: ChainMap) -> dict[int, IntMatrix] | None:
    """The inverses of the components of f when every component is square
    and invertible; None otherwise.  No section is taken unless every
    determinant is a unit: gcd 1 with the modulus, or with 0 over Z."""
    x, y, ring = f.source, f.target, f.source.ring
    if x.degrees() != y.degrees() or any(x.rank(i) != y.rank(i) for i in x.degrees()):
        return None
    if any(math.gcd(det(f.component(i)), ring.modulus or 0) != 1 for i in x.degrees()):
        return None
    return {i: IntMatrix(ring.section(f.component(i))[0]) for i in x.degrees()}


def is_homotopy_equivalence(f: ChainMap) -> Homotopy | None:
    """Witness that f is a homotopy equivalence: a contraction of cone(f).

    When every component f_i is invertible the contraction is, in degree i,
    [[0, 0], [f_i^-1, 0]] : Y^i + X^(i+1) -> Y^(i-1) + X^i; it holds because
    d_Y f_i = f_(i+1) d_X gives f_(i+1)^-1 d_Y = d_X f_i^-1.  Otherwise the
    cone is contracted by `is_contractible`.  Either way the contraction is
    checked on construction.
    """
    cn = cone_complex(f)
    inverses = _inverse_components(f)
    if inverses is None:
        return is_contractible(cn)
    comps = {}
    for i, inv in inverses.items():
        if cn.rank(i - 1):
            h = np.zeros((cn.rank(i - 1), cn.rank(i)), dtype=object)
            h[f.target.rank(i - 1) :, : inv.cols] = inv.array
            comps[i] = IntMatrix(h)
    return Homotopy(identity_map(cn), zero_map(cn, cn), comps)


def homotopy_inverse(f: ChainMap, contraction: Homotopy) -> ChainMap:
    """A homotopy inverse of an equivalence f : X -> Y, given a contraction
    of cone(f) (`is_homotopy_equivalence`).

    The block of the contraction mapping the Y-part to the X[1]-part is a
    chain map Y -> X inverting f up to homotopy on both sides.
    """
    x, y = f.source, f.target
    # the block of cone^i -> cone^(i-1) from Y^i to X^i
    comps = {i: IntMatrix(contraction.component(i).array[y.rank(i - 1) :, :c]) for i, _, c, _ in _layout(y, x, 0)}
    return ChainMap(y, x, comps)


# ---------------------------------------------------------------------------
# subquotients: homology and Hom in the homotopy category


def homology(c: Complex) -> dict[int, FGAbelianGroup]:
    """H^i = ker d(i) / im d(i-1) by invariant factors, over Z only, from one
    Smith form per differential: H^i has the torsion of coker d(i-1), and
    its free rank less rank d(i)."""
    if not c.ring.is_integers:
        raise ComplexError("homology is computed over the integers; reduce or lift explicitly")
    degs = c.degrees()
    if not degs:
        return {}
    cok = {i: cokernel(d) for i, d in c.components().items()}
    out = {}
    for i in range(degs[0], degs[-1] + 1):
        q = cok.get(i - 1, FGAbelianGroup(c.rank(i)))
        rank = c.rank(i + 1) - cok[i].free_rank if i in cok else 0
        out[i] = FGAbelianGroup(q.free_rank - rank, q.invariant_factors)
    return out


class Subquotient:
    """span(top) / (im b + m Z^n) for the columns of top, any generating
    set, and of b in Z^n, over the ring Z (m = 0) or Z/m; b must lie in
    span(top) + m Z^n.

    `group` is the quotient.  `torsion_reps` and `free_reps` are vectors in
    span(top) representing its generators, and `lookup(v)` gives the
    coordinates (torsion residues..., free integers...) of the class of v
    along them: two vectors get equal coordinates exactly when they differ
    by an element of im b + m Z^n.

    One algorithm for every ring, from two decompositions (`Ring.smith`):
    the quotient is Z^k, the coordinates x of v = top x, by m Z^k and the
    relations R = [x(b) | ker top], read off the decomposition of top by
    `smith_solve` and `smith_kernel`.  With U R V = D, class coordinate j
    of v is (U x)_j modulo gcd(d_j, m), over Z modulo d_j and free where
    d_j = 0 (d_j = 0 past the diagonal); an empty R is not decomposed.
    Over F_p the representatives are columns of top, as U^-1 is the unit
    vectors past the rank of R (`modp.diagonalize`).
    """

    def __init__(self, ring: Ring, top: np.ndarray, b: np.ndarray):
        self.ring, m = ring, ring.modulus
        self._top = ring.asarray(top)
        k = self._top.shape[1]
        diag, self._u, self._uinv = [], np.eye(k, dtype=ring.dtype), np.eye(k, dtype=ring.dtype)
        if k:
            self._top_uv = ring.smith(self._top)[:3]  # (u, diag, v)
            rels = np.hstack([self._coords(ring.asarray(b)), smith_kernel(*self._top_uv[1:], m)])
            if rels.shape[1]:
                self._u, diag, _, self._uinv = ring.smith(rels)
        orders = [math.gcd(d, m) if m else d for d in diag] + [m or 0] * (k - len(diag))
        self._torsion_idx = [j for j, q in enumerate(orders) if q >= 2]
        self._torsion = [orders[j] for j in self._torsion_idx]
        self._free_idx = [j for j, q in enumerate(orders) if q == 0]
        self.group = FGAbelianGroup(len(self._free_idx), tuple(self._torsion))

    def _coords(self, vectors: np.ndarray) -> np.ndarray:
        """x with top x = vectors (mod m), column by column."""
        coords = smith_solve(*self._top_uv, vectors, self.ring.modulus)
        if coords is None:
            raise AssertionError("vector is not in the lattice")
        return coords

    @property
    def torsion_reps(self) -> list[np.ndarray]:
        return [self._top @ self._uinv[:, j] for j in self._torsion_idx]

    @property
    def free_reps(self) -> list[np.ndarray]:
        return [self._top @ self._uinv[:, j] for j in self._free_idx]

    def lookup(self, v: np.ndarray) -> tuple[int, ...]:
        """Coordinates of the class of v, a vector in span(top) + m Z^n."""
        if self._top.shape[1] == 0:
            return ()
        y = self._u @ self._coords(self.ring.asarray(v).reshape(-1, 1))[:, 0]
        tors = tuple(int(y[j]) % q for j, q in zip(self._torsion_idx, self._torsion))
        return tors + tuple(int(y[j]) for j in self._free_idx)


class HomGroupPresentation:
    """Hom in the homotopy category as a finitely generated abelian group.

    This is H^0 of `HomComplex(x, y)`: the `Subquotient` of ker D(0) by
    im D(-1), and by m over Z/m, with its vectors read as chain maps.
    Coordinates returned by `lookup` are aligned with `torsion_reps` +
    `free_reps`; two chain maps get equal coordinates exactly when they are
    homotopic.
    """

    def __init__(self, x: Complex, y: Complex):
        self.x, self.y, self.ring = x, y, x.ring
        self.hom = HomComplex(x, y)
        self.classes = Subquotient(self.ring, self.ring.kernel(self.hom.D(0)), self.hom.D(-1))
        self.group = self.classes.group

    def _maps(self, vectors) -> list[ChainMap]:
        return [ChainMap(self.x, self.y, self.hom.unvec(v)) for v in vectors]

    @property
    def torsion_reps(self) -> list[ChainMap]:
        return self._maps(self.classes.torsion_reps)

    @property
    def free_reps(self) -> list[ChainMap]:
        return self._maps(self.classes.free_reps)

    def reps(self) -> list[ChainMap]:
        return self.torsion_reps + self.free_reps

    def lookup(self, f: ChainMap) -> tuple[int, ...]:
        """Coordinates of the homotopy class of f."""
        if f.source != self.x or f.target != self.y:
            raise DimensionMismatch("chain map does not belong to this hom group")
        return self.classes.lookup(self.hom.vec(f))


def hom_group(x: Complex, y: Complex) -> HomGroupPresentation:
    """Chain maps modulo null-homotopic maps, with explicit representatives."""
    return HomGroupPresentation(x, y)


def reduce_mod(obj, m: int):
    """Entrywise reduction of a complex, chain map, or homotopy into Z/m."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if isinstance(obj, Complex):
        if not obj.ring.is_integers:
            raise ComplexError("reduce_mod expects integer coefficients")
        return Complex(Zmod(m), obj._ranks, obj._blocks)
    if isinstance(obj, ChainMap):
        src = reduce_mod(obj.source, m)
        tgt = reduce_mod(obj.target, m)
        return ChainMap(src, tgt, obj.components())
    if isinstance(obj, Homotopy):
        lhs = reduce_mod(obj.lhs, m)
        rhs = reduce_mod(obj.rhs, m)
        return Homotopy(lhs, rhs, obj.components())
    raise TypeError(f"cannot reduce object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# prime-field generators and the endomorphism algebra


def _random_combo(basis: np.ndarray, rng, p: int) -> np.ndarray:
    coeffs = np.array([rng.randrange(p) for _ in range(basis.shape[1])], dtype=basis.dtype)
    return (basis @ coeffs) % p


def _require_prime_field(ring: Ring, what: str):
    if not ring.is_prime_field:
        raise ComplexError(f"{what} requires a prime field")


def random_complex(ring: Ring, rng, n_degrees: int, max_rank: int) -> Complex:
    """Random bounded complex over a prime field in degrees 0..n_degrees-1;
    d^2 = 0 by construction.

    Each differential is drawn uniformly from the solution space of
    d(i) @ d(i-1) = 0 given the previously drawn one.
    """
    _require_prime_field(ring, "random_complex")
    p = ring.modulus
    ranks = {}
    for i in range(n_degrees):
        r = rng.randint(0, max_rank)
        if r:
            ranks[i] = r
    diffs: dict[int, IntMatrix] = {}
    prev: np.ndarray | None = None
    for i in range(n_degrees):
        rs, rt = ranks.get(i, 0), ranks.get(i + 1, 0)
        if rs == 0 or rt == 0:
            prev = None
            continue
        if prev is None:
            mat = ring.asarray([[rng.randrange(p) for _ in range(rs)] for _ in range(rt)])
        else:
            # unknown X (rt x rs) with X @ prev = 0; vec is row-major
            basis = ring.kernel(np.kron(np.eye(rt, dtype=ring.dtype), prev.T))
            mat = _random_combo(basis, rng, p).reshape(rt, rs)
        diffs[i] = IntMatrix(mat)
        prev = mat
    return Complex(ring, ranks, diffs)


def random_chain_map(x: Complex, y: Complex, rng) -> ChainMap:
    """Uniformly random chain map x -> y over a prime field: a random
    combination of columns spanning Z^0 = ker D(0)."""
    _require_prime_field(x.ring, "random_chain_map")
    hom = HomComplex(x, y)
    v = _random_combo(x.ring.kernel(hom.D(0)), rng, x.ring.modulus)
    return ChainMap(x, y, hom.unvec(v))


def end_structure_mod_p(c: Complex):
    """The endomorphism algebra of c in the homotopy category over F_p.

    Returns (table, identity coordinates, basis representatives, to_coords)
    where table[i][j] holds the coordinates of basis_i o basis_j, and
    to_coords maps any endomorphism chain map to its class coordinates:
    the representatives and `lookup` of `hom_group(c, c)`.
    """
    _require_prime_field(c.ring, "end_structure_mod_p")
    end = hom_group(c, c)
    reps = end.reps()
    table = [[end.lookup(a.compose(b)) for b in reps] for a in reps]
    return table, end.lookup(identity_map(c)), reps, end.lookup
