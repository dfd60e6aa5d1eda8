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

Contractions are built from sections, s with d s d = d (`Ring.section`):
an exact complex is contracted by h(i+1) = s(i) (1 - s(i+1) d(i+1)), and
the cone of a map f that is invertible in every degree by
[[0, 0], [f_i^-1, 0]] in degree i.

Homology, Hom groups and the classes of the squares search are all
subquotients, computed by one routine: `Subquotient(ring, top, b)` is
span(top) / (im b + m Z^n), with representatives and a `lookup` of class
coordinates.  It takes Smith forms over Z and Z/m, and works in int64 over
the small prime fields, where no Smith form is taken.

`Ring` is the linear-algebra backend of these vectors and matrices: prime
fields F_p with p <= 2^20 are solved in int64 by `modp`, and every other
ring (Z, Z/m, larger primes) by the exact Smith kernel of `intmat`.
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
    det,
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

    @property
    def is_prime_field(self) -> bool:
        return self.modulus is not None and modp.is_prime(self.modulus)

    @property
    def is_small_prime_field(self) -> bool:
        """F_p with p <= 2^20, the rings solved in int64 by `modp`."""
        return self.modulus is not None and self.modulus <= modp.P_MAX and modp.is_prime(self.modulus)

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

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Columns spanning {x : a @ x = 0}: a basis over Z and over a small
        prime field, a generating set over the other modular rings."""
        if self.is_small_prime_field:
            return modp.kernel(a, self.modulus)
        if a.shape[0] == 0 or a.shape[1] == 0:
            return np.eye(a.shape[1], dtype=object)
        if self.modulus is None:
            s = smith_normal_form(IntMatrix(a))
            return s.v.array[:, s.rank :]
        return self.solve(a, np.zeros(a.shape[0], dtype=object))[1]

    def independent_columns(self, base: np.ndarray, cols: np.ndarray) -> list[int]:
        """Indices of the columns of `cols` outside the span of `base` and of
        the columns picked before them, over a small prime field: a basis of
        span(cols) modulo span(base)."""
        if cols.shape[1] == 0:
            return []
        _, pivots = modp.rref(np.hstack([base, cols]), self.modulus)
        return [j - base.shape[1] for j in pivots if j >= base.shape[1]]

    def section(self, d: IntMatrix):
        """(s, r) with d s d = d and r = rank d, s as a backend array, over Z
        or a small prime field; None over Z when an invariant factor of d is
        not 1.

        Over F_p, s comes from one rref E [d | 1] = [R | E]: row k of s at
        the k-th pivot column of R is row k of E, for k < r.  Over Z it is
        V[:, :r] U[:r, :] from the Smith form U d V = diag(1, ..., 1, 0, ...),
        so s d = V[:, :r] V^-1[:r, :].
        """
        if self.modulus is not None and not self.is_small_prime_field:
            raise ComplexError(f"no section of a matrix over {self}")
        rows, cols = d.shape
        if rows == 0 or cols == 0:
            return np.zeros((cols, rows), dtype=self.dtype), 0
        if self.is_small_prime_field:
            r, pivots = modp.rref(np.hstack([self.asarray(d), np.eye(rows, dtype=np.int64)]), self.modulus)
            rank = sum(1 for j in pivots if j < cols)
            s = np.zeros((cols, rows), dtype=np.int64)
            s[pivots[:rank]] = r[:rank, cols:]
            return s, rank
        snf = smith_normal_form(d)
        if any(x != 1 for x in snf.diagonal()[: snf.rank]):
            return None
        return snf.v.array[:, : snf.rank] @ snf.u.array[: snf.rank, :], snf.rank

    def canon(self, m: IntMatrix) -> IntMatrix:
        return m if self.modulus is None else m.reduce_mod(self.modulus)

    def matrices_equal(self, a: IntMatrix, b: IntMatrix) -> bool:
        if self.modulus is None:
            return a == b
        return a.reduce_mod(self.modulus) == b.reduce_mod(self.modulus)

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

    @property
    def min_degree(self) -> int | None:
        return min(self._ranks) if self._ranks else None

    @property
    def max_degree(self) -> int | None:
        return max(self._ranks) if self._ranks else None

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
            if not ring.matrices_equal(lhs, rhs):
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
            want = self.lhs.component(i) - self.rhs.component(i)
            acc = IntMatrix.zeros(y.rank(i), x.rank(i))
            if y.rank(i - 1) > 0:
                acc = acc + y.differential(i - 1) @ self.component(i)
            if x.rank(i + 1) > 0:
                acc = acc + self.component(i + 1) @ x.differential(i)
            if not ring.matrices_equal(want, acc):
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


def _acyclic_split_contraction(c: Complex) -> Homotopy | None:
    """Contraction of an exact complex from one section s(i) of each
    differential (`Ring.section`): h(i+1) = s(i) (1 - s(i+1) d(i+1)).

    1 - s(i+1) d(i+1) maps into ker d(i+1) = im d(i), where d(i) s(i) is the
    identity, so d h + h d = 1.  Over Z exactness of a bounded complex of
    free modules forces every differential to have unit invariant factors,
    so sections exist integrally; over a prime field only ranks matter.
    """
    degs = c.degrees()
    if not degs:
        return Homotopy(identity_map(c), zero_map(c, c), {}, check=False)
    ring = c.ring
    sections, ranks = {}, {}
    for i in range(degs[0], degs[-1] + 1):
        got = ring.section(c.differential(i))
        # exactness: rank d(i-1) + rank d(i) = rank(i)
        if got is None or ranks.get(i - 1, 0) + got[1] != c.rank(i):
            return None
        sections[i], ranks[i] = got
    comps = {}
    for i, _, _, _ in _layout(c, c, -1):
        kerproj = ring.asarray(np.eye(c.rank(i), dtype=ring.dtype) - sections[i] @ ring.asarray(c.differential(i)))
        comps[i] = IntMatrix(sections[i - 1] @ kerproj)
    return Homotopy(identity_map(c), zero_map(c, c), comps)


def is_contractible(c: Complex) -> Homotopy | None:
    """A contraction (identity null-homotopic) if the complex is contractible."""
    if c.ring.is_integers or c.ring.is_small_prime_field:
        return _acyclic_split_contraction(c)
    return homotopic(identity_map(c), zero_map(c, c))


def _inverse_components(f: ChainMap) -> dict[int, IntMatrix] | None:
    """The inverses of the components of f, over Z or a small prime field,
    when every component is square and invertible; None otherwise.  No
    section is taken unless every determinant is a unit: gcd 1 with the
    modulus, or with 0 over Z."""
    x, y, ring = f.source, f.target, f.source.ring
    if not (ring.is_integers or ring.is_small_prime_field):
        return None
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
    """H^i = ker d(i) / im d(i-1) by invariant factors, over Z only."""
    if not c.ring.is_integers:
        raise ComplexError("homology is computed over the integers; reduce or lift explicitly")
    degs = c.degrees()
    if not degs:
        return {}
    return {
        i: Subquotient(ZZ, ZZ.kernel(c.differential(i).array), c.differential(i - 1).array).group
        for i in range(degs[0], degs[-1] + 1)
    }


class Subquotient:
    """span(top) / (im b + m Z^n) for the columns of top and b in Z^n, over
    the ring Z (m = 0) or Z/m; b must lie in span(top) + m Z^n.

    Over Z, top must be a basis, as `Ring.kernel` returns; modulo m any
    generating set will do.  `group` is the quotient.  `torsion_reps` and
    `free_reps` are vectors in span(top) representing its generators, and
    `lookup(v)` gives the coordinates (torsion residues..., free integers...)
    of the class of v along them: two vectors get equal coordinates exactly
    when they differ by an element of im b + m Z^n.

    Over Z and Z/m the quotient comes from Smith forms.  Over a small prime
    field it is computed in int64: the representatives are the columns of
    top outside the span of b and of the columns picked before them, and
    `lookup` solves for v along b and them.
    """

    def __init__(self, ring: Ring, top: np.ndarray, b: np.ndarray):
        self.ring = ring
        if ring.is_small_prime_field:
            self._b, top = ring.asarray(b), ring.asarray(top)
            self._reps = top[:, ring.independent_columns(self._b, top)]
            self.group = FGAbelianGroup(0, (ring.modulus,) * self._reps.shape[1])
            return
        top, b, m = ZZ.asarray(top), ZZ.asarray(b), ring.modulus
        n = top.shape[0]
        if m is None:
            kbasis, rels = top, b
        elif n:
            # a basis of the lattice span(top) + m Z^n, which has full rank
            sg = smith_normal_form(IntMatrix(np.hstack([top, np.eye(n, dtype=object) * m])))
            kbasis = sg.uinv.array @ sg.d.array[:, :n]
            rels = np.hstack([b, np.eye(n, dtype=object) * m])
        else:
            kbasis, rels = np.zeros((0, 0), dtype=object), b
        self._kbasis = kbasis
        k = kbasis.shape[1]
        if k and rels.shape[1]:
            srel = smith_normal_form(IntMatrix(self._kcoords(rels)))
            diag, self._u, self._uinv = srel.diagonal(), srel.u.array, srel.uinv.array
        else:
            diag, self._u, self._uinv = [], np.eye(k, dtype=object), np.eye(k, dtype=object)
        self._torsion_idx = [j for j, d in enumerate(diag) if d >= 2]
        self._torsion = [diag[j] for j in self._torsion_idx]
        self._free_idx = list(range(sum(1 for d in diag if d != 0), k))
        self.group = FGAbelianGroup(len(self._free_idx), tuple(self._torsion))

    @cached_property
    def _ksnf(self):
        return smith_normal_form(IntMatrix(self._kbasis))

    def _kcoords(self, vectors: np.ndarray) -> np.ndarray:
        """Coordinates in the lattice basis of columns that lie in the lattice."""
        coords = smith_solve(self._ksnf, vectors)
        if coords is None:
            raise AssertionError("vector is not in the lattice")
        return coords

    @property
    def torsion_reps(self) -> list[np.ndarray]:
        if self.ring.is_small_prime_field:
            return list(self._reps.T)
        return [self._kbasis @ self._uinv[:, j] for j in self._torsion_idx]

    @property
    def free_reps(self) -> list[np.ndarray]:
        if self.ring.is_small_prime_field:
            return []
        return [self._kbasis @ self._uinv[:, j] for j in self._free_idx]

    def lookup(self, v: np.ndarray) -> tuple[int, ...]:
        """Coordinates of the class of v, a vector in span(top) + m Z^n."""
        if self.ring.is_small_prime_field:
            got = self.ring.solve(np.hstack([self._b, self._reps]), self.ring.asarray(v))
            if got is None:
                raise AssertionError("vector is not in the lattice")
            return tuple(int(c) for c in got[0][self._b.shape[1] :])
        if self._kbasis.shape[1] == 0:
            return ()
        y = self._u @ self._kcoords(ZZ.asarray(v).reshape(-1, 1))[:, 0]
        tors = tuple(int(y[j]) % self._torsion[a] for a, j in enumerate(self._torsion_idx))
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
