"""Bounded complexes of finitely generated free modules over Z or Z/m.

Grading is cohomological: the differential in degree i maps degree i to
degree i+1 and is stored as a matrix of shape rank(i+1) x rank(i).  A chain
map f : X -> Y has components f_i of shape rank_Y(i) x rank_X(i) satisfying
d_Y(i) f_i = f_{i+1} d_X(i).  A homotopy h between parallel maps f and g has
components h_i : X^i -> Y^(i-1) with f_i - g_i = d_Y(i-1) h_i + h_{i+1} d_X(i).
The shift X[1] has rank(i) = rank_X(i+1) and differential -d_X(i+1).

Over a modular ring all entries are kept canonical in [0, m); equality of
matrices is therefore plain equality.  Homology is computed over Z only;
residue-ring questions are answered by lifting and modular solving.

`Complex`, `ChainMap` and `Homotopy` store each block as a read-only
backend array of their ring (see `Ring` below), and have two entry points.
Outside data takes the checked one, the constructor: every block is checked
against `_layout` and reduced by the ring (`_set_blocks`), and the defining
equation is checked; only `Complex` and `ChainMap` take check=False, for
instances of templates whose identities are proved.  Arrays that the ring
made take the trusted one, `_GradedMap._of`, which stores them as they are,
keyed by `_layout`, with no check.  `compose`, `+`, `-`, `scale` and
`shift` of chain maps, `identity_map`, `zero_map`, `cone`, `pair`,
`copair`, `shift`, `direct_sum`, `cone_complex` and `cone_homotopy` build
theirs so, as their equations follow from their inputs' own: they compute
on the stored arrays, a product or sum reduced once by `Ring._own`, a
stacked block written into one zero array per degree by slices.  Every
other map made from ring arrays (a solution, a contraction, a cone map, a
random map, a Hom-group representative: `HomComplex.chain_map` turns a Hom
vector into a map) is built by `_of` and then checked by `_checked`, as a
constructor checks.  In the Hom complex below the defining equations are
D(0) f = 0, D(-1) h = f - g, and for a differential d(i+1) d(i) = 0 (not
D(1) d = 2 d d).  One walk, `_GradedMap._first_violation`, checks all
three: block by block of `_layout(X, Y, n + 1)`, by increasing degree, it
computes the residual (`_residual`) once on the stored arrays, reduces it
once mod m, and returns the first degree where it is nonzero, the degree
`ComplexError` reports.

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

Contractions are built over every ring from sections, s with d s d = d
(`Ring.section`), or from inverses (`Ring.inverse`): an exact complex is
contracted by h(i+1) = s(i) (1 - s(i+1) d(i+1)), and the cone of a map f
that is invertible in every degree by [[0, 0], [f_i^-1, 0]] in degree i.
Over Z/m, d has a section exactly when each invariant factor d_k of its
Smith form is a unit modulo m / gcd(d_k, m).  An inverse needs no Smith
form: on every ring `intmat.inverse` eliminates the rows of [f_i | 1]
alone.

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
one cheaper rref instead: `solve` of [a | b], `kernel` of a and `section`
of [d | 1].
`Ring.asarray` puts outside matrices and vectors into the backend's form;
the graded maps keep theirs in it already and are read without it.

`Ring` also fixes the storage of a differential, chain map or homotopy, and
alone knows a block's modulus: each block is a read-only array of the
ring's `dtype`, int64 in [0, p) on the small prime fields, Python ints in
[0, m) over the other Z/m and Python ints over Z.  `Ring._own` reduces a
fresh array once and makes it read-only; `_set_blocks` stores its outside
blocks through it too.  The edge type is the one exact `IntMatrix`:
`component`, `components` and `differential` return one from `Ring._block`,
over the stored array itself over Z and Z/m, and over an exact copy of the
int64 residues on F_p; `Ring.matrix` reads outside data by the integer rule
into such a block.  No computation of this module reads a block: they take
the stored arrays, so an F_p block stays int64 from generator to verdict.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import intmat, modp
from .intmat import (
    DimensionMismatch,
    FGAbelianGroup,
    IntMatrix,
    _integer,
    _modulus,
    cokernel,
    decimal_integer,
    smith_kernel,
    smith_normal_form,
    smith_solve,
)


class ComplexError(ValueError):
    """A complex, chain map or homotopy failed its defining equations."""

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=256)
def _shared(rows: int, cols: int, dtype, k: int | None = None) -> np.ndarray:
    """The read-only rows x cols array of dtype that is zero, or, given k,
    has ones on diagonal k (`np.eye`).  Stored arrays are never written, so
    the maps that store one share it: one copy for each of the last 256
    shapes asked for."""
    return _frozen(np.zeros((rows, cols), dtype=dtype) if k is None else np.eye(rows, cols, k, dtype=dtype))


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: Z when modulus is None, else Z/m, m >= 2 read by
    the integer rule.

    Also the linear-algebra backend for matrices over the ring, and the
    builder of its blocks; see the module docstring.
    """

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None:
            object.__setattr__(self, "modulus", _modulus(self.modulus))

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
        or None when there is no solution: read off `smith(a)` by
        `smith_solve` and `smith_kernel`, or over F_p off one rref."""
        if self.is_small_prime_field:
            return modp.solve(a, b, self.modulus)
        (u, diag, v, _), m, b = self.smith(a), self.modulus, self.asarray(b)
        x = smith_solve(u, diag, v, b.reshape(-1, 1), m)
        if x is None:
            return None
        if not self.is_zero(a @ x[:, 0] - b):
            raise AssertionError("solver produced a non-solution")
        return x[:, 0], smith_kernel(diag, v, m)

    def smith(self, a) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """The one decomposition of a matrix: backend arrays (u, diag, v,
        uinv) with u a v = D diagonal, D's diagonal `diag` and uinv = u^-1.
        Over a small prime field from `modp.diagonalize`, D = diag(1, ..., 1,
        0, ...); otherwise the Smith form over Z of a reduced into [0, m),
        a, this ring's own object array, wrapped with no integer-rule pass."""
        if self.is_small_prime_field:
            u, v, uinv, r = modp.diagonalize(self.asarray(a), self.modulus)
            return u, [1] * r + [0] * (min(a.shape) - r), v, uinv
        s = smith_normal_form(IntMatrix._wrap(a.view()), self.modulus)
        return s.u.array, s.diagonal(), s.v.array, s.uinv.array

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Columns spanning {x : a @ x = 0}: a basis over Z and over a small
        prime field, a generating set over the other modular rings: read off
        `smith(a)`, or over a small prime field off one rref of a, cheaper."""
        if self.is_small_prime_field:
            return modp.kernel(a, self.modulus)
        _, diag, v, _ = self.smith(a)
        return smith_kernel(diag, v, self.modulus)

    def section(self, d: np.ndarray):
        """(s, r) with d s d = d and r = rank d, for a stored array d, s as
        a backend array, or None when d has no section.

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
            r, pivots = modp.rref(np.hstack([d, np.eye(rows, dtype=np.int64)]), self.modulus)
            rank = sum(1 for j in pivots if j < cols)
            s = np.zeros((cols, rows), dtype=np.int64)
            s[pivots[:rank]] = r[:rank, cols:]
            return s, rank
        (u, diag, v, _), m = self.smith(d), self.modulus
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

    def inverse(self, a: np.ndarray) -> np.ndarray | None:
        """a^-1 as a backend array for a square stored array a, or None when
        a is not invertible: `intmat.inverse`, row elimination with no Smith
        form, on every ring."""
        inv = intmat.inverse(self._block(a), self.modulus)
        return None if inv is None else self.asarray(inv)

    def is_zero(self, a) -> bool:
        """Whether a backend array (or 0) is zero in the ring: reduced once
        mod m."""
        return not np.count_nonzero(a % self.modulus if self.modulus else a)

    def matrix(self, a) -> IntMatrix:
        """The block of this ring with the entries of a, any integer matrix
        data, read by the integer rule and reduced: for outside data only."""
        return self._block(self._own(IntMatrix(a).array))

    def _own(self, a: np.ndarray) -> np.ndarray:
        """a, a fresh result of arithmetic on this ring's arrays or the array
        of an outside block, as a stored array: reduced once mod m, with no
        integer-rule pass, and made read-only: int64 in [0, p) on a small
        prime field, Python ints otherwise.  Over Z an object array is kept
        uncopied."""
        m = self.modulus
        if self.is_small_prime_field:
            a = (a % m).astype(np.int64, copy=False)
        elif m:
            a = np.asarray(a, dtype=object) % m
        else:
            a = np.asarray(a, dtype=object)
        return _frozen(a)

    def _block(self, a: np.ndarray) -> IntMatrix:
        """The edge block of a stored array a: a itself, read-only, over Z
        and Z/m, an exact copy of its int64 residues on a small prime field."""
        return IntMatrix._wrap(a.astype(object) if self.is_small_prime_field else a)

    def __str__(self):
        return "Z" if self.modulus is None else f"Z/{self.modulus}"

    def to_json(self):
        return "Z" if self.modulus is None else {"mod": self.modulus}

    @classmethod
    def from_json(cls, data) -> "Ring":
        if data == "Z":
            return cls(None)
        if isinstance(data, dict) and "mod" in data:
            return cls(decimal_integer(data["mod"]))
        raise ValueError(f"unrecognized ring descriptor: {data!r}")


ZZ = Ring(None)


def Zmod(m: int) -> Ring:
    return Ring(m)


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
    """A degree-n map x -> y, kept as one block X^i -> Y^(i+n) for each entry
    of `_layout(x, y, n)`: a read-only backend array of the ring, reduced;
    `_ends` gives (x, y, n) and `_residual(i)` block i of its defining
    equation."""

    __slots__ = ("_blocks",)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set_blocks(self, given: dict, what: str):
        """Store the arrays of the given blocks, and a zero array for each
        layout entry given none.  A block of the wrong shape, or a nonzero
        block outside the layout, raises ComplexError at its degree."""
        x, y, n = self._ends()
        ring, blocks = x.ring, {}
        for i, r, c, _ in _layout(x, y, n):
            m = given.get(i)
            if m is None:
                blocks[i] = _shared(r, c, ring.dtype)
            elif m.shape != (r, c):
                raise ComplexError(f"{what} at degree {i} has shape {m.shape}, expected {(r, c)}", degree=i)
            else:
                blocks[i] = ring._own(m.array)
        for i, m in given.items():
            if i not in blocks and not m.is_zero():
                raise ComplexError(f"nonzero {what} at degree {i} maps to or from rank 0", degree=int(i))
        object.__setattr__(self, "_blocks", blocks)

    @classmethod
    def _of(cls, first, second, blocks: dict):
        """The map with ends (first, second), its constructor's first two
        arguments, owning `blocks`: read-only canonical arrays that the ring
        made (fresh ones reduced by `Ring._own`, or shared ones taken from
        stored maps or `_shared`), one for each entry of `_layout` and in its
        order (a complex's ranks nonzero and by increasing degree).  They are
        stored as they are, with no layout walk, no shape check and no check
        of the defining equation: `_checked` runs that."""
        self = object.__new__(cls)
        for name, end in zip(cls.__slots__, (first, second)):
            object.__setattr__(self, name, end)
        object.__setattr__(self, "_blocks", blocks)
        return self

    def _residual(self, i: int):
        """Block i of D(n) phi, X^i -> Y^(i+n+1), as a backend array:
        d_Y(i+n) phi_i - (-1)^n phi_(i+1) d_X(i), each term present where
        phi has its block, and 0 where neither is."""
        x, y, n = self._ends()
        phi, out = self._blocks, 0
        if i in phi:
            out = y._blocks[i + n] @ phi[i]
        if i + 1 in phi:
            right = phi[i + 1] @ x._blocks[i]
            out = out + right if n % 2 else out - right
        return out

    def _first_violation(self) -> int | None:
        """The least i of `_layout(x, y, n + 1)` where `_residual(i)` is
        nonzero in the ring: where the defining equation fails."""
        x, y, n = self._ends()
        return next((i for i, _, _, _ in _layout(x, y, n + 1) if not x.ring.is_zero(self._residual(i))), None)

    def _checked(self):
        """self, once its defining equation holds in every degree
        (`_first_violation`); otherwise ComplexError at the failing one."""
        if (bad := self._first_violation()) is not None:
            what = {
                1: "differentials do not compose to zero",
                0: "chain condition fails",
                -1: "homotopy witness equation fails",
            }[self._ends()[2]]
            raise ComplexError(f"{what} at degree {bad}", degree=bad)
        return self

    def component(self, i: int) -> IntMatrix:
        """The block X^i -> Y^(i+n), the edge block of its stored array
        (`Ring._block`); zero outside the layout."""
        x, y, n = self._ends()
        got = self._blocks.get(i)
        if got is not None:
            return x.ring._block(got)
        return IntMatrix.zeros(y.rank(i + n), x.rank(i))

    def components(self) -> dict[int, IntMatrix]:
        block = self._ends()[0].ring._block
        return {i: block(a) for i, a in self._blocks.items()}

    def blocks_to_json(self) -> dict:
        """The nonzero blocks, keyed by degree: the one JSON writer of
        differentials, chain maps and homotopies."""
        return {str(i): m.to_json() for i, m in self.components().items() if not m.is_zero()}


def _equal_blocks(a: dict, b: dict) -> bool:
    """Whether the stored arrays of two maps with one layout are equal:
    int64 arrays by their bytes, object arrays entry by entry."""
    for i, m in a.items():
        n = b[i]
        if m is not n and (m.tobytes() != n.tobytes() if m.dtype == np.int64 else (m != n).any()):
            return False
    return True


class Complex(_GradedMap):
    """Bounded complex of free modules, validated on construction; with
    check=False, d(i+1) d(i) = 0 is taken as known, not recomputed."""

    __slots__ = ("ring", "_ranks")

    def __init__(self, ring: Ring, ranks: dict[int, int], differentials: dict[int, IntMatrix], check: bool = True):
        read = ((_integer(i, "degree"), _integer(r, "rank")) for i, r in ranks.items())
        clean_ranks = dict(sorted((i, r) for i, r in read if r))
        if any(r < 0 for r in clean_ranks.values()):
            raise ComplexError("negative rank")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_ranks", clean_ranks)
        self._set_blocks(differentials, "differential")
        if check:
            self._checked()

    def _ends(self):
        return self, self, 1

    def _residual(self, i: int):
        """d(i+1) d(i), X^i -> X^(i+2)."""
        d = self._blocks
        return d[i + 1] @ d[i] if i in d else 0

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
        return self is other or (
            isinstance(other, Complex)
            and self.ring == other.ring
            and self._ranks == other._ranks
            and _equal_blocks(self._blocks, other._blocks)
        )

    def __hash__(self):
        return hash((self.ring, tuple(self._ranks.items())))

    def __repr__(self):
        parts = ", ".join(f"{i}:{r}" for i, r in self._ranks.items())
        return f"Complex({self.ring}; ranks {{{parts}}})"


class ChainMap(_GradedMap):
    """Degreewise map between complexes over the same ring."""

    __slots__ = ("source", "target", "_hash")

    def __init__(self, source: Complex, target: Complex, components: dict[int, IntMatrix], check: bool = True):
        if source.ring != target.ring:
            raise ComplexError("chain map between different rings")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        self._set_blocks(components, "component")
        if check:
            self._checked()

    def _ends(self):
        return self.source, self.target, 0

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply `other` first); zero in the degrees where
        the middle complex has rank 0."""
        if other.target != self.source:
            raise DimensionMismatch("chain maps do not compose")
        x, y, left, mid = other.source, self.target, self._blocks, other._blocks
        own, dt = x.ring._own, x.ring.dtype
        blocks = {i: own(left[i] @ mid[i]) if i in mid else _shared(r, c, dt) for i, r, c, _ in _layout(x, y, 0)}
        return ChainMap._of(x, y, blocks)

    def _parallel(self, blocks: dict) -> "ChainMap":
        """The map source -> target owning `blocks`, fresh arrays of its
        layout, each reduced once by `Ring._own`."""
        own = self.source.ring._own
        return ChainMap._of(self.source, self.target, {i: own(a) for i, a in blocks.items()})

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._require_parallel(other)
        return self._parallel({i: m + other._blocks[i] for i, m in self._blocks.items()})

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        self._require_parallel(other)
        return self._parallel({i: m - other._blocks[i] for i, m in self._blocks.items()})

    def __neg__(self) -> "ChainMap":
        return self._parallel({i: -m for i, m in self._blocks.items()})

    def scale(self, k: int) -> "ChainMap":
        k, m = _integer(k, "scale factor"), self.source.ring.modulus
        k = k % m if m else k
        return self._parallel({i: a * k for i, a in self._blocks.items()})

    def shift(self) -> "ChainMap":
        """f[1] : X[1] -> Y[1], components f[1]_i = f_{i+1}."""
        return ChainMap._of(shift(self.source), shift(self.target), {i - 1: m for i, m in self._blocks.items()})

    def is_zero(self) -> bool:
        return not any(np.count_nonzero(m) for m in self._blocks.values())

    def _require_parallel(self, other: "ChainMap"):
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatch("chain maps are not parallel")

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and _equal_blocks(self._blocks, other._blocks)
        )

    def __hash__(self):
        """Computed once from the blocks, then kept in a slot: the map is
        immutable.  Each block hashes as the `IntMatrix` of its entries."""
        try:
            return self._hash
        except AttributeError:
            blocks = tuple((i, (a.shape, tuple(a.ravel().tolist()))) for i, a in self._blocks.items())
            h = hash((self.source, self.target, blocks))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_map(c: Complex) -> ChainMap:
    dt = c.ring.dtype
    return ChainMap._of(c, c, {i: _shared(r, r, dt, 0) for i, r in c._ranks.items()})


def zero_map(x: Complex, y: Complex) -> ChainMap:
    dt = x.ring.dtype
    return ChainMap._of(x, y, {i: _shared(r, c, dt) for i, r, c, _ in _layout(x, y, 0)})


class Homotopy(_GradedMap):
    """Witness that two parallel chain maps agree in the homotopy category.

    Components h_i : X^i -> Y^(i-1); the defining equation
    f_i - g_i = d_Y(i-1) h_i + h_{i+1} d_X(i) is verified on construction.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: ChainMap, rhs: ChainMap, components: dict[int, IntMatrix]):
        lhs._require_parallel(rhs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        self._set_blocks(components, "homotopy component")
        self._checked()

    def _ends(self):
        return self.lhs.source, self.lhs.target, -1

    def _residual(self, i: int):
        """Block i of D(-1) h - (f - g)."""
        return super()._residual(i) - (self.lhs._blocks[i] - self.rhs._blocks[i])

    def __repr__(self):
        return f"Homotopy({self.lhs!r} ~ {self.rhs!r})"


def _stacked(rows: int, cols: int, dtype, *pieces) -> np.ndarray:
    """A fresh read-only rows x cols array of dtype, zero but for each piece
    (top, left, a) written by slices from row top and column left; a piece
    with a None is left out."""
    out = np.zeros((rows, cols), dtype=dtype)
    for top, left, a in pieces:
        if a is not None:
            out[top : top + a.shape[0], left : left + a.shape[1]] = a
    return _frozen(out)


def shift(c: Complex) -> Complex:
    """c[1]: rank(i) = rank_c(i+1) and differential(i) = -d_c(i+1)."""
    ranks = {i - 1: r for i, r in c._ranks.items()}
    return Complex._of(c.ring, ranks, {i - 1: c.ring._own(-d) for i, d in c._blocks.items()})


def direct_sum(x: Complex, y: Complex) -> Complex:
    if x.ring != y.ring:
        raise ComplexError("direct sum over different rings")
    ranks = {i: x.rank(i) + y.rank(i) for i in sorted({*x.degrees(), *y.degrees()})}
    dx, dy, dt = x._blocks, y._blocks, x.ring.dtype
    diffs = {
        i: _stacked(ranks[i + 1], r, dt, (0, 0, dx.get(i)), (x.rank(i + 1), x.rank(i), dy.get(i)))
        for i, r in ranks.items()
        if i + 1 in ranks
    }
    return Complex._of(x.ring, ranks, diffs)


def cone_complex(f: ChainMap) -> Complex:
    """The mapping cone of f : X -> Y as a complex: degree i is
    Y^i + X^(i+1) with differential [[d_Y, f], [0, -d_X]]."""
    x, y, ring = f.source, f.target, f.source.ring
    ranks = {i: y.rank(i) + x.rank(i + 1) for i in sorted({*y.degrees(), *(d - 1 for d in x.degrees())})}
    dx, dy, fb, diffs = x._blocks, y._blocks, f._blocks, {}
    for i, r in ranks.items():
        if i + 1 in ranks:
            top, left = y.rank(i + 1), y.rank(i)
            minus_dx = -dx[i + 1] if i + 1 in dx else None
            pieces = (0, 0, dy.get(i)), (0, left, fb.get(i + 1)), (top, left, minus_dx)
            diffs[i] = ring._own(_stacked(ranks[i + 1], r, ring.dtype, *pieces))
    return Complex._of(ring, ranks, diffs)


def cone(f: ChainMap) -> tuple[Complex, ChainMap, ChainMap]:
    """Mapping cone of f : X -> Y.

    Returns (`cone_complex(f)`, inclusion of Y, projection to X[1]).  The
    composite projection o inclusion is zero on the nose.
    """
    x, y, dt = f.source, f.target, f.source.ring.dtype
    cn = cone_complex(f)
    incl = ChainMap._of(y, cn, {i: _shared(cn.rank(i), r, dt, 0) for i, r in y._ranks.items()})
    proj = ChainMap._of(
        cn,
        shift(x),
        {
            i: _shared(x.rank(i + 1), r, dt, y.rank(i))
            for i, r in cn._ranks.items()
            if x.rank(i + 1) > 0
        },
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
    dt, gb, kb = w.ring.dtype, g._blocks, k._blocks
    comps = {
        i: _stacked(w.rank(i), r, dt, (0, 0, gb.get(i)), (0, y.rank(i), kb.get(i + 1)))
        for i, r in cn._ranks.items()
        if w.rank(i)
    }
    return ChainMap._of(cn, w, comps)._checked()


def cone_homotopy(incl: ChainMap, f: ChainMap) -> Homotopy:
    """The null-homotopy of incl o f, for f : X -> Y and its cone inclusion
    incl : Y -> cone(f), with component [0; 1] : X^i -> Y^(i-1) + X^i.

    It holds on the nose, by the cone's differential, so it is built
    unchecked; `cone_map` and `Homotopy` re-check it wherever it is used.
    """
    x, y, dt = f.source, f.target, f.source.ring.dtype
    comps = {i: _shared(y.rank(i - 1) + r, r, dt, -y.rank(i - 1)) for i, r in x._ranks.items()}
    return Homotopy._of(incl.compose(f), zero_map(x, incl.target), comps)


def pair(f: ChainMap, g: ChainMap) -> ChainMap:
    """(f; g) : X -> Y + Z for f : X -> Y and g : X -> Z."""
    if f.source != g.source:
        raise ComplexError("paired maps must share their source")
    x, mid, fb, gb = f.source, direct_sum(f.target, g.target), f._blocks, g._blocks
    comps = {
        i: _stacked(mid.rank(i), c, x.ring.dtype, (0, 0, fb.get(i)), (f.target.rank(i), 0, gb.get(i)))
        for i, c in x._ranks.items()
        if mid.rank(i)
    }
    return ChainMap._of(x, mid, comps)


def copair(f: ChainMap, g: ChainMap) -> ChainMap:
    """(f, g) : Y + Z -> W for f : Y -> W and g : Z -> W."""
    if f.target != g.target:
        raise ComplexError("copaired maps must share their target")
    mid, w, fb, gb = direct_sum(f.source, g.source), f.target, f._blocks, g._blocks
    comps = {
        i: _stacked(w.rank(i), c, w.ring.dtype, (0, 0, fb.get(i)), (0, f.source.rank(i), gb.get(i)))
        for i, c in mid._ranks.items()
        if w.rank(i)
    }
    return ChainMap._of(mid, w, comps)


# ---------------------------------------------------------------------------
# the Hom complex


def _size(layout) -> int:
    return sum(r * c for _, r, c, _ in layout)


def _put_kron(block: np.ndarray, a: np.ndarray, b: np.ndarray):
    """block[...] = np.kron(a, b), written through a 4-d view of block, a
    slice of a C-contiguous array: entry (i k + j, l m + n) is a[i, l] b[j, n],
    for b of shape k x m."""
    (ar, ac), (br, bc) = a.shape, b.shape
    block.reshape(ar, br, ac, bc)[...] = a[:, None, :, None] * b[None, :, None, :]


class HomComplex:
    """Hom(x, y) with the layout and differential of the module docstring.

    Matrices and vectors are in the ring's backend form, with entries not
    necessarily reduced; the differentials are the stored arrays of x and y.
    """

    def __init__(self, x: Complex, y: Complex):
        if x.ring != y.ring:
            raise ComplexError("Hom between different rings")
        self.x, self.y, self.ring = x, y, x.ring
        self._dx, self._dy = x._blocks, y._blocks

    def layout(self, n: int) -> list[tuple[int, int, int, int]]:
        return _layout(self.x, self.y, n)

    def dim(self, n: int) -> int:
        return _size(self.layout(n))

    def vec(self, f: "ChainMap") -> np.ndarray:
        """Vector of a chain map x -> y in Hom^0: its stored arrays, which
        follow the layout, each read row-major."""
        parts = [a.reshape(-1) for a in f._blocks.values()]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=self.ring.dtype)

    def unvec(self, v, n: int = 0) -> dict[int, np.ndarray]:
        """The stored arrays of the degree-n map with vector v: slices of
        one copy of v, reduced once."""
        ring = self.ring
        flat = ring._own(np.array(v, dtype=object) if ring.is_integers else np.asarray(v))
        return {i: flat[off : off + r * c].reshape(r, c) for i, r, c, off in self.layout(n)}

    def chain_map(self, v, check: bool = True) -> "ChainMap":
        """The chain map x -> y with vector v in Hom^0, its chain condition
        checked unless check is False."""
        f = ChainMap._of(self.x, self.y, self.unvec(v))
        return f._checked() if check else f

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
                _put_kron(out[rows, off : off + sr * sc], self._dy[i + n], _shared(c, c, dt, 0))
            if i + 1 in pos:
                sr, sc, off = pos[i + 1]
                _put_kron(out[rows, off : off + sr * sc], _shared(r, r, dt, 0), sign * self._dx[i].T)
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
                left = post._blocks[i] if post is not None else _shared(r, r, ring.dtype, 0)
                right = pre._blocks[i] if pre is not None else _shared(c, c, ring.dtype, 0)
                _put_kron(out[row : row + r * c, off : off + sr * sc], left, right.T)
        return out


def homotopic(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A verified homotopy between parallel maps f and g, if one exists.

    Equal maps get the zero homotopy, verified like any other, without
    building a matrix or solving anything.  Otherwise decided by solving
    D(-1) h = f - g in the Hom complex.
    """
    f._require_parallel(g)
    hom = HomComplex(f.source, f.target)
    if f == g:
        blocks = {i: _shared(r, c, hom.ring.dtype) for i, r, c, _ in hom.layout(-1)}
    else:
        sol = hom.ring.solve(hom.D(-1), hom.vec(f) - hom.vec(g))
        if sol is None:
            return None
        blocks = hom.unvec(sol[0], -1)
    return Homotopy._of(f, g, blocks)._checked()


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
    ring, d = c.ring, c._blocks
    by_rank = ring.is_integers or ring.is_small_prime_field
    sections, ranks = {}, {}
    for i in c.degrees():
        got = ring.section(d[i] if i in d else _shared(0, c.rank(i), ring.dtype))
        if got is None or (by_rank and ranks.get(i - 1, 0) + got[1] != c.rank(i)):
            return None
        sections[i], ranks[i] = got
    comps = {}
    for i, _, n, _ in _layout(c, c, -1):
        one = _shared(n, n, ring.dtype, 0)
        kerproj = one - sections[i] @ d[i] if i in d else one
        # reduced before the second product, so int64 entries stay below n p^2
        comps[i] = ring._own(sections[i - 1] @ ring._own(kerproj))
    try:
        return Homotopy._of(identity_map(c), zero_map(c, c), comps)._checked()
    except ComplexError:
        if by_rank:
            raise
        return None


def _inverse_components(f: ChainMap) -> dict[int, np.ndarray] | None:
    """The inverses of the components of f, as backend arrays, when every
    component is square and invertible; None otherwise.

    Each f_i is inverted by `Ring.inverse`: row elimination on [f_i | 1],
    which finds f_i^-1 exactly when it exists, with no Smith form.  A
    section would not do: over Z/6, 2 has the section 2 (2 2 2 = 2), and 2
    is no unit.  The inverse is checked, f_i f_i^-1 = 1, and a failed check
    raises, as the kernel is exact.
    """
    x, y, ring = f.source, f.target, f.source.ring
    if x.degrees() != y.degrees() or any(x.rank(i) != y.rank(i) for i in x.degrees()):
        return None
    inverses = {}
    for i, a in f._blocks.items():
        inv = ring.inverse(a)
        if inv is None:
            return None
        if not ring.is_zero(a @ inv - _shared(len(inv), len(inv), ring.dtype, 0)):
            raise AssertionError("inverse kernel produced a non-inverse")
        inverses[i] = inv
    return inverses


def is_homotopy_equivalence(f: ChainMap) -> Homotopy | None:
    """Witness that f is a homotopy equivalence: a contraction of cone(f).

    When every component f_i is invertible the contraction is, in degree i,
    [[0, 0], [f_i^-1, 0]] : Y^i + X^(i+1) -> Y^(i-1) + X^i; it holds because
    d_Y f_i = f_(i+1) d_X gives f_(i+1)^-1 d_Y = d_X f_i^-1.  Otherwise the
    cone is contracted by `is_contractible`.  Either way the contraction is
    checked on construction.
    """
    cn, ring = cone_complex(f), f.source.ring
    inverses = _inverse_components(f)
    if inverses is None:
        return is_contractible(cn)
    top, dt = f.target.rank, ring.dtype
    comps = {i: _stacked(r, c, dt, (top(i - 1), 0, inverses.get(i))) for i, r, c, _ in _layout(cn, cn, -1)}
    return Homotopy._of(identity_map(cn), zero_map(cn, cn), comps)._checked()


def homotopy_inverse(f: ChainMap, contraction: Homotopy) -> ChainMap:
    """A homotopy inverse of an equivalence f : X -> Y, given a contraction
    of cone(f) (`is_homotopy_equivalence`).

    The block of the contraction mapping the Y-part to the X[1]-part is a
    chain map Y -> X inverting f up to homotopy on both sides.
    """
    x, y, cn, blocks = f.source, f.target, contraction.lhs.source, contraction._blocks
    degs = {*cn.degrees(), *y.degrees(), *(i - 1 for i in x.degrees())}
    if any(cn.rank(i) != y.rank(i) + x.rank(i + 1) for i in degs):
        raise ComplexError("homotopy_inverse needs a contraction of cone(f)")
    # the block of cone^i -> cone^(i-1) from Y^i to X^i
    comps = {i: blocks[i][y.rank(i - 1) :, :c] for i, _, c, _ in _layout(y, x, 0)}
    return ChainMap._of(y, x, comps)._checked()


# ---------------------------------------------------------------------------
# subquotients: homology and Hom in the homotopy category


def homology(c: Complex) -> dict[int, FGAbelianGroup]:
    """H^i = ker d(i) / im d(i-1) by invariant factors, over Z only, from one
    Smith form per differential: H^i has the torsion of coker d(i-1), and
    its free rank less rank d(i).  Keyed by the degrees of c: H^i = 0
    wherever c has rank 0."""
    if not c.ring.is_integers:
        raise ComplexError("homology is computed over the integers; reduce or lift explicitly")
    cok = {i: cokernel(d) for i, d in c.components().items()}
    out = {}
    for i in c.degrees():
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
        return [self.hom.chain_map(v) for v in vectors]

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
    if isinstance(obj, Complex):
        if not obj.ring.is_integers:
            raise ComplexError("reduce_mod expects integer coefficients")
        return Complex(Zmod(m), obj._ranks, obj.components())
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
# random generators over Z/m and the endomorphism algebra over F_p


def _random_combo(basis: np.ndarray, rng, p: int) -> np.ndarray:
    coeffs = np.array([rng.randrange(p) for _ in range(basis.shape[1])], dtype=basis.dtype)
    return (basis @ coeffs) % p


def random_complex(ring: Ring, rng, n_degrees: int, max_rank: int) -> Complex:
    """Random bounded complex over Z/m in degrees 0..n_degrees-1; d^2 = 0
    by construction.

    Each differential is drawn uniformly from the solutions of
    d(i) @ d(i-1) = 0 given the previously drawn one.
    """
    if ring.is_integers:
        raise ComplexError("random_complex needs a finite coefficient ring")
    p = ring.modulus
    ranks = {}
    for i in range(n_degrees):
        r = rng.randint(0, max_rank)
        if r:
            ranks[i] = r
    diffs: dict[int, np.ndarray] = {}
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
            system = np.zeros((rt * prev.shape[1], rt * rs), dtype=ring.dtype)
            _put_kron(system, np.eye(rt, dtype=ring.dtype), prev.T)
            mat = _random_combo(ring.kernel(system), rng, p).reshape(rt, rs)
        diffs[i] = ring._own(mat)
        prev = mat
    return Complex._of(ring, ranks, diffs)._checked()


def random_chain_map(x: Complex, y: Complex, rng) -> ChainMap:
    """Uniformly random chain map x -> y over Z/m: a random combination of
    columns spanning Z^0 = ker D(0)."""
    if x.ring.is_integers:
        raise ComplexError("random_chain_map needs a finite coefficient ring")
    hom = HomComplex(x, y)
    return hom.chain_map(_random_combo(x.ring.kernel(hom.D(0)), rng, x.ring.modulus))


def end_structure_mod_p(c: Complex):
    """The endomorphism algebra of c in the homotopy category over F_p.

    Returns (table, identity coordinates, basis representatives, to_coords)
    where table[i][j] holds the coordinates of basis_i o basis_j, and
    to_coords maps any endomorphism chain map to its class coordinates:
    the representatives and `lookup` of `hom_group(c, c)`.
    """
    if not c.ring.is_prime_field:
        raise ComplexError("end_structure_mod_p requires a prime field")
    end = hom_group(c, c)
    reps = end.reps()
    table = [[end.lookup(a.compose(b)) for b in reps] for a in reps]
    return table, end.lookup(identity_map(c)), reps, end.lookup
