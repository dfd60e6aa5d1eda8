"""Exact integer linear algebra.

Matrices carry arbitrary-precision integer entries (Python ints inside numpy
object arrays); no floating point anywhere.  The convention throughout is
target-indexed rows: entry (i, j) is the coefficient sending source basis
vector j to target basis vector i.

Provided here:

* `IntMatrix` -- immutable exact matrix with the usual block/arithmetic ops,
* `smith_normal_form` -- U A V = D with unimodular U, V and divisibility
  chain d_1 | d_2 | ..., plus the inverse of U,
* `solve_linear` -- particular solution and kernel generators over Z or
  Z/m, from one Smith form of the matrix itself,
* `smith_solve` and `smith_kernel` -- the back-substitution through a Smith
  form and the kernel generators it gives, over Z or modulo m, that
  `solve_linear`, `complexes.Ring` and `complexes.Subquotient` share,
* `cokernel` / `FGAbelianGroup` -- finitely generated abelian groups by
  invariant factors.
"""

import math
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Shapes of operands do not compose."""


def _to_object_array(entries) -> np.ndarray:
    if isinstance(entries, np.ndarray):
        arr = entries.astype(object, copy=True)
    else:
        rows = list(entries)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        arr = np.empty((nrows, ncols), dtype=object)
        for i, row in enumerate(rows):
            row = list(row)
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows in matrix data")
            for j, v in enumerate(row):
                arr[i, j] = int(v)
    if arr.ndim != 2:
        raise DimensionMismatch("matrix data must be two-dimensional")
    return arr


class IntMatrix:
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = _to_object_array(entries)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "IntMatrix":
        m = object.__new__(cls)
        arr = arr.astype(object, copy=True)
        arr.setflags(write=False)
        object.__setattr__(m, "_a", arr)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._wrap(np.zeros((rows, cols), dtype=object))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        a = np.zeros((n, n), dtype=object)
        for i in range(n):
            a[i, i] = 1
        return cls._wrap(a)

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy object array view."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def entry(self, i: int, j: int) -> int:
        return self._a[i, j]

    def tolist(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self._a]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.shape} with {other.shape}"
            )
        if self.cols == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        return IntMatrix._wrap(self._a @ other._a)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix._wrap(self._a + other._a)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in subtraction")
        return IntMatrix._wrap(self._a - other._a)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(-self._a)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix._wrap(self._a * int(k))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._wrap(self._a.T)

    def reduce_mod(self, m: int) -> "IntMatrix":
        return IntMatrix._wrap(self._a % int(m))

    def is_zero(self) -> bool:
        return not self._a.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.shape, tuple(self._a.flat)))

    def __repr__(self):
        return f"IntMatrix({self.tolist()!r})"

    @staticmethod
    def hstack(blocks: list["IntMatrix"]) -> "IntMatrix":
        if not blocks:
            raise DimensionMismatch("hstack of no blocks")
        return IntMatrix._wrap(np.hstack([b._a for b in blocks]))

    @staticmethod
    def vstack(blocks: list["IntMatrix"]) -> "IntMatrix":
        if not blocks:
            raise DimensionMismatch("vstack of no blocks")
        return IntMatrix._wrap(np.vstack([b._a for b in blocks]))

    @staticmethod
    def block(grid: list[list["IntMatrix"]]) -> "IntMatrix":
        return IntMatrix.vstack([IntMatrix.hstack(row) for row in grid])

    def to_json(self) -> list[list[str]]:
        """Row-major array of arrays of decimal integer strings."""
        return [[str(v) for v in row] for row in self._a]

    @classmethod
    def from_json(cls, data, rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
            raise ValueError("matrix JSON must be an array of arrays")
        m = cls([[int(str(v), 10) for v in row] for row in data]) if data else cls.zeros(0, cols or 0)
        if rows is not None and m.rows != rows:
            raise ValueError(f"expected {rows} rows, got {m.rows}")
        if cols is not None and m.cols != cols:
            raise ValueError(f"expected {cols} cols, got {m.cols}")
        return m


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination on lists.

    A row whose update is the identity (zero below the pivot, pivot equal to
    the previous one) is left alone, so near-identity input costs about n^2.
    """
    n = a.rows
    if n != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = a.array.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1 :]:
            f = row[k]
            if f or pivot != prev:
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal, d_1 | d_2 | ...

    `uinv` is the exact inverse of U, accumulated during the reduction so no
    separate matrix inversion is ever needed.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    uinv: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.d.entry(i, i) for i in range(min(self.d.rows, self.d.cols))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def _min_pivot(m: np.ndarray, t: int):
    """Position of the minimal-absolute-value nonzero entry of m[t:, t:].

    Ties break to the lowest (row, col) pair, which keeps the whole reduction
    deterministic.
    """
    best = None
    best_pos = None
    for i in range(t, m.shape[0]):
        row = m[i]
        for j in range(t, m.shape[1]):
            v = row[j]
            if v != 0:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best = a
                    best_pos = (i, j)
                    if a == 1:
                        return best_pos
    return best_pos


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation witnesses.

    Pivoting picks the minimal-absolute-value nonzero entry, tie-broken by
    lowest (row, col); the diagonal is normalized nonnegative, so D is the
    unique Smith form of A.
    """
    d = a.array.astype(object, copy=True)
    nr, nc = d.shape
    u = IntMatrix.identity(nr).array.astype(object, copy=True)
    uinv = u.copy()
    v = IntMatrix.identity(nc).array.astype(object, copy=True)

    def row_op(i, k, q):  # row_i -= q * row_k
        d[i, :] -= q * d[k, :]
        u[i, :] -= q * u[k, :]
        uinv[:, k] += q * uinv[:, i]

    def col_op(j, k, q):  # col_j -= q * col_k
        d[:, j] -= q * d[:, k]
        v[:, j] -= q * v[:, k]

    def row_swap(i, k):
        if i != k:
            d[[i, k], :] = d[[k, i], :]
            u[[i, k], :] = u[[k, i], :]
            uinv[:, [i, k]] = uinv[:, [k, i]]

    def col_swap(j, k):
        if j != k:
            d[:, [j, k]] = d[:, [k, j]]
            v[:, [j, k]] = v[:, [k, j]]

    def row_negate(i):
        d[i, :] = -d[i, :]
        u[i, :] = -u[i, :]
        uinv[:, i] = -uinv[:, i]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pos = _min_pivot(d, t)
        if pos is None:
            break
        row_swap(pos[0], t)
        col_swap(pos[1], t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(nr):
                if i != t and d[i, t] != 0:
                    q = d[i, t] // d[t, t]
                    row_op(i, t, q)
            if any(d[i, t] != 0 for i in range(nr) if i != t):
                pos = _min_pivot(d, t)
                row_swap(pos[0], t)
                col_swap(pos[1], t)
                dirty = True
                continue
            for j in range(nc):
                if j != t and d[t, j] != 0:
                    q = d[t, j] // d[t, t]
                    col_op(j, t, q)
            if any(d[t, j] != 0 for j in range(nc) if j != t):
                pos = _min_pivot(d, t)
                row_swap(pos[0], t)
                col_swap(pos[1], t)
                dirty = True
                continue
            # fold in any entry the pivot does not divide yet
            piv = d[t, t]
            fixed = False
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i, j] % piv != 0:
                        row_op(t, i, -1)  # row_t += row_i
                        dirty = True
                        fixed = True
                        break
                if fixed:
                    break
        if d[t, t] < 0:
            row_negate(t)
        t += 1

    for i in range(limit):
        if d[i, i] < 0:
            row_negate(i)

    return SmithDecomposition(
        u=IntMatrix._wrap(u),
        d=IntMatrix._wrap(d),
        v=IntMatrix._wrap(v),
        uinv=IntMatrix._wrap(uinv),
    )


def _vec(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = int(v)
    return arr


def solve_linear(
    a: IntMatrix, b, modulus: int | None = None
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Solve A x = b over Z, or A x = b (mod m).

    Returns (particular solution, kernel generators) or None when no
    solution exists; every solution is particular + an integer combination
    of the generators (mod m).  Both read one Smith form U A V = D, of A
    reduced into [0, m) mod m, through `smith_solve` and `smith_kernel`.
    """
    b = _vec(b)
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    m = None if modulus is None else int(modulus)
    if m is not None and m < 2:
        raise ValueError("modulus must be at least 2")
    s = smith_normal_form(a if m is None else a.reduce_mod(m))
    x = smith_solve(s, b.reshape(-1, 1), m)
    if x is None:
        return None
    x = x[:, 0] % m if m else x[:, 0]
    residual = a.array @ x - b
    if any(residual % m if m else residual):
        raise AssertionError("solver produced a non-solution")
    return x, list(smith_kernel(s, m).T)


def smith_solve(s: SmithDecomposition, b: np.ndarray, modulus: int | None = None) -> np.ndarray | None:
    """x with A x = b, column by column, over Z or modulo m, for the matrix
    A whose Smith form is s; None when some column of b has no solution.

    y = U b, z = y / D on the diagonal, x = V z.  Modulo m, row k asks
    d_k z_k = y_k (d_k = 0 past the diagonal): with g = gcd(d_k, m) it is
    solvable exactly when g divides y_k, by z_k = (y_k / g) (d_k / g)^-1,
    the inverse taken modulo m / g.
    """
    diag = s.diagonal()
    z = np.zeros((s.v.rows, b.shape[1]), dtype=object)
    for i, row in enumerate((s.u.array @ b).tolist()):
        d = diag[i] if i < len(diag) else 0
        g = math.gcd(d, modulus) if modulus else d
        inv = pow(d // g, -1, modulus // g) if modulus else 1
        for j, y in enumerate(row):
            if y % g if g else y:
                return None
            if d:
                z[i, j] = y // g * inv
    return s.v.array @ z


def smith_kernel(s: SmithDecomposition, modulus: int | None = None) -> np.ndarray:
    """Columns generating ker A, for the A whose Smith form is s: over Z the
    columns of V past the rank, a basis; modulo m, where d_k z_k = 0 asks
    that m / gcd(d_k, m) divide z_k (d_k = 0 past the diagonal), the columns
    k of V times m / gcd(d_k, m), those nonzero mod m."""
    v, m = s.v.array, modulus
    if m is None:
        return v[:, s.rank :]
    diag = s.diagonal() + [0] * (v.shape[1] - min(s.d.shape))
    gens = v * np.array([m // math.gcd(d, m) for d in diag], dtype=object) % m
    return gens[:, [k for k in range(len(diag)) if any(gens[:, k])]]


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    Invariant factors satisfy 2 <= d_1 | d_2 | ...; factors equal to 1 never
    appear.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        fac = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fac)
        for d in fac:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for x, y in zip(fac, fac[1:]):
            if y % x != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_diagonal(cls, diag, ambient_rank: int) -> "FGAbelianGroup":
        """Cokernel Z^ambient_rank / (lattice with Smith diagonal `diag`)."""
        nonzero = [d for d in diag if d != 0]
        return cls(
            free_rank=ambient_rank - len(nonzero),
            invariant_factors=tuple(d for d in nonzero if d >= 2),
        )

    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def exponent(self) -> int:
        """Exponent of the torsion part (1 when torsion-free)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free_rank": self.free_rank, "invariant_factors": list(self.invariant_factors)}


def cokernel(a: IntMatrix) -> FGAbelianGroup:
    """Cokernel of A as an abstract group: Z^rows / column span of A."""
    s = smith_normal_form(a)
    return FGAbelianGroup.from_diagonal(s.diagonal(), a.rows)
