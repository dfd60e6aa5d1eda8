"""Exact integer linear algebra.

Matrices carry arbitrary-precision integer entries (Python ints inside numpy
object arrays); no floating point anywhere.  The convention throughout is
target-indexed rows: entry (i, j) is the coefficient sending source basis
vector j to target basis vector i.

Outside data is read by one integer rule: integers of every kind are kept
exactly, anything else raises ValueError.  Text is read by one stricter
rule, `decimal_integer`: a JSON integer or ASCII digits with an optional
sign.  IntMatrix's own results are frozen in place, never copied.

Provided here:

* `IntMatrix` -- the one matrix type: immutable, exact, an object array of
  Python ints on every coefficient ring, with the usual block and
  arithmetic ops; `complexes.Ring` alone knows a block's modulus,
* `smith_normal_form` -- U A V = D with unimodular U, V and divisibility
  chain d_1 | d_2 | ..., plus the inverse of U; given a modulus m, every
  operation is reduced mod m, so nothing grows past m,
* `inverse` -- the inverse of a square matrix over Z or Z/m, or None, by
  row elimination on [A | 1] alone: no Smith form, and about n^2 steps on
  an identity or permutation block,
* `solve_linear` -- particular solution and kernel generators over Z or
  Z/m, from one Smith form of the matrix itself: the tests' reference,
* `smith_solve` and `smith_kernel` -- the back-substitution through a
  decomposition U A V = D, D diagonal, and the kernel generators it gives,
  over Z or modulo m, that `solve_linear`, `complexes.Ring` and
  `complexes.Subquotient` share; they take the arrays (U, diagonal, V), so
  a decomposition over F_p in int64 (`modp.diagonalize`) stays in int64,
* `cokernel` / `FGAbelianGroup` -- finitely generated abelian groups by
  invariant factors.
"""

import math
import re
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Shapes of operands do not compose."""


def _integer(v, what: str = "matrix entry") -> int:
    """v by the integer rule; `what` names v in the error."""
    if type(v) is int:
        return v
    if isinstance(v, (int, np.integer, np.bool_)):
        return int(v)
    raise ValueError(f"{what} {v!r} is not an integer")


_integers = np.frompyfunc(_integer, 1, 1)


def _modulus(m) -> int:
    """A modulus m by the integer rule, refused below 2."""
    if (m := _integer(m, "modulus")) < 2:
        raise ValueError("modulus must be at least 2")
    return m


def decimal_integer(v) -> int:
    """A JSON integer, or a string [+-]?[0-9]+ of ASCII digits, as an int;
    anything else (a bool, underscores, spaces, other digits) is refused."""
    if type(v) is int or isinstance(v, str) and re.fullmatch("[+-]?[0-9]+", v):
        return int(v)
    raise ValueError(f"{v!r} is not a decimal integer")


def _to_object_array(entries) -> np.ndarray:
    """The integer rule: a fresh 2-d object array of Python ints (bools 0 and
    1); any other entry, an integral float too, raises ValueError.  An
    `IntMatrix` is read by its entries."""
    if isinstance(entries, IntMatrix):
        entries = entries.array
    elif not isinstance(entries, np.ndarray):
        entries = np.array(entries, dtype=object) if len(entries) else np.empty((0, 0), dtype=object)
    if entries.ndim != 2:
        raise DimensionMismatch("matrix data must be two-dimensional")
    if entries.dtype.kind in "iu":
        return entries.astype(object)
    if entries.dtype.kind not in "bO":
        raise ValueError(f"matrix entries must be integers, not {entries.dtype}")
    return _integers(entries)


class IntMatrix:
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = _to_object_array(entries)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "IntMatrix":
        """Freeze `arr` and own it, uncopied: a new array of Python ints from
        IntMatrix's own arithmetic, or a view of a read-only one."""
        m = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(m, "_a", arr)
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._wrap(np.zeros((rows, cols), dtype=object))

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
        return int(self._a[i, j])

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

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.shape, tuple(self._a.ravel().tolist())))

    def __repr__(self):
        return f"IntMatrix({self.tolist()!r})"

    @staticmethod
    def hstack(blocks: list["IntMatrix"]) -> "IntMatrix":
        if not blocks:
            raise DimensionMismatch("hstack of no blocks")
        return IntMatrix._wrap(np.concatenate([b._a for b in blocks], axis=1))

    @staticmethod
    def vstack(blocks: list["IntMatrix"]) -> "IntMatrix":
        if not blocks:
            raise DimensionMismatch("vstack of no blocks")
        return IntMatrix._wrap(np.concatenate([b._a for b in blocks]))

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
        m = cls([[decimal_integer(v) for v in row] for row in data]) if data else cls.zeros(0, cols or 0)
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


def _min_pivot(d: list[list[int]], t: int):
    """Position of the minimal-absolute-value nonzero entry of d[t:][t:].

    Ties break to the lowest (row, col) pair, which keeps the whole reduction
    deterministic.
    """
    best = None
    best_pos = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            v = row[j]
            if v != 0:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best = a
                    best_pos = (i, j)
                    if a == 1:
                        return best_pos
    return best_pos


def _sub_multiple(x: list[int], y: list[int], q: int, m: int | None) -> list[int]:
    """x - q y entrywise, reduced into [0, m) when a modulus m is given."""
    if m:
        return [(s - q * r) % m for s, r in zip(x, y)]
    return [s - q * r for s, r in zip(x, y)]


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _object_array(rows, shape: tuple[int, int]) -> np.ndarray:
    """The rows as a fresh object array of the given shape, empty ones too."""
    return np.array(rows, dtype=object).reshape(shape)


def smith_normal_form(a: IntMatrix, modulus: int | None = None) -> SmithDecomposition:
    """Smith normal form with transformation witnesses.

    Pivoting picks the minimal-absolute-value nonzero entry, tie-broken by
    lowest (row, col); the diagonal is normalized nonnegative, so D is the
    unique Smith form of A.

    Given a modulus m, A is reduced into [0, m) and so is every row or column
    that an operation changes, in the working matrix, U, U^-1 and V: then
    U A V = D, U U^-1 = 1 hold mod m, and gcd(d_k, m) divides every later
    d_j, whose invariants mod m are all that is read.

    The reduction runs on Python lists of rows, as `det` does; U^-1 and V,
    which only ever change by columns, are kept as lists of their columns.
    """
    m, (nr, nc) = None if modulus is None else _modulus(modulus), a.shape
    d = a.array.tolist()
    if m:
        d = [[x % m for x in row] for row in d]
    u, uinv_t, v_t = _identity_rows(nr), _identity_rows(nr), _identity_rows(nc)

    def row_op(i, k, q):  # row_i -= q * row_k
        d[i] = _sub_multiple(d[i], d[k], q, m)
        u[i] = _sub_multiple(u[i], u[k], q, m)
        uinv_t[k] = _sub_multiple(uinv_t[k], uinv_t[i], -q, m)

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in d:
            row[j] = (row[j] - q * row[k]) % m if m else row[j] - q * row[k]
        v_t[j] = _sub_multiple(v_t[j], v_t[k], q, m)

    def row_swap(i, k):
        if i != k:
            d[i], d[k] = d[k], d[i]
            u[i], u[k] = u[k], u[i]
            uinv_t[i], uinv_t[k] = uinv_t[k], uinv_t[i]

    def col_swap(j, k):
        if j != k:
            for row in d:
                row[j], row[k] = row[k], row[j]
            v_t[j], v_t[k] = v_t[k], v_t[j]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        uinv_t[i] = [-x for x in uinv_t[i]]

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
                if i != t and d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
            if any(d[i][t] != 0 for i in range(nr) if i != t):
                pos = _min_pivot(d, t)
                row_swap(pos[0], t)
                col_swap(pos[1], t)
                dirty = True
                continue
            top = d[t]
            for j in range(nc):
                if j != t and top[j] != 0:
                    q = top[j] // top[t]
                    col_op(j, t, q)
            if any(top[j] != 0 for j in range(nc) if j != t):
                pos = _min_pivot(d, t)
                row_swap(pos[0], t)
                col_swap(pos[1], t)
                dirty = True
                continue
            # fold in any entry the pivot does not divide yet
            piv = top[t]
            fixed = False
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % piv != 0:
                        row_op(t, i, -1)  # row_t += row_i
                        dirty = True
                        fixed = True
                        break
                if fixed:
                    break
        # later steps touch only rows and columns past t, so this sign stays
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    return SmithDecomposition(
        u=IntMatrix._wrap(_object_array(u, (nr, nr))),
        d=IntMatrix._wrap(_object_array(d, (nr, nc))),
        v=IntMatrix._wrap(_object_array(list(zip(*v_t)), (nc, nc))),
        uinv=IntMatrix._wrap(_object_array(list(zip(*uinv_t)), (nr, nr))),
    )


def inverse(a: IntMatrix, modulus: int | None = None) -> IntMatrix | None:
    """The inverse of a square matrix over Z, or over Z/m given m, or None
    when it has none: Gauss-Jordan on the rows of [a | 1] alone, with no
    column operation (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4).

    In column k, Euclid's row steps bring the live entries of rows k, k+1,
    ... to their gcd g in one row.  Row operations keep det a up to a unit,
    so a is invertible exactly when every such g is a unit: +-1 over Z,
    prime to m over Z/m (otherwise g and m share a factor that divides every
    live entry of the column, and so det a).  That row, scaled by g^-1, then
    clears column k of every other row.  Rows with a zero in the column are
    skipped, so an identity or permutation block costs about n^2.  Modulo m
    every row an operation changes is reduced into [0, m), as in
    `smith_normal_form`.
    """
    m, n = None if modulus is None else _modulus(modulus), a.rows
    if n != a.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    rows = [row + unit for row, unit in zip(a.array.tolist(), _identity_rows(n))]
    if m:
        rows = [[x % m for x in row] for row in rows]
    for k in range(n):
        live = [i for i in range(k, n) if rows[i][k]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][k]))
            for i in live:
                if i != p:
                    rows[i] = _sub_multiple(rows[i], rows[p], rows[i][k] // rows[p][k], m)
            live = [i for i in live if rows[i][k]]
        if not live:
            return None
        p, g = live[0], rows[live[0]][k]
        if (math.gcd(g, m) if m else abs(g)) != 1:
            return None
        if g != 1:
            rows[p] = [x * pow(g, -1, m) % m for x in rows[p]] if m else [-x for x in rows[p]]
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = _sub_multiple(rows[i], top, rows[i][k], m)
    return IntMatrix._wrap(_object_array([row[n:] for row in rows], (n, n)))


def solve_linear(
    a: IntMatrix, b, modulus: int | None = None
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Solve A x = b over Z, or A x = b (mod m).

    Returns (particular solution, kernel generators) or None when no
    solution exists; every solution is particular + an integer combination
    of the generators (mod m).  Both read one Smith form U A V = D, taken
    mod m when m is given, through `smith_solve` and `smith_kernel`.
    """
    b = _to_object_array([b])[0]
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    m = None if modulus is None else _modulus(modulus)
    s = smith_normal_form(a, m)
    diag, v = s.diagonal(), s.v.array
    x = smith_solve(s.u.array, diag, v, b.reshape(-1, 1), m)
    if x is None:
        return None
    residual = a.array @ x[:, 0] - b
    if any(residual % m if m else residual):
        raise AssertionError("solver produced a non-solution")
    return x[:, 0], list(smith_kernel(diag, v, m).T)


def smith_solve(u: np.ndarray, diag, v: np.ndarray, b: np.ndarray, modulus: int | None = None) -> np.ndarray | None:
    """x with A x = b, column by column, over Z or modulo m, for the matrix
    A with U A V = D, D having the diagonal `diag`; None when some column of
    b has no solution.  Modulo m, x is reduced into [0, m) and the arrays
    keep their dtype.

    y = U b, z = y / D row by row, x = V z.  Modulo m, row k asks
    d_k z_k = y_k (d_k = 0 past the diagonal): with g = gcd(d_k, m) it is
    solvable exactly when g divides y_k, by z_k = (y_k / g) (d_k / g)^-1,
    the inverse taken modulo m / g.
    """
    m = modulus
    y = u @ b % m if m else u @ b
    z = np.zeros((v.shape[0], b.shape[1]), dtype=y.dtype)
    for k, row in enumerate(y):
        d = diag[k] if k < len(diag) else 0
        g = math.gcd(d, m) if m else d
        if (row % g if g else row).any():
            return None
        if d:
            z[k] = row // g * pow(d // g, -1, m // g) % m if m else row // g
    return v @ z % m if m else v @ z


def smith_kernel(diag, v: np.ndarray, modulus: int | None = None) -> np.ndarray:
    """Columns generating ker A, for the A with U A V = D, D having the
    diagonal `diag`: over Z the columns of V past the rank, a basis; modulo
    m, where d_k z_k = 0 asks that m / gcd(d_k, m) divide z_k (d_k = 0 past
    the diagonal), the columns k of V times m / gcd(d_k, m), those nonzero
    mod m."""
    if modulus is None:
        return v[:, sum(1 for d in diag if d) :]
    m, diag = modulus, list(diag) + [0] * (v.shape[1] - len(diag))
    gens = v * np.array([m // math.gcd(d, m) for d in diag], dtype=v.dtype) % m
    return gens[:, gens.any(axis=0)]


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
