"""Linear algebra over prime fields, returned as int64 arrays, and the one
primality test, `is_prime`.

Exact throughout: entries live in [0, p) and p is capped at P_MAX, so a
product of n-entry rows and columns, n p^2, stays below 2^63 for n < 2^23.
`rref` eliminates on rows of Python ints while its pivots stay cheap there,
and hands a matrix that fills in to the int64 array; either way R comes
back as int64, the same R, since the reduced row echelon form is unique.
`complexes.Ring` sends prime fields up to P_MAX here, and reads its
decomposition of a matrix over them from `diagonalize`; composite moduli
and larger primes go through the integer Smith kernel instead.
"""

import numpy as np

P_MAX = 1 << 20

# The most entries `rref` changes on the row lists per pivot, on average over
# the pivots so far: there each entry costs a Python step, on the int64 array
# a pivot costs a few numpy calls whatever the matrix.
_LIST_MAX_WORK = 192


def _check_prime_size(p: int):
    if p < 2 or p > P_MAX:
        raise ValueError(f"prime modulus out of supported range: {p}")


# Miller-Rabin with these bases is exact below PSI_13 (Sorenson and Webster 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin with the 13 prime
    bases 2..41, exact for every n below PSI_13 = 3317044064679887385961981.

    At or above PSI_13 a witness among those bases still proves n composite
    at once; a number with no witness raises ValueError, since the bases no
    longer prove it prime, so no answer is ever guessed.
    """
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        # a witnesses that n is composite unless a^d = 1 or some a^(d 2^k) = -1
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    if n < PSI_13:
        return True
    raise ValueError(f"primality of {n} is not decided")


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column list).

    Pivots clear their columns on the rows as lists of Python ints, each
    subtracted on its nonzero entries alone from the rows with a nonzero
    entry in its column. Once the entries they change pass `_LIST_MAX_WORK`
    per pivot, on average, the rest runs on the int64 array, as a dense or
    filled-in matrix does from its first pivot.
    """
    _check_prime_size(p)
    r = a.astype(np.int64, copy=True) % p
    nrows, ncols = r.shape
    # zero rows stay zero: R is the reduced nonzero rows over them
    rows, pivots, work = list(filter(any, r.tolist())), [], 0
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows):
            break
        for pr in range(row, len(rows)):
            if rows[pr][col]:
                break
        else:
            continue
        pivot = rows[pr]
        inv = pow(pivot[col], -1, p)
        # the pivot row is zero left of col
        support = [(j, x * inv % p) for j, x in enumerate(pivot[col:], col) if x]
        targets = [target for target in rows if target[col] and target is not pivot]
        work += len(support) * len(targets)
        if work > _LIST_MAX_WORK * (len(pivots) + 1):
            # no row has changed before the first pivot
            return _rref_array(_stack(rows, nrows, ncols) if pivots else r, p, col, pivots)
        rows[pr], rows[row] = rows[row], pivot
        for j, x in support:
            pivot[j] = x
        for target in targets:
            c = target[col]
            for j, x in support:
                target[j] = (target[j] - c * x) % p
        pivots.append(col)
    return _stack(rows, nrows, ncols), pivots


def _stack(rows: list[list[int]], nrows: int, ncols: int) -> np.ndarray:
    """The nrows x ncols int64 matrix of rows over zero rows."""
    r = np.zeros((nrows, ncols), dtype=np.int64)
    if rows:
        r[: len(rows)] = rows
    return r


def _rref_array(r: np.ndarray, p: int, start: int, pivots: list[int]) -> tuple[np.ndarray, list[int]]:
    """`rref` of r, entries in [0, p), in place on the int64 array from
    column start on, its columns before start already reduced with the given
    pivots: each pivot clears its column with one outer product."""
    nrows, ncols = r.shape
    for col in range(start, ncols):
        row = len(pivots)
        if row >= nrows:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        pr = row + int(hits[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        r[row] = (r[row] * pow(int(r[row, col]), -1, p)) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
    return r, pivots


def kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the null space of a over F_p."""
    return kernel_from_rref(*rref(a, p), a.shape[1], p)


def kernel_from_rref(r: np.ndarray, pivots: list[int], ncols: int, p: int) -> np.ndarray:
    """Null-space basis of the first ncols columns of a matrix with rref (r, pivots).

    Every pivot must lie among those columns.
    """
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = (-r[: len(pivots)][:, free]) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(x, kernel) with a @ x = b mod p and the columns of kernel a basis of
    ker a, from one rref of [a | b]; None when there is no solution.

    a and b are int64 arrays, b of shape (rows of a,); their entries are
    read mod p.
    """
    nrows, ncols = a.shape
    if b.shape != (nrows,):
        raise ValueError("rhs length mismatch")
    r, pivots = rref(np.hstack([a, b.reshape(-1, 1)]), p)
    if pivots and pivots[-1] >= ncols:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = r[: len(pivots), ncols]
    return x, kernel_from_rref(r, pivots, ncols, p)


def diagonalize(a: np.ndarray, p: int):
    """U A V = diag(1, ..., 1, 0, ...) over F_p, read off one rref
    E [A | 1] = [R | E], with P the pivot columns of R and r = |P| the rank.

    Returns (u, v, uinv, r): u = E; v is the unit vectors at P followed by
    the kernel basis of R (`kernel_from_rref`); uinv, the inverse of u, is
    the columns P of A followed by the unit vectors at the pivot columns Q
    of E's rows past r, since E A_P = [1; 0] and E e_Q = [0; 1].
    """
    nr, nc = a.shape
    a, eye = a.astype(np.int64) % p, np.eye(nr, dtype=np.int64)
    e, pivots = rref(np.hstack([a, eye]), p)
    r = sum(1 for j in pivots if j < nc)
    v = np.hstack([np.eye(nc, dtype=np.int64)[:, pivots[:r]], kernel_from_rref(e, pivots[:r], nc, p)])
    return e[:, nc:], v, np.hstack([a[:, pivots[:r]], eye[:, [j - nc for j in pivots[r:]]]]), r
