"""Dense linear algebra over prime fields on int64 arrays, and the one
primality test, `is_prime`.

Exact throughout: entries live in [0, p) and p is capped at P_MAX, so a
product of n-entry rows and columns, n p^2, stays below 2^63 for n < 2^23.
`complexes.Ring` sends prime fields up to P_MAX here, and reads its
decomposition of a matrix over them from `diagonalize`; composite moduli
and larger primes go through the integer Smith kernel instead.
"""

import numpy as np

P_MAX = 1 << 20


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


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column list)."""
    _check_prime_size(p)
    r = a.astype(np.int64, copy=True) % p
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        pr = row + int(hits[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        r[row] = (r[row] * inv_mod(r[row, col], p)) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the null space of a over F_p."""
    nrows, ncols = a.shape
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if nrows == 0:
        return np.eye(ncols, dtype=np.int64)
    r, pivots = rref(a, p)
    return kernel_from_rref(r, pivots, ncols, p)


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
    if ncols == 0:
        if (b % p).any():
            return None
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
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
