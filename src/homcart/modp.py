"""Dense linear algebra over prime fields on int64 arrays, and the one
primality test, `is_prime`.

Exact throughout: entries live in [0, p) and p is capped at P_MAX, well
below the int64 overflow threshold.  `complexes.Ring` sends prime fields up
to P_MAX here; composite moduli and larger primes go through the integer
Smith kernel instead.
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
    """U A V = diag(1,...,1,0,...) over F_p.

    Returns (u, v, vinv, rank).
    """
    _check_prime_size(p)
    d = a.astype(np.int64, copy=True) % p
    nr, nc = d.shape
    u = np.eye(nr, dtype=np.int64)
    v = np.eye(nc, dtype=np.int64)
    vinv = np.eye(nc, dtype=np.int64)
    t = 0
    while t < min(nr, nc):
        sub = d[t:, t:]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        i, j = int(nz[0][0]) + t, int(nz[1][0]) + t
        if i != t:
            d[[t, i]] = d[[i, t]]
            u[[t, i]] = u[[i, t]]
        if j != t:
            d[:, [t, j]] = d[:, [j, t]]
            v[:, [t, j]] = v[:, [j, t]]
            vinv[[t, j]] = vinv[[j, t]]
        s = inv_mod(d[t, t], p)
        d[t] = (d[t] * s) % p
        u[t] = (u[t] * s) % p
        col = np.nonzero(d[:, t])[0]
        col = col[col != t]
        if col.size:
            factors = d[col, t].copy()
            d[col] = (d[col] - np.outer(factors, d[t])) % p
            u[col] = (u[col] - np.outer(factors, u[t])) % p
        rowz = np.nonzero(d[t, :])[0]
        rowz = rowz[rowz != t]
        if rowz.size:
            factors = d[t, rowz].copy()
            d[:, rowz] = (d[:, rowz] - np.outer(d[:, t], factors)) % p
            v[:, rowz] = (v[:, rowz] - np.outer(v[:, t], factors)) % p
            vinv[t, :] = (vinv[t, :] + factors @ vinv[rowz, :]) % p
        t += 1
    return u, v, vinv, t

