"""`modp.solve` against brute force over F_2 and F_3, `modp.rref` against
sympy's row reduction over GF(p), on both of its eliminations, and
`modp.is_prime` against sympy, with the numbers it cannot decide refused at
once."""

import random
import sys
import time
from itertools import product

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from homcart import modp
from homcart.complexes import Zmod


def _solutions(a, b, p):
    """Every x in F_p^n with a @ x = b, by exhaustive search."""
    return {
        x for x in product(range(p), repeat=a.shape[1]) if not ((a @ np.array(x, dtype=np.int64) - b) % p).any()
    }


def _systems(p, rng):
    for rows, cols in ((0, 0), (0, 3), (2, 0)):
        yield np.zeros((rows, cols), dtype=np.int64), np.zeros(rows, dtype=np.int64)
        if rows:
            yield np.zeros((rows, cols), dtype=np.int64), np.ones(rows, dtype=np.int64)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
        if rng.random() < 0.5 and cols:
            b = a @ np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64) % p
        else:
            b = np.array([rng.randrange(p) for _ in range(rows)], dtype=np.int64)
        yield a, b


@pytest.mark.parametrize("p", [2, 3])
def test_solve_returns_a_solution_and_a_kernel_basis(p):
    rng = random.Random(71 + p)
    solvable = 0
    for a, b in _systems(p, rng):
        n = a.shape[1]
        solutions = _solutions(a, b, p)
        got = modp.solve(a, b, p)
        if not solutions:
            assert got is None
            continue
        solvable += 1
        x, kernel = got
        assert x.shape == (n,) and kernel.shape[0] == n
        assert x.dtype == kernel.dtype == np.int64
        assert tuple(int(v) for v in x) in solutions
        # ker a has p^(n - rank) elements
        assert len(_solutions(a, np.zeros_like(b), p)) == p ** kernel.shape[1]
        members = {
            tuple(int(v) for v in (x + kernel @ np.array(c, dtype=np.int64)) % p)
            for c in product(range(p), repeat=kernel.shape[1])
        }
        # p^(n - rank) distinct members: the columns are independent, and
        # they are all of the solutions
        assert len(members) == p ** kernel.shape[1]
        assert members == solutions
    assert solvable >= 50


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0xn", "nx0", "0x0"])
def test_kernel_and_solve_of_an_empty_shape(p, shape):
    rows, cols = shape
    a = np.zeros(shape, dtype=np.int64)
    kernel = modp.kernel(a, p)
    assert kernel.dtype == np.int64 and np.array_equal(kernel, np.eye(cols, dtype=np.int64))
    x, basis = modp.solve(a, np.zeros(rows, dtype=np.int64), p)
    assert x.dtype == basis.dtype == np.int64 and np.array_equal(x, np.zeros(cols)) and np.array_equal(basis, kernel)
    if rows:
        assert modp.solve(a, np.ones(rows, dtype=np.int64), p) is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: modp.rref(np.eye(2, dtype=np.int64), modp.P_MAX + 1),
        lambda: modp.kernel(np.eye(2, dtype=np.int64), 1),
        lambda: modp.solve(np.eye(2, dtype=np.int64), np.zeros(3, dtype=np.int64), 3),
    ],
    ids=["prime-above-range", "prime-below-range", "rhs-length"],
)
def test_modp_refuses_what_does_not_fit(build):
    with pytest.raises(ValueError):
        build()


def test_is_prime_agrees_with_sympy():
    assert [n for n in range(-3, 10**4) if modp.is_prime(n)] == [n for n in range(-3, 10**4) if sympy.isprime(n)]
    assert modp.is_prime(1048573)
    assert not modp.is_prime(1048575)


# psi_k, the least strong pseudoprime to the first k prime bases, for k = 1..12
# (psi_8 = psi_7 and psi_11 = psi_10 = psi_9)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
       3825123056546413051, 318665857834031151167461)


def test_is_prime_agrees_with_sympy_below_psi13():
    rng = random.Random(13)
    ns = [rng.randrange(modp.PSI_13) for _ in range(2000)]
    ns += [sympy.nextprime(n) for n in ns[:100]] + list(PSI)
    assert [modp.is_prime(n) for n in ns] == [sympy.isprime(n) for n in ns]
    assert not modp.is_prime(PSI[-1])


def test_is_prime_refuses_at_once_what_its_bases_cannot_decide():
    # PSI_13 is a strong pseudoprime to every base 2..41, so no base proves it
    # composite and the bases prove nothing at or above it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not decided"):
        modp.is_prime(modp.PSI_13)
    assert time.perf_counter() - start < 1
    # a witness still proves a larger number composite
    assert not modp.is_prime(modp.PSI_13 + 2) and not sympy.isprime(modp.PSI_13 + 2)


@pytest.mark.parametrize("p", [100000000000031, 10000000000000061])
def test_large_primes_are_recognised_at_once(p):
    start = time.perf_counter()
    assert Zmod(p).is_prime_field
    assert time.perf_counter() - start < 0.01


def _matrices(p, rng, count):
    """Random matrices over F_p with 0 rows, 0 columns, zero entries and
    repeated rows among them."""
    for rows, cols in ((0, 0), (0, 3), (3, 0), (3, 4)):
        yield np.zeros((rows, cols), dtype=np.int64)
    for k in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
        if k % 3 == 0 and rows > 1:
            a[-1] = a[0]
        yield a


@pytest.mark.parametrize("p", [2, 3, 101, 1048573])
def test_diagonalize_reads_u_v_and_u_inverse_off_one_rref(p):
    rng = random.Random(p)
    for a in _matrices(p, rng, 500):
        rows, cols = a.shape
        u, v, uinv, r = modp.diagonalize(a, p)
        d = np.zeros((rows, cols), dtype=np.int64)
        d[range(r), range(r)] = 1
        assert np.array_equal(u @ a % p @ v % p, d)
        assert np.array_equal(u @ uinv % p, np.eye(rows, dtype=np.int64))
        assert r == len(modp.rref(a, p)[1])
        assert np.array_equal(v[:, r:], modp.kernel(a, p))


def test_a_ring_decides_its_primality_once(monkeypatch):
    calls, real = [], modp.is_prime
    monkeypatch.setattr(modp, "is_prime", lambda n: calls.append(n) or real(n))
    ring = Zmod(3)
    for _ in range(1000):
        assert ring.dtype is np.int64
    assert ring.is_prime_field and ring.is_small_prime_field
    assert calls == [3]
    assert ring == Zmod(3) and hash(ring) == hash(Zmod(3))


def _rref_inputs(p, rng):
    """Matrices over F_p, some entries outside [0, p): empty, 1 x 1, zero and
    full rank, sparse ones with zero rows that `rref` eliminates on row
    lists alone, and dense and filled-in ones that it hands to the array at
    the first pivot or after some pivots."""
    for rows, cols in ((0, 0), (0, 5), (5, 0), (1, 1), (4, 7), (30, 30)):
        yield np.zeros((rows, cols), dtype=np.int64)
    yield np.array([[rng.randrange(1, p)]], dtype=np.int64)
    yield np.array([[-1, p + 2], [2 * p, -p]], dtype=np.int64)
    for n in (3, 8, 20):
        # full rank: unit upper triangular, rows then mixed by adding row 0
        a = np.triu(np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64), 1)
        a += np.eye(n, dtype=np.int64)
        a[1:] += a[0]
        yield a
    for rows, cols, nonzero in ((6, 9, 12), (12, 20, 96), (40, 48, 97), (60, 70, 288), (15, 40, 20)):
        a = np.zeros((rows, cols), dtype=np.int64)
        for k in rng.sample(range(rows * cols), nonzero):
            a[divmod(k, cols)] = rng.randrange(1, p) + p * rng.randrange(-2, 3)
        yield a
    for rows, cols in ((3, 3), (5, 8), (9, 9), (12, 16), (16, 16), (20, 10), (48, 48), (24, 64)):
        yield np.array([[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    for n in (8, 24):
        # the identity with a dense first row and column: its first pivot
        # fills every row in
        a = np.eye(n, dtype=np.int64)
        a[0] = a[:, 0] = [rng.randrange(1, p) for _ in range(n)]
        yield a
    # two pivots that change no other row, then a dense block with a zero row
    a = np.zeros((42, 42), dtype=np.int64)
    a[:2, :2] = np.eye(2, dtype=np.int64)
    a[:, 2:] = [[rng.randrange(p) for _ in range(40)] for _ in range(42)]
    a[20] = 0
    yield a


# 1048573, the largest prime that modp takes
RREF_PRIMES = [2, 3, 5, sympy.prevprime(modp.P_MAX + 1)]


@pytest.mark.parametrize("p", RREF_PRIMES)
def test_rref_agrees_with_sympy(p, monkeypatch):
    field, starts, paths = sympy.GF(p), [], set()
    array = modp._rref_array
    monkeypatch.setattr(modp, "_rref_array", lambda r, p, start, pivots: starts.append(start) or array(r, p, start, pivots))
    for a in _rref_inputs(p, random.Random(p)):
        rows, cols = a.shape
        expected_r, expected_pivots = DomainMatrix(
            [[field(int(x)) for x in row] for row in a.tolist()], (rows, cols), field
        ).rref()
        starts.clear()
        r, pivots = modp.rref(a, p)
        assert r.dtype == np.int64 and r.shape == (rows, cols)
        assert pivots == list(expected_pivots)
        assert r.tolist() == [[int(x) % p for x in row] for row in expected_r.to_list()]
        paths.add("lists" if not starts else "array" if starts == [0] else "both")
    assert paths == {"lists", "array", "both"}


@pytest.mark.parametrize("p", RREF_PRIMES)
def test_rref_on_row_lists_and_on_the_array_agree(p, monkeypatch):
    """`rref` as it runs, the array elimination from the first column, and
    the row-list elimination with no limit give the same (R, pivots)."""
    inputs = list(_rref_inputs(p, random.Random(100 + p)))
    as_run = [modp.rref(a, p) for a in inputs]
    by_array = [modp._rref_array(a % p, p, 0, []) for a in inputs]
    monkeypatch.setattr(modp, "_LIST_MAX_WORK", sys.maxsize)
    by_lists = [modp.rref(a, p) for a in inputs]
    for (r, pivots), (r_array, pivots_array), (r_lists, pivots_lists) in zip(as_run, by_array, by_lists):
        assert r.dtype == r_array.dtype == r_lists.dtype == np.int64
        assert np.array_equal(r, r_array) and np.array_equal(r, r_lists)
        assert pivots == pivots_array == pivots_lists
