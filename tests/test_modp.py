"""`modp.solve` against brute force over F_2 and F_3, and `modp.is_prime`
against sympy, with the numbers it cannot decide refused at once."""

import random
import time
from itertools import product

import numpy as np
import pytest
import sympy

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
