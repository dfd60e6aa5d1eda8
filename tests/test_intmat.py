import random

import numpy as np
import pytest

from homcart.intmat import (
    DimensionMismatch,
    FGAbelianGroup,
    IntMatrix,
    cokernel,
    det,
    smith_normal_form,
    solve_linear,
)

from oracles import coset_members, residue_solutions


def random_matrix(rng, max_dim=6, max_entry=20):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix([[rng.randint(-max_entry, max_entry) for _ in range(c)] for _ in range(r)])


def test_snf_identity_and_zero():
    s = smith_normal_form(IntMatrix.identity(2))
    assert s.d == IntMatrix.identity(2)
    z = smith_normal_form(IntMatrix.zeros(2, 2))
    assert z.d == IntMatrix.zeros(2, 2)


def test_snf_frozen_example():
    # d1 = gcd of all entries = 2, d1*d2 = |det| = 8, so the form is diag(2, 4)
    a = IntMatrix([[2, 4], [6, 8]])
    s = smith_normal_form(a)
    assert s.diagonal() == [2, 4]
    assert s.u @ a @ s.v == s.d


def test_snf_random_invariants():
    rng = random.Random(20240817)
    for _ in range(300):
        a = random_matrix(rng)
        s = smith_normal_form(a)
        assert s.u @ a @ s.v == s.d
        assert abs(det(s.u)) == 1
        assert abs(det(s.v)) == 1
        assert s.u @ s.uinv == IntMatrix.identity(a.rows)
        diag = s.diagonal()
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        # trailing zeros only
        seen_zero = False
        for x in diag:
            if x == 0:
                seen_zero = True
            elif seen_zero:
                pytest.fail("zero before a nonzero diagonal entry")
        # off-diagonal must vanish
        for i in range(s.d.rows):
            for j in range(s.d.cols):
                if i != j:
                    assert s.d.entry(i, j) == 0


def test_solve_trivial():
    x, ker = solve_linear(IntMatrix([[2]]), [4])
    assert list(x) == [2]
    assert ker == []


def test_solve_insoluble_over_z_and_mod9():
    assert solve_linear(IntMatrix([[9]]), [-3]) is None
    assert solve_linear(IntMatrix([[9]]), [-3], modulus=9) is None
    # oracle agrees
    assert residue_solutions([[9]], [-3], 9) == []


def test_solve_mod9_full_coset():
    res = solve_linear(IntMatrix([[3]]), [6], modulus=9)
    assert res is not None
    x, gens = res
    assert sorted(v[0] for v in coset_members(x, gens, 9)) == [2, 5, 8]
    assert sorted(v[0] for v in residue_solutions([[3]], [6], 9)) == [2, 5, 8]


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear(IntMatrix([[1, 2]]), [1, 2])


def test_solve_against_residue_oracle():
    rng = random.Random(99)
    for k in range(180):
        m = rng.randint(2, 50)
        rows = rng.randint(1, 3)
        cols = rng.randint(0, 3) if k % 4 == 0 else rng.randint(1, 3)
        a_rows = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        if k % 4 == 1 and cols > 1:
            for row in a_rows:  # a zero column
                row[0] = 0
        if k % 4 == 2 and rows > 1:
            a_rows[-1] = [3 * v for v in a_rows[0]]  # rank deficient
        b = [rng.randint(-10, 10) for _ in range(rows)]
        if k % 8 == 2:  # a right-hand side in the span
            xs = [rng.randint(0, m - 1) for _ in range(cols)]
            b = [sum(c * v for c, v in zip(row, xs)) for row in a_rows]
        oracle = residue_solutions(a_rows, b, m)
        got = solve_linear(IntMatrix(a_rows), b, modulus=m)
        if got is None:
            assert oracle == []
        else:
            x, gens = got
            assert sorted(coset_members(x, gens, m)) == sorted(oracle)


def test_solve_integer_random_reverify():
    rng = random.Random(7)
    for _ in range(100):
        a = random_matrix(rng, max_dim=4, max_entry=6)
        xs = np.array([rng.randint(-5, 5) for _ in range(a.cols)], dtype=object)
        b = a.array @ xs if a.cols else np.zeros(a.rows, dtype=object)
        res = solve_linear(a, list(b))
        assert res is not None
        x, ker = res
        assert not any(a.array @ x - b)
        for k in ker:
            assert not any(a.array @ k)


def test_cokernel_examples():
    assert cokernel(IntMatrix([[0]])) == FGAbelianGroup(1)
    assert cokernel(IntMatrix([[1]])) == FGAbelianGroup(0)
    assert cokernel(IntMatrix([[9]])) == FGAbelianGroup(0, (9,))


def test_cokernel_full_rank_torsion_order_is_det():
    rng = random.Random(3)
    count = 0
    while count < 60:
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        d = det(a)
        if d == 0:
            continue
        count += 1
        g = cokernel(a)
        assert g.free_rank == 0
        assert g.torsion_order() == abs(d)


def test_det_agrees_with_sympy():
    from sympy import Matrix

    rng = random.Random(83)
    assert det(IntMatrix.zeros(0, 0)) == 1
    for _ in range(400):
        n = rng.randint(1, 7)
        # mostly zeros and units, so that zero pivots and rows left alone occur
        entries = [[rng.choice([0, 0, 0, 1, 1, -1, 2, -3, 10**20]) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(entries)) == Matrix(entries).det()
    for n in (1, 5, 16):
        assert det(IntMatrix.identity(n)) == 1


def test_fg_group_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 6))
    g = FGAbelianGroup(2, (2, 4))
    assert str(g) == "Z^2 + Z/2 + Z/4"
    assert g.exponent() == 4


def test_matrix_json_roundtrip():
    a = IntMatrix([[12, -7], [0, 10 ** 30]])
    assert IntMatrix.from_json(a.to_json()) == a
    assert a.to_json()[1][1] == str(10 ** 30)
    empty = IntMatrix.zeros(0, 3)
    assert IntMatrix.from_json(empty.to_json(), rows=0, cols=3).shape == (0, 3)


def test_matrix_json_rows_have_exactly_the_expected_width():
    for m in (IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 3)):
        assert IntMatrix.from_json(m.to_json(), rows=m.rows, cols=m.cols) == m
    assert IntMatrix.from_json([[], []]).shape == (2, 0)
    for data in ([[]], [["1", "2"]]):
        with pytest.raises(ValueError):
            IntMatrix.from_json(data, rows=1, cols=3)
