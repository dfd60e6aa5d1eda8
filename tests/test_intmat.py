import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcart.complexes import ZZ, Complex, ComplexError, Ring, copair, identity_map, pair, reduce_mod
from homcart.intmat import (
    DimensionMismatch,
    FGAbelianGroup,
    IntMatrix,
    cokernel,
    det,
    inverse,
    smith_normal_form,
    decimal_integer,
    solve_linear,
)

from helpers import NOT_DECIMAL
from oracles import coset_members, residue_solutions


def _identity(n: int) -> IntMatrix:
    return IntMatrix(np.eye(n, dtype=np.int64))


def _mod(a: IntMatrix, m: int) -> IntMatrix:
    """The entries of a in [0, m)."""
    return IntMatrix(a.array % m)


def random_matrix(rng, max_dim=6, max_entry=20):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix([[rng.randint(-max_entry, max_entry) for _ in range(c)] for _ in range(r)])


def test_snf_identity_and_zero():
    s = smith_normal_form(_identity(2))
    assert s.d == _identity(2)
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
        assert s.u @ s.uinv == _identity(a.rows)
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


def _smith_corpus():
    """300 seeded matrices up to 6 x 6, with moduli None, 4, 6, 9, 12, 49 in
    turn, of mixed entry sizes and densities."""
    rng = random.Random(19_2026)
    for k in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        bound = rng.choice([1, 3, 30, 10**6])
        density = rng.choice([0.3, 0.7, 1.0])
        entries = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        yield (IntMatrix(entries) if rows else IntMatrix.zeros(0, cols)), (None, 4, 6, 9, 12, 49)[k % 6]


def test_smith_outputs_match_the_pinned_digest():
    # U, D, V and U^-1, shapes included, exactly as the reduction on numpy
    # object arrays gave them: the pivot rule and the order of operations
    # are part of the contract
    out = [
        [[list(x.shape), x.tolist()] for x in (s.u, s.d, s.v, s.uinv)]
        for s in (smith_normal_form(a, m) for a, m in _smith_corpus())
    ]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "4545bea6b958bc5dc8c65b5a57ae2466f206813547f970e901fa46b588eb6290"


@st.composite
def _small_matrices(draw, max_dim=5, bound=60):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix(entries) if rows else IntMatrix.zeros(0, cols)


_SMITH_MODULI = st.sampled_from([None, 2, 4, 6, 9, 12, 49])


@settings(database=None, deadline=None, max_examples=150)
@given(a=_small_matrices(), m=_SMITH_MODULI)
def test_smith_transforms_are_inverse_and_diagonalize(a, m):
    s = smith_normal_form(a, m)

    def same(x, y):
        return _mod(x - y, m).is_zero() if m else x == y

    assert same(s.u @ a @ s.v, s.d)
    assert same(s.u @ s.uinv, _identity(a.rows))
    assert all(s.d.entry(i, j) == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
    if m:
        assert all(0 <= v < m for x in (s.u, s.d, s.v, s.uinv) for row in x.tolist() for v in row)
        assert math.gcd(det(s.v), m) == 1
    else:
        assert abs(det(s.v)) == 1


@settings(database=None, deadline=None, max_examples=150)
@given(a=_small_matrices(), m=_SMITH_MODULI)
def test_smith_diagonal_is_a_divisibility_chain(a, m):
    diag = smith_normal_form(a, m).diagonal()
    for k, dk in enumerate(diag):
        assert dk >= 0
        # over Z, d_k | d_j with the zeros last; mod m, gcd(d_k, m) | d_j
        g = math.gcd(dk, m) if m else dk
        assert all(dj % g == 0 if g else dj == 0 for dj in diag[k + 1 :]), diag


@settings(database=None, deadline=None, max_examples=60)
@given(a=_small_matrices())
def test_smith_diagonal_over_z_is_sympys(a):
    from sympy import Matrix
    from sympy import ZZ as SYMPY_ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    want = []
    if 0 not in a.shape:
        d = sympy_snf(Matrix(a.tolist()), domain=SYMPY_ZZ)
        want = [abs(int(d[j, j])) for j in range(min(a.shape))]
    assert smith_normal_form(a).diagonal() == want


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
        assert det(_identity(n)) == 1


@st.composite
def _square_matrices(draw, max_dim=6):
    """Square matrices of size 0-6: random small entries, mostly singular
    over Z, or a product of elementary row operations times a random
    diagonal of small entries, often unimodular or a unit modulo m."""
    n = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        entries = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
        return IntMatrix(entries) if n else IntMatrix.zeros(0, 0)
    rows = [[draw(st.sampled_from([1, -1, 1, 5, 7])) * int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, k, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(-4, 4))
        if i != k:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[k])]
        else:
            rows[i], rows[-1 - i] = rows[-1 - i], rows[i]
    return IntMatrix(rows) if n else IntMatrix.zeros(0, 0)


def _is_unit(x: int, m: int | None) -> bool:
    return abs(x) == 1 if m is None else math.gcd(x, m) == 1


def _assert_inverse(a: IntMatrix, s: IntMatrix, m: int | None):
    one = _identity(a.rows)
    for product in (a @ s - one, s @ a - one):
        assert (_mod(product, m) if m else product).is_zero()
    if m:
        assert all(0 <= x < m for row in s.tolist() for x in row)


@settings(database=None, deadline=None, max_examples=300)
@given(a=_square_matrices(), m=st.sampled_from([None, 4, 6, 12, 1 << 70, 1048583]))
def test_inverse_exists_exactly_when_the_determinant_is_a_unit(a, m):
    s = inverse(a, m)
    assert (s is not None) == _is_unit(det(a), m)
    if s is not None:
        _assert_inverse(a, s, m)


@settings(database=None, deadline=None, max_examples=100)
@given(a=_square_matrices(), p=st.sampled_from([2, 3]))
def test_ring_inverse_over_small_prime_fields_follows_the_same_rule(a, p):
    s = Ring(p).inverse(Ring(p).asarray(a))
    assert (s is not None) == _is_unit(det(a), p)
    if s is not None:
        assert s.dtype == np.int64
        _assert_inverse(a, IntMatrix(s), p)


def test_inverse_examples():
    # no column of [[2, 3], [3, 5]] holds a unit, and the gcds of its columns are units
    a = IntMatrix([[2, 3], [3, 5]])
    assert inverse(a) == IntMatrix([[5, -3], [-3, 2]])
    assert inverse(a, 7) == IntMatrix([[5, 4], [4, 2]])
    assert inverse(IntMatrix([[2, 4], [6, 8]])) is None
    assert inverse(IntMatrix([[0, 1], [1, 0]])) == IntMatrix([[0, 1], [1, 0]])
    assert inverse(IntMatrix.zeros(0, 0)) == IntMatrix.zeros(0, 0)
    # over Z/6, 2 has the section 2 (2 2 2 = 2 mod 6) but no inverse
    assert inverse(IntMatrix([[2]]), 6) is None
    assert inverse(IntMatrix([[5]]), 6) == IntMatrix([[5]])
    big = 3 * (2**64 + 1)
    u = IntMatrix([[big + 1, big], [1, 1]])
    assert inverse(u) == IntMatrix([[1, -big], [-1, big + 1]])
    _assert_inverse(u, inverse(u, 1 << 70), 1 << 70)
    with pytest.raises(DimensionMismatch):
        inverse(IntMatrix([[1, 0]]))


def test_inverse_takes_no_row_operation_on_an_identity_block(monkeypatch):
    import homcart.intmat as intmat

    steps = []
    real = intmat._sub_multiple
    monkeypatch.setattr(intmat, "_sub_multiple", lambda *args: steps.append(args) or real(*args))
    assert inverse(_identity(40)) == _identity(40)
    assert inverse(_identity(40), 12) == _identity(40)
    assert steps == []


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


@pytest.mark.parametrize(
    "entries",
    [
        [[1.5, 2]],
        np.array([[0.5, 2.0]]),
        np.array([[2.0, 4.0]]),
        [[1, 2.0]],
        [[1 + 0j]],
        [["1", 2]],
        [[Fraction(1, 1)]],
        np.array([["1"]]),
        np.array([[1 + 0j]]),
        np.array([[1, None]], dtype=object),
    ],
)
def test_entries_that_are_not_integers_are_refused(entries):
    # a float, even an integral one, would otherwise be truncated or kept
    with pytest.raises(ValueError):
        IntMatrix(entries)


@pytest.mark.parametrize(
    "run",
    [
        lambda: smith_normal_form(IntMatrix(np.array([[2.0, 4.0], [6.0, 8.5]]))),  # was diag [0.5, 14.0]
        lambda: det(IntMatrix(np.array([[2.5, 1.0], [1.0, 1.0]]))),  # was 1.0
        lambda: cokernel(IntMatrix(np.array([[2.5]]))),  # was Z/2
        lambda: solve_linear(IntMatrix([[2]]), [4.5]),  # was x = [2]
        lambda: solve_linear(IntMatrix([[2]]), np.array([4.5])),
    ],
    ids=["smith", "det", "cokernel", "solve-list", "solve-array"],
)
def test_kernels_refuse_fractional_input(run):
    with pytest.raises(ValueError):
        run()


def test_integers_of_every_kind_become_python_ints():
    m = IntMatrix(np.array([[np.int64(3), np.int8(-2), 2**70]], dtype=object))
    assert m.tolist() == [[3, -2, 2**70]]
    assert all(type(v) is int for v in m.array.flat)
    assert all(type(v) is int for v in IntMatrix(np.array([[7, -1]], dtype=np.int64)).array.flat)
    assert all(type(v) is int for v in IntMatrix([[np.uint8(4), True]]).array.flat)
    x, _ = solve_linear(IntMatrix([[2]]), [np.int64(4)])
    assert list(x) == [2] and type(x[0]) is int


def test_matrices_are_read_by_their_entries():
    m = IntMatrix([[1, -2**70]])
    copy = IntMatrix(m)
    assert copy == m and copy.array is not m.array and all(type(v) is int for v in copy.array.flat)
    z = Ring(None).matrix(IntMatrix([[2]]))
    assert type(z) is IntMatrix and z.tolist() == [[2]]
    # a block of a residue ring reads as its integers in [0, m)
    residue = Ring(3).matrix([[-1, 4]])
    assert IntMatrix(residue).tolist() == [[2, 1]] and all(type(v) is int for v in IntMatrix(residue).array.flat)
    assert Ring(5).matrix(Ring(3).matrix([[2]])) == IntMatrix([[2]])
    assert type(Ring(4).matrix(residue)) is IntMatrix and Ring(4).matrix(residue).tolist() == [[2, 1]]
    with pytest.raises(ValueError):
        Ring(None).matrix(np.array([[1.0]]))


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a @ b,
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: IntMatrix.hstack([a, b]),
        lambda a, b: IntMatrix.vstack([a, b]),
    ],
    ids=["matmul", "add", "sub", "hstack", "vstack"],
)
def test_blocks_of_any_two_rings_compute_exactly_in_either_order(op):
    # one matrix type: a block of Z, F_3 or F_5 is its integers, and the
    # result is the exact one, whichever operand comes first
    plain, three, five = IntMatrix([[2**62]]), Ring(3).matrix([[2]]), Ring(5).matrix([[4]])
    for left, right in ((plain, three), (three, plain), (three, five), (five, three)):
        got = op(left, right)
        want = op(IntMatrix(left.tolist()), IntMatrix(right.tolist()))
        assert type(got) is IntMatrix and got.array.dtype == object and got.tolist() == want.tolist()
    assert (plain @ three).tolist() == [[2**63]]


def _unit(ring: Ring):
    """The identity of the rank-1 complex over `ring` in degree 0."""
    return identity_map(Complex(ring, {0: 1}, {}))


_MAP_OPS = pytest.mark.parametrize(
    "op, error",
    [
        (lambda f, g: f.compose(g), DimensionMismatch),
        (lambda f, g: f + g, DimensionMismatch),
        (lambda f, g: f - g, DimensionMismatch),
        (copair, ComplexError),
        (pair, ComplexError),
    ],
    ids=["matmul", "add", "sub", "hstack", "vstack"],
)


@_MAP_OPS
def test_mixed_kind_arithmetic_is_refused_in_either_order(op, error):
    # a block does not know its ring, a map does: maps over Z and over F_3
    # do not combine, whichever comes first
    plain, residue = _unit(ZZ), _unit(Ring(3))
    for left, right in ((plain, residue), (residue, plain)):
        with pytest.raises(error):
            op(left, right)
    # one ring on both sides is untouched
    assert op(plain, plain).source.ring == ZZ
    assert op(residue, residue).source.ring == Ring(3)


@_MAP_OPS
def test_residue_blocks_of_two_moduli_are_refused_in_either_order(op, error):
    three, five = _unit(Ring(3)), _unit(Ring(5))
    for left, right in ((three, five), (five, three)):
        with pytest.raises(error):
            op(left, right)
    assert op(five, five).source.ring.modulus == 5


def test_blocks_of_two_moduli_are_equal_when_their_entries_are():
    three, five, plain = Ring(3).matrix([[2]]), Ring(5).matrix([[2]]), IntMatrix([[2]])
    assert three == five and five == three and three == plain == five
    assert hash(three) == hash(plain) == hash(five)
    assert three == Ring(3).matrix([[5]]) and Ring(5).matrix([[7]]) == five
    assert Ring(3).matrix([[4]]) != Ring(5).matrix([[4]])


def test_bools_are_zero_and_one_and_round_trip_through_json():
    m = IntMatrix(np.array([[True, False]]))
    assert m.to_json() == [["1", "0"]]
    assert IntMatrix.from_json(m.to_json()) == m == IntMatrix([[1, 0]])


def test_shape_errors_are_dimension_mismatches():
    for entries in ([[1], [1, 2]], [1, 2], np.array([1, 2]), np.zeros((1, 1, 1), dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            IntMatrix(entries)
    assert IntMatrix([]).shape == (0, 0) and IntMatrix([[]]).shape == (1, 0)


def _results(a, b):
    """Every way to make an IntMatrix from a (3 columns) and b (3 rows)."""
    s = smith_normal_form(a)
    return {
        "matmul": a @ b, "add": a + a, "sub": a - a, "neg": -a,
        "hstack": IntMatrix.hstack([a, a]), "vstack": IntMatrix.vstack([a, a]), "block": IntMatrix.block([[a]]),
        "zeros": IntMatrix.zeros(2, 3), "from_json": IntMatrix.from_json(a.to_json()),
        "u": s.u, "d": s.d, "v": s.v, "uinv": s.uinv, "constructor": IntMatrix(a.array),
    }


def test_every_operation_returns_a_read_only_array():
    a = IntMatrix([[2, 4, 1], [6, 8, 0]])
    for name, m in _results(a, IntMatrix([[1], [2], [3]])).items():
        assert not m.array.flags.writeable, name
        with pytest.raises(ValueError):
            m.array[0, 0] = 99


def test_no_operation_shares_memory_with_its_operand():
    a = IntMatrix([[2, 4, 1], [6, 8, 0]])
    shared = {name for name, m in _results(a, IntMatrix([[1], [2], [3]])).items() if np.shares_memory(m.array, a.array)}
    assert shared == set()


def test_the_constructor_copies_outside_data():
    rows = [[1, 2], [3, 4]]
    arr = np.array(rows, dtype=object)
    ints = np.array(rows, dtype=np.int64)
    ms = IntMatrix(rows), IntMatrix(arr), IntMatrix(ints)
    rows[0][0] = arr[0, 0] = ints[0, 0] = 99
    rows.append([5, 6])
    assert all(m.tolist() == [[1, 2], [3, 4]] for m in ms)
    assert arr.flags.writeable and ints.flags.writeable


# ---------------------------------------------------------------------------
# blocks of the small prime fields


@settings(database=None, deadline=None, max_examples=40)
@given(
    p=st.sampled_from([2, 3, 1048573]),
    shape=st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
    seed=st.integers(0, 2**32 - 1),
)
def test_residue_arithmetic_is_exact_arithmetic_reduced_mod_p(p, shape, seed):
    rng = random.Random(seed)
    rows, mid, cols = shape
    ring = Ring(p)

    def entries(r, c):
        # exact integers of every size, big ones included, reduced on entry
        flat = [rng.choice([rng.randint(-3 * p, 3 * p), rng.randint(-(10**25), 10**25)]) for _ in range(r * c)]
        return np.array(flat, dtype=object).reshape(r, c)

    a, b, c = entries(rows, mid), entries(rows, mid), entries(mid, cols)
    ra, rb, rc = (ring.matrix(x) for x in (a, b, c))
    ea, eb, ec = (_mod(IntMatrix(x), p) for x in (a, b, c))
    assert ra == ea and rb == eb and rc == ec
    results = {
        "@": (ra @ rc, ea @ ec),
        "+": (ra + rb, ea + eb),
        "-": (ra - rb, ea - eb),
        "neg": (-ra, -ea),
        "hstack": (IntMatrix.hstack([ra, rb]), IntMatrix.hstack([ea, eb])),
        "vstack": (IntMatrix.vstack([ra, ra]), IntMatrix.vstack([ea, ea])),
    }
    for name, (got, want) in results.items():
        assert type(got) is IntMatrix and got == want, name
        assert ring.matrix(got) == _mod(want, p) and ring.asarray(got).dtype == np.int64, name
        assert hash(got) == hash(want) and got.to_json() == want.to_json(), name
    shifted = ring.matrix(a + p * np.array([rng.randint(-5, 5) for _ in range(a.size)], dtype=object).reshape(a.shape))
    assert shifted == ra and hash(shifted) == hash(ra)
    if rows and mid:
        i, j = rng.randrange(rows), rng.randrange(mid)
        assert ra.entry(i, j) == ea.entry(i, j) and type(ra.entry(i, j)) is int
        bumped = a.copy()
        bumped[i, j] += 1
        assert ring.matrix(bumped) != ra


def test_residue_matrices_read_data_by_the_integer_rule():
    with pytest.raises(ValueError):
        Ring(3).matrix([[1.0, 2]])
    with pytest.raises(DimensionMismatch):
        Ring(3).matrix(np.zeros(3, dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        Ring(3).matrix([[1, 2]]) @ Ring(3).matrix([[1, 2]])
    assert Ring(5).matrix(np.array([[-1, 7]], dtype=np.int64)).tolist() == [[4, 2]]


@pytest.mark.parametrize("ring, tripled", [(ZZ, [[3]]), (Ring(2), [[1]])], ids=["exact", "residue"])
def test_matrix_scalars_are_read_by_the_integer_rule(ring, tripled):
    f = identity_map(Complex(ring, {0: 1}, {}))
    for k in (2.7, np.float64(3.0), "2"):
        with pytest.raises(ValueError):
            f.scale(k)
    assert f.scale(np.int64(3)).component(0).tolist() == tripled


def test_integer_rule_errors_name_what_they_read():
    with pytest.raises(ValueError, match=r"^matrix entry 2\.5 is not an integer$"):
        IntMatrix([[1, 2.5]])
    for ring in (ZZ, Ring(5)):
        with pytest.raises(ValueError, match=r"^scale factor 2\.5 is not an integer$"):
            identity_map(Complex(ring, {0: 2}, {})).scale(2.5)


@pytest.mark.parametrize("bad", [*NOT_DECIMAL, True, 7.0, "7.0", "", "+", "7\n", "0x7", None])
def test_decimal_integers_refuse_anything_but_ascii_digits(bad):
    with pytest.raises(ValueError, match="not a decimal integer"):
        decimal_integer(bad)


@pytest.mark.parametrize("bad", NOT_DECIMAL)
def test_matrix_json_entries_are_decimal_integers(bad):
    with pytest.raises(ValueError, match="not a decimal integer"):
        IntMatrix.from_json([[bad]])
    for good in (7, "7", "-7", "+7", str(10**30)):
        assert IntMatrix.from_json([[good]]) == IntMatrix([[int(good)]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: smith_normal_form(IntMatrix([[4]]), 2.5),
        lambda: smith_normal_form(IntMatrix([[4]]), "7"),
        lambda: inverse(IntMatrix([[1]]), 2.5),
        lambda: solve_linear(IntMatrix([[1]]), [1], 2.5),
        lambda: reduce_mod(Complex(ZZ, {0: 1}, {}), 2.5),
        lambda: smith_normal_form(IntMatrix([[4]]), 1),
    ],
    ids=["smith-float", "smith-str", "inverse", "solve-linear", "reduce-mod", "smith-below-two"],
)
def test_a_given_modulus_is_read_by_the_integer_rule(build):
    with pytest.raises(ValueError, match="modulus"):
        build()


def test_a_residue_matrix_reduces_to_the_intmatrix_of_its_entries():
    m = Ring(3).matrix(Ring(5).matrix([[4, 3]]))
    assert type(m) is IntMatrix and m.tolist() == [[1, 0]] and all(type(v) is int for v in m.array.flat)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: IntMatrix([[1]]) + IntMatrix([[1, 2]]), DimensionMismatch),
        (lambda: IntMatrix([[1]]) - IntMatrix([[1], [2]]), DimensionMismatch),
        (lambda: IntMatrix.hstack([]), DimensionMismatch),
        (lambda: IntMatrix.vstack([]), DimensionMismatch),
        (lambda: IntMatrix.from_json([1, 2]), ValueError),
        (lambda: IntMatrix.from_json("[[1]]"), ValueError),
        (lambda: IntMatrix.from_json([[1]], rows=2), ValueError),
        (lambda: det(IntMatrix([[1, 2]])), DimensionMismatch),
        (lambda: FGAbelianGroup(-1), ValueError),
    ],
    ids=["add-shape", "sub-shape", "empty-hstack", "empty-vstack", "json-flat", "json-string", "json-rows", "det", "rank"],
)
def test_intmat_refuses_what_does_not_fit(build, error):
    with pytest.raises(error):
        build()
