import random
import time
from fractions import Fraction

import numpy as np
import pytest
from sympy import factorint
from sympy.ntheory.modular import crt

from homcart.unitlemma import (
    AlgebraElement,
    FiniteAlgebra,
    FpMatrix,
    QMatrix,
    ResidueElement,
    UnsupportedRepresentation,
    find_alpha,
    find_alpha_over_Z,
    find_beta,
    polynomial_relation,
)


def test_relation_square_zero():
    e = FpMatrix(5, [[0, 1], [0, 0]])
    rel = polynomial_relation(e)
    assert rel.m == 2
    assert all(c == 0 for c in rel.s_coeffs)


def test_relation_idempotent():
    e = FpMatrix(5, [[1, 0], [0, 0]])
    rel = polynomial_relation(e)
    # X^2 - X normalized by the lowest coefficient: X + X^2 * (-1)
    assert rel.m == 1
    assert tuple(rel.s_coeffs) == ((-1) % 5,)


def test_relation_rational_scalar():
    e = QMatrix([[3]])
    rel = polynomial_relation(e)
    assert rel.m == 0
    assert rel.s_coeffs == (Fraction(-1, 3),)


def test_alpha_nilpotent_gives_unit_one_plus_e():
    e = FpMatrix(3, [[0, 1], [0, 0]])
    cert = find_alpha(e)
    assert cert.coefficient.is_zero()
    assert cert.unit == e.one().add(e)


def test_alpha_idempotent():
    e = FpMatrix(7, [[1, 0], [0, 0]])
    cert = find_alpha(e)
    # a = -1 and 1 + e - e^2 = 1
    assert cert.coefficient == e.one().scale(-1)
    assert cert.unit == e.one()


def test_beta_idempotent():
    e = FpMatrix(7, [[1, 0], [0, 0]])
    cert = find_beta(e)
    assert cert.coefficient == e.one().scale(-1)


def test_residue_three_mod_nine():
    cert = find_alpha(ResidueElement(9, 3))
    assert cert.coefficient.value == 0
    assert cert.unit.value == 4
    assert (cert.unit.value * cert.inverse.value) % 9 == 1


def test_alpha_over_z_examples():
    assert find_alpha_over_Z(3) is None
    assert find_alpha_over_Z(0) == 0
    assert find_alpha_over_Z(-2) == 0


def test_alpha_over_z_matches_divisibility_oracle():
    for e in range(-100, 101):
        got = find_alpha_over_Z(e)
        bound = 2 * abs(e) + 3
        oracle = next(
            (a for a in range(-bound, bound + 1) if (1 + e + a * e * e) in (1, -1)),
            None,
        )
        assert (got is None) == (oracle is None)
        if got is not None:
            assert (1 + e + got * e * e) in (1, -1)
    for e in range(3, 101):
        assert find_alpha_over_Z(e) is None
        assert find_alpha_over_Z(-e) is None


def test_integers_rejected_by_ring_searches():
    with pytest.raises(UnsupportedRepresentation):
        find_alpha(3)
    with pytest.raises(UnsupportedRepresentation):
        find_beta(3)


def test_random_matrices_certificates():
    rng = random.Random(20240818)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        k = rng.randint(1, 4)
        e = FpMatrix(p, [[rng.randrange(p) for _ in range(k)] for _ in range(k)])
        cert = find_alpha(e)
        one = e.one()
        assert cert.unit.mul(cert.inverse) == one
        assert cert.inverse.mul(cert.unit) == one
        # (e + a e^2)^(m+1) = 0
        eta = e.add(cert.coefficient.mul(e).mul(e))
        acc = one
        for _ in range(cert.relation.m + 1):
            acc = acc.mul(eta)
        assert acc.is_zero()
        bcert = find_beta(e)
        assert bcert.unit.mul(bcert.inverse) == one
        assert bcert.inverse.mul(bcert.unit) == one


def test_rational_matrix_certificate():
    e = QMatrix([[Fraction(1, 2), 1], [0, 3]])
    cert = find_alpha(e)
    assert cert.unit.mul(cert.inverse) == e.one()


def test_rational_dependence_agrees_with_sympy():
    from sympy import Matrix, Rational

    from homcart.unitlemma import _solve_dependence

    rng = random.Random(21)
    seen = {True: 0, False: 0}
    for _ in range(150):
        dim, k = rng.randint(1, 5), rng.randint(1, 4)
        cols = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)] for _ in range(k)]
        a = Matrix([[Rational(c.numerator, c.denominator) for c in col] for col in cols]).T
        if a.rank() < k:
            continue  # the columns of a minimal-polynomial search are independent
        if rng.random() < 0.5:
            target = [sum(rng.randint(-3, 3) * col[i] for col in cols) for i in range(dim)]
        else:
            target = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)]
        b = Matrix([Rational(t.numerator, t.denominator) for t in target])
        got = _solve_dependence(cols, target, None)
        consistent = a.rank() == a.row_join(b).rank()
        seen[consistent] += 1
        if not consistent:
            assert got is None
            continue
        sol, _ = a.gauss_jordan_solve(b)
        assert got == [Fraction(int(v.p), int(v.q)) for v in sol]
        assert all(type(v) is Fraction for v in got)
    assert min(seen.values()) >= 20
    assert _solve_dependence([()], (), None) == [0]


def test_finite_algebra_roundtrip():
    # F_p[x]/(x^2): basis (1, x)
    p = 5
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    alg = FiniteAlgebra(p, table, [1, 0])
    x = alg.element([0, 1])
    cert = find_alpha(x)
    assert cert.unit.mul(cert.inverse) == x.one()
    bcert = find_beta(x)
    assert bcert.unit.mul(bcert.inverse) == x.one()


def test_finite_algebra_rejects_bad_identity():
    p = 3
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    with pytest.raises(ValueError):
        FiniteAlgebra(p, table, [0, 1])


def test_finite_algebra_reads_integers_only():
    # F_5[x]/(x^2); a float entry is refused, never truncated
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    with pytest.raises(ValueError):
        FiniteAlgebra(5, [[[1.5, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    with pytest.raises(ValueError):
        FiniteAlgebra(5, table, [1.2, 0])
    alg = FiniteAlgebra(5, table, [1, 0])
    with pytest.raises(ValueError):
        alg.element([0.5, 1.9])
    assert alg.element([6, -1]).vec() == (1, 4)


def test_residue_certificates_random():
    rng = random.Random(77)
    for _ in range(100):
        m = rng.randint(2, 400)
        v = rng.randrange(m)
        cert = find_alpha(ResidueElement(m, v))
        assert (cert.unit.value * cert.inverse.value) % m == 1
        assert cert.unit.value == (1 + v + cert.coefficient.value * v * v) % m


def test_residue_alpha_needs_no_factoring_of_the_modulus():
    # a 25-digit modulus: trial division would not finish
    m = 1000000000100000000002379
    start = time.perf_counter()
    cert = find_alpha(ResidueElement(m, 5))
    assert time.perf_counter() - start < 1.0
    assert (cert.unit.value * cert.inverse.value) % m == 1


def test_residue_alpha_is_the_per_prime_choice_on_squarefree_moduli():
    # a = 1 mod each prime dividing 1 + v, else 0, lifted by the CRT
    for m in range(2, 401):
        primes = factorint(m)
        if any(k > 1 for k in primes.values()):
            continue
        for v in range(m):
            residues = [1 if (1 + v) % p == 0 else 0 for p in primes]
            want = int(crt(list(primes), residues)[0]) % m
            assert find_alpha(ResidueElement(m, v)).coefficient.value == want, (m, v)


def test_beta_equals_alpha_on_commutative_representations():
    e = ResidueElement(9, 3)
    assert find_beta(e).coefficient == find_alpha(e).coefficient
    assert find_beta(e).unit.value == find_alpha(e).unit.value


def test_find_beta_is_right_handed_in_every_representation():
    alg = FiniteAlgebra(5, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    elements = [
        FpMatrix(3, [[1, 2], [0, 1]]),
        QMatrix([[Fraction(1, 2), 1], [0, 3]]),
        alg.element([2, 1]),
        ResidueElement(12, 6),
    ]
    for e in elements:
        assert find_beta(e).variant == "right"
        assert find_alpha(e).variant == "left"


@pytest.mark.parametrize(
    "entries",
    [[[1.5, 2], [0, 7.9]], np.array([[1.0, 2.0], [0.0, 1.0]]), [[Fraction(1), 0], [0, 1]], [["1", 0], [0, 1]], [], [[]]],
)
def test_prime_field_matrices_refuse_entries_that_are_not_integers(entries):
    with pytest.raises(ValueError):
        FpMatrix(5, entries)


_DUAL_NUMBERS = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: FpMatrix(5.0, [[1]]),
        lambda: FpMatrix("5", [[1]]),
        lambda: FiniteAlgebra(5.0, _DUAL_NUMBERS, [1, 0]),
        lambda: ResidueElement(9.0, 3),
        lambda: ResidueElement("9", 3),
        lambda: ResidueElement(9, 1.5),
    ],
    ids=["matrix-prime-float", "matrix-prime-str", "algebra-prime", "residue-modulus-float", "residue-modulus-str", "residue-value"],
)
def test_primes_moduli_and_residues_are_read_by_the_integer_rule(build):
    with pytest.raises(ValueError, match="is not an integer"):
        build()


def test_a_residue_keeps_plain_ints():
    e = ResidueElement(np.int64(9), np.int8(-3))
    assert (e.modulus, e.value) == (9, 6) and type(e.modulus) is type(e.value) is int


def test_prime_field_matrices_reduce_integers_of_every_kind():
    e = FpMatrix(5, np.array([[np.int64(-1), 2**70], [True, 12]], dtype=object))
    assert e.a.dtype == np.int64
    assert e.a.tolist() == [[4, 2**70 % 5], [1, 2]]


def test_scalars_are_read_by_the_integer_rule():
    alg = FiniteAlgebra(5, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    one = FpMatrix(5, [[1, 0], [0, 1]])
    for c in (2.7, np.float64(3.0)):
        with pytest.raises(ValueError):
            one.scale(c)
    with pytest.raises(ValueError):
        alg.element([1, 1]).scale(1.5)
    assert one.scale(np.int64(3)) == FpMatrix(5, [[3, 0], [0, 3]])
    assert one.scale(True) == one
    assert one.scale(-(2**70)) == one.scale(-(2**70) % 5)
    assert alg.element([1, 1]).scale(np.uint8(7)).vec() == (2, 2)
    assert alg.element([1, 1]).scale(False).vec() == (0, 0)


def _in_the_opposite_ring(e):
    """(coefficient, inverse, relation) of a right certificate for e built by
    `find_alpha` in the opposite ring and read back: the transpose of a
    matrix, the reversed structure constants of an algebra."""
    if isinstance(e, AlgebraElement):
        alg = e.algebra
        op = FiniteAlgebra(alg.p, np.swapaxes(alg.table, 0, 1), alg.one_coords)
        cert, back = find_alpha(op.element(e.coords)), lambda x: alg.element(x.coords)
    elif isinstance(e, FpMatrix):
        cert, back = find_alpha(FpMatrix(e.p, e.a.T)), lambda x: FpMatrix(x.p, x.a.T)
    else:
        cert, back = find_alpha(QMatrix(e.a.T.tolist())), lambda x: QMatrix(x.a.T.tolist())
    return back(cert.coefficient), back(cert.inverse), cert.relation


def _matrix_algebra(p: int) -> FiniteAlgebra:
    """M_2(F_p) by structure constants on E11, E12, E21, E22: not commutative."""
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        if j == k:
            table[2 * i + j, 2 * k + l, 2 * i + l] = 1
    return FiniteAlgebra(p, table, [1, 0, 0, 1])


def test_beta_is_alpha_and_the_opposite_ring_certificate():
    rng = random.Random(2026)
    elements = []
    for _ in range(150):
        p, k = rng.choice([2, 3, 5, 7, 65537]), rng.randint(1, 4)
        elements.append(FpMatrix(p, [[rng.randrange(p) for _ in range(k)] for _ in range(k)]))
    for _ in range(40):
        k = rng.randint(1, 3)
        elements.append(QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)]))
    for p in (2, 3, 5, 7):
        alg = _matrix_algebra(p)
        elements += [alg.element([rng.randrange(p) for _ in range(4)]) for _ in range(20)]
    for e in elements:
        alpha, beta = find_alpha(e), find_beta(e)
        assert (beta.coefficient, beta.unit, beta.inverse, beta.relation) == (
            alpha.coefficient, alpha.unit, alpha.inverse, alpha.relation,
        ), e
        assert beta.unit == e.one().add(e).add(e.mul(e).mul(beta.coefficient))
        assert (beta.coefficient, beta.inverse, beta.relation) == _in_the_opposite_ring(e), e
