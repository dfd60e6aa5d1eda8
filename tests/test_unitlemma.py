import random
from fractions import Fraction

import pytest

from homcart.unitlemma import (
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


def test_residue_certificates_random():
    rng = random.Random(77)
    for _ in range(100):
        m = rng.randint(2, 400)
        v = rng.randrange(m)
        cert = find_alpha(ResidueElement(m, v))
        assert (cert.unit.value * cert.inverse.value) % m == 1
        assert cert.unit.value == (1 + v + cert.coefficient.value * v * v) % m


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
