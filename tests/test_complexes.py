import random

import numpy as np
import pytest

from homcart import modp
from homcart.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    HomComplex,
    Homotopy,
    Subquotient,
    ZZ,
    Zmod,
    cone,
    cone_complex,
    cone_homotopy,
    cone_map,
    copair,
    direct_sum,
    end_structure_mod_p,
    hom_group,
    homology,
    homotopic,
    homotopy_inverse,
    identity_map,
    is_contractible,
    is_homotopy_equivalence,
    pair,
    random_chain_map,
    random_complex,
    reduce_mod,
    shift,
    zero_map,
)
from homcart.intmat import FGAbelianGroup, IntMatrix
from homcart.suite import fuzz_prop2, lemma2, prop2_replay

from helpers import cmap, cpx, one_term, two_term
from oracles import (
    chain_maps_f2,
    coset_members,
    homotopies_f2,
    is_homotopy_witness_f2,
    null_homotopic_maps_fp,
)
from test_triangles import corpus, random_z_chain_map


def test_validate_counterexample_family_member():
    # [Z --(-a^3; a^2)--> Z^2] for a = 3
    c = Complex(ZZ, {-1: 1, 0: 2}, {-1: IntMatrix([[-27], [9]])})
    assert c.rank(-1) == 1 and c.rank(0) == 2
    assert c.differential(-1) == IntMatrix([[-27], [9]])


def test_validate_one_degree_ok():
    c = Complex(ZZ, {5: 3}, {})
    assert c.degrees() == [5] and c.rank(5) == 3


def test_validate_identity_squared_fails_at_joint_degree():
    with pytest.raises(ComplexError) as err:
        Complex(ZZ, {0: 1, 1: 1, 2: 1}, {0: IntMatrix([[1]]), 1: IntMatrix([[1]])})
    assert err.value.degree == 0


def test_shift_two_term():
    c = two_term(-9, degrees=(0, 1))
    s = shift(c)
    assert s.rank(-1) == 1 and s.rank(0) == 1
    assert s.differential(-1) == IntMatrix([[9]])


def test_shift_zero_and_double():
    z = cpx({}, {})
    assert shift(z).is_zero()
    c = cpx({0: 2, 1: 1}, {0: [[3, 4]]})
    ss = shift(shift(c))
    assert ss.rank(-2) == 2 and ss.rank(-1) == 1
    assert ss.differential(-2) == IntMatrix([[3, 4]])


def test_cone_identity_contractible():
    c = one_term()
    cn, incl, proj = cone(identity_map(c))
    assert cn.rank(-1) == 1 and cn.rank(0) == 1
    assert cn.differential(-1) == IntMatrix([[1]])
    assert is_contractible(cn) is not None


def test_cone_matches_two_term_pattern():
    # cone of b : [Z --(-a^2)--> Z] -> [Z] is [Z --(b; a^2)--> Z^2]
    a, b = 3, 5
    x = two_term(-a * a, degrees=(0, 1))
    y = one_term()
    f = cmap(x, y, {0: [[b]]})
    cn, incl, proj = cone(f)
    assert cn.rank(-1) == 1 and cn.rank(0) == 2
    assert cn.differential(-1) == IntMatrix([[b], [a * a]])
    comp = proj.compose(incl)
    assert comp.is_zero()


def test_cone_zero_map_is_direct_sum():
    x, y = one_term(), one_term()
    f = zero_map(x, y)
    cn, _, _ = cone(f)
    assert cn == direct_sum(y, shift(x))


def test_homotopic_equal_maps_gives_zero_homotopy():
    c = two_term(4)
    f = identity_map(c)
    h = homotopic(f, f)
    assert h is not None
    assert all(m.is_zero() for m in h.components().values())


def _refuse_to_solve(monkeypatch):
    """Make every linear solve and elimination behind `homotopic` raise."""
    import homcart.complexes as complexes
    from homcart import intmat

    class Solved(AssertionError):
        pass

    def refuse(*args, **kwargs):
        raise Solved("a linear system was solved")

    monkeypatch.setattr(complexes.Ring, "solve", refuse)
    monkeypatch.setattr(complexes, "smith_normal_form", refuse)
    monkeypatch.setattr(intmat, "smith_normal_form", refuse)
    monkeypatch.setattr(modp, "rref", refuse)
    return Solved


@pytest.mark.parametrize("m", [None, 9, 3], ids=["Z", "Z9", "F3"])
def test_homotopic_equal_maps_solve_nothing(monkeypatch, m):
    maps = [f if m is None else reduce_mod(f, m) for f in corpus(random.Random(5))]
    _refuse_to_solve(monkeypatch)
    for f in maps:
        x, y = f.source, f.target
        # an equal copy, and the on-the-nose difference the yes-side checks ask about
        for lhs, rhs in ((f, f), (f, ChainMap(x, y, f.components())), (f - f, zero_map(x, y))):
            h = homotopic(lhs, rhs)
            assert h is not None and (h.lhs, h.rhs) == (lhs, rhs)
            assert all(c.is_zero() for c in h.components().values())


@pytest.mark.parametrize("m", [None, 9, 3], ids=["Z", "Z9", "F3"])
def test_homotopic_maps_that_differ_still_reach_the_solver(monkeypatch, m):
    rng = random.Random(6)
    pairs = []
    for f in corpus(random.Random(5)):
        f = f if m is None else reduce_mod(f, m)
        hom = HomComplex(f.source, f.target)
        h = np.array([rng.randint(-3, 3) for _ in range(hom.dim(-1))], dtype=hom.ring.dtype)
        g = ChainMap(f.source, f.target, hom.unvec(hom.vec(f) + hom.D(-1) @ h))
        if g != f:
            pairs.append((f, g))
    assert pairs
    solved = _refuse_to_solve(monkeypatch)
    for f, g in pairs:
        with pytest.raises(solved):
            homotopic(f, g)


def test_homotopic_middle_square_shift():
    # c(g) and g'(b) on the square of the counterexample family, a = 3:
    # the difference is a^2 in one degree and is killed by h = (0 1)
    a = 3
    b_cx = cpx({-1: 1, 0: 2}, {-1: [[-a ** 3], [a * a]]})
    cprime = cpx({-1: 1})
    lhs = cmap(b_cx, cprime, {-1: [[(1 + a) * a]]})
    rhs = cmap(b_cx, cprime, {-1: [[a]]})
    h = homotopic(lhs, rhs)
    assert h is not None
    # re-verification happened at construction; check the shape of the witness
    assert h.component(0).shape == (1, 2)


def test_homotopic_identity_vs_zero_none():
    c = one_term()
    assert homotopic(identity_map(c), zero_map(c, c)) is None


def test_is_homotopy_equivalence_identity_and_zero():
    c = two_term(7)
    assert is_homotopy_equivalence(identity_map(c)) is not None
    z1 = one_term()
    assert is_homotopy_equivalence(zero_map(z1, z1)) is None


def test_homology_examples():
    assert homology(one_term())[0] == FGAbelianGroup(1)
    h = homology(two_term(9))
    assert h[0] == FGAbelianGroup(0)
    assert h[1] == FGAbelianGroup(0, (9,))
    cn, _, _ = cone(identity_map(two_term(5)))
    assert all(g.is_trivial() for g in homology(cn).values())


def test_homology_rejects_modular():
    c = one_term(ring=Zmod(4))
    with pytest.raises(ComplexError):
        homology(c)


def _random_z_complex(rng):
    """Integer complex on degrees 0, 1, 2 with d(1) d(0) = 0: the rows of
    d(1) are random combinations of a basis of the left kernel of d(0)."""
    n0, n1, n2 = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
    d0 = IntMatrix([[rng.choice([0, 0, 1, -2, 3, 4, -6]) for _ in range(n0)] for _ in range(n1)])
    left = ZZ.kernel(d0.array.T)
    coeffs = np.array([rng.randint(-3, 3) for _ in range(n2 * left.shape[1])], dtype=object)
    d1 = IntMatrix(coeffs.reshape(n2, left.shape[1]) @ left.T)
    return cpx({0: n0, 1: n1, 2: n2}, {0: d0.tolist(), 1: d1.tolist()})


def test_homology_against_sympy_smith_form():
    # H^i = Z^(n - rk d(i) - rk d(i-1)) + the non-unit invariant factors of d(i-1)
    from sympy import Matrix
    from sympy import ZZ as SYMPY_ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def rank_and_factors(m: IntMatrix):
        if 0 in m.shape:
            return 0, []
        d = sympy_snf(Matrix(m.tolist()), domain=SYMPY_ZZ)
        diag = [abs(int(d[j, j])) for j in range(min(m.shape))]
        return sum(1 for v in diag if v), sorted(v for v in diag if v > 1)

    rng = random.Random(17)
    for _ in range(60):
        c = _random_z_complex(rng)
        got = homology(c)
        assert sorted(got) == list(range(c.min_degree, c.max_degree + 1))
        for i, group in got.items():
            rk_out, _ = rank_and_factors(c.differential(i))
            rk_in, factors = rank_and_factors(c.differential(i - 1))
            assert group == FGAbelianGroup(c.rank(i) - rk_out - rk_in, tuple(factors)), (i, c)


def test_hom_group_unit_interval():
    g = hom_group(one_term(), one_term())
    assert g.group == FGAbelianGroup(1)
    coords = g.lookup(identity_map(one_term()))
    assert coords in ((1,), (-1,))


def test_hom_group_from_contractible_is_trivial():
    cn, _, _ = cone(identity_map(two_term(3)))
    g = hom_group(cn, one_term())
    assert g.group.is_trivial()


def test_hom_group_self_of_mod9_sphere():
    c = two_term(9)
    g = hom_group(c, c)
    assert g.group == FGAbelianGroup(0, (9,))
    assert g.lookup(identity_map(c)) != g.lookup(zero_map(c, c))


def test_hom_group_lookup_matches_homotopic_over_z():
    rng = random.Random(5)
    c = two_term(6)
    g = hom_group(c, c)
    for k in range(-4, 5):
        f = cmap(c, c, {0: [[k]], 1: [[k]]})
        same = g.lookup(f) == g.lookup(zero_map(c, c))
        assert same == (homotopic(f, zero_map(c, c)) is not None)


def test_reduce_mod_examples():
    c = two_term(9)
    r = reduce_mod(c, 9)
    assert r.ring == Zmod(9)
    assert r.differential(0).is_zero()
    f = identity_map(c)
    h = homotopic(f, f)
    hr = reduce_mod(h, 4)
    assert isinstance(hr, Homotopy)


def test_reduce_mod_counterexample_data():
    a = 3
    b_cx = cpx({-1: 1, 0: 2}, {-1: [[-a ** 3], [a * a]]})
    r = reduce_mod(b_cx, a * a)
    assert r.differential(-1) == IntMatrix([[0], [0]])


@pytest.mark.parametrize("p, max_total_rank", [(2, 5), (3, 4)], ids=["F2", "F3"])
def test_homotopic_agrees_with_brute_force_over_fp(p, max_total_rank):
    rng = random.Random(11)
    ring = Zmod(p)
    trials = 0
    while trials < 40:
        x = random_complex(ring, rng, n_degrees=3, max_rank=2)
        y = random_complex(ring, rng, n_degrees=3, max_rank=2)
        if x.total_rank() + y.total_rank() > max_total_rank or x.total_rank() == 0 or y.total_rank() == 0:
            continue
        trials += 1
        # chain maps are the cocycles Z^0 = ker D(0)
        z0 = ring.kernel(HomComplex(x, y).D(0)).shape[1]
        n_maps = len(list(chain_maps_f2(x, y, p)))
        assert n_maps == p**z0
        # [x, y] = H^0 has one element per coset of the null-homotopic maps
        n_null = len(null_homotopic_maps_fp(x, y, p))
        group = hom_group(x, y).group
        assert n_maps % n_null == 0
        assert group.free_rank == 0 and group.torsion_order() == n_maps // n_null
        f = random_chain_map(x, y, rng)
        g = random_chain_map(x, y, rng)
        fc = {i: np.array(f.component(i).tolist(), dtype=np.int64) for i in x.degrees() if y.rank(i)}
        gc = {i: np.array(g.component(i).tolist(), dtype=np.int64) for i in x.degrees() if y.rank(i)}
        oracle = any(
            is_homotopy_witness_f2(x, y, fc, gc, h, p) for h in homotopies_f2(x, y, p)
        )
        got = homotopic(f, g)
        assert (got is not None) == oracle


def test_hom_group_over_f3_takes_no_smith_form(monkeypatch):
    import homcart.complexes as complexes

    def refuse(a):
        raise AssertionError("Smith form taken over a small prime field")

    cs = []
    for f in corpus(random.Random(3)):
        for c in (f.source, f.target, cone(f)[0]):
            c = reduce_mod(c, 3)
            if c not in cs:
                cs.append(c)
    monkeypatch.setattr(complexes, "smith_normal_form", refuse)
    pairs = [(x, y) for x in cs for y in cs if sum(HomComplex(x, y).dim(n) for n in (0, -1)) <= 5]
    assert len(pairs) > 100
    for x, y in pairs:
        n_maps = len(list(chain_maps_f2(x, y, 3)))
        n_null = len(null_homotopic_maps_fp(x, y, 3))
        assert hom_group(x, y).group.torsion_order() == n_maps // n_null


@pytest.mark.parametrize("m", [4, 6, 9, 3], ids=["Z4", "Z6", "Z9", "F3"])
def test_subquotient_of_a_generating_set_against_brute_force(m):
    # span(top) / (im b + m Z^n), with top any generating set and b in its span
    rng = random.Random(m)
    ring = Zmod(m)
    for _ in range(40):
        n, k, j = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2)
        top = np.array([rng.randrange(m) for _ in range(n * k)], dtype=object).reshape(n, k)
        b = top @ np.array([rng.randrange(m) for _ in range(k * j)], dtype=object).reshape(k, j)
        q = Subquotient(ring, top, b)
        span = sorted(coset_members([0] * n, list(top.T), m))
        rels = coset_members([0] * n, list(b.T), m)
        assert q.group.free_rank == 0
        assert q.group.torsion_order() == len(span) // len(rels)
        sample = rng.sample(span, min(len(span), 30))
        keys = {u: q.lookup(np.array(u, dtype=object)) for u in sample}
        for u in sample:
            for v in sample:
                same = tuple((x - y) % m for x, y in zip(u, v)) in rels
                assert (keys[u] == keys[v]) == same


def _corpus_complexes(ring):
    """Sources, targets and cones of the triangle-layer corpus, plus random
    complexes when the ring is a prime field."""
    out = []
    for f in corpus(random.Random(3)):
        for c in (f.source, f.target, cone(f)[0]):
            c = c if ring.is_integers else reduce_mod(c, ring.modulus)
            if c not in out:
                out.append(c)
    rng = random.Random(8)
    while ring.is_prime_field and len(out) < 24:
        out.append(random_complex(ring, rng, n_degrees=4, max_rank=3))
    return out


@pytest.mark.parametrize("ring", [ZZ, Zmod(9), Zmod(3)], ids=["Z", "Z9", "F3"])
def test_hom_complex_differential_squares_to_zero(ring):
    cs = _corpus_complexes(ring)
    for x in cs:
        for y in cs:
            hom = HomComplex(x, y)
            for n in (-2, -1, 0):
                prod = ZZ.asarray(hom.D(n + 1)) @ ZZ.asarray(hom.D(n))
                assert np.count_nonzero(prod % ring.modulus if ring.modulus else prod) == 0


def test_hom_complex_vectors_round_trip():
    for f in corpus(random.Random(4)):
        hom = HomComplex(f.source, f.target)
        v = hom.vec(f)
        assert len(v) == hom.dim(0)
        assert hom.unvec(v) == f.components()
        # chain maps are cocycles
        assert np.count_nonzero(hom.D(0) @ v) == 0


BIG_PRIME = 1048583  # the smallest prime above 2^20, the int64 limit of modp
SMALL_PRIME = 1048573  # the largest prime below 2^20


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = modp.rref

    def counting(a, p):
        calls.append(p)
        return original(a, p)

    monkeypatch.setattr(modp, "rref", counting)
    return calls


@pytest.mark.parametrize("p, int64_path", [(BIG_PRIME, False), (SMALL_PRIME, True)])
def test_large_primes_choose_their_backend(p, int64_path, rref_calls):
    ring = Zmod(p)
    assert ring.is_prime_field and ring.is_small_prime_field == int64_path
    x = two_term(5, ring=ring)
    y = one_term(ring=ring)
    assert homotopic(identity_map(x), identity_map(x)) is not None
    assert homotopic(identity_map(y), zero_map(y, y)) is None
    assert is_contractible(x) is not None
    assert is_contractible(y) is None
    cn, _, _ = cone(identity_map(y))
    assert is_contractible(cn) is not None
    f = random_chain_map(x, x, random.Random(1))
    assert f.source == x and f.target == x
    assert bool(rref_calls) == int64_path


def test_random_complex_and_chain_map_are_valid():
    rng = random.Random(42)
    ring = Zmod(3)
    for _ in range(20):
        x = random_complex(ring, rng, n_degrees=4, max_rank=3)
        y = random_complex(ring, rng, n_degrees=4, max_rank=3)
        f = random_chain_map(x, y, rng)  # constructor validates
        assert f.source == x and f.target == y


def _check_end_algebra(c, p):
    """Identity and associativity of the structure table; returns its dimension."""
    table, ident, reps, to_coords = end_structure_mod_p(c)
    n = len(reps)

    def mult(xc, yc):
        out = [0] * n
        for i, xi in enumerate(xc):
            if not xi:
                continue
            for j, yj in enumerate(yc):
                if not yj:
                    continue
                for k, ck in enumerate(table[i][j]):
                    out[k] = (out[k] + xi * yj * ck) % p
        return tuple(out)

    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    for i in range(n):
        assert mult(ident, basis[i]) == basis[i]
        assert mult(basis[i], ident) == basis[i]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert mult(basis[i], mult(basis[j], basis[k])) == mult(mult(basis[i], basis[j]), basis[k])
    return n


def test_end_structure_identity_and_associativity():
    rng = random.Random(9)
    c = random_complex(Zmod(3), rng, n_degrees=3, max_rank=2)
    _check_end_algebra(c, 3)


def test_end_structure_over_a_prime_above_the_int64_limit():
    # H^0 and H^1 are F_p and the second summand is contractible: End = F_p x F_p
    ring = Zmod(BIG_PRIME)
    c = direct_sum(cpx({0: 1, 1: 1}, {0: [[0]]}, ring=ring), two_term(7, ring=ring))
    assert _check_end_algebra(c, BIG_PRIME) == 2


def test_cone_map_restricts_to_g_and_checks_its_homotopy():
    rng = random.Random(47)
    refused = 0
    for f in corpus(rng):
        cn, incl, _ = cone(f)
        k = homotopic(incl.compose(f), zero_map(f.source, cn))
        assert cone_map(cn, incl, k).compose(incl) == incl
        if not f.is_zero():
            with pytest.raises(ComplexError):
                cone_map(cn, incl, Homotopy(k.lhs, k.rhs, {}, check=False))
            refused += 1
    assert refused


def test_copair_after_pair_is_the_sum_of_composites():
    rng = random.Random(53)
    maps = corpus(rng)
    objs = list(dict.fromkeys(f.source for f in maps))
    for c in maps:
        z, w = rng.choice(objs), rng.choice(objs)
        d = random_z_chain_map(c.source, z, rng)
        a = random_z_chain_map(c.target, w, rng)
        b = random_z_chain_map(z, w, rng)
        assert pair(c, d).target == direct_sum(c.target, z)
        assert copair(a, b).compose(pair(c, d)) == a.compose(c) + b.compose(d)


@pytest.mark.parametrize("ring", [ZZ, Zmod(3)], ids=["Z", "F3"])
def test_section_answers_empty_shapes_without_a_kernel(ring, monkeypatch):
    def refuse(*args):
        raise AssertionError("Smith form or rref taken of an empty shape")

    monkeypatch.setattr("homcart.complexes.smith_normal_form", refuse)
    monkeypatch.setattr(modp, "rref", refuse)
    for rows, cols in ((0, 3), (2, 0)):
        s, r = ring.section(IntMatrix.zeros(rows, cols))
        assert r == 0
        assert s.shape == (cols, rows)
    with pytest.raises(ComplexError):
        Zmod(4).section(IntMatrix.zeros(0, 3))


def _unimodular(n, rng):
    """A random n x n integer matrix of determinant 1: a product of
    elementary row operations."""
    u = np.eye(n, dtype=object)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        u[i] = u[i] + rng.randint(-2, 2) * u[j]
    return u


def _random_matrices(ring, rng, count=60):
    """Random matrices over the ring, with some rank deficient; over Z half
    are u diag(1, ..., 1, 0, ...) v with u and v unimodular, which have a
    section."""
    out = []
    for k in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if ring.is_integers and k % 2:
            r = rng.randint(0, min(rows, cols))
            d = np.zeros((rows, cols), dtype=object)
            d[range(r), range(r)] = 1
            a = _unimodular(rows, rng) @ d @ _unimodular(cols, rng)
        else:
            lo, hi = (-3, 3) if ring.is_integers else (0, ring.modulus - 1)
            a = np.array([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], dtype=object)
            if k % 3 == 0 and rows > 1:
                a[-1] = a[0] * 2  # a repeated direction: rank below min(rows, cols)
        out.append(IntMatrix(a))
    return out


@pytest.mark.parametrize("m", [2, 3, SMALL_PRIME, None], ids=["F2", "F3", "F1048573", "Z"])
def test_section_splits_random_matrices(m):
    from sympy import GF, Matrix
    from sympy import ZZ as SYMPY_ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.matrices import DomainMatrix

    ring = ZZ if m is None else Zmod(m)
    rng = random.Random(67)
    split = 0
    for d in _random_matrices(ring, rng):
        got = ring.section(d)
        if ring.is_integers:
            diag = sympy_snf(Matrix(d.tolist()), domain=SYMPY_ZZ)
            invariants = [abs(diag[i, i]) for i in range(min(d.shape)) if diag[i, i] != 0]
            if any(x != 1 for x in invariants):
                assert got is None
                continue
            rank = len(invariants)
        else:
            rank = DomainMatrix.from_Matrix(Matrix(d.tolist())).convert_to(GF(m)).rank()
        assert got is not None
        s, r = got
        assert r == rank and s.shape == (d.cols, d.rows)
        assert ring.matrices_equal(d @ IntMatrix(s) @ d, d)
        split += 1
    assert split >= 30
    if ring.is_integers:
        assert ring.section(IntMatrix([[2]])) is None


def _degreewise_invertible_maps():
    """Identity maps over Z, F_2 and F_3, the replayed units 1 + e + a e^2
    over F_2 and F_3, and the lemma2 witnesses over Z that are invertible in
    every degree."""
    maps = []
    for ring in (ZZ, Zmod(2), Zmod(3)):
        maps += [identity_map(c) for c in _corpus_complexes(ring)]
    for p in (2, 3):
        maps += [prop2_replay(t.morphism).automorphism for t in fuzz_prop2(p, trials=6, seed=5)]
    maps += [lemma2(k, a, b).witness for k in (1, 3) for a, b in ((3, -3), (0, 1), (-2, 4))]
    maps.append(lemma2(4, 0, 1).witness)
    return maps


def test_degreewise_invertible_maps_take_the_closed_form_contraction(monkeypatch):
    maps = _degreewise_invertible_maps()

    def refuse(c):
        raise AssertionError("a degreewise invertible map reached is_contractible")

    monkeypatch.setattr("homcart.complexes.is_contractible", refuse)
    for f in maps:
        h = is_homotopy_equivalence(f)
        cn = cone_complex(f)
        assert h.lhs == identity_map(cn) and h.rhs == zero_map(cn, cn)
        Homotopy(h.lhs, h.rhs, h.components(), check=True)
        g = homotopy_inverse(f, h)
        assert g.compose(f) == identity_map(f.source)
        assert f.compose(g) == identity_map(f.target)


def test_equal_rank_maps_that_are_not_invertible_take_the_general_path(monkeypatch):
    import homcart.complexes as complexes

    calls = []
    real = complexes.is_contractible

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(complexes, "is_contractible", counting)
    z = one_term()
    assert is_homotopy_equivalence(cmap(z, z, {0: [[2]]})) is None
    f3 = Zmod(3)
    contractible = two_term(1, ring=f3)
    assert is_homotopy_equivalence(zero_map(contractible, contractible)) is not None
    plane = cpx({0: 2}, ring=f3)
    assert is_homotopy_equivalence(cmap(plane, plane, {0: [[1, 2], [2, 1]]})) is None
    # equal ranks, a 3 and a -3 on the diagonal, and still an equivalence
    assert is_homotopy_equivalence(lemma2(4, 3, -3).witness) is not None
    assert len(calls) == 4


@pytest.mark.parametrize("p", [2, 3], ids=["F2", "F3"])
def test_contractibility_agrees_with_the_generic_solve_on_fuzz_cones(p):
    rng = random.Random(71 + p)
    ring = Zmod(p)
    seen = set()
    for k in range(200):
        x = random_complex(ring, rng, 3, 3)
        y = x if k % 2 else random_complex(ring, rng, 3, 3)
        cn = cone_complex(random_chain_map(x, y, rng))
        got = is_contractible(cn) is not None
        assert got == (homotopic(identity_map(cn), zero_map(cn, cn)) is not None)
        seen.add(got)
    assert seen == {True, False}


def test_contractibility_agrees_with_the_generic_solve_on_the_triangle_corpus():
    maps = corpus(random.Random(73))
    maps += [identity_map(f.source) for f in maps]
    seen = set()
    for f in maps:
        cn = cone_complex(f)
        got = is_contractible(cn) is not None
        assert got == (homotopic(identity_map(cn), zero_map(cn, cn)) is not None)
        seen.add(got)
    assert seen == {True, False}


def test_cone_homotopy_is_the_null_homotopy_zero_one_over_z_z9_f3():
    rng = random.Random(59)
    checked = 0
    for f in corpus(rng):
        for g in (f, reduce_mod(f, 9), reduce_mod(f, 3)):
            cn, incl, _ = cone(g)
            k = cone_homotopy(incl, g)
            assert k.lhs == incl.compose(g) and k.rhs == zero_map(g.source, cn)
            Homotopy(k.lhs, k.rhs, k.components(), check=True)
            x, y = g.source, g.target
            for i in x.degrees():
                assert k.component(i) == IntMatrix.vstack(
                    [IntMatrix.zeros(y.rank(i - 1), x.rank(i)), IntMatrix.identity(x.rank(i))]
                )
            checked += 1
    assert checked == 3 * len(corpus(random.Random(59)))


# ---------------------------------------------------------------------------
# one block layout for differentials, chain maps and homotopies


@pytest.mark.parametrize("ring, zero", [(ZZ, 0), (Zmod(9), 9)], ids=["Z", "Z9"])
def test_a_zero_differential_written_out_or_omitted_gives_one_complex(ring, zero):
    omitted = Complex(ring, {0: 1, 1: 1}, {})
    written = Complex(ring, {0: 1, 1: 1}, {0: IntMatrix([[zero]])})
    assert omitted == written and hash(omitted) == hash(written)


def test_reduce_mod_of_a_differential_that_vanishes_equals_the_omitted_one():
    assert reduce_mod(two_term(3), 3) == Complex(Zmod(3), {0: 1, 1: 1}, {})


def test_chain_maps_on_complexes_with_zero_blocks_compose():
    omitted = Complex(ZZ, {0: 1, 1: 1}, {})
    written = Complex(ZZ, {0: 1, 1: 1}, {0: IntMatrix([[0]])})
    f = cmap(omitted, omitted, {0: [[2]], 1: [[3]]})
    g = cmap(written, written, {0: [[5]], 1: [[7]]})
    assert g.compose(f) == cmap(omitted, omitted, {0: [[10]], 1: [[21]]})
    assert shift(direct_sum(omitted, omitted)) == shift(direct_sum(written, written))


def _graded_cases(ring):
    """Chain maps of the triangle corpus over `ring`, plus random chain maps
    between random complexes over a prime field, and a generator."""
    rng = random.Random(91)
    maps = [f if ring.is_integers else reduce_mod(f, ring.modulus) for f in corpus(rng)]
    while ring.is_prime_field and len(maps) < 40:
        x, y = random_complex(ring, rng, 3, 3), random_complex(ring, rng, 3, 3)
        maps.append(random_chain_map(x, y, rng))
    return maps, rng


def _random_block(r, c, rng):
    return IntMatrix(np.array([rng.randint(-2, 2) for _ in range(r * c)], dtype=object).reshape(r, c))


def _perturbed(blocks, layout, rng):
    """blocks with a random matrix added to one block of the layout."""
    out = dict(blocks)
    if layout:
        i, r, c, _ = rng.choice(layout)
        out[i] = out.get(i, IntMatrix.zeros(r, c)) + _random_block(r, c, rng)
    return out


def _vector(layout, blocks):
    """The Hom-complex vector of a dict of blocks, zero where none is given."""
    parts = [
        ZZ.asarray(blocks[i]).reshape(-1) if i in blocks else np.zeros(r * c, dtype=object)
        for i, r, c, _ in layout
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=object)


def _first_nonzero_block(layout, v, m):
    """The degree of the first block of v that is nonzero mod m (m None for Z)."""
    for i, r, c, off in layout:
        if any((e % m if m else e) != 0 for e in v[off : off + r * c]):
            return i
    return None


def _raises_at(build, degree):
    if degree is None:
        return build()
    with pytest.raises(ComplexError) as err:
        build()
    assert err.value.degree == degree


@pytest.mark.parametrize("ring", [ZZ, Zmod(9), Zmod(3)], ids=["Z", "Z9", "F3"])
def test_chain_maps_raise_exactly_where_d0_of_their_vector_is_nonzero(ring):
    maps, rng = _graded_cases(ring)
    raised = 0
    for f in maps:
        x, y, hom = f.source, f.target, HomComplex(f.source, f.target)
        for comps in (f.components(), _perturbed(f.components(), hom.layout(0), rng)):
            d0v = ZZ.asarray(hom.D(0)) @ _vector(hom.layout(0), comps)
            bad = _first_nonzero_block(hom.layout(1), d0v, ring.modulus)
            _raises_at(lambda: ChainMap(x, y, comps), bad)
            raised += bad is not None
    assert raised


@pytest.mark.parametrize("ring", [ZZ, Zmod(9), Zmod(3)], ids=["Z", "Z9", "F3"])
def test_homotopies_raise_exactly_where_their_witness_equation_fails(ring):
    maps, rng = _graded_cases(ring)
    raised = 0
    for f in maps:
        x, y, hom = f.source, f.target, HomComplex(f.source, f.target)
        dm1, lay = ZZ.asarray(hom.D(-1)), hom.layout(-1)
        h = {i: _random_block(r, c, rng) for i, r, c, _ in lay}
        g = ChainMap(x, y, hom.unvec(ZZ.asarray(hom.vec(f)) - dm1 @ _vector(lay, h)))
        for comps in (h, _perturbed(h, lay, rng)):
            miss = dm1 @ _vector(lay, comps) - ZZ.asarray(hom.vec(f)) + ZZ.asarray(hom.vec(g))
            bad = _first_nonzero_block(hom.layout(0), miss, ring.modulus)
            _raises_at(lambda: Homotopy(f, g, comps), bad)
            raised += bad is not None
    assert raised


@pytest.mark.parametrize("ring", [ZZ, Zmod(9), Zmod(3)], ids=["Z", "Z9", "F3"])
def test_blocks_of_the_wrong_shape_or_outside_the_layout_raise_at_their_degree(ring):
    maps, _ = _graded_cases(ring)
    for f in maps:
        x, y = f.source, f.target
        degs = x.degrees() + y.degrees()
        span = range(min(degs, default=0) - 2, max(degs, default=0) + 3)
        kinds = [
            (x, x, 1, lambda b: Complex(ring, {i: x.rank(i) for i in x.degrees()}, b), x.differential),
            (x, y, 0, lambda b: ChainMap(x, y, b), f.component),
            (x, y, -1, lambda b: Homotopy(f, f, b), Homotopy(f, f, {}).component),
        ]
        for src, tgt, n, build, block in kinds:
            layout = HomComplex(src, tgt).layout(n)
            valid = {i: block(i) for i, _, _, _ in layout}
            build(valid)
            for i, r, c, _ in layout:
                _raises_at(lambda: build({**valid, i: IntMatrix.zeros(r + 1, c)}), i)
            for i in set(span) - {i for i, _, _, _ in layout}:
                _raises_at(lambda: build({**valid, i: IntMatrix([[1]])}), i)
                assert block(i).is_zero() and block(i).shape == (tgt.rank(i + n), src.rank(i))
