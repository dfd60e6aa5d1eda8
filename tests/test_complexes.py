import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homcart import modp
from homcart.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    HomComplex,
    Homotopy,
    Ring,
    Subquotient,
    ZZ,
    Zmod,
    _random_combo,
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
from homcart.intmat import (
    DimensionMismatch,
    FGAbelianGroup,
    IntMatrix,
    smith_normal_form,
    smith_solve,
    solve_linear,
)
from homcart.suite import build_star, fuzz_prop2, lemma2, prop2_replay

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
        g = hom.chain_map(hom.vec(f) + hom.D(-1) @ h)
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
    assert all(g == FGAbelianGroup(0) for g in homology(cn).values())


def test_homology_is_keyed_by_the_degrees_of_the_complex():
    # H^i = 0 wherever the rank is 0, so no degree of the gap is listed
    gapped = cpx({0: 1, 10**6: 2})
    assert homology(gapped) == {0: FGAbelianGroup(1), 10**6: FGAbelianGroup(2)}


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
        assert sorted(got) == list(range(c.degrees()[0], c.degrees()[-1] + 1))
        for i, group in got.items():
            rk_out, _ = rank_and_factors(c.differential(i))
            rk_in, factors = rank_and_factors(c.differential(i - 1))
            assert group == FGAbelianGroup(c.rank(i) - rk_out - rk_in, tuple(factors)), (i, c)


def _record_smith_forms(monkeypatch) -> list:
    """Every matrix handed to a Smith form from complexes or intmat."""
    import homcart.complexes as complexes
    import homcart.intmat as intmat

    seen, real = [], intmat.smith_normal_form

    def recording(a, modulus=None):
        seen.append(a)
        return real(a, modulus)

    monkeypatch.setattr(intmat, "smith_normal_form", recording)
    monkeypatch.setattr(complexes, "smith_normal_form", recording)
    return seen


def test_homology_takes_one_smith_form_per_differential(monkeypatch):
    seen = _record_smith_forms(monkeypatch)
    rng = random.Random(23)
    gaps = [cpx({0: 1, 2: 1}), cpx({0: 2, 1: 0, 2: 1}), cone(identity_map(two_term(5)))[0], two_term(9)]
    for c in [_random_z_complex(rng) for _ in range(20)] + gaps:
        seen.clear()
        homology(c)
        shapes = [c.differential(i).shape for i in c.degrees() if c.rank(i + 1)]
        assert len(seen) <= len(shapes) and all(a.shape in shapes for a in seen), (c, shapes)


@pytest.mark.parametrize("m", [4, 9, 12])
def test_subquotient_over_zm_takes_two_smith_forms(monkeypatch, m):
    # one of top itself, then one of the k-row relations in its coordinates
    # exactly when there are relations (j > 0 or ker top != 0 mod m): none
    # of the augmented [top | m 1], whose shape is (n, k + n)
    seen = _record_smith_forms(monkeypatch)
    rng = random.Random(m)
    for _ in range(20):
        n, k, j = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 2)
        top = np.array([rng.randrange(m) for _ in range(n * k)], dtype=object).reshape(n, k)
        b = top @ np.array([rng.randrange(m) for _ in range(k * j)], dtype=object).reshape(k, j)
        relations = j > 0 or Zmod(m).kernel(top).shape[1] > 0
        seen.clear()
        Subquotient(Zmod(m), top, b)
        assert seen[0] == IntMatrix(top)
        assert [a.rows for a in seen[1:]] == ([k] if relations else [])
        assert all(a.shape != (n, k + n) for a in seen)


def test_subquotient_over_z_of_a_generating_set():
    # [2, 4] generates 2Z without being a basis of it: 2Z / 4Z = Z/2
    q = Subquotient(ZZ, np.array([[2, 4]], dtype=object), np.array([[4]], dtype=object))
    assert q.group == FGAbelianGroup(0, (2,))

    def look(v):
        return q.lookup(np.array([v], dtype=object))

    assert look(2) == look(6) != look(4) == (0,)


def test_subquotient_over_z_against_solving():
    # two vectors of span(top) share a class exactly when their difference is in im b
    rng = random.Random(29)
    for _ in range(40):
        n, k, j = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3)
        top = np.array([rng.randint(-4, 4) for _ in range(n * k)], dtype=object).reshape(n, k)
        b = top @ np.array([rng.randint(-3, 3) for _ in range(k * j)], dtype=object).reshape(k, j)
        q = Subquotient(ZZ, top, b)
        rank = [smith_normal_form(IntMatrix(a)).rank if a.size else 0 for a in (top, b)]
        assert q.group.free_rank == rank[0] - rank[1]
        vs = [top @ np.array([rng.randint(-3, 3) for _ in range(k)], dtype=object) for _ in range(6)]
        vs += [v + b @ np.array([rng.randint(-2, 2) for _ in range(j)], dtype=object) for v in vs[:3]]
        for u in vs:
            for v in vs:
                same = j > 0 and solve_linear(IntMatrix(b), list(u - v)) is not None or not any(u - v)
                assert (q.lookup(u) == q.lookup(v)) == same


def test_hom_group_unit_interval():
    g = hom_group(one_term(), one_term())
    assert g.group == FGAbelianGroup(1)
    coords = g.lookup(identity_map(one_term()))
    assert coords in ((1,), (-1,))


def test_hom_group_from_contractible_is_trivial():
    cn, _, _ = cone(identity_map(two_term(3)))
    g = hom_group(cn, one_term())
    assert g.group == FGAbelianGroup(0)


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
        assert hom.chain_map(v) == f and hom.chain_map(v).components() == f.components()
        # chain maps are cocycles
        assert np.count_nonzero(hom.D(0) @ v) == 0


BIG_PRIME = 1048583  # the smallest prime above 2^20, the int64 limit of modp
SMALL_PRIME = 1048573  # the largest prime below 2^20


def test_subquotient_stays_exact_in_int64_at_the_largest_small_prime():
    # every product of entries below p is reduced before n p^2 could pass 2^63
    p, rng = SMALL_PRIME, random.Random(29)
    ring = Zmod(p)

    def rank(a):
        return len(modp.rref(a, p)[1])

    for _ in range(30):
        n, k, j = rng.randint(20, 40), rng.randint(4, 12), rng.randint(0, 3)
        top = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(n)], dtype=np.int64)
        top[:, -1] = (top[:, 0] * rng.randrange(p) + top[:, 1] * rng.randrange(p)) % p
        b = top @ np.array([[rng.randrange(p) for _ in range(j)] for _ in range(k)], dtype=np.int64).reshape(k, j) % p
        q = Subquotient(ring, top, b)
        assert q.group == FGAbelianGroup(0, (p,) * (rank(top) - rank(b)))
        reps = q.torsion_reps
        for i, rep in enumerate(reps):
            assert q.lookup(rep) == tuple(int(i == t) for t in range(len(reps)))
        for _ in range(5):
            v = top @ np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64) % p
            w = (v + b @ np.array([rng.randrange(p) for _ in range(j)], dtype=np.int64)) % p
            assert q.lookup(v) == q.lookup(w)


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


@pytest.mark.parametrize("m", [4, 9, 12])
def test_random_generators_run_over_z_mod_m_and_refuse_z(m):
    rng = random.Random(m)
    for _ in range(10):
        x = random_complex(Zmod(m), rng, n_degrees=4, max_rank=3)
        y = random_complex(Zmod(m), rng, n_degrees=4, max_rank=3)
        f = random_chain_map(x, y, rng)  # constructors validate
        assert f.source == x and f.target == y
    with pytest.raises(ComplexError, match="finite coefficient ring"):
        random_complex(ZZ, rng, n_degrees=2, max_rank=2)
    z = Complex(ZZ, {0: 1}, {})
    with pytest.raises(ComplexError, match="finite coefficient ring"):
        random_chain_map(z, z, rng)


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
                cone_map(cn, incl, Homotopy._of(k.lhs, k.rhs, {}))
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


@pytest.mark.parametrize("ring", [ZZ, Zmod(3), Zmod(4)], ids=["Z", "F3", "Z4"])
def test_section_answers_empty_shapes_without_a_kernel(ring, monkeypatch):
    def refuse(*args):
        raise AssertionError("Smith form or rref taken of an empty shape")

    monkeypatch.setattr("homcart.complexes.smith_normal_form", refuse)
    monkeypatch.setattr(modp, "rref", refuse)
    for rows, cols in ((0, 3), (2, 0)):
        s, r = ring.section(np.zeros((rows, cols), dtype=ring.dtype))
        assert r == 0
        assert s.shape == (cols, rows)


@st.composite
def _solve_cases(draw):
    """(ring, a, b) over Z, Z/4, Z/12, Z/2^70 or F_1048583, a prime above
    2^20 solved by the Smith kernel; 0 x n and n x 0 shapes included, and b
    in the image of a about half the time."""
    m = draw(st.sampled_from([None, 4, 12, 2**70, 1048583]))
    bound = 2**80 if m == 2**70 else 30
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(-bound, bound)
    a = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=object).reshape(rows, cols)
    if draw(st.booleans()):
        b = a @ np.array(draw(st.lists(entries, min_size=cols, max_size=cols)), dtype=object).reshape(cols)
    else:
        b = np.array(draw(st.lists(entries, min_size=rows, max_size=rows)), dtype=object).reshape(rows)
    return Ring(m), a, b


def _spans(gens: np.ndarray, vectors: np.ndarray, m) -> bool:
    """Whether every column of vectors is a combination of the columns of
    gens, over Z or mod m, as `solve_linear` decides it."""
    return all(solve_linear(IntMatrix(gens), list(v), modulus=m) is not None for v in vectors.T)


@settings(database=None, deadline=None, max_examples=300)
@given(case=_solve_cases())
@example(case=(ZZ, np.zeros((0, 3), dtype=object), np.zeros(0, dtype=object)))
@example(case=(Zmod(12), np.zeros((2, 0), dtype=object), np.array([0, 5], dtype=object)))
@example(case=(Zmod(2**70), np.zeros((2, 0), dtype=object), np.array([0, 2**70], dtype=object)))
def test_ring_solve_agrees_with_solve_linear(case):
    ring, a, b = case
    m = ring.modulus
    got, want = ring.solve(a, b), solve_linear(IntMatrix(a), list(b), modulus=m)
    assert (got is None) == (want is None)
    if got is None:
        return
    x, kernel = got
    ref = np.array(want[1], dtype=object).reshape(len(want[1]), a.shape[1]).T
    assert ring.is_zero(a @ x - b)
    assert kernel.shape[0] == a.shape[1] and ring.is_zero(a @ kernel)
    assert _spans(ref, kernel, m) and _spans(kernel, ref, m)
    # a solution that misses b by a nonzero column of a is refused
    wrong = next((j for j in range(a.shape[1]) if not ring.is_zero(a[:, j])), None)
    if wrong is not None:

        def off_by_one(*args):
            y = smith_solve(*args)
            y[wrong, 0] += 1
            return y

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homcart.complexes.smith_solve", off_by_one)
            with pytest.raises(AssertionError, match="non-solution"):
                ring.solve(a, b)


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


@pytest.mark.parametrize(
    "m", [2, 3, SMALL_PRIME, None, 4, 6, 9, 12], ids=["F2", "F3", "F1048573", "Z", "Z4", "Z6", "Z9", "Z12"]
)
def test_section_splits_random_matrices(m):
    from sympy import GF, Matrix
    from sympy import ZZ as SYMPY_ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.matrices import DomainMatrix

    ring = ZZ if m is None else Zmod(m)
    rng = random.Random(67)
    split = refused = 0
    for d in _random_matrices(ring, rng):
        got = ring.section(ring.asarray(d))
        if ring.is_prime_field:
            rank = DomainMatrix.from_Matrix(Matrix(d.tolist())).convert_to(GF(m)).rank()
        else:
            diag = sympy_snf(Matrix(d.tolist()), domain=SYMPY_ZZ)
            invariants = [abs(int(diag[i, i])) for i in range(min(d.shape)) if diag[i, i] != 0]
            # over Z/m, d_k t_k d_k = d_k is solvable when d_k is a unit modulo m / gcd(d_k, m)
            unit = (lambda x: x == 1) if m is None else (lambda x: math.gcd(x, m // math.gcd(x, m)) == 1)
            if not all(unit(x) for x in invariants):
                assert got is None
                refused += 1
                continue
            rank = len(invariants) if m is None else sum(1 for x in invariants if x % m)
        assert got is not None
        s, r = got
        assert r == rank and s.shape == (d.cols, d.rows)
        assert ring.is_zero((d @ IntMatrix(s) @ d - d).array)
        split += 1
    assert split >= 30
    # Z/6 is a product of fields: there, as over F_p, every matrix splits
    assert bool(refused) == (m in (None, 4, 9, 12))
    if ring.is_integers:
        assert ring.section(np.array([[2]], dtype=object)) is None


def _degreewise_invertible_maps():
    """Identity maps over Z, F_2 and F_3, the replayed units 1 + e + a e^2
    over F_2, F_3, Z/4 and Z/9, and the lemma2 witnesses over Z that are
    invertible in every degree."""
    maps = []
    for ring in (ZZ, Zmod(2), Zmod(3)):
        maps += [identity_map(c) for c in _corpus_complexes(ring)]
    for m in (2, 3, 4, 9):
        maps += [prop2_replay(t.morphism).automorphism for t in fuzz_prop2(m, trials=6, seed=5)]
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
        Homotopy(h.lhs, h.rhs, h.components())
        g = homotopy_inverse(f, h)
        assert g.compose(f) == identity_map(f.source)
        assert f.compose(g) == identity_map(f.target)


def _block_sum(f: ChainMap, k: int) -> ChainMap:
    """The k-fold direct sum f + ... + f as one block-diagonal chain map."""
    src, tgt = f.source, f.target
    for _ in range(k - 1):
        src, tgt = direct_sum(src, f.source), direct_sum(tgt, f.target)
    comps = {}
    for i in src.degrees():
        if tgt.rank(i):
            c, zero = f.component(i), IntMatrix.zeros(*f.component(i).shape)
            comps[i] = IntMatrix.block([[c if r == s else zero for s in range(k)] for r in range(k)])
    return ChainMap(src, tgt, comps)


def test_the_closed_form_contraction_takes_no_smith_form(monkeypatch):
    import homcart.complexes as complexes
    import homcart.intmat as intmat

    star = build_star(5)
    b, g = _block_sum(star.morphism.q, 3), _block_sum(star.upper.g, 3)
    maps = [*_degreewise_invertible_maps(), identity_map(cone_complex(pair(b, g)))]

    def refuse(*args):
        raise AssertionError("a degreewise invertible map took a Smith form")

    monkeypatch.setattr(complexes, "smith_normal_form", refuse)
    monkeypatch.setattr(intmat, "smith_normal_form", refuse)
    blocks = [is_homotopy_equivalence(f).blocks_to_json() for f in maps]
    # the contractions as the Smith-form sections gave them: the inverse is unique
    digest = hashlib.sha256(json.dumps(blocks).encode()).hexdigest()
    assert digest == "593ea75aaebab5742e76742b49921c1ff155d26b10f13015f6966cd44b0342f9"


def test_a_wrong_inverse_raises_rather_than_reading_as_no_equivalence(monkeypatch):
    import homcart.intmat as intmat

    monkeypatch.setattr(intmat, "inverse", lambda a, m=None: IntMatrix(2 * np.eye(a.rows, dtype=np.int64)))
    with pytest.raises(AssertionError, match="non-inverse"):
        is_homotopy_equivalence(identity_map(one_term()))


def test_inverses_over_small_prime_fields_take_no_rref(monkeypatch):
    maps = [f for f in _degreewise_invertible_maps() if f.source.ring.modulus in (2, 3)]
    assert {f.source.ring.modulus for f in maps} == {2, 3}

    def refuse(*args):
        raise AssertionError("an inverse took an rref")

    monkeypatch.setattr(modp, "rref", refuse)
    for f in maps:
        assert is_homotopy_equivalence(f) is not None


def test_a_residue_block_in_a_map_over_z_computes_over_z():
    z = Complex(ZZ, {0: 1}, {})
    g = ChainMap(z, z, {0: Zmod(3).matrix([[2]])})
    assert g == ChainMap(z, z, {0: IntMatrix([[2]])})
    assert type(g.component(0)) is IntMatrix
    assert g.compose(g).component(0) == IntMatrix([[4]])


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


def _random_zm_complex(ring, rng):
    """A random complex over Z/m in degrees 0, 1, 2: d(0) is random, and
    d(1) a random combination of generators of {X : X d(0) = 0 mod m}."""
    m = ring.modulus
    n0, n1, n2 = (rng.randint(1, 2) for _ in range(3))
    d0 = np.array([[rng.randrange(m) for _ in range(n0)] for _ in range(n1)], dtype=object)
    # X is n2 x n1, read row-major
    d1 = _random_combo(ring.kernel(np.kron(np.eye(n2, dtype=object), d0.T)), rng, m).reshape(n2, n1)
    return Complex(ring, {0: n0, 1: n1, 2: n2}, {0: IntMatrix(d0), 1: IntMatrix(d1)})


def _random_zm_map(x, y, rng):
    hom = HomComplex(x, y)
    return hom.chain_map(_random_combo(x.ring.kernel(hom.D(0)), rng, x.ring.modulus))


ZM_MODULI = (4, 6, 9, 12)


def test_contractibility_agrees_with_the_generic_solve_on_the_triangle_corpus():
    """Over Z, and over Z/m on the corpus reduced mod m and on random Z/m
    complexes and cones of their random endomorphisms."""
    maps = corpus(random.Random(73))
    maps += [identity_map(f.source) for f in maps]
    cs = [cone_complex(g) for g in maps + [reduce_mod(f, m) for f in maps for m in ZM_MODULI]]
    rng = random.Random(79)
    for m in ZM_MODULI:
        for _ in range(12):
            x = _random_zm_complex(Zmod(m), rng)
            cs += [x, cone_complex(_random_zm_map(x, x, rng))]
    seen = {}
    for cn in cs:
        got = is_contractible(cn) is not None
        assert got == (homotopic(identity_map(cn), zero_map(cn, cn)) is not None)
        seen.setdefault(cn.ring, set()).add(got)
    assert len(seen) == 1 + len(ZM_MODULI)
    assert all(answers == {True, False} for answers in seen.values())


def test_z9_contractions_solve_no_hom_system_and_a_solve_takes_one_smith_form(monkeypatch):
    import homcart.intmat as intmat

    def refuse(*args):
        raise AssertionError("homotopic reached from a contraction")

    monkeypatch.setattr("homcart.complexes.homotopic", refuse)
    ring = Zmod(9)
    one = one_term(ring=ring)
    assert is_contractible(two_term(4, ring=ring)) is not None
    assert is_contractible(two_term(3, ring=ring)) is None  # 3 has no section mod 9
    assert is_contractible(one) is None  # every section exists, the check fails
    assert is_contractible(cone_complex(identity_map(two_term(3, ring=ring)))) is not None
    assert is_homotopy_equivalence(cmap(one, one, {0: [[4]]})) is not None  # closed form
    assert is_homotopy_equivalence(cmap(one, one, {0: [[3]]})) is None
    assert is_homotopy_equivalence(reduce_mod(lemma2(4, 3, -3).witness, 9)) is not None

    shapes = []
    real = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form", lambda a, modulus=None: shapes.append(a.shape) or real(a, modulus))
    for rows, b in (([[3, 6], [0, 9]], [3, 0]), ([[2, 4, 8]], [5]), ([[9], [3]], [1, 2]), ([[], []], [0, 9])):
        a = IntMatrix(rows)
        shapes.clear()
        intmat.solve_linear(a, b, modulus=9)
        assert shapes == [a.shape]


def test_cone_homotopy_is_the_null_homotopy_zero_one_over_z_z9_f3():
    rng = random.Random(59)
    checked = 0
    for f in corpus(rng):
        for g in (f, reduce_mod(f, 9), reduce_mod(f, 3)):
            cn, incl, _ = cone(g)
            k = cone_homotopy(incl, g)
            assert k.lhs == incl.compose(g) and k.rhs == zero_map(g.source, cn)
            Homotopy(k.lhs, k.rhs, k.components())
            x, y = g.source, g.target
            for i in x.degrees():
                assert k.component(i) == IntMatrix.vstack(
                    [IntMatrix.zeros(y.rank(i - 1), x.rank(i)), IntMatrix(np.eye(x.rank(i), dtype=np.int64))]
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
    """blocks with a random matrix added to one block of the layout, as
    IntMatrix entries (an F_p block is read by its residues)."""
    out = dict(blocks)
    if layout:
        i, r, c, _ = rng.choice(layout)
        out[i] = IntMatrix(out.get(i, IntMatrix.zeros(r, c))) + _random_block(r, c, rng)
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


_EQUATION_RINGS = pytest.mark.parametrize(
    "ring", [ZZ, Zmod(9), Zmod(4), Zmod(3), Zmod(2)], ids=["Z", "Z9", "Z4", "F3", "F2"]
)


@_EQUATION_RINGS
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


@_EQUATION_RINGS
def test_homotopies_raise_exactly_where_their_witness_equation_fails(ring):
    maps, rng = _graded_cases(ring)
    raised = 0
    for f in maps:
        x, y, hom = f.source, f.target, HomComplex(f.source, f.target)
        dm1, lay = ZZ.asarray(hom.D(-1)), hom.layout(-1)
        h = {i: _random_block(r, c, rng) for i, r, c, _ in lay}
        g = hom.chain_map(ZZ.asarray(hom.vec(f)) - dm1 @ _vector(lay, h))
        for comps in (h, _perturbed(h, lay, rng)):
            miss = dm1 @ _vector(lay, comps) - ZZ.asarray(hom.vec(f)) + ZZ.asarray(hom.vec(g))
            bad = _first_nonzero_block(hom.layout(0), miss, ring.modulus)
            _raises_at(lambda: Homotopy(f, g, comps), bad)
            raised += bad is not None
    assert raised


@_EQUATION_RINGS
def test_complexes_raise_exactly_where_a_product_of_differentials_is_nonzero(ring):
    maps, rng = _graded_cases(ring)
    raised = 0
    for c in [c for f in maps for c in (f.source, f.target, cone_complex(f))]:
        for diffs in (c.components(), _perturbed(c.components(), HomComplex(c, c).layout(1), rng)):
            bad = _first_nonzero_square(Complex(ring, c._ranks, diffs, check=False))
            _raises_at(lambda: Complex(ring, c._ranks, diffs), bad)
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


# ---------------------------------------------------------------------------
# blocks built by the ring, and complexes built without a d o d check


@pytest.mark.parametrize("p", [2, 3, 1048573])
def test_small_prime_fields_build_residue_blocks_and_read_them_back_unconverted(p, monkeypatch):
    """F_p maps store int64 residues, and the ring's sections and inverses
    read those stored arrays themselves."""
    ring = Zmod(p)
    m = ring.matrix([[p + 1, -1], [2 * p, 5]])
    assert type(m) is IntMatrix and m == IntMatrix([[1, p - 1], [0, 5 % p]])
    assert ring.asarray(m).dtype == np.int64 and ring.asarray(m).tolist() == m.tolist()
    c = cpx({0: 2, 1: 2}, {0: [[1, 0], [0, 0]]}, ring=ring)
    f = identity_map(c)
    cn, incl, proj = cone(f)
    built = [c, f, cn, incl, proj, direct_sum(c, c), cone_homotopy(incl, f), is_homotopy_equivalence(f)]
    for obj in [*built, is_contractible(cn)]:
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in obj._blocks.values())
    seen, section, inverse = [], Ring.section, Ring.inverse
    monkeypatch.setattr(Ring, "section", lambda self, d: seen.append(d) or section(self, d))
    monkeypatch.setattr(Ring, "inverse", lambda self, a: seen.append(a) or inverse(self, a))
    assert is_contractible(cn) is not None and is_homotopy_equivalence(f) is not None
    stored = [*cn._blocks.values(), *f._blocks.values()]
    assert len(seen) == len(cn.degrees()) + len(f._blocks) and all(a.dtype == np.int64 for a in seen)
    assert all(any(a is b for b in stored) for a in seen if a.size)


_EDGE_RINGS = [ZZ, Zmod(4), Zmod(2), Zmod(3), Zmod(1048573), Zmod(1048583)]


@pytest.mark.parametrize("ring", _EDGE_RINGS, ids=["Z", "Z4", "F2", "F3", "F1048573", "Z1048583"])
def test_every_edge_block_is_an_exact_copy_of_the_stored_residues(ring):
    """`component`, `components` and `differential` hand out IntMatrix
    blocks of Python ints equal to the stored arrays; those stay read-only
    arrays of the ring's dtype, int64 on the small prime fields, where the
    block is a copy and not the stored array itself."""
    rng = random.Random(37)
    x, y = (_random_complex_over(ring, rng) for _ in range(2))
    f = _random_map(x, y, rng)
    cn, incl, proj = cone(f)
    objects = [x, y, f, cn, incl, proj, cone_homotopy(incl, f), homotopic(f, f)]
    objects.append(is_contractible(cone_complex(identity_map(x))))
    assert ring.dtype == (np.int64 if ring.is_small_prime_field else object)
    for obj in objects:
        edges = obj.components()
        assert edges.keys() == obj._blocks.keys()
        for i, a in obj._blocks.items():
            assert a.dtype == ring.dtype and not a.flags.writeable
            for block in (edges[i], obj.component(i)):
                assert type(block) is IntMatrix and block.array.dtype == object and not block.array.flags.writeable
                assert all(type(v) is int for v in block.array.flat) and block.tolist() == a.tolist()
                assert (block.array is a) != ring.is_small_prime_field
    for i in x.degrees():
        assert x.differential(i) == x.component(i)


def test_products_of_large_prime_field_blocks_are_exact():
    """Blocks of F_1048573 multiply as exact integers: the int64 product of
    the same entries overflows."""
    p = 1048573
    c = cpx({0: 3, 1: 3}, ring=Zmod(p))
    f = cmap(c, c, {0: [[p - 1] * 3] * 3, 1: [[p - 2] * 3] * 3})
    a, b = f.component(0), f.component(1)
    exact = [[9 * (p - 1) ** 2 * (p - 2)] * 3] * 3
    assert (a @ b @ a).tolist() == exact and (a @ b @ a).array.dtype == object
    stored = f._blocks[0] @ f._blocks[1] @ f._blocks[0]
    assert stored.dtype == np.int64 and stored.tolist() != exact


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(1048583)], ids=["Z", "Z4", "prime-above-2^20"])
def test_other_rings_keep_exact_blocks(ring):
    c = cpx({0: 1, 1: 1}, {0: [[2]]}, ring=ring)
    cn = cone_complex(identity_map(c))
    built = [c.differential(0), c.differential(5), *identity_map(c).components().values(), ring.matrix([[7]])]
    for b in [*built, *cn.components().values()]:
        assert type(b) is IntMatrix and b.array.dtype == object


def test_smith_over_z12_keeps_every_transform_entry_reduced():
    rng, ring = random.Random(12), Zmod(12)
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        a = np.array([[rng.randrange(-50, 50) for _ in range(c)] for _ in range(r)], dtype=object)
        u, diag, v, uinv = ring.smith(a)
        assert all(0 <= x < 12 for t in (u, v, uinv) for x in t.flat)
        d = np.zeros((r, c), dtype=object)
        d[range(len(diag)), range(len(diag))] = diag
        assert not ((u @ a @ v - d) % 12).any()
        assert not ((u @ uinv - np.eye(r, dtype=object)) % 12).any()
        orders = [math.gcd(x, 12) for x in diag]
        assert all(y % x == 0 for x, y in zip(orders, orders[1:]))


def test_inverses_read_off_sections_over_z_and_fp_and_determinants_elsewhere():
    import homcart.complexes as complexes

    inverse = complexes._inverse_components
    z, plane = one_term(), cpx({0: 2})
    assert inverse(cmap(z, z, {0: [[2]]})) is None
    assert inverse(cmap(plane, plane, {0: [[1, 2], [0, 1]]}))[0].tolist() == [[1, -2], [0, 1]]
    f3, plane3 = one_term(ring=Zmod(3)), cpx({0: 2}, ring=Zmod(3))
    assert inverse(cmap(f3, f3, {0: [[2]]}))[0].tolist() == [[2]]
    assert inverse(cmap(plane3, plane3, {0: [[1, 2], [2, 1]]})) is None
    # over Z/6 the section 2 of 2 has full rank, and 2 is still no unit
    z6 = one_term(ring=Zmod(6))
    assert Zmod(6).section(np.array([[2]], dtype=object))[1] == 1
    assert inverse(cmap(z6, z6, {0: [[2]]})) is None
    assert inverse(cmap(z6, z6, {0: [[5]]}))[0].tolist() == [[5]]


def _first_nonzero_square(c: Complex) -> int | None:
    """The least degree i with d(i+1) d(i) nonzero, from the entries, not by
    `Complex`; None when every square is zero."""
    m = c.ring.modulus
    for i in c.degrees():
        prod = c.differential(i + 1).array.astype(object) @ c.differential(i).array.astype(object)
        if (prod % m if m else prod).any():
            return i
    return None


def _squares_to_zero(c: Complex) -> bool:
    return _first_nonzero_square(c) is None


def _structural_inputs() -> list[tuple[Complex, Complex, ChainMap]]:
    """(x, y, f : x -> y): random complexes and chain maps over F_2, F_3 and
    Z/4, and the maps of the star diagram's rows over Z."""
    rng, out = random.Random(83), []
    for ring in (Zmod(2), Zmod(3), Zmod(4)):
        for _ in range(15):
            x, y = random_complex(ring, rng, 4, 3), random_complex(ring, rng, 4, 3)
            out.append((x, y, random_chain_map(x, y, rng)))
    for a in (2, 3, 5):
        star = build_star(a)
        out += [(f.source, f.target, f) for row in (star.upper, star.lower) for f in row.maps()]
    return out


def test_shift_direct_sum_and_cones_square_to_zero_without_a_check():
    for x, y, f in _structural_inputs():
        for c in (shift(x), shift(shift(y)), direct_sum(x, y), direct_sum(y, shift(x)), cone_complex(f)):
            assert _squares_to_zero(c), c
        assert _squares_to_zero(shift(cone_complex(f))) and _squares_to_zero(direct_sum(cone_complex(f), x))


def test_contractions_visit_only_the_degrees_of_the_complex(monkeypatch):
    n, shapes, real = 10**6, [], Ring.section
    monkeypatch.setattr(Ring, "section", lambda self, d: shapes.append(d.shape) or real(self, d))
    h = is_contractible(cpx({0: 1, 1: 1, n: 1, n + 1: 1}, {0: [[1]], n: [[1]]}))
    assert h is not None and h.component(1).tolist() == [[1]] and h.component(n + 1).tolist() == [[1]]
    assert len(shapes) == 4


def test_unchecked_complexes_skip_only_the_d_squared_check():
    diffs = {0: IntMatrix([[1]]), 1: IntMatrix([[1]])}
    with pytest.raises(ComplexError):
        Complex(ZZ, {0: 1, 1: 1, 2: 1}, diffs)
    assert not _squares_to_zero(Complex(ZZ, {0: 1, 1: 1, 2: 1}, diffs, check=False))
    with pytest.raises(ComplexError):  # block shapes are still checked
        Complex(ZZ, {0: 1, 1: 2}, {0: IntMatrix([[1]])}, check=False)


_TRUSTED_RINGS = [ZZ, Zmod(2), Zmod(3), Zmod(4), Zmod(9), Zmod(12)]


def _random_complex_over(ring, rng) -> Complex:
    return _random_z_complex(rng) if ring.is_integers else random_complex(ring, rng, 3, 3)


def _random_map(x, y, rng) -> ChainMap:
    return random_z_chain_map(x, y, rng) if x.ring.is_integers else random_chain_map(x, y, rng)


def _assert_ring_made(ring, blocks: dict):
    """Every edge block exact: an IntMatrix of Python ints, in [0, m) over
    Z/m."""
    for m in blocks.values():
        a = m.array
        assert type(m) is IntMatrix and all(type(v) is int for v in a.flat)
        assert ring.is_integers or all(0 <= v < ring.modulus for v in a.flat)


def _assert_stored(ring, obj):
    """Every block obj stores is a read-only array of the ring's dtype,
    canonical for the ring, and its component is an exact read-only block
    of its entries, which refuses a write: over Z and Z/m the stored array
    itself, on a small prime field a copy."""
    assert obj._blocks.keys() == obj.components().keys()
    for i, a in obj._blocks.items():
        assert type(a) is np.ndarray and a.dtype == ring.dtype and not a.flags.writeable
        if ring.is_small_prime_field:
            assert ((a >= 0) & (a < ring.modulus)).all()
        else:
            assert all(type(v) is int and (ring.is_integers or 0 <= v < ring.modulus) for v in a.flat)
        block = obj.component(i)
        assert type(block) is IntMatrix and block.tolist() == a.tolist()
        assert (block.array is a) != ring.is_small_prime_field
        assert not block.array.flags.writeable and block == obj.component(i)
        if a.size:
            with pytest.raises(ValueError):
                block.array[0, 0] = 1
            with pytest.raises(ValueError):
                a[0, 0] = 1


def _assert_as_if_checked(obj):
    """obj equals itself rebuilt from its blocks by its checked constructor,
    with check=True: the same blocks in the same layout order, the same
    degrees and hash, and so do its ends; both store their blocks as the
    ring's read-only arrays."""
    if isinstance(obj, Complex):
        ring, again = obj.ring, Complex(obj.ring, dict(obj._ranks), obj.components())
        assert again == obj and again.degrees() == obj.degrees()
    elif isinstance(obj, ChainMap):
        ring, again = obj.source.ring, ChainMap(obj.source, obj.target, obj.components())
        assert again == obj and hash(again) == hash(obj)
        _assert_as_if_checked(obj.source)
        _assert_as_if_checked(obj.target)
    else:
        ring, again = obj.lhs.source.ring, Homotopy(obj.lhs, obj.rhs, obj.components())
        _assert_as_if_checked(obj.lhs)
        _assert_as_if_checked(obj.rhs)
    assert list(again.components().items()) == list(obj.components().items())
    _assert_ring_made(ring, obj.components())
    _assert_stored(ring, obj)
    _assert_stored(ring, again)


@settings(database=None, deadline=None, max_examples=60)
@given(ring=st.sampled_from(_TRUSTED_RINGS), seed=st.integers(0, 2**32), k=st.integers(-(2**70), 2**70))
def test_ring_made_maps_equal_their_checked_rebuilds(ring, seed, k):
    rng = random.Random(seed)
    x, y, z, w = (_random_complex_over(ring, rng) for _ in range(4))
    f, f2 = _random_map(x, y, rng), _random_map(x, y, rng)
    g, into, out_of = _random_map(y, z, rng), _random_map(x, z, rng), _random_map(w, y, rng)
    cn, incl, proj = cone(f)
    built = [
        g.compose(f), f.compose(_random_map(w, x, rng)), f + f2, f - f2, -f, f.scale(k), f.shift(),
        identity_map(x), zero_map(x, y), cn, incl, proj, cone_homotopy(incl, f),
        pair(f, into), copair(f, out_of), direct_sum(x, y), direct_sum(shift(x), shift(shift(y))), shift(x),
        cone_complex(f),
    ]
    # 1 + d h + h d: an equivalence, not always invertible in every degree
    hom = HomComplex(x, x)
    h = ring.asarray(np.array([rng.randint(-2, 2) for _ in range(hom.dim(-1))], dtype=object))
    e = identity_map(x) + hom.chain_map(hom.D(-1) @ h)
    contraction = is_homotopy_equivalence(identity_map(x))
    assert contraction is not None
    built += [contraction, homotopy_inverse(identity_map(x), contraction)]
    for candidate in (e, f):
        contraction = is_homotopy_equivalence(candidate)
        if contraction is not None:
            built += [contraction, homotopy_inverse(candidate, contraction)]
    # read-only as built: `component` freezes the array it wraps, so this
    # looks before any block is read
    assert all(not a.flags.writeable for obj in built for a in obj._blocks.values())
    for obj in built:
        _assert_as_if_checked(obj)
    # the map of an unreduced Hom vector of Python ints, as the squares
    # search walks them: reduced, and owning its entries
    hom = HomComplex(x, y)
    v = np.asarray(hom.vec(f), dtype=object) + 7 * (ring.modulus or 0)
    g = hom.chain_map(v)
    _assert_as_if_checked(g)
    assert g.components() == {i: ring.matrix(np.asarray(v[o : o + r * c]).reshape(r, c)) for i, r, c, o in hom.layout(0)}
    v += 1
    assert g == f and hash(g) == hash(f)


def test_a_map_hash_is_cached_unchanged_and_shared_by_equal_maps():
    rng = random.Random(7)
    for ring in (ZZ, Zmod(3), Zmod(12)):
        x, y = _random_complex_over(ring, rng), _random_complex_over(ring, rng)
        f = _random_map(x, y, rng)
        with pytest.raises(AttributeError):
            f._hash  # nothing is hashed until asked
        fresh = hash((f.source, f.target, tuple(f.components().items())))
        assert hash(f) == fresh and f._hash == fresh and hash(f) == fresh
        for same in (
            f.compose(identity_map(x)),
            identity_map(y).compose(f),
            f + zero_map(x, y),
            -(-f),
            f.scale(1),
            ChainMap(x, y, f.components()),
        ):
            assert same == f and hash(same) == hash(f)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Zmod(2.9),
        lambda: Zmod("7"),
        lambda: Ring(2.5),
        lambda: Ring(6.0),
        lambda: Ring(1),
        lambda: reduce_mod(two_term(3), 2.5),
        lambda: Complex(ZZ, {0: 1.9}, {}),
        lambda: Complex(ZZ, {"1": True}, {}),
    ],
    ids=["zmod-float", "zmod-str", "ring-float", "ring-integral-float", "ring-below-two", "reduce-mod", "rank", "degree"],
)
def test_moduli_degrees_and_ranks_are_read_by_the_integer_rule(build):
    with pytest.raises(ValueError):
        build()


def test_a_modulus_is_kept_as_a_plain_int():
    ring = Ring(np.int64(6))
    assert ring == Zmod(6) and type(ring.modulus) is int and str(ring) == "Z/6"
    c = Complex(ZZ, {np.int64(0): np.int8(1), True: 1}, {})
    assert c._ranks == {0: 1, 1: 1} and all(type(v) is int for kv in c._ranks.items() for v in kv)


def test_a_homotopy_has_no_unchecked_entry_point_but_the_ring_made_one():
    f = identity_map(two_term(3))
    with pytest.raises(TypeError):
        Homotopy(f, f, {}, check=False)
    with pytest.raises(ComplexError):
        Homotopy(f, zero_map(f.source, f.target), {})


def _wrong_cone_map():
    x = one_term()
    f = identity_map(x)
    cn, incl, _ = cone(f)
    k = homotopic(incl.compose(f), zero_map(x, cn))
    return cone_map(x, incl, k)


_X, _Y = one_term(), two_term(2)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ChainMap(one_term(), one_term(Zmod(3)), {}), ComplexError),
        (lambda: HomComplex(one_term(), one_term(Zmod(3))), ComplexError),
        (lambda: HomComplex(_Y, _Y).chain_map(np.array([1, 0], dtype=object)), ComplexError),
        (lambda: identity_map(_X).compose(identity_map(_Y)), DimensionMismatch),
        (lambda: identity_map(_X) + identity_map(_Y), DimensionMismatch),
        (lambda: identity_map(_X) - identity_map(_Y), DimensionMismatch),
        (lambda: direct_sum(one_term(), one_term(Zmod(3))), ComplexError),
        (_wrong_cone_map, ComplexError),
        (lambda: homotopy_inverse(identity_map(_X), is_contractible(cone_complex(identity_map(_Y)))), ComplexError),
        (lambda: pair(identity_map(_X), identity_map(_Y)), ComplexError),
        (lambda: copair(identity_map(_X), identity_map(_Y)), ComplexError),
        (lambda: hom_group(_X, _X).lookup(identity_map(_Y)), DimensionMismatch),
        (lambda: reduce_mod(one_term(Zmod(3)), 3), ComplexError),
        (lambda: reduce_mod(IntMatrix([[1]]), 3), TypeError),
        (lambda: end_structure_mod_p(one_term(Zmod(4))), ComplexError),
        (lambda: end_structure_mod_p(one_term()), ComplexError),
    ],
    ids=[
        "chain-map-across-rings",
        "hom-across-rings",
        "chain-map-of-a-non-cocycle",
        "compose",
        "add-not-parallel",
        "sub-not-parallel",
        "direct-sum-across-rings",
        "cone-map-wrong-cone",
        "homotopy-inverse-wrong-cone",
        "pair",
        "copair",
        "lookup-foreign-map",
        "reduce-mod-of-z-mod-m",
        "reduce-mod-unsupported",
        "end-structure-z-mod-4",
        "end-structure-z",
    ],
)
def test_complexes_refuses_what_does_not_fit(build, error):
    with pytest.raises(error):
        build()
