"""Cross-module soundness properties beyond the acceptance criteria."""

import json

from homcart.complexes import cone, homology, is_homotopy_equivalence
from homcart.squares import (
    SearchConfig,
    fits_vertical_iso,
    is_homotopy_cartesian,
    square_from_cone,
)
from homcart.suite import build_star, data_dir, fuzz_prop2, lemma2, verify_paper
from homcart.triangles import standard_triangle

from helpers import cmap, composites_null, cpx, one_term, two_term


def test_golden_reports_byte_identical():
    for a in (3, 5, 12):
        report = verify_paper(a)
        rendered = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        stored = (data_dir() / "golden" / f"paper-a{a}.json").read_text(encoding="utf-8")
        assert rendered == stored, f"golden report drift at a={a}"


def yes_corpus():
    out = []
    b_obj = two_term(3)
    out.append(square_from_cone(cmap(b_obj, one_term(), {0: [[2]]}), cmap(b_obj, one_term(), {0: [[5]]})))
    c9 = two_term(9)
    out.append(square_from_cone(cmap(c9, c9, {0: [[2]], 1: [[2]]}), cmap(c9, one_term(), {0: [[1]]})))
    wide = cpx({-1: 1, 0: 2}, {-1: [[-27], [9]]})
    out.append(
        square_from_cone(
            cmap(wide, one_term(degree=-1), {-1: [[2]]}),
            cmap(wide, wide, {-1: [[1]], 0: [[1, 0], [0, 1]]}),
        )
    )
    return out


def test_yes_corpus_never_no_certified_for_any_modulus():
    # a certified refutation must never appear on squares with a known
    # integral witness, whatever moduli are scheduled
    config = SearchConfig(extra_moduli=(4, 9, 25, 49))
    for sq in yes_corpus():
        verdict = is_homotopy_cartesian(sq, config)
        assert verdict.is_yes
        assert not verdict.is_no


def test_refutation_reruns_identically():
    star = build_star(3)
    first = is_homotopy_cartesian(star.middle)
    second = is_homotopy_cartesian(star.middle)
    assert first.kind == second.kind == "no"
    assert first.modulus == second.modulus == 9
    assert first.exhausted == second.exhausted == 2


def test_fuzz_squares_fit_vertical_iso():
    for p in (2, 3):
        for trial in fuzz_prop2(p, trials=25, seed=42):
            tb = standard_triangle(trial.square.b)
            tc = standard_triangle(trial.square.c)
            verdict = fits_vertical_iso(trial.square, tb, tc)
            assert verdict.is_yes, (p, trial.index, verdict.kind, verdict.reason)


def test_equivalence_witnesses_preserve_homology():
    # every produced comparison witness identifies the homology of its
    # endpoints, degree by degree
    for a in (3, 5):
        for k in (1, 2, 3, 4):
            inst = lemma2(k, a, b=-a)
            assert is_homotopy_equivalence(inst.witness) is not None
            cn, _, _ = cone(inst.triangle.f)
            hs, ht = homology(cn), homology(inst.triangle.z)
            degrees = set(hs) | set(ht)
            from homcart.intmat import FGAbelianGroup

            for i in degrees:
                assert hs.get(i, FGAbelianGroup(0)) == ht.get(i, FGAbelianGroup(0)), (k, a, i)


def test_reduced_homotopy_witness_stays_witness():
    from homcart.complexes import reduce_mod

    star = build_star(3)
    w = star.middle.witness
    for m in (4, 9, 25):
        reduced = reduce_mod(w, m)  # Homotopy construction re-validates
        assert reduced is not None


def test_composite_base_ring_certified_refutation():
    # over Z/4 with an empty initial corner, the decision reduces to whether
    # (g', -c) itself is an equivalence; a 1x2 map between one-degree
    # complexes never is, so the full class enumeration certifies the no
    from homcart.complexes import ChainMap, Complex, Zmod, zero_map
    from homcart.intmat import IntMatrix
    from homcart.squares import CommutativeSquare

    ring = Zmod(4)
    empty = Complex(ring, {}, {})
    pt = Complex(ring, {0: 1}, {})
    sq = CommutativeSquare(
        zero_map(empty, pt),
        ChainMap(pt, pt, {0: IntMatrix([[1]])}),
        zero_map(empty, pt),
        ChainMap(pt, pt, {0: IntMatrix([[2]])}),
    )
    verdict = is_homotopy_cartesian(sq)
    assert verdict.is_no
    assert verdict.modulus == 4
    assert verdict.exhausted == 1


def test_middle_square_is_cartesian_over_its_residue_ring():
    # the obstruction lives over Z: reduced into its own residue ring Z/9 the
    # square becomes homotopy cartesian, because 1 + a turns into a unit
    from homcart.squares import reduce_square

    reduced = reduce_square(build_star(3).middle, 9)
    verdict = is_homotopy_cartesian(reduced)
    assert verdict.is_yes


def test_yes_verdict_extends_to_verified_triangle():
    # closing the loop: the transported third map completes the diagonal
    # sequence to a triangle that certifies against the returned witness
    from homcart.squares import diagonal
    from homcart.triangles import Triangle, verify_distinguished_with_witness

    for sq in yes_corpus():
        verdict = is_homotopy_cartesian(sq)
        assert verdict.is_yes
        third = verdict.details["third_map"]
        seq = diagonal(sq)
        tri = Triangle(seq.first, seq.second, third)
        assert composites_null(tri)
        check = verify_distinguished_with_witness(tri, verdict.witness)
        assert check.ok, check.failures


def test_rotation_certificates_on_dataset_triangles():
    # rotation preserves certified distinguishedness: for every stored
    # triangle a rotated witness is produced by the search engine and then
    # re-checked, never assumed
    from homcart.squares import rotation_comparison
    from homcart.triangles import rotate, verify_distinguished_with_witness

    for k in (1, 2, 3, 4):
        for a in (3, 0, -2):
            t = lemma2(k, a, b=-a).triangle
            verdict = rotation_comparison(t)
            assert verdict.is_yes, (k, a, verdict.kind, verdict.reason)
            check = verify_distinguished_with_witness(rotate(t), verdict.witness)
            assert check.ok, (k, a, check.failures)


def test_low_parameter_values_decide_yes_with_witnesses():
    # below the claimed range the obstruction degenerates and the integral
    # search finds genuine witnesses; recorded as observations, the dataset
    # itself asserts nothing here
    for a in (1, 2):
        report = verify_paper(a)
        assert not report.claimed
        assert report.claim1.is_yes
        assert report.claim2.is_yes
        assert all(ok for (_, _, _, ok) in report.lemma2_results)


def test_concurrent_use_is_safe_and_deterministic():
    # everything is a pure function over immutable values; concurrent runs
    # must agree with each other and with the sequential result
    import json as _json
    from concurrent.futures import ThreadPoolExecutor

    def run(_):
        return _json.dumps(verify_paper(3).to_json(), sort_keys=True)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(4)))
    assert len(set(results)) == 1
    assert results[0] == _json.dumps(verify_paper(3).to_json(), sort_keys=True)


def test_units_of_mixed_end_ring_have_sign_free_coordinate():
    # the refutation enumerates +-identity + torsion as the only possible
    # unit classes when the endomorphism group has free rank one; check that
    # classification exhaustively on End = Z + Z/9 + Z/9
    from itertools import product as _product

    from homcart.complexes import direct_sum, hom_group, is_homotopy_equivalence, zero_map
    from homcart.intmat import FGAbelianGroup

    c = direct_sum(one_term(), two_term(9))
    end = hom_group(c, c)
    assert end.group == FGAbelianGroup(1, (9, 9))
    free = end.free_reps
    tors = end.torsion_reps
    orders = end.group.invariant_factors
    units_by_coord = {}
    for n in range(-3, 4):
        for combo in _product(*(range(o) for o in orders)):
            phi = zero_map(c, c)
            if n:
                phi = phi + free[0].scale(n)
            for a, rep in zip(combo, tors):
                if a:
                    phi = phi + rep.scale(a)
            if is_homotopy_equivalence(phi) is not None:
                units_by_coord[n] = units_by_coord.get(n, 0) + 1
    assert set(units_by_coord) == {1, -1}
    assert units_by_coord[1] == units_by_coord[-1] > 0
