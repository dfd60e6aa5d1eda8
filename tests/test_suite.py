import json

import numpy as np
import pytest

from homcart.complexes import ChainMap, ComplexError, Homotopy, Ring, Zmod, identity_map, is_homotopy_equivalence
from homcart.intmat import IntMatrix, ResidueMatrix
from homcart.jsonio import poly_eval
from homcart.squares import is_homotopy_cartesian
from homcart.suite import (
    _alpha_of,
    _functorial_completion,
    build_star,
    fuzz_prop2,
    lemma2,
    lemma2_verify,
    prop2_replay,
    report_text,
    verify_paper,
)
from homcart.triangles import standard_triangle, verify_triangle_morphism

from helpers import cmap, cpx, identity_morphism, one_term


def test_poly_eval():
    assert poly_eval("-a^3", a=3) == -27
    assert poly_eval("1+a", a=4) == 5
    assert poly_eval("1-a", a=4) == -3
    assert poly_eval("a^2", a=-5) == 25
    assert poly_eval("-1") == -1
    assert poly_eval("b", b=7) == 7
    assert poly_eval("2", a=9) == 2
    with pytest.raises(ValueError):
        poly_eval("c", a=1)


def test_lemma2_template_one_is_standard():
    inst = lemma2(1, a=3, b=5)
    # the witness is the identity: the triangle is a cone triangle on the nose
    assert all(
        m == IntMatrix.identity(m.rows) for m in inst.witness.components().values()
    )
    assert lemma2_verify(inst).ok


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lemma2_verifies_at_sample_parameters(k):
    for (a, b) in [(3, -3), (3, -27), (0, 1), (-2, 4), (5, 2)]:
        inst = lemma2(k, a, b)
        check = lemma2_verify(inst)
        assert check.ok, (k, a, b, check.failures)


def test_lemma2_witness_is_equivalence_example():
    inst = lemma2(2, a=3)
    assert is_homotopy_equivalence(inst.witness) is not None


def test_lemma2_flipped_sign_fails():
    # flipping one sign of the stored witness already breaks the chain-map
    # equation, which the constructor refuses
    inst = lemma2(2, a=3)
    comps = inst.witness.components()
    broken = dict(comps)
    m = comps[0].tolist()
    m[0][2] = -m[0][2]
    broken[0] = IntMatrix(m)
    from homcart.complexes import ChainMap, ComplexError

    with pytest.raises(ComplexError):
        ChainMap(inst.witness.source, inst.witness.target, broken)
    # a legal but wrong witness is rejected by the checker itself
    from homcart.triangles import verify_distinguished_with_witness

    check = verify_distinguished_with_witness(inst.triangle, inst.witness.scale(3))
    assert not check.ok
    assert check.failures


def test_build_star_rotation_equality_and_squares():
    star = build_star(3)
    assert all(w is not None for w in star.square_witnesses)
    # middle square data equals the stored transcription
    assert star.middle.b.component(-1) == IntMatrix([[1]])
    assert star.middle.b.component(0) == IntMatrix([[0, 1]])
    assert star.middle.g.component(-1) == IntMatrix([[3]])
    assert star.middle.g.component(0) == IntMatrix([[-1, 0]])
    assert star.middle.gprime.component(-1) == IntMatrix([[3]])
    assert star.middle.c.component(-1) == IntMatrix([[4]])


def test_build_star_various_a():
    for a in [3, 4, 12]:
        star = build_star(a)
        assert verify_triangle_morphism(star.morphism).ok


def test_star_strict_square_bookkeeping():
    star = build_star(3)
    # six displayed degreewise quadrangles across the three squares
    total = sum(len(v) for v in star.strict_squares.values())
    assert total == 6
    assert star.strict_squares["first"] == {"-1": True, "0": True}


@pytest.mark.parametrize("a", [3, 5])
def test_verify_paper_certifies_both_claims(a):
    report = verify_paper(a)
    assert report.all_ok
    assert report.claim1.is_no and report.claim1.modulus == a * a
    assert report.claim2.is_no and report.claim2.modulus == a * a
    assert report.implication_ok
    text = report_text(report)
    assert f"mod {a * a}" in text


def test_verify_paper_low_a_records_without_expectation():
    report = verify_paper(2)
    assert not report.claimed
    # verdicts are recorded whatever they are
    assert report.claim1.kind in ("yes", "no", "unknown")


def test_report_json_is_deterministic():
    r1 = json.dumps(verify_paper(3).to_json(), sort_keys=True)
    r2 = json.dumps(verify_paper(3).to_json(), sort_keys=True)
    assert r1 == r2


def test_fuzz_determinism():
    a = [
        (t.index, t.perturbed, t.square.b.components(), t.square.c.components())
        for t in fuzz_prop2(2, trials=8, seed=42)
    ]
    b = [
        (t.index, t.perturbed, t.square.b.components(), t.square.c.components())
        for t in fuzz_prop2(2, trials=8, seed=42)
    ]
    assert a == b


def test_fuzz_trials_verify_and_decide_yes():
    for trial in fuzz_prop2(3, trials=10, seed=7):
        assert verify_triangle_morphism(trial.morphism).ok
        verdict = is_homotopy_cartesian(trial.square)
        assert verdict.is_yes


def test_prop2_replay_on_unperturbed_and_perturbed():
    saw_perturbed = False
    for trial in fuzz_prop2(2, trials=20, seed=11):
        replay = prop2_replay(trial.morphism)
        if not trial.perturbed:
            # c = completion: psi can be zero and the unit the identity class
            assert replay.identity_on_c is not None
        else:
            saw_perturbed = True
    assert saw_perturbed


def test_transcription_error_on_tampered_data(tmp_path, monkeypatch):
    import shutil
    from homcart import suite

    src = suite.data_dir()
    work = tmp_path / "data"
    shutil.copytree(src, work)
    starfile = work / "star.json"
    text = starfile.read_text().replace('"-a^3"', '"-a^2"')
    starfile.write_text(text)
    monkeypatch.setenv("HOMCART_DATA", str(work))
    with pytest.raises(Exception):
        build_star(3)


def test_templates_are_parsed_once_per_content_and_checked_on_every_call(tmp_path, monkeypatch):
    import shutil
    from homcart import suite
    from homcart.suite import TranscriptionError

    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(suite.data_dir(), good)
    shutil.copytree(suite.data_dir(), bad)
    monkeypatch.setenv("HOMCART_DATA", str(bad))
    assert verify_paper(3).all_ok
    # a chain map still, but no longer the diagram's third vertical map
    starfile = bad / "star.json"
    star = json.loads(starfile.read_text())
    star["middle_square"]["c"]["components"]["-1"] = [["1-a"]]
    starfile.write_text(json.dumps(star))
    with pytest.raises(TranscriptionError):
        verify_paper(3)
    monkeypatch.setenv("HOMCART_DATA", str(good))
    assert verify_paper(3).all_ok
    monkeypatch.setenv("HOMCART_DATA", str(bad))
    with pytest.raises(TranscriptionError):
        build_star(3)
    # instantiating a template leaves its shared parse as the file reads
    monkeypatch.delenv("HOMCART_DATA")
    first, second = lemma2(1, 5, -5), lemma2(1, 5, -5)
    assert first.triangle == second.triangle and first.witness == second.witness
    raw = json.loads((suite.data_dir() / "lemma2-1.json").read_text(encoding="utf-8"))
    assert suite._load_template("lemma2-1.json") == raw


def test_star_morphism_with_shifted_c_fails():
    # adding the unit scalar to the third vertical component must break at
    # least one square of the diagram (the component is pinned mod a^2)
    from homcart.complexes import ChainMap
    from homcart.triangles import TriangleMorphism

    star = build_star(3)
    m = star.morphism
    shifted = {i: IntMatrix([[mat.entry(0, 0) + 1]]) for i, mat in m.r.components().items()}
    bad_r = ChainMap(m.r.source, m.r.target, shifted)
    bad = TriangleMorphism(m.source, m.target, m.p, m.q, bad_r)
    check = verify_triangle_morphism(bad)
    assert not check.ok
    assert check.failing_squares


def test_replay_is_trivial_without_perturbation(monkeypatch):
    # when the connecting map equals the completion, the correction vanishes
    # without a solve and the automorphism is the identity on the nose
    import homcart.suite as suite
    from homcart.complexes import identity_map

    def unsolved(*args):
        raise AssertionError("psi solved for although c equals the completion")

    monkeypatch.setattr(suite, "_ConstraintSystem", unsolved)
    plain = [trial for trial in fuzz_prop2(3, trials=12, seed=5) if not trial.perturbed]
    assert len(plain) >= 4
    for trial in plain:
        replay = prop2_replay(trial.morphism)
        assert replay.psi.is_zero()
        assert replay.epsilon.is_zero()
        assert replay.automorphism == identity_map(trial.morphism.target.z)


@pytest.mark.parametrize("m", [4, 9, 1048583], ids=["Z4", "Z9", "prime-above-2^20"])
def test_replay_runs_over_every_finite_ring(m):
    t = standard_triangle(identity_map(one_term(ring=Zmod(m))))
    replay = prop2_replay(identity_morphism(t))
    assert replay.completion_cartesian.is_yes
    assert replay.automorphism == identity_map(t.z)


def test_replay_refuses_the_integers():
    t = standard_triangle(identity_map(one_term()))
    with pytest.raises(ComplexError, match="finite coefficient ring"):
        prop2_replay(identity_morphism(t))


def _power(f: ChainMap, k: int) -> ChainMap:
    out = identity_map(f.source)
    for _ in range(k):
        out = out.compose(f)
    return out


# (m, seed): each stream has a perturbed trial whose epsilon is not nilpotent
ALPHA_STREAMS = [(2, 1), (3, 2), (4, 1), (9, 3), (12, 1), (1048573, 3)]


@pytest.mark.parametrize("m, seed", ALPHA_STREAMS, ids=[f"Z{m}" for m, _ in ALPHA_STREAMS])
def test_alpha_makes_the_correction_nilpotent_on_the_nose(m, seed):
    solved = 0
    for trial in fuzz_prop2(m, trials=10, seed=seed):
        if not trial.perturbed:
            continue
        eps = prop2_replay(trial.morphism).epsilon
        alpha = _alpha_of(eps)
        assert alpha.compose(eps) == eps.compose(alpha)
        eta = eps + alpha.compose(eps).compose(eps)
        assert _power(eta, eps.source.total_rank() * (m.bit_length() - 1)).is_zero()
        solved += not alpha.is_zero()
    assert solved


@pytest.mark.parametrize("m", [2, 3, 4, 9, 12, 1048573])
def test_alpha_of_a_nilpotent_epsilon_is_zero_without_a_solve(m, monkeypatch):
    import random

    def refuse(*args):
        raise AssertionError("a nilpotent epsilon reached Ring.solve")

    monkeypatch.setattr(Ring, "solve", refuse)
    rng = random.Random(m)
    z = cpx({0: 3, 1: 2}, ring=Zmod(m))
    upper = [[0, rng.randrange(1, m), rng.randrange(m)], [0, 0, rng.randrange(m)], [0, 0, 0]]
    nilpotent = [{0: upper}]
    k = {4: 2, 9: 3, 12: 6}.get(m)  # rad(m) * k = 0 modulo m: k times anything is nilpotent
    if k:
        nilpotent.append({i: [[k * rng.randrange(1, m // k)] * z.rank(i)] * z.rank(i) for i in z.degrees()})
    for blocks in nilpotent:
        eps = cmap(z, z, blocks)
        assert not eps.is_zero() and _alpha_of(eps).is_zero()


@pytest.mark.parametrize("m", [4, 9, 12])
def test_fuzzing_over_z_mod_m_decides_yes_and_replays(m):
    for trial in fuzz_prop2(m, 12, seed=42):
        assert verify_triangle_morphism(trial.morphism).ok
        verdict = is_homotopy_cartesian(trial.square)
        assert verdict.is_yes and verdict.witness is not None and verdict.equivalence is not None
        replay = prop2_replay(trial.morphism)
        assert replay.completion_cartesian.is_yes


def test_verify_paper_reuses_its_own_triangles(monkeypatch):
    # five instances; the star diagram's rows are rotations of two of them
    import homcart.suite as suite

    calls = []
    real = suite.lemma2

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(suite, "lemma2", counting)
    assert verify_paper(3).all_ok
    assert len(calls) == 5


@pytest.mark.parametrize("p", [2, 3])
def test_functorial_completion_is_the_block_map_b_0_0_1(p):
    for trial in fuzz_prop2(p, trials=20, seed=61):
        row1, row2, b = trial.morphism.source, trial.morphism.target, trial.morphism.q
        a_obj, b_obj, bp_obj = row1.x, row1.y, row2.y
        blocks = {
            i: IntMatrix.block(
                [
                    [b.component(i), IntMatrix.zeros(bp_obj.rank(i), a_obj.rank(i + 1))],
                    [IntMatrix.zeros(a_obj.rank(i + 1), b_obj.rank(i)), IntMatrix.identity(a_obj.rank(i + 1))],
                ]
            )
            for i in row1.z.degrees()
            if row2.z.rank(i)
        }
        completion = _functorial_completion(row1, row2, b)
        assert completion.source == row1.z and completion.target == row2.z
        assert completion.components() == {i: m.reduce_mod(p) for i, m in blocks.items()}


def _blocks(obj) -> list:
    """The blocks of a complex, chain map or homotopy, and of its ends."""
    if isinstance(obj, Homotopy):
        return [*obj.components().values(), *_blocks(obj.lhs), *_blocks(obj.rhs)]
    if isinstance(obj, ChainMap):
        return [*obj.components().values(), *_blocks(obj.source), *_blocks(obj.target)]
    return list(obj.components().values())


@pytest.mark.parametrize("p", [2, 3])
def test_fuzzed_maps_and_their_replays_keep_residue_blocks(p):
    for seed in (0, 1):
        for trial in fuzz_prop2(p, trials=5, seed=seed):
            m, sq = trial.morphism, trial.square
            verdict = is_homotopy_cartesian(sq)
            replay = prop2_replay(m)
            maps = [m.p, m.q, m.r, sq.witness, verdict.witness, verdict.equivalence, *verdict.constraint_witnesses]
            maps += [f for row in (m.source, m.target) for f in row.maps()]
            maps += [
                replay.completion, replay.psi, replay.epsilon, replay.alpha, replay.automorphism,
                replay.identity_on_c, replay.identity_on_gprime, replay.equivalence,
            ]
            for block in (b for f in maps for b in _blocks(f)):
                assert isinstance(block, ResidueMatrix) and block.p == p, type(block)
                a = block.array
                assert a.dtype == np.int64 and (a.size == 0 or (a.min() >= 0 and a.max() < p))


def test_reduced_smith_forms_decide_a_z12_square_and_a_large_prime_replay(monkeypatch):
    # a Subquotient over Z/12 and a constraint solve modulo a prime above
    # 2^20: unless reduced mod m, their Smith transforms reach thousands of digits
    from homcart import complexes, intmat

    largest, real = [], intmat.smith_normal_form

    def recording(a, modulus=None):
        s = real(a, modulus)
        largest.append((modulus, max((abs(x) for t in (s.u, s.v, s.uinv) for x in t.array.flat), default=0)))
        return s

    monkeypatch.setattr(intmat, "smith_normal_form", recording)
    monkeypatch.setattr(complexes, "smith_normal_form", recording)
    trial = list(fuzz_prop2(12, trials=20, seed=42))[17]
    assert is_homotopy_cartesian(trial.square).is_yes
    trial = list(fuzz_prop2(1048583, trials=2, seed=42))[1]
    assert trial.perturbed
    replay = prop2_replay(trial.morphism)
    assert replay.completion_cartesian.is_yes and not replay.psi.is_zero()
    assert {m for m, _ in largest} == {12, 1048583}
    assert all(x < m for m, x in largest)
