import json

import numpy as np
import pytest

from homcart.complexes import (
    ChainMap,
    ComplexError,
    Homotopy,
    Ring,
    Zmod,
    cone,
    cone_complex,
    identity_map,
    is_homotopy_equivalence,
    zero_map,
)
from homcart.intmat import IntMatrix, ResidueMatrix
from homcart.jsonio import chain_map_from_json, poly_eval, substitute, triangle_from_json
from homcart.squares import is_homotopy_cartesian
from homcart.suite import (
    Lemma2Instance,
    _alpha_of,
    _Polynomials,
    _functorial_completion,
    build_star,
    fuzz_prop2,
    lemma2,
    lemma2_verify,
    prop2_replay,
    report_text,
    verify_paper,
)
from homcart.triangles import TriangleMorphism, rotate, standard_triangle, verify_triangle_morphism

from helpers import NOT_DECIMAL, cmap, cpx, identity_morphism, one_term


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


# SHA-256 of the fuzz stream's trials, verdicts and replayed units over F_2,
# F_3, Z/4 and Z/9; see test_the_fuzz_stream_is_pinned
FUZZ_DIGEST = "a2eb8e61c3fab99da333af2608e0ed026769f7b8dc9bb52a0e21d5c9f722edda"


def test_the_fuzz_stream_is_pinned():
    # for each trial of fuzz_prop2(m, trials=25, seed=42): whether it was
    # perturbed, its maps q and r, the verdict of its square with the
    # verdict's source, and the automorphism 1 + e + a e^2 of its replay
    import hashlib

    out = []
    for m in (2, 3, 4, 9):
        for trial in fuzz_prop2(m, trials=25, seed=42):
            verdict = is_homotopy_cartesian(trial.square)
            out.append(
                [
                    m,
                    trial.index,
                    trial.perturbed,
                    trial.morphism.q.blocks_to_json(),
                    trial.morphism.r.blocks_to_json(),
                    verdict.to_json(),
                    verdict.details.get("source"),
                    prop2_replay(trial.morphism).automorphism.blocks_to_json(),
                ]
            )
    assert sum(perturbed for _, _, perturbed, *_ in out) >= 1
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == FUZZ_DIGEST


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


def test_templates_are_compiled_and_proved_once_per_content(tmp_path, monkeypatch):
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
    # a template is compiled once: the same compiled template serves every call
    monkeypatch.delenv("HOMCART_DATA")
    first, second = lemma2(1, 5, -5), lemma2(1, 5, -5)
    assert first.triangle == second.triangle and first.witness == second.witness
    assert suite._lemma2_template(1) is suite._lemma2_template(1)
    assert suite._star_template() is suite._star_template()


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
    # five triangles reported, backed by their templates' proofs; the star
    # comes from its own template, and only the two triangles that the
    # vertical comparison reads are built
    import homcart.suite as suite

    verify_paper(3)
    calls, built = [], []
    real_lemma2, real_triangle_at = suite.lemma2, suite._Lemma2Template.triangle_at

    def lemma2(*args, **kwargs):
        calls.append(args)
        return real_lemma2(*args, **kwargs)

    def triangle_at(self, *point):
        built.append((self.poly.name, *point))
        return real_triangle_at(self, *point)

    monkeypatch.setattr(suite, "lemma2", lemma2)
    monkeypatch.setattr(suite._Lemma2Template, "triangle_at", triangle_at)
    assert verify_paper(3).all_ok
    assert calls == []
    assert sorted(built) == [("lemma2-1.json", 3, -27), ("lemma2-4.json", 3)]


@pytest.mark.parametrize("p", [2, 3])
def test_functorial_completion_is_the_block_map_b_0_0_1(p):
    for trial in fuzz_prop2(p, trials=20, seed=61):
        row1, row2, b = trial.morphism.source, trial.morphism.target, trial.morphism.q
        a_obj, b_obj, bp_obj = row1.x, row1.y, row2.y
        blocks = {
            i: IntMatrix.block(
                [
                    [IntMatrix(b.component(i)), IntMatrix.zeros(bp_obj.rank(i), a_obj.rank(i + 1))],
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


# ---------------------------------------------------------------------------
# compiled templates: every report pinned, the JSON path as the oracle


PINNED_A = list(range(-4, 31)) + [31, 97, 1000, 4096, 65537, 10**6]


def test_every_paper_report_is_pinned():
    # text and JSON of every report over a range that includes the yes
    # verdicts at -2..2, whose witnesses come from the per-a morphism solve
    import hashlib

    out = [[a, r.to_json(), report_text(r)] for a in PINNED_A for r in [verify_paper(a)]]
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "43ae8fdf79fcf25a3281c88da7e7a929ef15b51e288a7da25a59360eef906f8a"


def _json_instance(raw: dict, k: int, a: int, b: int) -> Lemma2Instance:
    """Template k at (a, b) on the JSON path: `substitute`, then the
    checking loaders."""
    tri = triangle_from_json(substitute(raw["triangle"], a=a, b=b))
    witness = chain_map_from_json(substitute(raw["witness"], a=a, b=b), cone_complex(tri.f), tri.z)
    return Lemma2Instance(index=k, a=a, b=b, triangle=tri, witness=witness)


def _stored_homotopies(raw: dict, inst: Lemma2Instance) -> tuple[Homotopy, Homotopy, Homotopy]:
    """The three stored homotopies at the instance's (a, b), each checked."""
    stored = substitute(raw["homotopies"], a=inst.a, b=inst.b)
    blocks = [
        {int(i): IntMatrix.from_json(m) for i, m in stored[key].items()}
        for key in ("equivalence", "second_map_witness", "third_map_witness")
    ]
    tri, u = inst.triangle, inst.witness
    _, incl, proj = cone(tri.f)
    cu = cone_complex(u)
    return (
        Homotopy(identity_map(cu), zero_map(cu, cu), blocks[0]),
        Homotopy(tri.g, u.compose(incl), blocks[1]),
        Homotopy(proj, tri.h.compose(u), blocks[2]),
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_compiled_templates_match_the_json_path_and_verify(k):
    from homcart import suite

    raw = json.loads((suite.data_dir() / f"lemma2-{k}.json").read_text(encoding="utf-8"))
    for a in (0, 1, -1, 2, -2, 3, 7, 10**6):
        for b in (0, 1, -1, -a, -(a**3)):
            inst = lemma2(k, a, b)
            assert inst == _json_instance(raw, k, a, b), (k, a, b)
            assert lemma2_verify(inst).ok, (k, a, b)
            _stored_homotopies(raw, inst)


def _entry_paths(node, path=()):
    """The path of every polynomial entry of a template, matrix by matrix."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "parameters":
                yield from _entry_paths(value, path + (key,))
    elif isinstance(node, list) and node and all(isinstance(row, list) for row in node):
        for i, row in enumerate(node):
            for j in range(len(row)):
                yield path + (i, j)


def _plus_one(raw: dict, path) -> dict:
    """raw with the entry at path raised by 1 on its constant term."""
    out = json.loads(json.dumps(raw))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = f"{node[path[-1]]}+1"
    return out


def _lemma2_oracle_rejects(raw: dict, k: int, path, a: int) -> bool:
    """Whether the JSON path refuses template k at a: a loader raises,
    `lemma2_verify` fails, or, for a stored homotopy, its check fails."""
    for b in ((-a, -(a**3)) if k == 1 else (0,)):
        try:
            inst = _json_instance(raw, k, a, b)
            if path[0] == "homotopies":
                _stored_homotopies(raw, inst)
            elif not lemma2_verify(inst).ok:
                return True
        except Exception:
            return True
    return False


def _star_oracle_rejects(star: dict, template1: dict, template2: dict, a: int) -> bool:
    """Whether `build_star` on the JSON path refuses the diagram at a: rows
    compared with the rotated templates, the squares decided, the middle
    square compared with the diagram."""
    try:
        data = substitute(star, a=a)
        upper, lower = triangle_from_json(data["upper"]), triangle_from_json(data["lower"])
        t2 = triangle_from_json(substitute(template2["triangle"], a=a))
        t1 = triangle_from_json(substitute(template1["triangle"], a=a, b=-a))
        if upper != rotate(t2) or lower != rotate(rotate(t1)):
            return True
        ends = {"p": (upper.x, lower.x), "q": (upper.y, lower.y), "r": (upper.z, lower.z)}
        p, q, r = (chain_map_from_json(data["vertical"][key], *ends[key]) for key in "pqr")
        if not verify_triangle_morphism(TriangleMorphism(upper, lower, p, q, r)).ok:
            return True
        mid = data["middle_square"]
        return (
            chain_map_from_json(mid["b"], upper.y, lower.y) != q
            or chain_map_from_json(mid["g"], upper.y, upper.z) != upper.g
            or chain_map_from_json(mid["g_prime"], lower.y, lower.z) != lower.g
            or chain_map_from_json(mid["c"], upper.z, lower.z) != r
        )
    except Exception:
        return True


@pytest.mark.parametrize("name", ["lemma2-1.json", "lemma2-2.json", "lemma2-3.json", "lemma2-4.json", "star.json"])
def test_the_load_time_proof_is_as_strict_as_the_per_instance_checks(name, tmp_path, monkeypatch, capsys):
    # every entry, the stored homotopies too, raised by 1 in turn: whenever
    # the JSON path refuses the edit at some a in -3..12, loading the
    # template refuses it, and a paper run that meets it exits 3 silently
    import shutil
    from homcart import suite
    from homcart.cli import main
    from homcart.suite import TranscriptionError

    data = tmp_path / "data"
    shutil.copytree(suite.data_dir(), data)
    raw = json.loads((data / name).read_text(encoding="utf-8"))
    templates = {k: json.loads((data / f"lemma2-{k}.json").read_text(encoding="utf-8")) for k in (1, 2)}
    monkeypatch.setenv("HOMCART_DATA", str(data))
    if name == "star.json":
        rejects = lambda template, path, a: _star_oracle_rejects(template, templates[1], templates[2], a)
        load = suite._star_template
    else:
        k = int(name[len("lemma2-")])
        rejects = lambda template, path, a: _lemma2_oracle_rejects(template, k, path, a)
        load = lambda: suite._lemma2_template(k).proved()
    assert not any(rejects(raw, path, a) for path in (("triangle",), ("homotopies",)) for a in range(-3, 13))
    refused = 0
    for path in _entry_paths(raw):
        mutated = _plus_one(raw, path)
        at_3 = rejects(mutated, path, 3)
        if not (at_3 or any(rejects(mutated, path, a) for a in range(-3, 13) if a != 3)):
            continue
        refused += 1
        (data / name).write_text(json.dumps(mutated), encoding="utf-8")
        with pytest.raises(TranscriptionError, match=f"{name}: .* degree <="):
            load()
        if at_3:
            assert main(["paper", "verify", "--a-min", "3", "--a-max", "3"]) == 3, path
            assert capsys.readouterr().out == ""
    assert refused
    (data / name).write_text(json.dumps(raw), encoding="utf-8")
    assert verify_paper(3).all_ok


def _spy(monkeypatch, names: tuple[str, ...]) -> dict[str, int]:
    """Count calls of each named function through every binding of it in
    every homcart module."""
    import sys

    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in list(sys.modules.items()) if n == "homcart" or n.startswith("homcart.")]
    for name in names:
        real = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for m in modules:
            if getattr(m, name, None) is real:
                monkeypatch.setattr(m, name, counting)
    return counts


def test_a_verify_paper_op_keeps_only_the_decisions(monkeypatch):
    # the templates' identities are proved at load: per a only the morphism
    # check and the two decisions are left, and no lemma2 cone is built twice
    verify_paper(7)
    counts = _spy(
        monkeypatch,
        ("substitute", "verify_distinguished_with_witness", "homotopic", "is_homotopy_equivalence", "cone_complex"),
    )
    assert verify_paper(7).all_ok
    assert counts["substitute"] == 0
    assert counts["verify_distinguished_with_witness"] == 0
    assert counts["homotopic"] <= 11
    assert counts["is_homotopy_equivalence"] <= 6
    assert counts["cone_complex"] <= 7


@pytest.mark.parametrize("a", [3, 12, 10**6])
def test_a_verify_paper_op_tests_three_maps_for_equivalence(monkeypatch, a):
    # the cartesian hint, then g in each of the two searches; never -g
    verify_paper(a)
    counts = _spy(monkeypatch, ("is_homotopy_equivalence",))
    assert verify_paper(a).all_ok
    assert counts["is_homotopy_equivalence"] == 3


def test_a_warm_verify_paper_op_reads_each_data_file_once(monkeypatch):
    from pathlib import Path

    from homcart import suite

    verify_paper(7)
    reads, real = [], Path.read_bytes

    def read_bytes(self):
        reads.append(self.name)
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    assert verify_paper(7).all_ok
    assert sorted(reads) == sorted(p.name for p in suite.data_dir().glob("*.json"))
    assert len(reads) == 5


def test_instances_of_proved_templates_are_built_unchecked(monkeypatch):
    from homcart.complexes import _GradedMap

    for k in (1, 2, 3, 4):
        lemma2(k, 7, -7)
    walks = []
    real = _GradedMap._first_violation
    monkeypatch.setattr(_GradedMap, "_first_violation", lambda self: walks.append(self) or real(self))
    for k in (1, 2, 3, 4):
        lemma2(k, 7, -7)
    assert walks == []


def test_a_parameter_error_names_the_parameter():
    with pytest.raises(ValueError, match=r"^parameter a = 3\.0 is not an integer$"):
        build_star(3.0)
    with pytest.raises(ValueError, match=r"^parameter k = '1' is not an integer$"):
        lemma2("1", 3)


def test_parameters_are_read_by_the_integer_rule():
    big = 3_000_000
    report = verify_paper(np.int64(big))
    assert type(report.a) is int and report.to_json() == verify_paper(big).to_json()
    assert report.all_ok and report.claim1.modulus == big * big
    assert lemma2(1, np.int64(5), np.int64(-125)) == lemma2(1, 5, -125)
    assert build_star(np.int32(4)).middle == build_star(4).middle
    for bad in (3.0, "3"):
        with pytest.raises(ValueError, match="parameter a"):
            verify_paper(bad)
        with pytest.raises(ValueError, match="parameter a"):
            build_star(bad)
        with pytest.raises(ValueError, match="parameter b"):
            lemma2(1, 3, bad)
    # the template index follows the same rule
    for bad in (1.0, "1"):
        with pytest.raises(ValueError, match="parameter k"):
            lemma2(bad, 3)
    inst = lemma2(np.int64(2), 3)
    assert type(inst.index) is int and inst == lemma2(2, 3)
    assert lemma2(True, 3) == lemma2(1, 3)


def test_the_proof_grid_comes_from_the_compiled_coefficients():
    from homcart import suite
    from homcart.suite import TranscriptionError

    assert [suite._lemma2_template(k).poly.degrees for k in (1, 2, 3, 4)] == [(2, 1), (3,), (3,), (2,)]
    assert suite._star_template().poly.degrees == (3,)
    raw = json.loads((suite.data_dir() / "lemma2-4.json").read_text(encoding="utf-8"))
    # a power whose coefficients cancel raises no degree
    raw["triangle"]["g"]["components"]["0"] = [["1-a+a^5-a^5"]]
    assert suite._Lemma2Template("lemma2-4.json", raw).proved().poly.degrees == (2,)
    # h = 1 - a + a^2 keeps degree 2, and the triangle stays distinguished
    # at a = 0, 1, 2: d + 1 points would not see the edit, but the grid has
    # 2d + 1, and the triangle fails at a = 3
    raw["triangle"]["h"]["components"]["-1"] = [["1-a+a^2"]]
    assert [lemma2_verify(_json_instance(raw, 4, a, 0)).ok for a in range(4)] == [True, True, True, False]
    with pytest.raises(TranscriptionError, match=r"lemma2-4.json: proj ~ h o u fails at a = 3 .* degree <= 4 in a"):
        suite._Lemma2Template("lemma2-4.json", raw).proved()


@pytest.mark.parametrize("name", ["lemma2-1.json", "lemma2-2.json", "lemma2-3.json", "lemma2-4.json", "star.json"])
def test_compiled_entries_are_exact_python_ints(name, monkeypatch):
    # the compiled evaluation agrees with the JSON path's poly_eval entry by
    # entry, past int64, and hands out Python ints
    from homcart import suite

    raw = json.loads((suite.data_dir() / name).read_text(encoding="utf-8"))
    templates = [suite._lemma2_template(k) for k in (1, 2)]
    entries, real = [], suite._terms
    monkeypatch.setattr(suite, "_terms", lambda entry: entries.append(entry) or real(entry))
    if name == "star.json":
        poly = suite._StarTemplate(name, raw, *templates).poly
    else:
        poly = suite._Lemma2Template(name, raw).poly
    for a, b in ((2**70, -(2**210)), (-7, 3)):
        values = poly.at(a, b)
        assert list(values) == [poly_eval(entry, a, b) for entry in entries]
        assert all(type(v) is int for v in values)


def test_each_grid_point_is_built_once(tmp_path, monkeypatch):
    # a fresh proof builds each point's objects once, checked
    import shutil

    from homcart import suite

    shutil.copytree(suite.data_dir(), tmp_path / "data")
    monkeypatch.setenv("HOMCART_DATA", str(tmp_path / "data"))
    counts = _spy(monkeypatch, ("_triangle_at",))
    suite._lemma2_template(1).proved()
    # one triangle per point of the 5 x 3 grid of degrees (2, 1)
    assert counts["_triangle_at"] == 15
    counts["_triangle_at"] = 0
    suite._star_template()
    # per point of the 7-point grid: the two rows and the two templates
    # they are compared with
    assert counts["_triangle_at"] == 28


@pytest.mark.parametrize("bad", NOT_DECIMAL)
def test_template_degrees_and_ranks_are_decimal(bad):
    template = _Polynomials("t.json", {})
    for read in (
        lambda: template.complex({"degrees": {bad: 1}}),
        lambda: template.complex({"degrees": {"0": bad}}),
        lambda: template.blocks({bad: [["1"]]}),
    ):
        with pytest.raises(ValueError, match="not a decimal integer"):
            read()


def test_template_degrees_and_ranks_may_be_json_numbers_or_signed_strings():
    template = _Polynomials("t.json", {})
    for v in (7, "7", "-7"):
        assert template.complex({"degrees": {v: 1}})[0] == {int(v): 1}
        assert template.complex({"degrees": {"0": v}})[0] == {0: int(v)}
        assert list(template.blocks({v: [["1"]]})) == [int(v)]
