"""The three homcart workloads: inputs, the op, and the per-op gate.

Every op is a pure function of (seed, op index).  `prepare(i)` builds the
input of op i and is never timed; `op(x)` is the timed call into homcart;
`check(x, out)` grades its output OK, UNKNOWN (a search cap was hit: no
answer, but not a wrong one) or FAIL.  An op keeps no state between calls,
so a traced run can repeat an untraced run's inputs exactly.

Ops call homcart through module attributes (`suite.verify_paper`, not a
name imported here), so the tracer's rebinding sees them.
"""

import json
import math
from random import Random

import homcart.complexes as complexes
import homcart.squares as squares
import homcart.suite as suite
import homcart.triangles as triangles
from homcart.intmat import IntMatrix

GOLDEN_A = (3, 5, 12)
OK, UNKNOWN, FAIL = "ok", "unknown", "fail"


def _rng(workload: str, seed: int, index: int) -> Random:
    return Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng: Random, lo: int, hi: int) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class PaperRange:
    """`verify_paper(a)`: even ops take a in 3..30, odd ops a log-uniform
    a in 31..10^6.  Gate: both claims refuted mod a^2 with two classes
    exhausted, `all_ok`, and the golden report byte-identical at a = 3, 5, 12."""

    name = "paper-range"
    trace_ops = 120

    def __init__(self, seed: int):
        self.seed = seed
        golden = suite.data_dir() / "golden"
        self.golden = {
            a: (golden / f"paper-a{a}.json").read_text(encoding="utf-8") for a in GOLDEN_A
        }

    def prepare(self, i: int) -> int:
        rng = _rng(self.name, self.seed, i)
        return rng.randint(3, 30) if i % 2 == 0 else _log_uniform(rng, 31, 10**6)

    def op(self, a: int):
        return suite.verify_paper(a)

    def check(self, a: int, report) -> str:
        claims = (report.claim1, report.claim2)
        if any(c.is_unknown for c in claims):
            return UNKNOWN
        ok = report.all_ok and all(
            c.is_no and c.modulus == a * a and c.exhausted == 2 for c in claims
        )
        if ok and a in self.golden:
            rendered = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
            ok = rendered == self.golden[a]
        return OK if ok else FAIL


class FuzzFp:
    """One `fuzz_prop2` trial per op, alternating F_2 and F_3 (max_rank 3,
    4 degrees): generate, `verify_triangle_morphism`, `is_homotopy_cartesian`,
    `prop2_replay`.  Gate: a re-verified yes and all replay identities.

    Op i is trial 0 of a `fuzz_prop2` stream whose seed is drawn from
    (seed, i), so each op generates its own trial.

    Both decisions run with `CONFIG`, whose class-enumeration cap is 2^10
    instead of the default 2^20.  About one trial in 2000 needs 10^5 classes
    or more, and at the default cap such an op takes over 100 s.  Under
    this cap it returns unknown at once and counts in unknown_ratio; it is
    neither skipped nor re-drawn."""

    name = "fuzz-fp"
    trace_ops = 120
    fields = (2, 3)
    CONFIG = squares.SearchConfig(max_enum=1 << 10)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, i: int) -> tuple[int, int]:
        p = self.fields[i % len(self.fields)]
        return p, _rng(self.name, self.seed, i).getrandbits(32)

    def op(self, x: tuple[int, int]):
        p, trial_seed = x
        trial = next(suite.fuzz_prop2(p, trials=1, seed=trial_seed, max_rank=3, n_degrees=4))
        morphism_check = triangles.verify_triangle_morphism(trial.morphism)
        verdict = squares.is_homotopy_cartesian(trial.square, self.CONFIG)
        replay = suite.prop2_replay(trial.morphism, self.CONFIG)
        return morphism_check, verdict, replay

    def check(self, x: tuple[int, int], out) -> str:
        morphism_check, verdict, replay = out
        replayed = (
            morphism_check.ok
            and replay.identity_on_c is not None
            and replay.identity_on_gprime is not None
            and replay.equivalence is not None
        )
        if replayed and verdict.is_unknown:
            return UNKNOWN
        ok = (
            replayed
            and verdict.is_yes
            and verdict.witness is not None
            and verdict.equivalence is not None
            and all(w is not None for w in verdict.constraint_witnesses)
        )
        return OK if ok else FAIL


def block_sum(f, k: int):
    """The k-fold direct sum f + ... + f as one block-diagonal chain map."""
    src, tgt = f.source, f.target
    for _ in range(k - 1):
        src = complexes.direct_sum(src, f.source)
        tgt = complexes.direct_sum(tgt, f.target)
    comps = {}
    for i in src.degrees():
        if tgt.rank(i):
            c = f.component(i)
            zero = IntMatrix.zeros(c.rows, c.cols)
            comps[i] = IntMatrix.block([[c if r == s else zero for s in range(k)] for r in range(k)])
    return complexes.ChainMap(src, tgt, comps)


class SquareZ:
    """`is_homotopy_cartesian` over Z on `square_from_cone(b, g)`, with b and g
    the k-fold block sums of the star diagram's `morphism.q` and `upper.g` at
    a log-uniform a in 3..10^6.  k follows `K_CYCLE` by op index, so p50 falls
    inside the k = 3 ops and p90 inside the k = 4 ops, not between two sizes.
    Gate: a yes with witness and equivalence."""

    name = "square-z"
    trace_ops = 64
    K_CYCLE = (1, 2, 3, 4, 2, 3, 3, 4)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, i: int):
        k = self.K_CYCLE[i % len(self.K_CYCLE)]
        star = suite.build_star(_log_uniform(_rng(self.name, self.seed, i), 3, 10**6))
        return squares.square_from_cone(
            block_sum(star.morphism.q, k), block_sum(star.upper.g, k)
        )

    def op(self, square):
        return squares.is_homotopy_cartesian(square)

    def check(self, square, verdict) -> str:
        if verdict.is_unknown:
            return UNKNOWN
        ok = verdict.is_yes and verdict.witness is not None and verdict.equivalence is not None
        return OK if ok else FAIL


WORKLOADS = {w.name: w for w in (PaperRange, FuzzFp, SquareZ)}
