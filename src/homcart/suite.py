"""Built-in verification datasets and the end-to-end pipeline.

The four parameterized triangle templates and the two-row comparison diagram
are checked-in JSON files (see `homcart/data/`).  Each file is read on every
call and parsed and compiled once per content, through one cache, so an
edited file is compiled again: every entry becomes integer coefficients of
a^j b^k (`_Polynomials`), evaluated with numpy's `polyval` to Python ints.
On first use, every identity of a compiled template is proved over
Z[a, b], in one grid loop (`_Polynomials.prove`) that builds each point's
objects once: d o d = 0, the chain conditions, the three stored homotopies
that certify each triangle distinguished through its witness (a
contraction of the witness's cone, g ~ u o incl and proj ~ h o u), and the
diagram's rows against the rotated templates and its middle square against
its maps.  Each residual is a sum of products of at most two entries, so of
degree <= 2d in a variable of degree d, and is zero once it vanishes on a
grid of 2d + 1 points per variable, where the checking constructors test
it.  A template that fails raises `TranscriptionError`; the instances of one
that passed are built unchecked.

`verify_paper` runs, for one parameter value a: the proofs of the four
triangle templates, which make each of the five reported instances
distinguished, the diagram with its three squares decided
(`verify_triangle_morphism`), the homotopy-cartesian decision on the middle
square (expected refutation mod a^2 for a >= 3), and the vertical
comparison decision against template 1 at b = -a^3 and template 4, the
only two triangles it builds (same expectation), plus the implication
between the two refutations.
`fuzz_prop2` generates random two-row diagrams over Z/m, m >= 2,
deterministically per (seed, index); `prop2_replay` reconstructs the
correcting automorphism 1 + e + a e^2 on such a diagram and re-verifies its
defining identities.  There e is a strict chain endomorphism and a = s(e) a
polynomial in it from one `Ring.solve` (none when e is nilpotent); e =
psi o h' for a preimage psi of c~ - c along the connecting map.  When
c = c~, psi = 0 needs no solve, and the completion square equals the
diagram's own square, so `is_homotopy_cartesian` returns the verdict it
gave that square if the square is still alive.
"""

import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from random import Random

import numpy as np
from numpy.polynomial.polynomial import polyval

from .complexes import (
    ChainMap,
    Complex,
    ComplexError,
    Homotopy,
    Ring,
    ZZ,
    Zmod,
    cone,
    cone_complex,
    cone_homotopy,
    cone_map,
    homotopic,
    identity_map,
    is_homotopy_equivalence,
    random_chain_map,
    random_complex,
    shift,
    zero_map,
)
from .intmat import IntMatrix, _integer, decimal_integer
from .jsonio import _terms
from .squares import (
    CommutativeSquare,
    Constraint,
    DEFAULT_CONFIG,
    SearchConfig,
    Verdict,
    _ConstraintSystem,
    is_homotopy_cartesian,
    fits_vertical_iso,
)
from .triangles import (
    DistinguishedCheck,
    Triangle,
    TriangleMorphism,
    rotate,
    standard_triangle,
    verify_distinguished_with_witness,
    verify_triangle_morphism,
)


class TranscriptionError(RuntimeError):
    """A stored dataset disagrees with the value recomputed from first
    principles; the dataset is wrong and must not be trusted."""


FORMAT_VERSION = 1

_ENV_DATA = "HOMCART_DATA"


_PACKAGE_DATA = Path(__file__).resolve().parent / "data"


def data_dir() -> Path:
    override = os.environ.get(_ENV_DATA)
    return Path(override) if override else _PACKAGE_DATA


# path -> (bytes, templates it was compiled against, compiled template)
_compiled: dict[Path, tuple[bytes, tuple, object]] = {}


def _compiled_template(name: str, build, *against):
    """`build(name, parse, *against)`, once per content: the file is read
    on every call, and an edited file, or an edited template it is built
    against, is parsed and compiled again.  A file without the structure
    of a template raises `TranscriptionError`."""
    path = data_dir() / name
    raw = path.read_bytes()
    known = _compiled.get(path)
    if known is None or known[0] != raw or any(x is not y for x, y in zip(known[1], against)):
        try:
            compiled = build(name, json.loads(raw.decode("utf-8")), *against)
        except (KeyError, TypeError, AttributeError) as e:
            raise TranscriptionError(f"{name}: malformed template ({e!r})") from None
        known = _compiled[path] = (raw, against, compiled)
    return known[2]


class _Polynomials:
    """The polynomial entries of one template, compiled once.

    `matrix` gives each matrix of the template a slot (offset, rows, cols)
    in one flat vector of entries, read row-major; after `freeze`, entry e
    is the sum of coeffs[j, k, e] a^j b^k, one axis per variable in
    `variables` (a template in a alone has no b axis), and `degrees` are
    the largest powers with a nonzero coefficient.  `at(a, b)` evaluates
    every entry at once with numpy's `polyval`, one variable at a time, to
    Python ints.
    """

    def __init__(self, name: str, parsed: dict):
        self.name = name
        variables = parsed.get("parameters", ["a", "b"])
        if not isinstance(variables, list) or not set(variables) <= {"a", "b"} or len(set(variables)) != len(variables):
            raise TranscriptionError(f"{name}: parameters must be a list of distinct a and b, not {variables!r}")
        self.variables = tuple(variables)
        self._entries: list = []

    def matrix(self, data) -> tuple[int, int, int]:
        if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
            raise TranscriptionError(f"{self.name}: a matrix must be an array of arrays")
        rows, cols = len(data), len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise TranscriptionError(f"{self.name}: a matrix has rows of different lengths")
        slot = (len(self._entries), rows, cols)
        for row in data:
            for entry in row:
                terms = _terms(str(entry))
                if any(symbol is not None and symbol not in self.variables for _, symbol, _ in terms):
                    raise TranscriptionError(f"{self.name}: entry {entry!r} is not a polynomial in {self.variables}")
                self._entries.append(terms)
        return slot

    def blocks(self, data: dict) -> dict:
        return {decimal_integer(i): self.matrix(m) for i, m in data.items()}

    def complex(self, data: dict) -> tuple[dict, dict]:
        if Ring.from_json(data.get("ring", "Z")) != ZZ:
            raise TranscriptionError(f"{self.name}: templates are over Z")
        ranks = {decimal_integer(i): decimal_integer(r) for i, r in data.get("degrees", {}).items()}
        return ranks, self.blocks(data.get("differentials", {}))

    def triangle(self, data: dict) -> tuple:
        """(x, y, z, f, g, h), the objects as (ranks, slots), the maps as slots."""
        return (
            *(self.complex(data[k]) for k in "xyz"),
            *(self.blocks(data[k].get("components", {})) for k in "fgh"),
        )

    def freeze(self):
        powers = [(symbol, power) for terms in self._entries for _, symbol, power in terms]
        shape = [1 + max((p for s, p in powers if s == v), default=0) for v in self.variables]
        coeffs = np.zeros((*shape, len(self._entries)), dtype=object)
        for e, terms in enumerate(self._entries):
            for c, symbol, power in terms:
                coeffs[(*(power if v == symbol else 0 for v in self.variables), e)] += c
        # trim powers whose coefficients all vanish
        self.degrees = tuple(
            max((j for j in range(coeffs.shape[axis]) if np.count_nonzero(np.take(coeffs, j, axis=axis))), default=0)
            for axis in range(len(self.variables))
        )
        coeffs = coeffs[tuple(slice(0, d + 1) for d in self.degrees)]
        coeffs.setflags(write=False)
        self.coeffs = coeffs

    def at(self, a: int = 0, b: int = 0) -> np.ndarray:
        values, point = self.coeffs, {"a": a, "b": b}
        for v in self.variables:
            values = polyval(point[v], values)
        return values

    def grid(self, degrees: tuple[int, ...]):
        """The points, 0..2d in each variable of degree d, that decide an
        identity whose residual has degree <= 2d in each variable: a
        polynomial of degree <= 2d in one variable that vanishes at 2d + 1
        points is zero, and a grid of such points decides one in several."""
        for point in itertools.product(*(range(2 * d + 1) for d in degrees)):
            yield dict(zip(self.variables, point))

    def prove(self, degrees: tuple[int, ...], identities):
        """Prove on `grid(degrees)` every identity whose name
        `identities(**point)` yields before checking it: the check raises
        ValueError where the identity fails, and the first failure raises
        `TranscriptionError` naming the identity yielded last."""
        for point in self.grid(degrees):
            identity = None
            try:
                for identity in identities(**point):
                    pass
            except ValueError as why:
                at = ", ".join(f"{v} = {x}" for v, x in point.items())
                bound = ", ".join(f"{2 * d} in {v}" for v, d in zip(self.variables, degrees))
                raise TranscriptionError(
                    f"{self.name}: {identity} fails at {at} ({why}); its residual has degree <= {bound}"
                ) from why


def _same(lhs, rhs):
    if lhs != rhs:
        raise ValueError("the two sides differ")


def _graded(values: np.ndarray, slots: dict) -> dict[int, IntMatrix]:
    return {i: IntMatrix(values[o : o + r * c].reshape(r, c)) for i, (o, r, c) in slots.items()}


def _triangle_at(values, compiled, check: bool) -> Triangle:
    x, y, z = (Complex(ZZ, ranks, _graded(values, slots), check=check) for ranks, slots in compiled[:3])
    f, g, h = compiled[3:]
    return Triangle(
        ChainMap(x, y, _graded(values, f), check=check),
        ChainMap(y, z, _graded(values, g), check=check),
        ChainMap(z, shift(x), _graded(values, h), check=check),
    )


class _Template:
    """A compiled template whose identities `proved` proves once, on the
    grid of `degrees`; its instances are then built unchecked."""

    _proved = False

    def proved(self):
        if not self._proved:
            self.poly.prove(self.degrees, self._identities)
            self._proved = True
        return self


class _Lemma2Template(_Template):
    """A triangle template compiled, with its witness u : cone(f) -> z and
    three stored homotopies: a contraction of cone(u), g ~ u o incl and
    proj ~ h o u, the three that `verify_distinguished_with_witness` solves
    for.  Once `proved`, every instance is a distinguished triangle."""

    def __init__(self, name: str, parsed: dict):
        self.poly = poly = _Polynomials(name, parsed)
        self.triangle = poly.triangle(parsed["triangle"])
        self.witness = poly.blocks(parsed["witness"].get("components", {}))
        stored = parsed["homotopies"]
        keys = ("equivalence", "second_map_witness", "third_map_witness")
        self.homotopies = tuple(poly.blocks(stored[k]) for k in keys)
        poly.freeze()
        self.degrees = poly.degrees

    def instance(self, values: np.ndarray, check: bool = False) -> tuple[Triangle, ChainMap]:
        """The triangle and its witness u at the point where `values` were
        evaluated."""
        tri = _triangle_at(values, self.triangle, check)
        return tri, ChainMap(cone_complex(tri.f), tri.z, _graded(values, self.witness), check=check)

    def triangle_at(self, a: int, b: int = 0) -> Triangle:
        """The triangle alone at (a, b), unchecked."""
        return _triangle_at(self.poly.at(a, b), self.triangle, False)

    def _identities(self, a: int, b: int = 0):
        values = self.poly.at(a, b)
        yield "d o d = 0 or a chain condition"
        tri, u = self.instance(values, check=True)
        _, incl, proj = cone(tri.f)
        cu = cone_complex(u)
        equivalence, second, third = (_graded(values, s) for s in self.homotopies)
        yield "the contraction of cone(u)"
        Homotopy(identity_map(cu), zero_map(cu, cu), equivalence)
        yield "g ~ u o incl"
        Homotopy(tri.g, u.compose(incl), second)
        yield "proj ~ h o u"
        Homotopy(proj, tri.h.compose(u), third)


class _StarTemplate(_Template):
    """The star diagram compiled: rows, vertical maps (p, q, r) and the
    middle square's transcription (b, g, g', c), its identities proved
    against compiled templates 1 and 2: every differential
    and chain condition, upper = rotate(template 2), lower =
    rotate(rotate(template 1 at b = -a)), and b = q, g = upper.g,
    g' = lower.g, c = r.  So only its three squares are left to decide."""

    def __init__(self, name: str, parsed: dict, template1: _Lemma2Template, template2: _Lemma2Template):
        self.poly = poly = _Polynomials(name, parsed)
        if poly.variables != ("a",):
            raise TranscriptionError(f"{name}: the diagram's one parameter is a, not {poly.variables}")
        self.upper, self.lower = poly.triangle(parsed["upper"]), poly.triangle(parsed["lower"])
        vertical, middle = parsed["vertical"], parsed["middle_square"]
        self.vertical = tuple(poly.blocks(vertical[k].get("components", {})) for k in "pqr")
        self.middle = tuple(poly.blocks(middle[k].get("components", {})) for k in ("b", "g", "g_prime", "c"))
        poly.freeze()
        self.templates = template1, template2
        # a template at (a, -a) has degree <= its degree in a plus that in b
        self.degrees = (max(*poly.degrees, sum(template1.poly.degrees), sum(template2.poly.degrees)),)

    def rows(self, values, check: bool = False) -> tuple[Triangle, Triangle, ChainMap, ChainMap, ChainMap]:
        upper, lower = _triangle_at(values, self.upper, check), _triangle_at(values, self.lower, check)
        p, q, r = (
            ChainMap(s, t, _graded(values, slots), check=check)
            for (s, t), slots in zip(((upper.x, lower.x), (upper.y, lower.y), (upper.z, lower.z)), self.vertical)
        )
        return upper, lower, p, q, r

    def _identities(self, a: int):
        values = self.poly.at(a)
        template1, template2 = self.templates
        yield "d o d = 0 or a chain condition"
        upper, lower, _, q, r = self.rows(values, check=True)
        ends = ((upper.y, lower.y), (upper.y, upper.z), (lower.y, lower.z), (upper.z, lower.z))
        middle = tuple(ChainMap(s, t, _graded(values, m)) for (s, t), m in zip(ends, self.middle))
        yield "upper row = rotate(template 2)"
        _same(upper, rotate(template2.triangle_at(a)))
        yield "lower row = rotate(rotate(template 1 at b = -a))"
        _same(lower, rotate(rotate(template1.triangle_at(a, -a))))
        yield "the middle square's transcription"
        _same(middle, (q, upper.g, lower.g, r))


def _lemma2_template(k: int) -> _Lemma2Template:
    return _compiled_template(f"lemma2-{k}.json", _Lemma2Template)


def _star_template(*templates: _Lemma2Template) -> _StarTemplate:
    """The star compiled against templates 1 and 2: those given, or those
    their files hold now."""
    return _compiled_template("star.json", _StarTemplate, *(templates or map(_lemma2_template, (1, 2)))).proved()


@dataclass(frozen=True)
class Lemma2Instance:
    index: int
    a: int
    b: int
    triangle: Triangle
    witness: ChainMap


def lemma2(k: int, a: int, b: int = 0) -> Lemma2Instance:
    """Instantiate stored triangle template k in {1, 2, 3, 4} at (a, b),
    unchecked: its identities were proved for every (a, b) when the
    template was first used."""
    k, a, b = _integer(k, "parameter k ="), _integer(a, "parameter a ="), _integer(b, "parameter b =")
    if k not in (1, 2, 3, 4):
        raise ValueError("template index must be 1, 2, 3 or 4")
    template = _lemma2_template(k).proved()
    tri, witness = template.instance(template.poly.at(a, b))
    return Lemma2Instance(index=k, a=a, b=b, triangle=tri, witness=witness)


def lemma2_verify(inst: Lemma2Instance) -> DistinguishedCheck:
    return verify_distinguished_with_witness(inst.triangle, inst.witness)


@dataclass(frozen=True)
class StarDiagram:
    """The two-row comparison diagram at parameter a.

    Rows are rotations of templates 2 and 1 (with b = -a); the morphism has
    corner components (identity, b, c, identity); `middle` is the designated
    commutative square between the second and third corners.
    """

    a: int
    upper: Triangle
    lower: Triangle
    morphism: TriangleMorphism
    middle: CommutativeSquare
    square_witnesses: tuple[Homotopy, Homotopy, Homotopy]
    strict_squares: dict


def build_star(a: int) -> StarDiagram:
    """The star diagram at a, its rows and maps built unchecked from the
    proved template; only its three squares are decided here."""
    return _star(_integer(a, "parameter a ="), _star_template())


def _star(a: int, template: _StarTemplate) -> StarDiagram:
    upper, lower, p, q, r = template.rows(template.poly.at(a))
    morphism = TriangleMorphism(upper, lower, p, q, r)
    check = verify_triangle_morphism(morphism)
    if not check.ok:
        raise TranscriptionError(f"diagram squares fail to commute: {check.failing_squares}")
    # the stored middle square is (upper.g, lower.g, q, r), proved at load:
    # the morphism's second square, whose witness joins c o g and g' o b
    middle = CommutativeSquare(upper.g, lower.g, q, r, witness=check.square_witnesses[1])
    # the diagram displays each square at the two degrees of its upper
    # object: six degreewise faces in total, each either strictly commuting
    # or corrected by the square's homotopy witness, which joins the two
    # composites of its square
    strict = {
        name: {str(i): bool(w.lhs.component(i) == w.rhs.component(i)) for i in w.lhs.source.degrees()}
        for name, w in zip(("first", "second", "third"), check.square_witnesses)
    }
    return StarDiagram(
        a=a,
        upper=upper,
        lower=lower,
        morphism=morphism,
        middle=middle,
        square_witnesses=check.square_witnesses,
        strict_squares=strict,
    )


@dataclass(frozen=True)
class PaperReport:
    """Everything `verify_paper` established at one parameter value."""

    a: int
    claimed: bool
    lemma2_results: tuple
    strict_squares: dict
    claim1: Verdict
    claim2: Verdict
    implication_ok: bool
    all_ok: bool

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "a": self.a,
            "claimed_range": self.claimed,
            "triangles": [
                {"index": k, "a": a, "b": b, "ok": ok}
                for (k, a, b, ok) in self.lemma2_results
            ],
            "diagram": {
                "rotation_equal": True,
                "squares_commute": True,
                "strict_squares": self.strict_squares,
            },
            "middle_square_cartesian": self.claim1.to_json(),
            "vertical_comparison": self.claim2.to_json(),
            "second_refutation_implies_first": self.implication_ok,
            "all_ok": self.all_ok,
        }

def verify_paper(a: int, config: SearchConfig = DEFAULT_CONFIG) -> PaperReport:
    """Full verification run at parameter a.

    For a >= 3 both decisions are expected to be certified refutations mod
    a^2; for smaller a the verdicts are recorded without expectations.
    """
    a = _integer(a, "parameter a =")
    # every instance of a proved template is distinguished: of the five
    # reported, only the two that the vertical comparison reads are built
    template1, template2, _, template4 = (_lemma2_template(k).proved() for k in (1, 2, 3, 4))
    lemma2_results = tuple((k, a, b, True) for k, b in ((1, -a), (1, -(a**3)), (2, 0), (3, 0), (4, 0)))
    star = _star(a, _star_template(template1, template2))
    claim1 = is_homotopy_cartesian(star.middle, config)
    claim2 = fits_vertical_iso(star.middle, template1.triangle_at(a, -(a**3)), template4.triangle_at(a), config)
    implication_ok = (not claim2.is_no) or claim1.is_no
    claimed = a >= 3
    refuted = all(claim.is_no and claim.modulus == a * a for claim in (claim1, claim2))
    return PaperReport(
        a=a,
        claimed=claimed,
        lemma2_results=lemma2_results,
        strict_squares=star.strict_squares,
        claim1=claim1,
        claim2=claim2,
        implication_ok=implication_ok,
        all_ok=implication_ok and (refuted or not claimed),
    )


def report_text(report: PaperReport) -> str:
    """Human-readable rendering, ordered triangles -> diagram -> decisions."""
    lines = [f"parameter a = {report.a}"]
    for (k, a, b, _) in report.lemma2_results:
        lines.append(f"  triangle template {k} at (a={a}, b={b}): ok")
    lines.append("  diagram: rotation equality exact; squares commute")
    c1 = report.claim1
    lines.append(
        f"  middle square homotopy-cartesian: {c1.kind}"
        + (f" (certified mod {c1.modulus}, {c1.exhausted} classes)" if c1.is_no and c1.modulus else "")
    )
    c2 = report.claim2
    lines.append(
        f"  vertical comparison with an equivalence: {c2.kind}"
        + (f" (certified mod {c2.modulus}, {c2.exhausted} classes)" if c2.is_no and c2.modulus else "")
    )
    lines.append(
        "  second refutation implies first: "
        + ("yes" if report.implication_ok else "NO")
    )
    lines.append("  overall: " + ("ok" if report.all_ok else "FAILED"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# deterministic fuzzing of two-row diagrams over Z/m


@dataclass(frozen=True)
class FuzzTrial:
    index: int
    morphism: TriangleMorphism
    square: CommutativeSquare
    perturbed: bool
    perturbation_attempted: bool


def _functorial_completion(row1: Triangle, row2: Triangle, b: ChainMap) -> ChainMap:
    """cone(f) -> cone(b o f) with blocks [[b, 0], [0, 1]]: the cone map of
    the inclusion after b and the cone homotopy of the second row."""
    return cone_map(row1.z, row2.g.compose(b), cone_homotopy(row2.g, row2.f))


def fuzz_prop2(
    p: int,
    trials: int,
    seed: int,
    max_rank: int = 3,
    n_degrees: int = 4,
):
    """Deterministic stream of two-row diagrams over Z/p, any modulus p >= 2.

    Row one is the standard triangle on a random f : A -> B; a random
    b : B -> B' induces the second row on b o f; the connecting map is the
    block completion, with probability 1/2 perturbed through the connecting
    morphism and kept only when the third square still commutes up to homotopy
    (rejections are recorded on the trial).  Everything is a pure function
    of (seed, index).
    """
    ring = Zmod(p)
    if max_rank < 1 or n_degrees < 1:
        raise ValueError("fuzzing needs max_rank and n_degrees of at least 1")
    for index in range(trials):
        rng = Random(seed * 1_000_003 + index)
        a_obj = _nonzero_complex(ring, rng, n_degrees, max_rank)
        b_obj = _nonzero_complex(ring, rng, n_degrees, max_rank)
        bp_obj = _nonzero_complex(ring, rng, n_degrees, max_rank)
        f = random_chain_map(a_obj, b_obj, rng)
        row1 = standard_triangle(f)
        b = random_chain_map(b_obj, bp_obj, rng)
        row2 = standard_triangle(b.compose(f))
        ctilde = _functorial_completion(row1, row2, b)
        c, perturbed, attempted = ctilde, False, rng.random() < 0.5
        if attempted:
            psi0 = random_chain_map(shift(a_obj), row2.z, rng)
            candidate = ctilde + psi0.compose(row1.h)
            if homotopic(row2.h.compose(candidate), row1.h) is not None:
                c = candidate
                perturbed = True
        morphism = TriangleMorphism(row1, row2, identity_map(a_obj), b, c)
        square = CommutativeSquare(row1.g, row2.g, b, c)
        yield FuzzTrial(
            index=index,
            morphism=morphism,
            square=square,
            perturbed=perturbed,
            perturbation_attempted=attempted,
        )


def _nonzero_complex(ring, rng, n_degrees, max_rank) -> Complex:
    while True:
        c = random_complex(ring, rng, n_degrees=n_degrees, max_rank=max_rank)
        if c.total_rank():
            return c


@dataclass(frozen=True)
class Prop2Replay:
    """Chain-level replay of the correcting-automorphism construction."""

    morphism: TriangleMorphism
    completion: ChainMap           # the verified connecting map c~
    psi: ChainMap                  # psi with psi o h ~ c~ - c
    epsilon: ChainMap              # psi o h'
    alpha: ChainMap
    automorphism: ChainMap         # 1 + eps + alpha o eps^2
    completion_cartesian: Verdict
    identity_on_c: Homotopy        # (1+eps+alpha eps^2) o c ~ c~
    identity_on_gprime: Homotopy   # (1+eps+alpha eps^2) o g' ~ g'
    equivalence: Homotopy          # contraction witnessing the automorphism


def _alpha_of(eps: ChainMap) -> ChainMap:
    """a = s(e), a chain map, with e + a e^2 nilpotent, for a strict
    endomorphism e over Z/m of total rank n, its powers taken degreewise.

    e^N, N >= n (bit length of m - 1) >= n Omega(m), is past the Fitting
    index: e is invertible on im e^N, where -e^-1 is a polynomial in e of
    degree < n (Cayley-Hamilton).  So sum_j c_j e^(N+1+j) = -e^N has a
    solution c, and a = sum_j c_j e^j gives (e + a e^2)^N = e^N (1 + a e)^N
    = 0; a = 0 when e^N = 0."""
    z, ring = eps.source, eps.source.ring
    m, n = ring.modulus, z.total_rank()
    e = [ring.asarray(eps.component(i)) for i in z.degrees()]
    top, power = e, 1
    while power < n * (m.bit_length() - 1):  # reduced after every product: below n m^2
        top, power = [t @ t % m for t in top], 2 * power
    alpha = [np.zeros_like(x) for x in e]
    if any(t.any() for t in top):
        powers = [top]
        for _ in range(n):
            powers.append([p @ x % m for p, x in zip(powers[-1], e)])
        flat = [np.concatenate([p.reshape(-1) for p in pw]) for pw in powers]
        for cj in reversed(ring.solve(np.stack(flat[1:], axis=1), -flat[0] % m)[0]):
            alpha = [(a @ x + cj * np.eye(len(x), dtype=x.dtype)) % m for a, x in zip(alpha, e)]
    return ChainMap(z, z, dict(zip(z.degrees(), map(ring.matrix, alpha))))


def prop2_replay(m: TriangleMorphism, config: SearchConfig = DEFAULT_CONFIG) -> Prop2Replay:
    """Rebuild the unit 1 + e + a e^2 correcting c to the verified completion.

    Requires a diagram with identity first component over Z/m, m >= 2, rows
    standard on f and b o f.  Raises when the preimage step fails, which
    cannot happen for valid inputs; when c = c~ the preimage is psi = 0 and
    no system is solved.  The unit is invertible on the nose; it
    corrects c for any a, since e^2 o c and e o g' are null-homotopic.
    """
    row1, row2 = m.source, m.target
    ring = row1.x.ring
    if ring.is_integers:
        raise ComplexError("the replay needs a finite coefficient ring")
    if m.p != identity_map(row1.x):
        raise ComplexError("the replay expects an identity on the first corner")
    b, c = m.q, m.r
    ctilde = _functorial_completion(row1, row2, b)
    if homotopic(row2.h.compose(ctilde), row1.h) is None:
        raise ComplexError("completion candidate does not intertwine the connecting maps")
    sq = CommutativeSquare(row1.g, row2.g, b, ctilde)
    completion_cartesian = is_homotopy_cartesian(sq, config)
    if not completion_cartesian.is_yes:
        raise ComplexError("completion candidate square failed the cartesian check")
    diff = ctilde - c
    if diff.is_zero():
        psi = zero_map(shift(row1.x), row2.z)
    else:
        system = _ConstraintSystem(
            shift(row1.x), row2.z, [Constraint(required=diff, precompose=row1.h)]
        )
        sol = system.ring.solve(system.a, system.b)
        if sol is None:
            raise ComplexError("no preimage along precomposition with the connecting map")
        psi = system.phi_of(sol[0])
    eps = psi.compose(row2.h)
    alpha = _alpha_of(eps)
    unit = identity_map(row2.z) + eps + alpha.compose(eps).compose(eps)
    id_c = homotopic(unit.compose(c), ctilde)
    id_gp = homotopic(unit.compose(row2.g), row2.g)
    equivalence = is_homotopy_equivalence(unit)
    if id_c is None or id_gp is None or equivalence is None:
        raise AssertionError("replay identities failed to verify")
    return Prop2Replay(
        morphism=m,
        completion=ctilde,
        psi=psi,
        epsilon=eps,
        alpha=alpha,
        automorphism=unit,
        completion_cartesian=completion_cartesian,
        identity_on_c=id_c,
        identity_on_gprime=id_gp,
        equivalence=equivalence,
    )
