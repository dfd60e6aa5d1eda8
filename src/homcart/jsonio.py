"""JSON formats for complexes, chain maps, triangles and squares.

Matrices are arrays of arrays of decimal integer strings, row-major, rows
indexed by the target basis.  A complex is {"ring": "Z" | {"mod": m},
"degrees": {"<i>": rank}, "differentials": {"<i>": matrix}}; omitted degrees
mean rank 0.  A chain map is {"components": {"<i>": matrix}} relative to a
source and target supplied by context, and a square's witness homotopy is
{"<i>": matrix}.

Differentials, chain maps and homotopies, maps of degree 1, 0 and -1, are
read by one block loader and written by one block dumper,
`_GradedMap.blocks_to_json` in `complexes`, which omits zero blocks and
also writes a yes verdict's witness.  The block in degree i of a degree-n
map X -> Y has rank_Y(i+n) rows of exactly rank_X(i) entries; a zero block
may be written out or omitted.
Loaders re-validate everything they read (shapes, d o d = 0, chain
conditions, witness equations).

Dataset templates may carry polynomial entries in the parameters a and b
("-a^3", "1+a", ...), each split once at its signs (`_terms`).  `substitute`
evaluates a template to a JSON document of decimal integers for the loaders
above: the JSON path, which tests use as the per-instance oracle of
`suite`'s compiled templates.  Those read the same terms into integer
coefficient arrays, evaluate them with numpy's `polyval`, and build their
instances unchecked, since their identities are proved once per content.
"""

import re
from functools import lru_cache

from .complexes import ChainMap, Complex, Homotopy, Ring, shift
from .intmat import IntMatrix, decimal_integer
from .squares import CommutativeSquare
from .triangles import Triangle, TriangleMorphism

_MONOMIAL = re.compile(r"([0-9]+)?\*?([ab])?(?:\^([0-9]+))?")


def poly_eval(expr: str, a: int = 0, b: int = 0) -> int:
    """Evaluate an integer polynomial expression in a and b.

    Accepts sums of signed monomials like "-a^3", "1+a", "2", "b", "a^2".
    Each expression is parsed once (`_terms`) and evaluated per (a, b).
    """
    total = 0
    for coeff, symbol, power in _terms(str(expr)):
        total += coeff * (a if symbol == "a" else b) ** power if symbol else coeff
    return total


@lru_cache(maxsize=256)
def _terms(expr: str) -> tuple[tuple[int, str | None, int], ...]:
    """The signed monomials of `expr` as (coefficient, symbol or None, power)."""
    s = expr.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial entry")
    terms = []
    for sign, term in re.findall(r"([+-])([^+-]*)", s if s[0] in "+-" else "+" + s):
        m = _MONOMIAL.fullmatch(term)
        if not m or m.group(1) is None and m.group(2) is None:
            raise ValueError(f"cannot parse polynomial entry {expr!r}")
        digits, symbol, power = m.groups()
        if symbol is None and power is not None:
            raise ValueError(f"exponent without symbol in {expr!r}")
        terms.append((int(sign + (digits or "1")), symbol, int(power or 1) if symbol else 0))
    return tuple(terms)


_VERBATIM_KEYS = {"ring", "name", "degree_note", "parameters"}


def substitute(node, a: int = 0, b: int = 0):
    """Recursively evaluate polynomial matrix entries of a dataset template.

    Descriptive fields (ring tags, names, notes) pass through verbatim.
    """
    if isinstance(node, dict):
        return {
            k: (v if k in _VERBATIM_KEYS else substitute(v, a, b))
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [substitute(v, a, b) for v in node]
    if isinstance(node, str):
        return str(poly_eval(node, a, b))
    return node


def _blocks_from_json(data: dict, source_rank, target_rank, n: int) -> dict[int, IntMatrix]:
    """The blocks X^i -> Y^(i+n) of a degree-n map, each read at the shape
    target_rank(i+n) x source_rank(i)."""
    degrees = {decimal_integer(i): mat for i, mat in data.items()}
    return {i: IntMatrix.from_json(mat, rows=target_rank(i + n), cols=source_rank(i)) for i, mat in degrees.items()}


def complex_to_json(c: Complex) -> dict:
    return {
        "ring": c.ring.to_json(),
        "degrees": {str(i): c.rank(i) for i in c.degrees()},
        "differentials": c.blocks_to_json(),
    }


def complex_from_json(data: dict) -> Complex:
    ring = Ring.from_json(data.get("ring", "Z"))
    degrees = {decimal_integer(i): decimal_integer(r) for i, r in data.get("degrees", {}).items()}

    def rank(i: int) -> int:
        return degrees.get(i, 0)

    return Complex(ring, degrees, _blocks_from_json(data.get("differentials", {}), rank, rank, 1))


def chain_map_to_json(f: ChainMap) -> dict:
    return {"components": f.blocks_to_json()}


def chain_map_from_json(data: dict, source: Complex, target: Complex) -> ChainMap:
    return ChainMap(source, target, _blocks_from_json(data.get("components", {}), source.rank, target.rank, 0))


def triangle_to_json(t: Triangle) -> dict:
    return {
        "x": complex_to_json(t.x),
        "y": complex_to_json(t.y),
        "z": complex_to_json(t.z),
        "f": chain_map_to_json(t.f),
        "g": chain_map_to_json(t.g),
        "h": chain_map_to_json(t.h),
    }


def triangle_from_json(data: dict) -> Triangle:
    x = complex_from_json(data["x"])
    y = complex_from_json(data["y"])
    z = complex_from_json(data["z"])
    f = chain_map_from_json(data["f"], x, y)
    g = chain_map_from_json(data["g"], y, z)
    h = chain_map_from_json(data["h"], z, shift(x))
    return Triangle(f, g, h)


def triangle_morphism_to_json(m: TriangleMorphism) -> dict:
    return {
        "source": triangle_to_json(m.source),
        "target": triangle_to_json(m.target),
        "p": chain_map_to_json(m.p),
        "q": chain_map_to_json(m.q),
        "r": chain_map_to_json(m.r),
    }


def triangle_morphism_from_json(data: dict) -> TriangleMorphism:
    s = triangle_from_json(data["source"])
    t = triangle_from_json(data["target"])
    p = chain_map_from_json(data["p"], s.x, t.x)
    q = chain_map_from_json(data["q"], s.y, t.y)
    r = chain_map_from_json(data["r"], s.z, t.z)
    return TriangleMorphism(s, t, p, q, r)


def square_to_json(sq: CommutativeSquare) -> dict:
    return {
        "corners": {
            "B": complex_to_json(sq.b_obj),
            "C": complex_to_json(sq.c_obj),
            "B_prime": complex_to_json(sq.bprime_obj),
            "C_prime": complex_to_json(sq.cprime_obj),
        },
        "maps": {
            "g": chain_map_to_json(sq.g),
            "g_prime": chain_map_to_json(sq.gprime),
            "b": chain_map_to_json(sq.b),
            "c": chain_map_to_json(sq.c),
        },
        "witness": sq.witness.blocks_to_json(),
    }


def square_from_json(data: dict) -> CommutativeSquare:
    corners = data["corners"]
    b_obj = complex_from_json(corners["B"])
    c_obj = complex_from_json(corners["C"])
    bp = complex_from_json(corners["B_prime"])
    cp = complex_from_json(corners["C_prime"])
    maps = data["maps"]
    g = chain_map_from_json(maps["g"], b_obj, c_obj)
    gp = chain_map_from_json(maps["g_prime"], bp, cp)
    b = chain_map_from_json(maps["b"], b_obj, bp)
    c = chain_map_from_json(maps["c"], c_obj, cp)
    witness = None
    if data.get("witness"):
        comps = _blocks_from_json(data["witness"], b_obj.rank, cp.rank, -1)
        witness = Homotopy(c.compose(g), gp.compose(b), comps)
    return CommutativeSquare(g, gp, b, c, witness=witness)
