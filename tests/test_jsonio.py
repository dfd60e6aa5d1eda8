import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcart.complexes import ZZ, Complex, ComplexError, Ring, Zmod, cone_complex, direct_sum, identity_map, shift, zero_map
from homcart.jsonio import (
    _terms,
    chain_map_from_json,
    chain_map_to_json,
    complex_from_json,
    complex_to_json,
    square_from_json,
    square_to_json,
    triangle_from_json,
    triangle_morphism_from_json,
    triangle_morphism_to_json,
    triangle_to_json,
)
from homcart.squares import CommutativeSquare, is_homotopy_cartesian, square_from_cone
from homcart.suite import build_star, lemma2
from homcart.triangles import standard_triangle, verify_triangle_morphism

from helpers import NOT_DECIMAL, cmap, cpx, identity_morphism, one_term, two_term


def test_complex_roundtrip_including_modular():
    for c in (two_term(9), cpx({-1: 1, 0: 2}, {-1: [[-27], [9]]}), one_term(ring=Zmod(4))):
        data = json.loads(json.dumps(complex_to_json(c)))
        assert complex_from_json(data) == c


@pytest.mark.parametrize(
    "data",
    [
        {"ring": {"mod": 9.7}, "degrees": {"0": 1}},
        {"ring": "Z", "degrees": {"0": 1.9}},
        {"ring": "Z", "degrees": {"0": True}},
    ],
    ids=["fractional-modulus", "fractional-rank", "boolean-rank"],
)
def test_complex_loader_rejects_non_integer_ranks_and_moduli(data):
    with pytest.raises(ValueError):
        complex_from_json(data)


_INTEGER_SITES = {
    "modulus": lambda v: Ring.from_json({"mod": v}),
    "degree key": lambda v: complex_from_json({"ring": "Z", "degrees": {v: 1}}),
    "rank": lambda v: complex_from_json({"ring": "Z", "degrees": {"0": v}}),
    "block key": lambda v: chain_map_from_json({"components": {v: [["1"]]}}, one_term(), one_term()),
}


@pytest.mark.parametrize("site", _INTEGER_SITES)
@pytest.mark.parametrize("bad", NOT_DECIMAL)
def test_json_integers_are_decimal(site, bad):
    with pytest.raises(ValueError, match="not a decimal integer"):
        _INTEGER_SITES[site](bad)


def test_json_integers_may_be_json_numbers_or_signed_strings():
    assert Ring.from_json({"mod": 7}) == Ring.from_json({"mod": "7"}) == Zmod(7)
    with pytest.raises(ValueError, match="at least 2"):
        Ring.from_json({"mod": "-7"})
    for v in (7, "7"):
        assert complex_from_json({"ring": "Z", "degrees": {"0": v}}).rank(0) == 7
    with pytest.raises(ComplexError, match="negative rank"):
        complex_from_json({"ring": "Z", "degrees": {"0": "-7"}})
    for v in (7, "7", "-7"):
        c = one_term(degree=int(v))
        assert complex_from_json({"ring": "Z", "degrees": {v: 1}}) == c
        assert chain_map_from_json({"components": {v: [["1"]]}}, c, c) == identity_map(c)


def test_chain_map_roundtrip():
    c = two_term(9)
    f = cmap(c, c, {0: [[4]], 1: [[4]]})
    data = json.loads(json.dumps(chain_map_to_json(f)))
    assert chain_map_from_json(data, c, c) == f


def test_triangle_roundtrip_revalidates():
    t = lemma2(3, a=3).triangle
    data = json.loads(json.dumps(triangle_to_json(t)))
    assert triangle_from_json(data) == t
    # tampering a constrained component must fail the chain condition
    broken = json.loads(json.dumps(triangle_to_json(t)))
    broken["g"]["components"]["-1"][0][0] = "5"
    with pytest.raises(Exception):
        triangle_from_json(broken)


def test_morphism_roundtrip():
    star = build_star(3)
    m = star.morphism
    data = json.loads(json.dumps(triangle_morphism_to_json(m)))
    back = triangle_morphism_from_json(data)
    assert back.source == m.source and back.target == m.target
    assert back.p == m.p and back.q == m.q and back.r == m.r
    assert verify_triangle_morphism(back).ok


def test_square_roundtrip_with_witness():
    b_obj = two_term(3)
    sq = square_from_cone(
        cmap(b_obj, one_term(), {0: [[2]]}),
        cmap(b_obj, one_term(), {0: [[5]]}),
    )
    data = json.loads(json.dumps(square_to_json(sq)))
    back = square_from_json(data)
    assert back.g == sq.g and back.gprime == sq.gprime
    assert back.b == sq.b and back.c == sq.c


def test_yes_verdicts_write_their_witness_with_the_one_block_writer():
    # between contractible corners the zero map is a yes witness: every
    # block is zero, so none is written
    empty = Complex(ZZ, {}, {})
    c_obj, cprime = two_term(1), two_term(1)
    sq = CommutativeSquare(
        zero_map(empty, c_obj), zero_map(empty, cprime), zero_map(empty, empty), zero_map(c_obj, cprime)
    )
    verdict = is_homotopy_cartesian(sq)
    assert verdict.is_yes and verdict.witness.components()
    assert verdict.to_json()["witness"] == {}
    yes = is_homotopy_cartesian(build_star(2).middle)
    assert yes.to_json()["witness"] == chain_map_to_json(yes.witness)["components"]


def test_identity_morphism_roundtrip():
    t = standard_triangle(cmap(two_term(5), one_term(), {0: [[1]]}))
    m = identity_morphism(t)
    back = triangle_morphism_from_json(json.loads(json.dumps(triangle_morphism_to_json(m))))
    assert back.p == identity_map(t.x)


def test_package_level_exports():
    import homcart

    for name in (
        "IntMatrix",
        "smith_normal_form",
        "solve_linear",
        "cokernel",
        "Complex",
        "ChainMap",
        "Homotopy",
        "cone",
        "homotopic",
        "hom_group",
        "standard_triangle",
        "rotate",
        "verify_distinguished_with_witness",
        "is_homotopy_cartesian",
        "fits_vertical_iso",
        "find_compatible_equivalence",
        "rotation_comparison",
        "find_alpha",
        "find_beta",
        "find_alpha_over_Z",
        "lemma2",
        "build_star",
        "verify_paper",
        "fuzz_prop2",
        "prop2_replay",
    ):
        assert hasattr(homcart, name), name


@pytest.mark.parametrize(
    "c",
    [
        shift(cpx({0: 2, 1: 1, 2: 1}, {0: [[1, 0]]})),
        direct_sum(one_term(), one_term(degree=1)),
        cone_complex(zero_map(one_term(), one_term())),
        direct_sum(two_term(9, ring=Zmod(9)), one_term(ring=Zmod(9))),
    ],
    ids=["shift", "direct-sum", "cone", "direct-sum-mod-9"],
)
def test_complexes_with_zero_blocks_round_trip(c):
    assert complex_from_json(json.loads(json.dumps(complex_to_json(c)))) == c


def test_a_zero_block_written_out_or_omitted_loads_to_one_complex():
    written = {"ring": "Z", "degrees": {"0": 1, "1": 1}, "differentials": {"0": [["0"]]}}
    assert complex_from_json(written) == complex_from_json({"ring": "Z", "degrees": {"0": 1, "1": 1}})


_TERM = st.one_of(
    st.tuples(st.integers(-(10**30), 10**30), st.none(), st.just(0)),
    st.tuples(st.integers(-(10**30), 10**30), st.sampled_from("ab"), st.integers(0, 12)),
)


@st.composite
def _rendered(draw):
    """A list of terms and one of the ways of writing it as an entry."""
    terms = draw(st.lists(_TERM, min_size=1, max_size=6))
    entry = ""
    for i, (c, symbol, power) in enumerate(terms):
        sign = "-" if c < 0 else ("" if i == 0 and draw(st.booleans()) else "+")
        digits = "" if symbol and abs(c) == 1 and draw(st.booleans()) else str(abs(c))
        star = "*" if symbol and digits and draw(st.booleans()) else ""
        exponent = "" if power == 1 and draw(st.booleans()) else f"^{power}"
        entry += sign + digits + star + (symbol + exponent if symbol else "")
    spaced = "".join(ch + " " * draw(st.integers(0, 1)) for ch in entry)
    return terms, spaced


@settings(database=None, deadline=None, max_examples=300)
@given(case=_rendered())
def test_polynomial_entries_parse_back_to_their_terms(case):
    terms, entry = case
    assert _terms(entry) == tuple(terms)


@settings(database=None, deadline=None, max_examples=300)
@given(entry=st.text(alphabet="0123456789ab+-*^ \n٣", max_size=12))
def test_any_other_entry_parses_or_raises_value_error(entry):
    try:
        terms = _terms(entry)
    except ValueError:
        return
    assert terms and all(type(c) is int and symbol in (None, "a", "b") and power >= 0 for c, symbol, power in terms)


@pytest.mark.parametrize(
    "entry, expected",
    [
        ("2*", ((2, None, 0),)),
        ("*a", ((1, "a", 1),)),
        (" 3 a ^ 2 ", ((3, "a", 2),)),
        ("-0", ((0, None, 0),)),
        ("a^0", ((1, "a", 0),)),
        ("٣a", "cannot parse polynomial entry '٣a'"),
        ("a^٣", "cannot parse polynomial entry 'a^٣'"),
        ("1+-a", "cannot parse polynomial entry '1+-a'"),
        ("2\n", "cannot parse polynomial entry '2\\n'"),
        ("1\n+a", "cannot parse polynomial entry '1\\n+a'"),
        ("a^", "cannot parse polynomial entry 'a^'"),
        ("^2", "cannot parse polynomial entry '^2'"),
        ("ab", "cannot parse polynomial entry 'ab'"),
        ("+", "cannot parse polynomial entry '+'"),
        ("3^2", "exponent without symbol in '3^2'"),
        ("", "empty polynomial entry"),
    ],
)
def test_polynomial_entry_quirks(entry, expected):
    # edge cases of the entry syntax, pinned exactly
    if isinstance(expected, tuple):
        assert _terms(entry) == expected
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            _terms(entry)
