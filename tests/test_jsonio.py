import json

import pytest

from homcart.complexes import Zmod, cone_complex, direct_sum, identity_map, shift, zero_map
from homcart.jsonio import (
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
from homcart.squares import square_from_cone
from homcart.suite import build_star, lemma2
from homcart.triangles import identity_morphism, standard_triangle, verify_triangle_morphism

from helpers import cmap, cpx, one_term, two_term


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
