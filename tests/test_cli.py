import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import homcart
from homcart.cli import main
from homcart.jsonio import complex_to_json, square_to_json, triangle_to_json, chain_map_to_json
from homcart.complexes import identity_map
from homcart.squares import CommutativeSquare, square_from_cone
from homcart.suite import build_star, lemma2

from helpers import cmap, one_term, two_term


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_paper_verify_single_value(capsys):
    code, out, _ = run(capsys, "paper", "verify", "--a-min", "3", "--a-max", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["middle_square_cartesian"]["verdict"] == "no"
    assert data["reports"][0]["middle_square_cartesian"]["modulus"] == 9


def test_paper_verify_below_range_guard(capsys):
    code, _, err = run(capsys, "paper", "verify", "--a-min", "2", "--a-max", "3")
    assert code == 3
    assert "allow-unclaimed" in err


def test_paper_verify_allow_unclaimed(capsys):
    code, out, _ = run(
        capsys, "paper", "verify", "--a-min", "2", "--a-max", "3", "--allow-unclaimed", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) == 2
    assert data["reports"][0]["claimed_range"] is False


def test_square_check_yes_and_no(tmp_path, capsys):
    b_obj = two_term(3)
    b = cmap(b_obj, one_term(), {0: [[2]]})
    g = cmap(b_obj, one_term(), {0: [[5]]})
    good = tmp_path / "good.json"
    good.write_text(json.dumps(square_to_json(square_from_cone(b, g))))
    code, out, _ = run(capsys, "square", "check", str(good), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(square_to_json(build_star(3).middle)))
    code, out, _ = run(capsys, "square", "check", str(bad), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "no"
    assert payload["modulus"] == 9


def test_square_check_truncated_json(tmp_path, capsys):
    f = tmp_path / "trunc.json"
    f.write_text('{"corners": {')
    code, _, err = run(capsys, "square", "check", str(f))
    assert code == 3
    assert "error" in err


def test_complex_homology(tmp_path, capsys):
    f = tmp_path / "cx.json"
    f.write_text(json.dumps(complex_to_json(two_term(9))))
    code, out, _ = run(capsys, "complex", "homology", str(f), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["1"] == {"free_rank": 0, "invariant_factors": [9]}


def test_complex_homology_rejects_a_fractional_rank(tmp_path, capsys):
    f = tmp_path / "cx.json"
    f.write_text(json.dumps({"ring": "Z", "degrees": {"0": 1.9}}))
    code, _, err = run(capsys, "complex", "homology", str(f))
    assert code == 3
    assert "1.9" in err


def test_triangle_verify(tmp_path, capsys):
    inst = lemma2(2, a=3)
    f = tmp_path / "tri.json"
    f.write_text(
        json.dumps(
            {
                "triangle": triangle_to_json(inst.triangle),
                "witness": chain_map_to_json(inst.witness),
            }
        )
    )
    code, out, _ = run(capsys, "triangle", "verify", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_unit_lemma_integers_no_solution(capsys):
    code, out, _ = run(capsys, "unit-lemma", "--ring", "z", "--eps", "3")
    assert code == 1
    assert "no solution" in out


def test_unit_lemma_residue(capsys):
    code, out, _ = run(capsys, "unit-lemma", "--ring", "zmod:9", "--eps", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == 0
    assert data["unit"] == 4


def test_unit_lemma_matrix_f2(capsys):
    code, out, _ = run(
        capsys,
        "unit-lemma",
        "--ring",
        "matf:2:2",
        "--eps",
        "[[0,1],[0,0]]",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficient"] == [["0", "0"], ["0", "0"]]


_UNIT_LEMMA_PINS = [
    (
        "matf:5:3",
        "[[2, 3, 0], [0, 1, 1], [0, 4, 4]]",
        "{variant} = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]\n"
        "unit = [[1, 1, 1], [0, 2, 1], [0, 4, 0]]\n"
        "inverse = [[1, 4, 4], [0, 0, 4], [0, 1, 2]]\n",
        {
            "coefficient": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
            "inverse": [["1", "4", "4"], ["0", "0", "4"], ["0", "1", "2"]],
            "nilpotency_exponent": 2,
            "unit": [["1", "1", "1"], ["0", "2", "1"], ["0", "4", "0"]],
        },
    ),
    (
        "matq:3",
        '[["1/2", 1, 0], [0, 0, 1], [0, 0, 0]]',
        "{variant} = [['-2', '0', '0'], ['0', '-2', '0'], ['0', '0', '-2']]\n"
        "unit = [['1', '0', '-2'], ['0', '1', '1'], ['0', '0', '1']]\n"
        "inverse = [['1', '0', '2'], ['0', '1', '-1'], ['0', '0', '1']]\n",
        {
            "coefficient": [["-2", "0", "0"], ["0", "-2", "0"], ["0", "0", "-2"]],
            "inverse": [["1", "0", "2"], ["0", "1", "-1"], ["0", "0", "1"]],
            "nilpotency_exponent": 2,
            "unit": [["1", "0", "-2"], ["0", "1", "1"], ["0", "0", "1"]],
        },
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("variant", ["alpha", "beta"])
@pytest.mark.parametrize("ring, eps, text, payload", _UNIT_LEMMA_PINS, ids=["matf", "matq"])
def test_unit_lemma_matrix_stdout_is_pinned(capsys, ring, eps, text, payload, variant, fmt):
    code, out, _ = run(capsys, "unit-lemma", "--ring", ring, "--eps", eps, "--variant", variant, "--format", fmt)
    expected = text.format(variant=variant) if fmt == "text" else json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("ring", ["matf:2", "matf:2:2:2", "matf:x:2", "matq", "matq:2:2"])
def test_unit_lemma_rejects_malformed_matrix_descriptors(capsys, ring):
    code, out, err = run(capsys, "unit-lemma", "--ring", ring, "--eps", "[[1, 0], [0, 1]]")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("ring", ["matf:2:2", "matq:2"])
@pytest.mark.parametrize(
    "eps", ["[1, 2]", "[[1, 0], 2]", "[[1, 0]]", '{"a": 1}', "[[1, 0], [0, x]]", '[["1/0", 0], [0, 1]]']
)
def test_unit_lemma_rejects_malformed_matrix_entries(capsys, ring, eps):
    code, out, err = run(capsys, "unit-lemma", "--ring", ring, "--eps", eps)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("ring", ["matf:2:0", "matq:0", "matq:-1"])
def test_unit_lemma_rejects_an_empty_matrix_ring(capsys, ring):
    # k >= 1 for both matrix rings: an empty certificate is no answer
    code, out, err = run(capsys, "unit-lemma", "--ring", ring, "--eps", "[]")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "k >= 1" in err


def test_unit_lemma_bad_ring(capsys):
    code, _, err = run(capsys, "unit-lemma", "--ring", "weird", "--eps", "1")
    assert code == 3


@pytest.mark.parametrize("ring, eps", [("matf:4:2", "[[2,0],[0,1]]"), ("matf:6:2", "[[2,3],[1,4]]")])
def test_unit_lemma_matrix_over_a_composite_modulus(capsys, ring, eps):
    code, out, err = run(capsys, "unit-lemma", "--ring", ring, "--eps", eps)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "prime" in err and "Traceback" not in err


def test_fuzz_zero_trials(capsys):
    code, out, err = run(capsys, "fuzz", "prop2", "--trials", "0")
    assert code == 0
    assert "vacuous" in out
    assert "warning" in err


def test_fuzz_small_run_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "fuzz", "prop2", "--field", "2", "--trials", "5", "--seed", "9", "--format", "json"
    )
    code2, out2, _ = run(
        capsys, "fuzz", "prop2", "--field", "2", "--trials", "5", "--seed", "9", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["yes"] == 5


def test_bad_config_is_usage_error(tmp_path, capsys):
    f = tmp_path / "sq.json"
    b_obj = two_term(3)
    b = cmap(b_obj, one_term(), {0: [[2]]})
    g = cmap(b_obj, one_term(), {0: [[5]]})
    f.write_text(json.dumps(square_to_json(square_from_cone(b, g))))
    code, _, err = run(capsys, "square", "check", str(f), "--max-enum", "0")
    assert code == 3
    code, _, err = run(capsys, "square", "check", str(f), "--moduli", "1")
    assert code == 3
    code, _, err = run(capsys, "square", "check", str(f), "--coeff-bound", "-1")
    assert code == 3
    code, out, err = run(capsys, "paper", "verify", "--a-min", "3", "--a-max", "3", "--coeff-bound", "-1")
    assert code == 3
    assert out == "" and "nonnegative" in err


def test_fuzz_rejects_non_prime_field(capsys):
    code, _, err = run(capsys, "fuzz", "prop2", "--field", "4", "--trials", "2")
    assert code == 3
    assert "prime" in err


def test_fuzz_reports_an_undecided_primality_as_an_error(capsys):
    from homcart.modp import PSI_13

    code, out, err = run(capsys, "fuzz", "prop2", "--field", str(PSI_13), "--trials", "1")
    assert code == 3
    assert out == "" and err.startswith("error:") and "not decided" in err


@pytest.mark.parametrize("flag", ["--max-rank", "--degrees"])
def test_fuzz_rejects_sizes_with_no_nonzero_complex(flag):
    # in a child process with a timeout, so that a generator looping on
    # zero complexes fails the test instead of hanging it
    env = dict(os.environ, PYTHONPATH=str(Path(homcart.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "homcart.cli", "fuzz", "prop2", "--trials", "1", flag, "0"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "at least 1" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["paper"],
        ["nope"],
        ["paper", "verify", "--bogus"],
        ["paper", "verify", "--a-min", "x"],
        ["fuzz", "prop2", "--format", "yaml"],
    ],
)
def test_parse_errors_exit_3_with_an_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "homology", "cx.json"],
        ["triangle", "verify", "tri.json"],
        ["unit-lemma", "--ring", "zmod:9", "--eps", "3"],
    ],
)
@pytest.mark.parametrize("flag", ["--max-enum", "--coeff-bound", "--moduli"])
def test_search_flags_are_refused_where_no_search_runs(capsys, argv, flag):
    code, out, err = run(capsys, *argv, flag, "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["paper", "verify", "--help"])
    assert done.value.code == 0
    assert "--a-min" in capsys.readouterr().out


def test_complex_homology_rejects_a_truncated_block(tmp_path, capsys):
    f = tmp_path / "cx.json"
    f.write_text(json.dumps({"ring": "Z", "degrees": {"0": 3, "1": 1}, "differentials": {"0": [[]]}}))
    code, out, err = run(capsys, "complex", "homology", str(f))
    assert code == 3 and out == "" and err.startswith("error:")


def test_square_check_rejects_a_truncated_witness_block(tmp_path, capsys):
    one = identity_map(two_term(3))
    data = square_to_json(CommutativeSquare(one, one, one, one))
    # the zero homotopy would do; its block X^1 -> Y^0 is 1 x 1, not 1 x 0
    data["witness"] = {"1": [[]]}
    f = tmp_path / "sq.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "square", "check", str(f))
    assert code == 3 and out == "" and err.startswith("error:")


def _broken_star(data_dir: Path) -> None:
    star = json.loads((data_dir / "star.json").read_text(encoding="utf-8"))
    star["upper"]["h"]["components"]["-1"] = [["1"], ["0"]]
    (data_dir / "star.json").write_text(json.dumps(star), encoding="utf-8")


@pytest.mark.parametrize("dataset", ["missing", "disagreeing"])
def test_a_bad_dataset_is_an_input_error(tmp_path, monkeypatch, capsys, dataset):
    # exit 1 would claim a certified no
    data = tmp_path / "data"
    if dataset == "disagreeing":
        shutil.copytree(Path(homcart.__file__).resolve().parent / "data", data)
        _broken_star(data)
    monkeypatch.setenv("HOMCART_DATA", str(data))
    code, out, err = run(capsys, "paper", "verify", "--a-min", "3", "--a-max", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
