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

from helpers import NOT_DECIMAL, cmap, one_term, two_term


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


def test_square_check_refuses_a_square_that_does_not_commute(tmp_path, capsys):
    z = one_term()
    one, zero = cmap(z, z, {0: [[1]]}), cmap(z, z, {0: [[0]]})
    f = tmp_path / "noncommuting.json"
    corners = dict.fromkeys(("B", "C", "B_prime", "C_prime"), complex_to_json(z))
    maps = {"g": chain_map_to_json(one), "g_prime": chain_map_to_json(one), "b": chain_map_to_json(one)}
    f.write_text(json.dumps({"corners": corners, "maps": {**maps, "c": chain_map_to_json(zero)}}))
    code, out, err = run(capsys, "square", "check", str(f))
    assert code == 3
    assert out == ""
    assert err == "error: invalid square data: c o g is not homotopic to g' o b\n"


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


_GAPPED_HOMOLOGY = {0: 1, 1: 0, 2: 0, 3: 2}


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "H^0 = Z\nH^1 = 0\nH^2 = 0\nH^3 = Z^2\n"),
        (
            "json",
            json.dumps(
                {str(i): {"free_rank": r, "invariant_factors": []} for i, r in _GAPPED_HOMOLOGY.items()},
                sort_keys=True,
                indent=2,
            )
            + "\n",
        ),
    ],
)
def test_complex_homology_lists_every_degree_of_a_gapped_span(tmp_path, capsys, fmt, expected):
    # the complex has rank only in degrees 0 and 3; H^1 and H^2 are still printed
    f = tmp_path / "gap.json"
    f.write_text(json.dumps({"ring": "Z", "degrees": {"0": 1, "3": 2}}))
    code, out, _ = run(capsys, "complex", "homology", str(f), "--format", fmt)
    assert code == 0
    assert out == expected


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "eps, text, payload",
    [
        ("2", "alpha = -1; 1 + e + alpha e^2 = -1\n", {"alpha": -1, "unit": -1}),
        ("-1", "alpha = 1; 1 + e + alpha e^2 = 1\n", {"alpha": 1, "unit": 1}),
    ],
    ids=["eps=2", "eps=-1"],
)
def test_unit_lemma_over_z_success_is_pinned(capsys, eps, text, payload, fmt):
    code, out, _ = run(capsys, "unit-lemma", "--ring", "z", "--eps", eps, "--format", fmt)
    assert code == 0
    assert out == (text if fmt == "text" else json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    "eps",
    ["[1, 2]", "[[1, 0], 2]", "[[1, 0]]", '{"a": 1}', "[[1, 0], [0, x]]", '[["1/0", 0], [0, 1]]']
    # entries that are no decimal integer or fraction; a JSON float too, as entries are exact
    + [f"[[{entry}, 0], [0, 1]]" for entry in ('"1_0"', '"\u0663"', '" 7"', '"1/\u0663"', '"0.5"', "0.5")],
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


@pytest.mark.parametrize("entry, value", [("3", "3"), ('"3"', "3"), ('"-1/2"', "-1/2")])
def test_unit_lemma_reads_matq_entries_as_decimal_integers_or_fractions(capsys, entry, value):
    code, out, _ = run(capsys, "unit-lemma", "--ring", "matq:2", "--eps", f"[[0, {entry}], [0, 0]]", "--format", "json")
    assert code == 0
    assert json.loads(out)["unit"] == [["1", value], ["0", "1"]]


def test_unit_lemma_bad_ring(capsys):
    code, _, err = run(capsys, "unit-lemma", "--ring", "weird", "--eps", "1")
    assert code == 3


@pytest.mark.parametrize("ring, eps", [("matf:4:2", "[[2,0],[0,1]]"), ("matf:6:2", "[[2,3],[1,4]]")])
def test_unit_lemma_matrix_over_a_composite_modulus(capsys, ring, eps):
    code, out, err = run(capsys, "unit-lemma", "--ring", ring, "--eps", eps)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "prime" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "ring, eps, message",
    [
        # a ring it refuses, a shape that is not k x k, an entry that is no integer
        ("matf:1048583:1", "[[1]]", "error: bad matrix ring: matrices over F_p need a prime p <= 1048576, got 1048583"),
        ("matf:4:1", "[[1]]", "error: bad matrix ring: matrices over F_p need a prime p <= 1048576, got 4\n"),
        ("matf:3:0", "[]", "error: bad matrix ring: expected matf:p:k with k >= 1\n"),
        ("matq:x", "[[1]]", "error: bad matrix ring: 'x' is not a decimal integer\n"),
        ("matf:3:2", "[[1, 0]]", "error: bad matrix shape: expected a 2x2 matrix as a JSON array of rows\n"),
        ("matq:2", "[[1], [0, 1]]", "error: bad matrix shape: expected a 2x2 matrix as a JSON array of rows\n"),
        ("matf:3:1", "[[1]", "error: bad matrix shape: expected a 1x1 matrix as a JSON array of rows\n"),
        ("matf:3:1", '[["x"]]', "error: bad matrix element: 'x' is not a decimal integer\n"),
        ("matq:1", '[["1/0"]]', "error: bad matrix element: '1/0' is not a fraction"),
    ],
    ids=["prime-above-2^20", "composite", "k-zero", "k-not-decimal", "rows", "ragged", "not-json", "entry", "fraction"],
)
def test_unit_lemma_names_what_it_refused(capsys, ring, eps, message):
    code, out, err = run(capsys, "unit-lemma", "--ring", ring, "--eps", eps)
    assert code == 3 and out == ""
    assert err.startswith(message), err


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


def test_fuzz_exits_2_when_a_trial_stays_unknown(capsys):
    # trial 2 needs 2 classes, one more than --max-enum allows
    code, out, _ = run(
        capsys, "fuzz", "prop2", "--field", "2", "--trials", "3", "--seed", "42", "--max-enum", "1", "--format", "json"
    )
    assert code == 2
    payload = json.loads(out)
    assert (payload["yes"], payload["no"], payload["unknown"]) == (2, 0, 1)


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


def test_fuzz_runs_over_z_mod_m_and_refuses_moduli_below_two(capsys):
    code, out, _ = run(capsys, "fuzz", "prop2", "--field", "4", "--trials", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["yes"] == 3 and payload["no"] == payload["unknown"] == 0
    for m in ("1", "0"):
        code, out, err = run(capsys, "fuzz", "prop2", "--field", m, "--trials", "2")
        assert code == 3
        assert out == "" and err.startswith("error:") and "at least 2" in err


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


# each subcommand with the search flags it refuses
_REFUSED_SEARCH_FLAGS = [
    (["complex", "homology", "cx.json"], ("--max-enum", "--coeff-bound", "--moduli")),
    (["triangle", "verify", "tri.json"], ("--max-enum", "--coeff-bound", "--moduli")),
    (["unit-lemma", "--ring", "zmod:9", "--eps", "3"], ("--max-enum", "--coeff-bound", "--moduli")),
    # its squares are over Z/m: a Subquotient mod m has free rank 0, and the
    # refutation moduli are scheduled by the search over Z alone
    (["fuzz", "prop2", "--trials", "1"], ("--coeff-bound", "--moduli")),
]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(argv, flag, id=f"{flag}-argv{k}")
        for k, (argv, flags) in enumerate(_REFUSED_SEARCH_FLAGS)
        for flag in flags
    ],
)
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


# a wrong value kind, a string for a list, a missing key, a wrong document type
_MALFORMED = {
    "lemma2-3.json": lambda raw: {**raw, "parameters": 5},
    "lemma2-4.json": lambda raw: {**raw, "parameters": "ab"},
    "lemma2-2.json": lambda raw: {k: v for k, v in raw.items() if k != "homotopies"},
    "star.json": lambda raw: [1, 2],
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_a_malformed_data_file_is_an_input_error(tmp_path, monkeypatch, capsys, name):
    # refused where the file's structure is read: exit 1 would claim a
    # certified no
    data = tmp_path / "data"
    shutil.copytree(Path(homcart.__file__).resolve().parent / "data", data)
    raw = json.loads((data / name).read_text(encoding="utf-8"))
    (data / name).write_text(json.dumps(_MALFORMED[name](raw)), encoding="utf-8")
    monkeypatch.setenv("HOMCART_DATA", str(data))
    code, out, err = run(capsys, "paper", "verify", "--a-min", "3", "--a-max", "3")
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {name}")


def test_a_template_entry_with_other_digits_is_an_input_error(tmp_path, monkeypatch, capsys):
    # U+0662 reads as 2 under \d: the template would load as a^2 and verify
    data = tmp_path / "data"
    shutil.copytree(Path(homcart.__file__).resolve().parent / "data", data)
    text = (data / "lemma2-1.json").read_text(encoding="utf-8")
    assert '"-a^2"' in text
    (data / "lemma2-1.json").write_text(text.replace('"-a^2"', '"-a^\u0662"'), encoding="utf-8")
    monkeypatch.setenv("HOMCART_DATA", str(data))
    code, out, err = run(capsys, "paper", "verify", "--a-min", "3", "--a-max", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot parse polynomial entry")


# each integer the command line reads, with {} where the value goes
_INTEGER_ARGUMENTS = {
    "zmod modulus": ("unit-lemma", "--ring", "zmod:{}", "--eps", "1"),
    "zmod eps": ("unit-lemma", "--ring", "zmod:9", "--eps={}"),
    "z eps": ("unit-lemma", "--ring", "z", "--eps={}"),
    "matf prime": ("unit-lemma", "--ring", "matf:{}:1", "--eps", '[["1"]]'),
    "matf size": ("unit-lemma", "--ring", "matf:3:{}", "--eps", '[["1"]]'),
    "matf entry": ("unit-lemma", "--ring", "matf:3:1", "--eps", '[["{}"]]'),
    "matq size": ("unit-lemma", "--ring", "matq:{}", "--eps", '[["1"]]'),
    "--a-min": ("paper", "verify", "--a-min={}", "--a-max=-8"),
    "--a-max": ("paper", "verify", "--a-min=8", "--a-max={}"),
    "--trials": ("fuzz", "prop2", "--trials={}"),
    **{
        option: ("fuzz", "prop2", "--trials=0", option + "={}")
        for option in ("--field", "--seed", "--max-rank", "--degrees", "--max-enum")
    },
    "--coeff-bound": ("paper", "verify", "--a-min=3", "--a-max=3", "--coeff-bound={}"),
    "--moduli": ("paper", "verify", "--a-min=3", "--a-max=3", "--moduli={}"),
}


@pytest.mark.parametrize("site", _INTEGER_ARGUMENTS)
def test_command_line_integers_are_decimal(capsys, site):
    def run_with(value):
        return run(capsys, *(arg.replace("{}", value) for arg in _INTEGER_ARGUMENTS[site]))

    for bad in NOT_DECIMAL:
        if site == "--moduli" and bad == " 7":
            continue  # spaces separate moduli: the list (7,)
        code, _, err = run_with(bad)
        assert code == 3 and "decimal" in err, (bad, err)
    for good in ("7", "-7"):
        _, _, err = run_with(good)
        assert "decimal" not in err, (good, err)


def test_command_line_integers_are_read_as_signed_decimals(capsys):
    assert run(capsys, "unit-lemma", "--ring", "zmod:7", "--eps=-7", "--format", "json")[0] == 0
    code, out, _ = run(capsys, "unit-lemma", "--ring", "matf:3:1", "--eps", "[[7]]", "--format", "json")
    assert code == 0 and json.loads(out)["unit"] == [["1"]]
    assert run(capsys, "fuzz", "prop2", "--trials=1", "--seed=-7")[0] == 0
    assert run(capsys, "paper", "verify", "--a-min=3", "--a-max=3", "--moduli= 7")[0] == 0
    code, _, err = run(capsys, "paper", "verify", "--a-min=3", "--a-max=3", "--moduli=-7")
    assert code == 3 and "moduli must be at least 2" in err
