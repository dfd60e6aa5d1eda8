"""Command-line interface.

Subcommands: `paper verify`, `square check`, `complex homology`,
`triangle verify`, `unit-lemma`, `fuzz prop2`.  Exit codes are a contract:
0 = yes/pass, 1 = certified no, 2 = unknown, 3 = usage or input error.
Reports are byte-reproducible for fixed inputs, seed and configuration, so
wall-clock timings go to stderr only.  The dataset directory can be
overridden with the HOMCART_DATA environment variable.
"""

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .complexes import cone_complex, homology
from .intmat import FGAbelianGroup, decimal_integer
from .jsonio import (
    chain_map_from_json,
    complex_from_json,
    square_from_json,
    triangle_from_json,
)
from .squares import SearchConfig, is_homotopy_cartesian
from .suite import TranscriptionError, fuzz_prop2, report_text, verify_paper
from .triangles import verify_distinguished_with_witness
from .unitlemma import (
    FpMatrix,
    QMatrix,
    ResidueElement,
    find_alpha,
    find_alpha_over_Z,
    find_beta,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parse error is a usage error and exits 3, not argparse's 2, which
    here means unknown."""

    def error(self, message):
        raise UsageError(message)


def _config_from(args) -> SearchConfig:
    moduli = [decimal_integer(tok) for tok in (args.moduli or "").replace(",", " ").split()]
    kwargs = {}
    if args.max_enum is not None:
        kwargs["max_enum"] = args.max_enum
    if args.coeff_bound is not None:
        kwargs["coeff_bound"] = args.coeff_bound
    return SearchConfig(extra_moduli=tuple(moduli), **kwargs)


def _add_format_flag(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "text"), default="text")


def _add_config_flags(p: argparse.ArgumentParser, over_z: bool = True):
    """The search bounds of `SearchConfig`, for the subcommands that search:
    `--max-enum`, and where the squares may be over Z the two bounds only
    the search over Z reads."""
    p.add_argument(
        "--max-enum",
        type=decimal_integer,
        default=None,
        help="cap on the constraint-solution classes walked over Z/m; the box over Z walks at most min(this, 4096);"
        " the refutation's unit classes are capped at 256 alone",
    )
    if over_z:
        p.add_argument("--coeff-bound", type=decimal_integer, default=None, help="coefficient bound for integral searches")
        p.add_argument("--moduli", default="", help="extra refutation moduli, comma or space separated")
    else:
        p.set_defaults(coeff_bound=None, moduli="")
    _add_format_flag(p)


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from e


def _rational(v) -> Fraction:
    """A `decimal_integer`, or an ASCII string [+-]?[0-9]+/[0-9]+ with a
    nonzero denominator; anything else, a JSON float too, is refused."""
    if not isinstance(v, str) or "/" not in v:
        return Fraction(decimal_integer(v))
    if not re.fullmatch("[+-]?[0-9]+/[0-9]*[1-9][0-9]*", v):
        raise ValueError(f"{v!r} is not a fraction of decimal integers with a nonzero denominator")
    return Fraction(v)


def _verdict_exit(verdict) -> int:
    if verdict.is_yes:
        return EXIT_YES
    if verdict.is_no:
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_paper_verify(args) -> int:
    if args.a_min > args.a_max:
        raise UsageError("--a-min must not exceed --a-max")
    if args.a_min < 3 and not args.allow_unclaimed:
        raise UsageError(
            "values below 3 carry no certified expectation; pass --allow-unclaimed to run them anyway"
        )
    config = _config_from(args)
    reports = [verify_paper(a, config) for a in range(args.a_min, args.a_max + 1)]
    payload = {"reports": [r.to_json() for r in reports]}
    text = "\n".join(report_text(r) for r in reports)
    _emit(args, payload, text)
    claimed = [r for r in reports if r.claimed]
    if any(
        (r.claim1.is_unknown or r.claim2.is_unknown) for r in claimed
    ):
        return EXIT_UNKNOWN
    if all(r.all_ok for r in claimed):
        return EXIT_YES
    return EXIT_NO


def cmd_square_check(args) -> int:
    data = _load_json(args.file)
    try:
        sq = square_from_json(data)
    except Exception as e:
        raise UsageError(f"invalid square data: {e}") from e
    verdict = is_homotopy_cartesian(sq, _config_from(args))
    text = f"verdict: {verdict.kind}"
    if verdict.is_no and verdict.modulus:
        text += f" (certified mod {verdict.modulus}, {verdict.exhausted} classes exhausted)"
    if verdict.reason:
        text += f"\n{verdict.reason}"
    _emit(args, verdict.to_json(), text)
    return _verdict_exit(verdict)


def cmd_complex_homology(args) -> int:
    data = _load_json(args.file)
    try:
        c = complex_from_json(data)
        groups = homology(c)
    except Exception as e:
        raise UsageError(f"invalid complex data: {e}") from e
    # every degree of the span, H^i = 0 included
    span = range(min(groups), max(groups) + 1) if groups else ()
    groups = [(i, groups.get(i, FGAbelianGroup(0))) for i in span]
    payload = {str(i): g.to_json() for i, g in groups}
    text = "\n".join(f"H^{i} = {g}" for i, g in groups)
    _emit(args, payload, text if text else "zero complex")
    return EXIT_YES


def cmd_triangle_verify(args) -> int:
    data = _load_json(args.file)
    try:
        tri = triangle_from_json(data["triangle"])
        witness = chain_map_from_json(data["witness"], cone_complex(tri.f), tri.z)
    except Exception as e:
        raise UsageError(f"invalid triangle data: {e}") from e
    check = verify_distinguished_with_witness(tri, witness)
    payload = {"ok": check.ok, "failures": list(check.failures)}
    text = "distinguished: certified" if check.ok else "FAILED: " + "; ".join(check.failures)
    _emit(args, payload, text)
    return EXIT_YES if check.ok else EXIT_NO


def cmd_unit_lemma(args) -> int:
    desc = args.ring.lower()
    variant = args.variant

    def matrix_json(m):
        return [[str(v) for v in row] for row in m.a.tolist()]

    if desc == "z":
        try:
            eps = decimal_integer(args.eps)
        except ValueError as e:
            raise UsageError(f"--eps must be an integer for ring z: {e}") from e
        alpha = find_alpha_over_Z(eps)
        if alpha is None:
            _emit(args, {"solution": None}, "no solution")
            return EXIT_NO
        value = 1 + eps + alpha * eps * eps
        _emit(
            args,
            {"alpha": alpha, "unit": value},
            f"alpha = {alpha}; 1 + e + alpha e^2 = {value}",
        )
        return EXIT_YES
    if desc.startswith("zmod:"):
        try:
            m = decimal_integer(desc.split(":", 1)[1])
            eps = ResidueElement(m, decimal_integer(args.eps))
        except ValueError as e:
            raise UsageError(f"bad residue ring descriptor or element: {e}") from e
        cert = find_alpha(eps) if variant == "alpha" else find_beta(eps)
        payload = {
            "alpha" if variant == "alpha" else "beta": cert.coefficient.value,
            "unit": cert.unit.value,
            "inverse": cert.inverse.value,
            "modulus": m,
        }
        text = (
            f"{variant} = {cert.coefficient.value}; unit {cert.unit.value} mod {m}, "
            f"inverse {cert.inverse.value}"
        )
        _emit(args, payload, text)
        return EXIT_YES
    if desc.startswith(("matf:", "matq:")):
        rational = desc.startswith("matq:")
        try:
            params = [decimal_integer(v) for v in desc.split(":")[1:]]
            if len(params) != (1 if rational else 2) or params[-1] < 1:
                raise ValueError(f"expected {'matq:k' if rational else 'matf:p:k'} with k >= 1")
            if not rational:
                FpMatrix.field(params[0])
        except ValueError as e:
            raise UsageError(f"bad matrix ring: {e}") from e
        k = params[-1]
        try:
            rows = json.loads(args.eps)
        except ValueError:
            rows = None
        if not (isinstance(rows, list) and len(rows) == k and all(isinstance(r, list) and len(r) == k for r in rows)):
            raise UsageError(f"bad matrix shape: expected a {k}x{k} matrix as a JSON array of rows")
        try:
            if rational:
                eps = QMatrix([[_rational(v) for v in row] for row in rows])
            else:
                eps = FpMatrix(params[0], [[decimal_integer(v) for v in row] for row in rows])
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise UsageError(f"bad matrix element: {e}") from e
        cert = find_alpha(eps) if variant == "alpha" else find_beta(eps)
        mats = {"coefficient": cert.coefficient, "unit": cert.unit, "inverse": cert.inverse}
        payload = {name: matrix_json(m) for name, m in mats.items()}
        payload["nilpotency_exponent"] = cert.nilpotency_exponent
        # matq prints the quoted entries of the payload, matf plain integers
        render = matrix_json if rational else (lambda m: m.a.tolist())
        text = "\n".join(f"{variant if name == 'coefficient' else name} = {render(m)}" for name, m in mats.items())
        _emit(args, payload, text)
        return EXIT_YES
    raise UsageError(f"unrecognized ring descriptor {args.ring!r}")


def cmd_fuzz_prop2(args) -> int:
    if args.trials < 0:
        raise UsageError("--trials must be nonnegative")
    if args.trials == 0:
        print("warning: zero trials requested; vacuously passing", file=sys.stderr)
        _emit(args, {"trials": 0, "yes": 0}, "0 trials: vacuous pass")
        return EXIT_YES
    config = _config_from(args)
    yes = no = unknown = perturbed = attempted = 0
    for trial in fuzz_prop2(args.field, args.trials, args.seed, max_rank=args.max_rank, n_degrees=args.degrees):
        t0 = time.perf_counter()
        verdict = is_homotopy_cartesian(trial.square, config)
        dt = time.perf_counter() - t0
        print(
            f"trial {trial.index}: {verdict.kind} "
            f"({'perturbed' if trial.perturbed else 'plain'}, {dt * 1000:.1f} ms)",
            file=sys.stderr,
        )
        if verdict.is_yes:
            yes += 1
        elif verdict.is_no:
            no += 1
        else:
            unknown += 1
        if trial.perturbation_attempted:
            attempted += 1
            if trial.perturbed:
                perturbed += 1
    discard_rate = 0.0 if attempted == 0 else (attempted - perturbed) / attempted
    payload = {
        "field": args.field,
        "trials": args.trials,
        "seed": args.seed,
        "yes": yes,
        "no": no,
        "unknown": unknown,
        "perturbed_accepted": perturbed,
        "perturbation_attempts": attempted,
    }
    text = (
        f"{yes}/{args.trials} yes, {no} no, {unknown} unknown; "
        f"{perturbed}/{attempted} perturbations accepted"
    )
    print(f"discard rate: {discard_rate:.3f}", file=sys.stderr)
    _emit(args, payload, text)
    if no:
        return EXIT_NO
    if unknown:
        return EXIT_UNKNOWN
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homcart",
        description="exact verification of homotopy-cartesian squares, distinguished triangles, and unit certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    paper = sub.add_parser("paper", help="built-in dataset pipeline")
    paper_sub = paper.add_subparsers(dest="subcommand", required=True)
    pv = paper_sub.add_parser("verify", help="run the full verification for a parameter range")
    pv.add_argument("--a-min", type=decimal_integer, default=3)
    pv.add_argument("--a-max", type=decimal_integer, default=12)
    pv.add_argument("--allow-unclaimed", action="store_true", help="permit a < 3 (verdicts recorded, not asserted)")
    _add_config_flags(pv)
    pv.set_defaults(run=cmd_paper_verify)

    square = sub.add_parser("square", help="operations on commutative squares")
    square_sub = square.add_subparsers(dest="subcommand", required=True)
    sc = square_sub.add_parser("check", help="decide homotopy-cartesianess of a square file")
    sc.add_argument("file")
    _add_config_flags(sc)
    sc.set_defaults(run=cmd_square_check)

    cx = sub.add_parser("complex", help="operations on complexes")
    cx_sub = cx.add_subparsers(dest="subcommand", required=True)
    ch = cx_sub.add_parser("homology", help="invariant factors of the homology of a complex file")
    ch.add_argument("file")
    _add_format_flag(ch)
    ch.set_defaults(run=cmd_complex_homology)

    tri = sub.add_parser("triangle", help="operations on triangles")
    tri_sub = tri.add_subparsers(dest="subcommand", required=True)
    tv = tri_sub.add_parser("verify", help="certify distinguishedness with a stored witness")
    tv.add_argument("file")
    _add_format_flag(tv)
    tv.set_defaults(run=cmd_triangle_verify)

    ul = sub.add_parser("unit-lemma", help="construct a unit 1 + e + a e^2 (or right-handed variant)")
    ul.add_argument("--ring", required=True, help='one of "z", "zmod:m", "matf:p:k", "matq:k"')
    ul.add_argument("--eps", required=True, help="element: integer or JSON matrix")
    ul.add_argument("--variant", choices=("alpha", "beta"), default="alpha")
    _add_format_flag(ul)
    ul.set_defaults(run=cmd_unit_lemma)

    fz = sub.add_parser("fuzz", help="randomized conjecture checking")
    fz_sub = fz.add_subparsers(dest="subcommand", required=True)
    fp = fz_sub.add_parser("prop2", help="random two-row diagrams over Z/m; expect all-yes")
    fp.add_argument("--field", type=decimal_integer, default=2, help="modulus m >= 2 of the coefficient ring Z/m")
    fp.add_argument("--trials", type=decimal_integer, default=100)
    fp.add_argument("--seed", type=decimal_integer, default=42)
    fp.add_argument("--max-rank", type=decimal_integer, default=3)
    fp.add_argument("--degrees", type=decimal_integer, default=4)
    _add_config_flags(fp, over_z=False)
    fp.set_defaults(run=cmd_fuzz_prop2)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (UsageError, ValueError, OSError, TranscriptionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
