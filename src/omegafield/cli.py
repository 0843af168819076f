"""Command-line interface.

Subcommands: eval, compare, difftable, integrate, coeffs, expand.  Every
subcommand accepts --depth (working truncation depth, default from the
OMEGA_DEPTH environment variable or 16) and --json.

Exit codes: 0 success, 2 expression syntax error, 3 mathematical domain
error, 4 precision exhausted or indistinguishable.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

# Each subcommand imports the modules it runs, and ``json`` is imported
# only for --json, so one call loads only what it needs.
from .errors import MathDomainError, OmegaError
from .rationals import format_rational, format_rational_json
from .series import DEFAULT_DEPTH, expand_rational, resolve_depth


def _depth(args) -> int:
    if args.depth is not None:
        return resolve_depth(args.depth, "--depth")
    raw = os.environ.get("OMEGA_DEPTH")
    if raw is None:
        return DEFAULT_DEPTH
    try:
        value = int(raw)
    except ValueError:
        raise MathDomainError(f"OMEGA_DEPTH must be an integer, got {raw!r}")
    return resolve_depth(value, "OMEGA_DEPTH")


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _coeff_list(text: str):
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a coefficient list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--depth",
        type=int,
        default=None,
        help="working truncation depth (default: OMEGA_DEPTH or 16)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    parser = argparse.ArgumentParser(
        prog="omega",
        description="Exact arithmetic on series in the infinite unit S "
        "and the infinitesimal o = 1/S.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="evaluate an expression"
    )
    p_eval.add_argument("expression")

    p_cmp = sub.add_parser(
        "compare", parents=[common], help="compare two expressions"
    )
    p_cmp.add_argument("left")
    p_cmp.add_argument("right")

    p_table = sub.add_parser(
        "difftable",
        parents=[common],
        help="conversion table between the two differential families",
    )
    p_table.add_argument(
        "--dir",
        dest="direction",
        choices=("d_to_D", "D_to_d"),
        default="d_to_D",
    )
    p_table.add_argument("--max", dest="max_order", type=int, default=4)

    p_int = sub.add_parser(
        "integrate",
        parents=[common],
        help="discrete integral of a polynomial up to t + k*o",
    )
    p_int.add_argument(
        "--poly",
        type=_coeff_list,
        required=True,
        help="comma-separated coefficients, constant first",
    )
    p_int.add_argument("--t", type=_rational_arg, required=True)
    p_int.add_argument("--k", type=int, default=0)
    p_int.add_argument("--g0", type=_rational_arg, default=Fraction(0))

    p_coeffs = sub.add_parser(
        "coeffs",
        parents=[common],
        help="exact coefficient families (x: alternating sums, k: symmetric products)",
    )
    p_coeffs.add_argument("--family", choices=("x", "k"), default="x")
    p_coeffs.add_argument("--max", dest="max_order", type=int, default=6)

    p_expand = sub.add_parser(
        "expand",
        parents=[common],
        help="expand a quotient of polynomials in o into a series",
    )
    p_expand.add_argument("--num", type=_coeff_list, required=True)
    p_expand.add_argument("--den", type=_coeff_list, required=True)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json

        print(json.dumps(payload))
    else:
        print(text)


def _cmd_eval(args, depth: int) -> int:
    from .expressions import evaluate, parse

    value = evaluate(parse(args.expression), depth)
    _emit(args, value.to_json(), str(value))
    return 0


def _cmd_compare(args, depth: int) -> int:
    from .expressions import evaluate, parse

    left = evaluate(parse(args.left), depth)
    right = evaluate(parse(args.right), depth)
    relation = left.compare(right)
    _emit(
        args,
        {"kind": "comparison", "result": relation.symbol},
        relation.symbol,
    )
    return 0


def _cmd_difftable(args, depth: int) -> int:
    from .coefficients import D_to_d_table, d_to_D_table

    if args.max_order < 1:
        raise MathDomainError("--max must be at least 1")
    build = d_to_D_table if args.direction == "d_to_D" else D_to_d_table
    table = build(args.max_order)
    prefix = "p" if args.direction == "d_to_D" else "n"
    text = "\n".join(
        f"{prefix}={order}: " + ", ".join(format_rational(c) for c in row)
        for order, row in enumerate(table.rows, 1)
    )
    _emit(args, table.to_json(), text)
    return 0


def _cmd_integrate(args, depth: int) -> int:
    from .integers import R1Point
    from .integration import PolynomialFn, discrete_integral, riemann

    f = PolynomialFn(args.poly)
    upper = R1Point(args.t, args.k)
    value = discrete_integral(f, upper, args.g0)
    standard = value.standard_part()
    exact = args.g0 + riemann(f, args.t)
    if standard != exact:
        print("internal error: standard part disagrees with the exact integral",
              file=sys.stderr)
        return 1
    payload = {
        "kind": "integral",
        "omega": value.to_json(),
        "standard": format_rational_json(standard),
        "riemann": format_rational_json(exact),
    }
    text = (
        f"omega: {value}\n"
        f"standard: {format_rational(standard)}\n"
        f"riemann: {format_rational(exact)}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_coeffs(args, depth: int) -> int:
    from .coefficients import k_coeff, x_coeff

    if args.max_order < 0:
        raise MathDomainError("--max must be non-negative")
    top = args.max_order
    if args.family == "x":
        rows = [[x_coeff(p, n) for n in range(top + 1)] for p in range(top + 1)]
        label = "p"
    else:
        rows = [[k_coeff(m, j) for j in range(m + 1)] for m in range(top + 1)]
        label = "m"
    payload = {"kind": "coeff_family", "family": args.family, "max": top,
               "rows": rows}
    text = "\n".join(
        f"{label}={index}: " + ", ".join(str(c) for c in row)
        for index, row in enumerate(rows)
    )
    _emit(args, payload, text)
    return 0


def _cmd_expand(args, depth: int) -> int:
    value = expand_rational(args.num, args.den, depth)
    _emit(args, value.to_json(), str(value))
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "difftable": _cmd_difftable,
    "integrate": _cmd_integrate,
    "coeffs": _cmd_coeffs,
    "expand": _cmd_expand,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _depth(args))
    except OmegaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    try:
        try:
            status = main()
        finally:  # also when argparse exits after printing help or usage
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``omega ... | head``).  As the ``signal``
        # documentation advises, point stdout at devnull so the flush at
        # exit raises no second error, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    run()
