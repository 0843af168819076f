"""Command-line interface.

Subcommands: eval, compare, difftable, integrate, coeffs, expand.  Every
subcommand accepts --depth (working truncation depth, default from the
OMEGA_DEPTH environment variable or 16) and --json.

Exit codes: 0 success, 2 expression syntax error, 3 mathematical domain
error, 4 precision exhausted or indistinguishable.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

# Each subcommand imports the modules it runs, ``json`` is imported only
# for --json and ``argparse`` only for help or a usage error, so one call
# loads only what it needs.
from .errors import MathDomainError, OmegaError
from .rationals import (
    DEFAULT_DEPTH, as_rational, format_rational, format_rational_json, resolve_depth,
)

__all__ = ("build_parser", "main", "run")


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
        return as_rational(text)
    except (ValueError, ZeroDivisionError):
        import argparse

        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _coeff_list(text: str):
    try:
        return [as_rational(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        import argparse

        raise argparse.ArgumentTypeError(f"not a coefficient list: {text!r}")


def build_parser():
    """The full ``argparse.ArgumentParser``, the one source of help and
    error text."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    for flag, spec in _COMMON.items():
        common.add_argument(flag, **spec)
    parser = argparse.ArgumentParser(
        prog="omega",
        description="Exact arithmetic on series in the infinite unit S "
        "and the infinitesimal o = 1/S.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals, options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for dest in positionals:
            command.add_argument(dest)
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
    return parser


def _parse_plain(argv):
    """The namespace ``build_parser().parse_args(argv)`` builds, read from
    the same tables without ``argparse``; None wherever argparse might
    decide differently: help, ``--``, an abbreviated or unknown flag, any
    other token starting with "-", a missing or extra argument, a value
    its converter or choices reject, or ``--json=...``."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, _, positionals, own = _SUBCOMMANDS[argv[0]]
    options = {**_COMMON, **own}
    values = {"command": argv[0]}
    values.update((spec["dest"], spec.get("default")) for spec in options.values())
    given, free = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            free.append(token)
            continue
        flag, eq, text = token.partition("=")
        spec = options.get(flag)
        if spec is None or (eq and "action" in spec):
            return None
        if "action" in spec:  # store_true
            values[spec["dest"]] = True
        else:
            if not eq:
                text = next(tokens, "-")  # a missing value reads as "-"
                if text.startswith("-"):
                    return None
            try:
                value = spec.get("type", str)(text)
            except Exception:  # whatever it is, argparse reports or raises it
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            values[spec["dest"]] = value
        given.add(flag)
    missing = {flag for flag, spec in own.items() if spec.get("required")} - given
    if missing or len(free) != len(positionals):
        return None
    values.update(zip(positionals, free))
    return SimpleNamespace(**values)


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
    from .series import expand_rational

    value = expand_rational(args.num, args.den, depth)
    _emit(args, value.to_json(), str(value))
    return 0


#: Options every subcommand accepts, then each subcommand's handler, help
#: line, positionals and own options, each option as its ``add_argument``
#: keywords.  build_parser() and _parse_plain() both read these tables.
_COMMON = {
    "--depth": dict(dest="depth", type=int, default=None,
                    help="working truncation depth (default: OMEGA_DEPTH or 16)"),
    "--json": dict(dest="json", action="store_true", default=False,
                   help="emit JSON instead of text"),
}
_SUBCOMMANDS = {
    "eval": (_cmd_eval, "evaluate an expression", ("expression",), {}),
    "compare": (_cmd_compare, "compare two expressions", ("left", "right"), {}),
    "difftable": (_cmd_difftable, "conversion table between the two differential families", (), {
        "--dir": dict(dest="direction", choices=("d_to_D", "D_to_d"), default="d_to_D"),
        "--max": dict(dest="max_order", type=int, default=4),
    }),
    "integrate": (_cmd_integrate, "discrete integral of a polynomial up to t + k*o", (), {
        "--poly": dict(dest="poly", type=_coeff_list, required=True,
                       help="comma-separated coefficients, constant first"),
        "--t": dict(dest="t", type=_rational_arg, required=True),
        "--k": dict(dest="k", type=int, default=0),
        "--g0": dict(dest="g0", type=_rational_arg, default=Fraction(0)),
    }),
    "coeffs": (_cmd_coeffs,
               "exact coefficient families (x: alternating sums, k: symmetric products)", (), {
        "--family": dict(dest="family", choices=("x", "k"), default="x"),
        "--max": dict(dest="max_order", type=int, default=6),
    }),
    "expand": (_cmd_expand, "expand a quotient of polynomials in o into a series", (), {
        "--num": dict(dest="num", type=_coeff_list, required=True),
        "--den": dict(dest="den", type=_coeff_list, required=True),
    }),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][0](args, _depth(args))
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
