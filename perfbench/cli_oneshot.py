"""Workload ``cli_oneshot``: one ``python -m omegafield`` process per request.

A cycle runs the six README command-line examples, one seeded call of
each subcommand (text or ``--json`` alternating by cycle) and three
error cases that must exit 2, 3 or 4.  Every request pays interpreter
start, ``import omegafield`` and cold caches, as a shell user does.
``OMEGA_DEPTH`` is removed from the children's environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import analysis_mix
import exact
from core import ROOT, Raised, child_env

NAME = "cli_oneshot"
#: Seconds one cycle takes on the reference machine; sizes the traced run.
CYCLE_S = 1.6

#: The README's command-line examples with the output it shows for them.
#: The README elides the ``coeffs`` rows after the first ("..."); those
#: rows are checked against the Stirling numbers only.
README_EXAMPLES = (
    (["eval", "sqrt(1+o)", "--depth", "4"],
     "1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 [floor=-4]\n"),
    (["compare", "o", "1/1000000"], "<\n"),
    (["difftable", "--dir", "D_to_d", "--max", "4"],
     "n=1: 1, -1/2, 1/3, -1/4\nn=2: 1, -1, 11/12\nn=3: 1, -3/2\nn=4: 1\n"),
    (["integrate", "--poly", "0,1", "--t", "1"],
     "omega: 1/2 - 1/2*o\nstandard: 1/2\nriemann: 1/2\n"),
    (["coeffs", "--family", "k", "--max", "3"], "m=0: 1\n...\n"),
    (["expand", "--num", "1,1", "--den", "0,1"], "S + 1\n"),
)

ERROR_CASES = (
    (["eval", "1 + * o"], 2),
    (["eval", "inv(0)"], 3),
    (["compare", "inv(1+o)*(1+o)", "1"], 4),
    (["eval", "sqrt(o)"], 3),
    (["expand", "--num", "1", "--den", "0"], 3),
    (["integrate", "--poly", "1", "--t", "0", "--k", "-1"], 3),
)


def _rationals(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


def _generated(rng, index: int) -> list:
    flag = ["--json"] if index % 2 else []
    d = rng.randint(4, 12)
    depth = ["--depth", str(d)]
    expr = analysis_mix._expression(rng, index % 6, d)["text"]
    left = analysis_mix._expression(rng, rng.choice((0, 1, 4)), d)["text"]
    poly = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
    t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
    den = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(rng.randint(1, 2))]
    return [
        ["eval", expr] + depth + flag,
        ["compare", left, f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"] + depth + flag,
        # "--num=-5,3": a separate "-5,3" would read as an option to argparse.
        ["expand", f"--num={_rationals(num)}", f"--den={_rationals(den)}"] + depth + flag,
        ["integrate", f"--poly={_rationals(poly)}", "--t", str(t), "--k", str(rng.randint(0, 4))]
        + flag,
        ["difftable", "--dir", rng.choice(("d_to_D", "D_to_d")), "--max", str(rng.randint(1, 8))] + flag,
        ["coeffs", "--family", rng.choice("xk"), "--max", str(rng.randint(0, 8))] + flag,
    ]


def cycle(rng, index: int) -> list:
    reqs = [("readme", {"argv": argv, "stdout": out}) for argv, out in README_EXAMPLES]
    reqs += [("generated", {"argv": argv}) for argv in _generated(rng, index)]
    for j in range(3):
        argv, code = ERROR_CASES[(3 * index + j) % len(ERROR_CASES)]
        reqs.append(("error", {"argv": argv, "code": code}))
    return reqs


def warmup(rng) -> list:
    return [("readme", {"argv": README_EXAMPLES[0][0], "stdout": README_EXAMPLES[0][1]})]


def execute(kind: str, p: dict, tr):
    with tr.span("cli.child"):
        done = subprocess.run(
            [sys.executable, "-m", "omegafield", *p["argv"]],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
    return done.returncode, done.stdout, done.stderr


def in_process(kind: str, p: dict, tr) -> None:
    """Traced run only: the same request through ``cli.main`` in-process."""
    from omegafield import cli, evaluate, parse

    argv = p["argv"]
    if argv[0] == "eval" and kind != "error":
        with tr.span("expressions.parse"):
            ast = parse(argv[1])
        with tr.span("expressions.evaluate"):
            evaluate(ast, int(_option(argv, "--depth", 16)))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tr.span("cli.main"):
            try:
                cli.main(list(argv))
            except SystemExit:  # argparse rejecting the arguments
                pass


def _option(argv, name, default=None):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def expected_stdout(argv) -> str:
    """What the command must print, computed in-process through the library."""
    from omegafield import (
        D_to_d_table, PolynomialFn, R1Point, d_to_D_table, discrete_integral, evaluate,
        expand_rational, parse,
    )
    from omegafield.rationals import format_rational, format_rational_json

    as_json = "--json" in argv
    depth = int(_option(argv, "--depth", 16))
    command = argv[0]
    if command == "eval":
        value = evaluate(parse(argv[1]), depth)
        return json.dumps(value.to_json()) if as_json else str(value)
    if command == "compare":
        symbol = evaluate(parse(argv[1]), depth).compare(evaluate(parse(argv[2]), depth)).symbol
        return json.dumps({"kind": "comparison", "result": symbol}) if as_json else symbol
    if command == "expand":
        num = [Fraction(v) for v in _option(argv, "--num").split(",")]
        den = [Fraction(v) for v in _option(argv, "--den").split(",")]
        value = expand_rational(num, den, depth)
        return json.dumps(value.to_json()) if as_json else str(value)
    if command == "integrate":
        poly = [Fraction(v) for v in _option(argv, "--poly").split(",")]
        t = Fraction(_option(argv, "--t"))
        value = discrete_integral(PolynomialFn(poly), R1Point(t, int(_option(argv, "--k", 0))))
        riemann = sum(a * t ** (j + 1) / (j + 1) for j, a in enumerate(poly))
        if as_json:
            return json.dumps({"kind": "integral", "omega": value.to_json(),
                               "standard": format_rational_json(value.standard_part()),
                               "riemann": format_rational_json(Fraction(riemann))})
        return (f"omega: {value}\nstandard: {format_rational(value.standard_part())}\n"
                f"riemann: {format_rational(Fraction(riemann))}")
    if command == "difftable":
        direction = _option(argv, "--dir", "d_to_D")
        size = int(_option(argv, "--max", 4))
        table = (d_to_D_table if direction == "d_to_D" else D_to_d_table)(size)
        if as_json:
            return json.dumps(table.to_json())
        prefix = "p" if direction == "d_to_D" else "n"
        return "\n".join(f"{prefix}={i}: " + ", ".join(format_rational(c) for c in table.row(i))
                         for i in range(1, size + 1))
    if command == "coeffs":
        family = _option(argv, "--family", "x")
        top = int(_option(argv, "--max", 6))
        if family == "x":
            rows = [[math.factorial(p) * exact.stirling2(n, p) for n in range(top + 1)]
                    for p in range(top + 1)]
        else:
            rows = [[exact.stirling1_unsigned(m + 1, m + 1 - j) for j in range(m + 1)]
                    for m in range(top + 1)]
        if as_json:
            return json.dumps({"kind": "coeff_family", "family": family, "max": top, "rows": rows})
        label = "p" if family == "x" else "m"
        return "\n".join(f"{label}={i}: " + ", ".join(map(str, row)) for i, row in enumerate(rows))
    raise ValueError(command)


def check(kind: str, p: dict, out):
    if isinstance(out, Raised):
        return f"raised {out.name}"
    code, stdout, stderr = out
    if kind == "error":
        if code != p["code"]:
            return f"exit code {code}, expected {p['code']}"
        if stdout or not stderr.startswith("error: "):
            return "error case must print only an 'error: ' line on stderr"
        return None
    if code != 0:
        return f"exit code {code}, expected 0"
    if kind == "readme":
        shown = p["stdout"]
        elided = shown.endswith("...\n") and stdout.startswith(shown[:-len("...\n")])
        if stdout != shown and not elided:
            return "output differs from the README text"
    expected = expected_stdout(p["argv"]) + "\n"
    return None if stdout == expected else "output differs from the in-process result"
