import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegafield import AlephNumber, CoeffTable, OmegaNumber, cli
from omegafield.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_sqrt_series(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "sqrt(1+o)", "--depth", "4")
        assert code == 0
        assert out.strip() == (
            "1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 [floor=-4]"
        )

    def test_sigma_times_o(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "S*o")
        assert code == 0
        assert out.strip() == "1"

    def test_division_by_zero_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "inv(0)")
        assert code == 3
        assert "division by zero" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "1 + * o")
        assert code == 2
        assert "column 5" in err

    def test_zero_denominator_literal(self, capsys):
        code, _, err = run_cli(capsys, "eval", "pow(1+o, 1/0)")
        assert (code, err) == (2, "error: zero denominator at column 12\n")

    def test_negative_truncation_order_column(self, capsys):
        # The column of the order literal, not of the ``trunc`` name.
        code, _, err = run_cli(capsys, "eval", "trunc(1+o, -2)")
        assert code == 2
        assert err == "error: truncation order must be non-negative at column 12\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["(" * 200 + "1" + ")" * 200],
            ["--", "-" * 3000 + "1"],
            ["+".join(["1"] * 5000)],  # parses; too deep to evaluate
        ],
        ids=["parentheses", "unary-minus", "long-sum"],
    )
    def test_deep_nesting_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err == "error: expression nested too deeply at column 1\n"

    def test_huge_root_index(self, capsys):
        code, out, err = run_cli(capsys, "eval", "pow(2+o, 1/99999999999)")
        assert (code, out) == (3, "")
        assert err == "error: 2 has no exact rational 99999999999-th root\n"

    def test_power_beyond_the_size_limit(self, capsys):
        code, out, err = run_cli(capsys, "eval", "pow(4+o, 99999999999/2)")
        assert (code, out) == (4, "")
        assert err == "error: power 99999999999/2 of a 3-bit base has more than 3321928 bits\n"

    def test_moderate_nesting_evaluates(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "(" * 50 + "1+o" + ")" * 50)
        assert (code, out) == (0, "1 + o\n")

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "sqrt(1+o)", "--depth", "2", "--json")
        assert code == 0
        data = json.loads(out)
        value = OmegaNumber.from_json(data)
        assert value.coefficient(-2) == Fraction(-1, 8)
        assert value.floor == -2

    def test_env_depth(self, capsys, monkeypatch):
        monkeypatch.setenv("OMEGA_DEPTH", "3")
        code, out, _ = run_cli(capsys, "eval", "inv(1+o)")
        assert code == 0
        assert out.strip().endswith("[floor=-3]")

    def test_negative_depth_messages(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, "eval", "inv(1+o)", "--depth", "-1")
        assert (code, err) == (3, "error: --depth must be non-negative\n")
        monkeypatch.setenv("OMEGA_DEPTH", "-1")
        code, _, err = run_cli(capsys, "eval", "inv(1+o)")
        assert (code, err) == (3, "error: OMEGA_DEPTH must be non-negative\n")

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OMEGA_DEPTH", "9")
        code, out, _ = run_cli(capsys, "eval", "inv(1+o)", "--depth", "2")
        assert code == 0
        assert out.strip().endswith("[floor=-2]")


class TestCompare:
    def test_o_below_small_rational(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "o", "1/1000000")
        assert code == 0
        assert out.strip() == "<"

    def test_sigma_above_million(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "S", "1000000")
        assert code == 0
        assert out.strip() == ">"

    def test_equal(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "1+o", "1+o")
        assert code == 0
        assert out.strip() == "="

    def test_indistinguishable_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "compare", "inv(1+o)*(1+o)", "1")
        assert code == 4
        assert "truncated" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "o", "1", "--json")
        assert json.loads(out) == {"kind": "comparison", "result": "<"}


class TestDiffTable:
    def test_forward_rows(self, capsys):
        code, out, _ = run_cli(capsys, "difftable", "--dir", "d_to_D", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p=1: 1, 1/2, 1/6, 1/24"
        assert lines[1] == "p=2: 1, 1, 7/12"
        assert lines[2] == "p=3: 1, 3/2"

    def test_backward_rows(self, capsys):
        code, out, _ = run_cli(capsys, "difftable", "--dir", "D_to_d", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n=1: 1, -1/2, 1/3, -1/4"
        assert lines[1] == "n=2: 1, -1, 11/12"
        assert lines[2] == "n=3: 1, -3/2"

    def test_single_entry(self, capsys):
        code, out, _ = run_cli(capsys, "difftable", "--max", "1")
        assert code == 0
        assert out.strip() == "p=1: 1"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "difftable", "--dir", "D_to_d", "--max", "6", "--json"
        )
        assert code == 0
        table = CoeffTable.from_json(json.loads(out))
        assert table.cutoff == 6
        assert table.entry(2, 4) == Fraction(11, 12)


class TestIntegrate:
    def test_identity_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--poly", "0,1", "--t", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega: 1/2 - 1/2*o"
        assert lines[1] == "standard: 1/2"
        assert lines[2] == "riemann: 1/2"

    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--poly", "1", "--t", "2")
        lines = out.strip().splitlines()
        assert lines[0] == "omega: 2"
        assert lines[1] == "standard: 2"
        assert lines[2] == "riemann: 2"

    def test_square(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--poly", "0,0,1", "--t", "1")
        assert "standard: 1/3" in out

    def test_off_lattice_and_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--poly", "0,1", "--t", "2", "--k", "3",
            "--g0", "1/2", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["standard"] == "5/2"
        assert data["riemann"] == "5/2"
        assert OmegaNumber.from_json(data["omega"]).standard_part() == Fraction(5, 2)

    def test_invalid_upper(self, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--poly", "1", "--t", "0", "--k", "-1"
        )
        assert code == 3

    def test_degree_above_the_bound(self, capsys):
        poly = ",".join(["0"] * 13 + ["1"])
        code, out, err = run_cli(capsys, "integrate", "--poly", poly, "--t", "1")
        assert (code, out, err) == (3, "", "error: degree 13 exceeds the bound 12\n")


class TestCoeffs:
    def test_x_family(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "x", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == "p=2: 0, 0, 2, 6, 14"

    def test_k_family(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "k", "--max", "3")
        lines = out.strip().splitlines()
        assert lines[3] == "m=3: 1, 6, 11, 6"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "x", "--max", "3", "--json")
        data = json.loads(out)
        assert data["rows"][3][3] == 6


class TestExpand:
    def test_exact_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--num", "1,1", "--den", "0,1")
        assert code == 0
        assert out.strip() == "S + 1"

    def test_geometric(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--num", "1", "--den", "1,-1", "--depth", "3"
        )
        assert out.strip() == "1 + o + o^2 + o^3 [floor=-3]"

    def test_zero_denominator(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--num", "1", "--den", "0")
        assert code == 3


class TestAlephJsonSchema:
    def test_documented_example(self):
        value = AlephNumber((3, Fraction(1, 2)))
        assert json.dumps(value.to_json()) == (
            '{"kind": "aleph", "coeffs": ["3/1", "1/2"]}'
        )


class TestLongIntegers:
    """Integers longer than the interpreter's int/str digit limit (4300 by
    default) print in full on output and are refused on input."""

    def test_power_of_two_prints_every_digit(self, capsys, int_str_digits):
        code, out, _ = run_cli(capsys, "eval", "2^20000")
        assert code == 0
        with int_str_digits(0):
            assert out == f"{2**20000}\n"

    def test_power_of_two_json(self, capsys, int_str_digits):
        code, out, _ = run_cli(capsys, "eval", "2^20000", "--json")
        assert code == 0
        with int_str_digits(0):
            expected = {"kind": "omega", "zero": False, "top": 0,
                        "coeffs": {"0": f"{2**20000}/1"}, "floor": "exact"}
            assert out == json.dumps(expected) + "\n"

    def test_rational_power_prints_every_digit(self, capsys, int_str_digits):
        code, out, _ = run_cli(capsys, "eval", "pow(4+o, 30001/2)", "--depth", "1")
        assert code == 0
        with int_str_digits(0):
            assert out == f"{2**30001} + {30001 * 2**29998}*o [floor=-1]\n"

    def test_overlong_literal_is_a_syntax_error(self, capsys, int_str_digits):
        with int_str_digits(4300):  # Python's default
            code, out, err = run_cli(capsys, "eval", "1 + " + "7" * 5000)
        assert code == 2
        assert out == ""
        assert err == "error: integer literal of 5000 digits is too long at column 5\n"


class TestClosedStdout:
    """A reader that leaves early (``omega ... | head``) ends the call with
    exit code 1 and nothing on stderr, whether the output is written by
    ``print`` (long), by the flush at exit (short) or by argparse."""

    @pytest.mark.parametrize(
        "argv",
        [("eval", "2^20000", "--json"), ("compare", "o", "1/1000000"), ("--help",)],
        ids=("long-json", "short-text", "help"),
    )
    def test_no_traceback_on_a_closed_pipe(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader at all: the first write fails
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
        try:
            done = subprocess.run(
                [sys.executable, "-m", "omegafield", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1


#: What argparse prints, and the exit code, for help, usage errors and an
#: abbreviated flag, at a terminal 80 columns wide (Python 3.10 and 3.11).
#: The parser is built from ``cli``'s argument table, so these pin the
#: table against drift.
ARGPARSE_TEXT = [
    (["--help"], 0,
     'usage: omega [-h] {eval,compare,difftable,integrate,coeffs,expand} ...\n'
     '\n'
     'Exact arithmetic on series in the infinite unit S and the infinitesimal o =\n'
     '1/S.\n'
     '\n'
     'positional arguments:\n'
     '  {eval,compare,difftable,integrate,coeffs,expand}\n'
     '    eval                evaluate an expression\n'
     '    compare             compare two expressions\n'
     '    difftable           conversion table between the two differential families\n'
     '    integrate           discrete integral of a polynomial up to t + k*o\n'
     '    coeffs              exact coefficient families (x: alternating sums, k:\n'
     '                        symmetric products)\n'
     '    expand              expand a quotient of polynomials in o into a series\n'
     '\n'
     'options:\n'
     '  -h, --help            show this help message and exit\n',
     "",
    ),
    (["eval", "--help"], 0,
     'usage: omega eval [-h] [--depth DEPTH] [--json] expression\n'
     '\n'
     'positional arguments:\n'
     '  expression\n'
     '\n'
     'options:\n'
     '  -h, --help     show this help message and exit\n'
     '  --depth DEPTH  working truncation depth (default: OMEGA_DEPTH or 16)\n'
     '  --json         emit JSON instead of text\n',
     "",
    ),
    (["compare", "--help"], 0,
     'usage: omega compare [-h] [--depth DEPTH] [--json] left right\n'
     '\n'
     'positional arguments:\n'
     '  left\n'
     '  right\n'
     '\n'
     'options:\n'
     '  -h, --help     show this help message and exit\n'
     '  --depth DEPTH  working truncation depth (default: OMEGA_DEPTH or 16)\n'
     '  --json         emit JSON instead of text\n',
     "",
    ),
    (["difftable", "--help"], 0,
     'usage: omega difftable [-h] [--depth DEPTH] [--json] [--dir {d_to_D,D_to_d}]\n'
     '                       [--max MAX_ORDER]\n'
     '\n'
     'options:\n'
     '  -h, --help            show this help message and exit\n'
     '  --depth DEPTH         working truncation depth (default: OMEGA_DEPTH or 16)\n'
     '  --json                emit JSON instead of text\n'
     '  --dir {d_to_D,D_to_d}\n'
     '  --max MAX_ORDER\n',
     "",
    ),
    (["integrate", "--help"], 0,
     'usage: omega integrate [-h] [--depth DEPTH] [--json] --poly POLY --t T [--k K]\n'
     '                       [--g0 G0]\n'
     '\n'
     'options:\n'
     '  -h, --help     show this help message and exit\n'
     '  --depth DEPTH  working truncation depth (default: OMEGA_DEPTH or 16)\n'
     '  --json         emit JSON instead of text\n'
     '  --poly POLY    comma-separated coefficients, constant first\n'
     '  --t T\n'
     '  --k K\n'
     '  --g0 G0\n',
     "",
    ),
    (["coeffs", "--help"], 0,
     'usage: omega coeffs [-h] [--depth DEPTH] [--json] [--family {x,k}]\n'
     '                    [--max MAX_ORDER]\n'
     '\n'
     'options:\n'
     '  -h, --help       show this help message and exit\n'
     '  --depth DEPTH    working truncation depth (default: OMEGA_DEPTH or 16)\n'
     '  --json           emit JSON instead of text\n'
     '  --family {x,k}\n'
     '  --max MAX_ORDER\n',
     "",
    ),
    (["expand", "--help"], 0,
     'usage: omega expand [-h] [--depth DEPTH] [--json] --num NUM --den DEN\n'
     '\n'
     'options:\n'
     '  -h, --help     show this help message and exit\n'
     '  --depth DEPTH  working truncation depth (default: OMEGA_DEPTH or 16)\n'
     '  --json         emit JSON instead of text\n'
     '  --num NUM\n'
     '  --den DEN\n',
     "",
    ),
    ([], 2,
     "",
     'usage: omega [-h] {eval,compare,difftable,integrate,coeffs,expand} ...\n'
     'omega: error: the following arguments are required: command\n',
    ),
    (["bogus"], 2,
     "",
     'usage: omega [-h] {eval,compare,difftable,integrate,coeffs,expand} ...\n'
     "omega: error: argument command: invalid choice: 'bogus' (choose from 'eval', "
     "'compare', 'difftable', 'integrate', 'coeffs', 'expand')\n",
    ),
    (["eval"], 2,
     "",
     'usage: omega eval [-h] [--depth DEPTH] [--json] expression\n'
     'omega eval: error: the following arguments are required: expression\n',
    ),
    (["difftable", "--dir", "x"], 2,
     "",
     'usage: omega difftable [-h] [--depth DEPTH] [--json] [--dir {d_to_D,D_to_d}]\n'
     '                       [--max MAX_ORDER]\n'
     "omega difftable: error: argument --dir: invalid choice: 'x' "
     "(choose from 'd_to_D', 'D_to_d')\n",
    ),
    (["integrate", "--poly", "x", "--t", "1"], 2,
     "",
     'usage: omega integrate [-h] [--depth DEPTH] [--json] --poly POLY --t T [--k K]\n'
     '                       [--g0 G0]\n'
     "omega integrate: error: argument --poly: not a coefficient list: 'x'\n",
    ),
    # Exponent notation is refused before it is converted, so these end at once.
    (["integrate", "--poly", "1", "--t", "1E99999999"], 2,
     "",
     'usage: omega integrate [-h] [--depth DEPTH] [--json] --poly POLY --t T [--k K]\n'
     '                       [--g0 G0]\n'
     "omega integrate: error: argument --t: not a rational: '1E99999999'\n",
    ),
    # Rational strings are ASCII, as expression literals are.
    (["integrate", "--poly", "1", "--t", "\u0663"], 2,
     "",
     'usage: omega integrate [-h] [--depth DEPTH] [--json] --poly POLY --t T [--k K]\n'
     '                       [--g0 G0]\n'
     "omega integrate: error: argument --t: not a rational: '\u0663'\n",
    ),
    (["expand", "--num", "1e999999999", "--den", "1"], 2,
     "",
     'usage: omega expand [-h] [--depth DEPTH] [--json] --num NUM --den DEN\n'
     "omega expand: error: argument --num: not a coefficient list: '1e999999999'\n",
    ),
    (["eval", "o", "--dep", "3"], 0,
     'o\n',
     "",
    ),
]


class TestArgparseText:
    @pytest.mark.parametrize(
        "argv, code, out, err", ARGPARSE_TEXT,
        ids=[" ".join(argv) or "no-arguments" for argv, *_ in ARGPARSE_TEXT],
    )
    def test_literal_output(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        assert (status, *capsys.readouterr()) == (code, out, err)


#: Values each option accepts, for argv the fast path should take.
GOOD_VALUES = {
    "--depth": ["0", "4", " 12"], "--dir": ["d_to_D", "D_to_d"], "--max": ["0", "3", "8"],
    "--poly": ["0,1", "1", "1/2, -3"], "--num": ["1,1", "2"], "--den": ["0,1", "1,-1"],
    "--t": ["1", "3/2", "0"], "--k": ["0", "4"], "--g0": ["1/2", "5"], "--family": ["x", "k"],
    "--json": ["1"],
}
#: Tokens argparse reads as flags or negative numbers, values a converter
#: or a choice list rejects, and empty strings.
HOSTILE = [
    "-1", "-5,3", "-1/2", "-o", "-", "--", "-h", "--help", "--dep", "--js", "--bogus",
    "--json=1", "x/0", "1/0", "x", "", "bogus",
]
ALL_FLAGS = sorted(GOOD_VALUES)
ALL_VALUES = sorted({value for values in GOOD_VALUES.values() for value in values})


@st.composite
def argvs(draw):
    """A call of one subcommand, its values mostly good ones.  Now and then
    a value gets a "-" in front, becomes another option's value or a
    hostile token, and a hostile token or a flag is inserted or a token
    deleted."""

    def value(good):
        kind = draw(st.sampled_from(["good"] * 4 + ["negated", "other", "hostile"]))
        if kind == "other":
            return draw(st.sampled_from(ALL_VALUES))
        if kind == "hostile":
            return draw(st.sampled_from(HOSTILE))
        return ("-" if kind == "negated" else "") + draw(st.sampled_from(good))

    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    _, _, positionals, own = cli._SUBCOMMANDS[command]
    pieces = [[value(["o", "sqrt(1+o)", "S", "1/2"])] for _ in positionals]
    for flag, spec in {**cli._COMMON, **own}.items():
        form = draw(st.sampled_from(["absent", "separate", "separate", "joined"]))
        if form == "separate":
            pieces.append([flag] if "action" in spec else [flag, value(GOOD_VALUES[flag])])
        elif form == "joined":
            pieces.append([f"{flag}={value(GOOD_VALUES[flag])}"])
    argv = [command] + [token for piece in draw(st.permutations(pieces)) for token in piece]
    at = draw(st.integers(0, len(argv) - 1))
    edit = draw(st.sampled_from(["none", "none", "none", "insert", "delete"]))
    if edit == "insert":
        argv.insert(at, draw(st.sampled_from(HOSTILE + ALL_FLAGS)))
    elif edit == "delete":
        del argv[at]
    return argv


class TestPlainParse:
    """``cli._parse_plain`` answers a plain call without argparse, and only
    where argparse would build the same namespace."""

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(argvs())
    def test_agrees_with_argparse_whenever_it_answers(self, argv):
        plain = cli._parse_plain(argv)
        if plain is not None:
            try:
                expected = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                expected = "a usage error"
            assert vars(plain) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "sqrt(1+o)", "--depth", "4"],
            ["compare", "o", "--json", "1/1000000"],
            ["difftable", "--dir=D_to_d", "--max", "4"],
            ["integrate", "--poly=-5,3", "--t", "3/2", "--k", "2", "--g0", "1/2", "--json"],
            ["coeffs", "--family", "k", "--max", "3", "--max", "2"],
            ["expand", "--num", "1,1", "--den", "0,1", "--depth=3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_takes_plain_calls(self, argv):
        plain = cli._parse_plain(argv)
        assert vars(plain) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["bogus"], ["eval"], ["eval", "o", "p"], ["eval", "-h"], ["eval", "--", "-o"],
            ["eval", "o", "--dep", "3"], ["eval", "o", "--depth"], ["eval", "o", "--depth", "x"],
            ["eval", "o", "--json=1"], ["difftable", "--dir", "x"], ["expand", "--num", "1"],
            ["integrate", "--poly", "1", "--t", "0", "--k", "-1"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._parse_plain(argv) is None
