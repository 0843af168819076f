"""The package namespace loads its modules on first use, and each CLI
subcommand imports only the modules it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import omegafield

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Every public name ``from omegafield import *`` bound when the package
#: imported all of its modules eagerly (the modules themselves included).
PUBLIC_NAMES = {
    "ALEPH_ONE", "ALEPH_ZERO", "AlephNumber", "CoeffTable", "ComparisonResult",
    "DEFAULT_DEPTH", "D_to_d_table", "DivisionByZeroError", "ExprSyntaxError",
    "Expression", "FractionalLeadingExponentError", "IndistinguishableError",
    "IrrationalLeadingCoefficientError", "LiftedFunction", "MathDomainError",
    "NegativeBaseError", "NotCauchyError", "ONE", "OmegaError", "OmegaNumber",
    "PolynomialFn", "PrecisionError", "PrecisionExhaustedError", "R1Interval",
    "R1Point", "S", "SIGMA", "ZERO", "archimedean_witness", "as_rational",
    "bernoulli", "binomial_general", "cauchy_limit", "coefficients",
    "compare_aleph", "cos_fn", "count_interval", "d_to_D_table", "derivative",
    "difference", "difference_equation_check", "difference_iterated",
    "differential", "discrete_integral", "embed", "errors", "evaluate", "exp_fn",
    "expand_rational", "expressions", "faulhaber", "integer_truncation",
    "integers", "integration", "k_coeff", "lift_eval", "lifting", "log_fn",
    "ns_continuity_check", "ns_diff_check", "o", "omega", "oplus",
    "oplus_inductive", "otimes", "otimes_inductive", "parse", "phi",
    "polynomial_fn", "power_fn", "predecessor", "psi", "rational_fn",
    "rational_pow", "rationals", "riemann", "series", "sin_fn",
    "stirling1_unsigned", "stirling2", "successor", "x_coeff",
}
SUBMODULES = {
    "coefficients", "errors", "expressions", "integers", "integration",
    "lifting", "rationals", "series",
}
#: The modules that declare ``__all__``; the others bind every public global.
DECLARE_ALL = ("expressions", "integers", "integration", "lifting")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OMEGA_DEPTH", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLazyNamespace:
    def test_all_is_the_public_surface(self):
        assert set(omegafield.__all__) == PUBLIC_NAMES
        assert len(omegafield.__all__) == len(PUBLIC_NAMES)

    @pytest.mark.parametrize("name", sorted(PUBLIC_NAMES - SUBMODULES))
    def test_name_is_its_home_module_object(self, name):
        home = importlib.import_module(f"omegafield.{omegafield._HOME[name]}")
        assert getattr(omegafield, name) is getattr(home, name)
        assert name in vars(omegafield)  # bound on first use

    @pytest.mark.parametrize("name", sorted(SUBMODULES))
    def test_submodule_attribute(self, name):
        assert getattr(omegafield, name) is importlib.import_module(f"omegafield.{name}")

    def test_dir_lists_every_public_name(self):
        assert PUBLIC_NAMES <= set(dir(omegafield))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from omegafield import *", namespace)
        assert PUBLIC_NAMES <= set(namespace)
        assert namespace["OmegaNumber"] is omegafield.series.OmegaNumber

    @pytest.mark.parametrize("module", DECLARE_ALL)
    def test_module_all_is_its_table_entry(self, module):
        # A star import of a module binds what the package exports from it;
        # lifting adds the conversion tables it re-exports.
        extra = {"CoeffTable", "d_to_D_table", "D_to_d_table"} if module == "lifting" else set()
        names = importlib.import_module(f"omegafield.{module}").__all__
        assert len(names) == len(set(names))
        assert set(names) == set(omegafield._EXPORTS[module]) | extra

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            omegafield.nope
        assert not hasattr(omegafield, "nope")

    def test_bare_import_then_submodule_attribute(self):
        out = run_python(
            "import sys, omegafield\n"
            "print('omegafield.lifting' in sys.modules)\n"
            "print(omegafield.lifting.exp_fn().label)\n"
        )
        assert out == "False\nexp\n"


def output_and_modules(*argv):
    """What one ``cli.main(argv)`` call prints, and the modules it leaves
    in ``sys.modules``."""
    out = run_python(
        "import sys\n"
        "from omegafield import cli\n"
        f"cli.main({list(argv)!r})\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    *printed, modules = out.splitlines()
    return printed, set(modules.split())


def modules_loaded_by(*argv) -> set:
    return output_and_modules(*argv)[1]


CORE = {
    "omegafield", "omegafield.cli", "omegafield.errors", "omegafield.rationals",
}
NOT_ON_THE_SERIES_PATH = {
    "omegafield.lifting", "omegafield.integration", "omegafield.integers",
    "omegafield.coefficients", "dataclasses", "inspect",
}


class TestImportsPerSubcommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "sqrt(1+o)", "--depth", "4"),
            ("compare", "o", "1/1000000"),
            ("expand", "--num", "1,1", "--den", "0,1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_series_path_loads_no_other_layer(self, argv):
        assert not modules_loaded_by(*argv) & NOT_ON_THE_SERIES_PATH

    def test_coeffs_loads_only_coefficients_beyond_the_core(self):
        loaded = {m for m in modules_loaded_by("coeffs", "--max", "3")
                  if m.startswith("omegafield")}
        assert loaded == CORE | {"omegafield.coefficients"}


README_CALLS = [
    ("eval", "sqrt(1+o)", "--depth", "4"),
    ("compare", "o", "1/1000000"),
    ("difftable", "--dir", "D_to_d", "--max", "4"),
    ("integrate", "--poly", "0,1", "--t", "1"),
    ("coeffs", "--family", "k", "--max", "3"),
    ("expand", "--num", "1,1", "--den", "0,1"),
]
#: Modules that cost start-up time no subcommand needs to pay in text mode.
COLD_START_COSTS = {"dataclasses", "inspect", "json"}


class TestColdStartImports:
    @pytest.mark.parametrize("argv", README_CALLS, ids=lambda argv: argv[0])
    def test_text_mode_loads_no_dataclasses_inspect_or_json(self, argv):
        assert not modules_loaded_by(*argv) & COLD_START_COSTS

    @pytest.mark.parametrize("argv", README_CALLS, ids=lambda argv: argv[0])
    def test_json_mode_still_prints_json(self, argv):
        printed, loaded = output_and_modules(*argv, "--json")
        assert "json" in loaded
        assert len(printed) == 1
        assert json.loads(printed[0])["kind"]

    def test_difftable_loads_only_coefficients_beyond_the_core(self):
        loaded = {m for m in modules_loaded_by("difftable", "--max", "3")
                  if m.startswith("omegafield")}
        assert "omegafield.lifting" not in loaded
        assert loaded == CORE | {"omegafield.coefficients"}

    def test_library_layers_load_no_dataclasses(self):
        out = run_python(
            "import sys\n"
            "import omegafield.lifting, omegafield.integers, omegafield.integration\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        )
        assert out == "[]\n"

    def test_integration_loads_no_integers(self):
        # A point count is the series S * (t + k*o); no infinite integer is built.
        out = run_python(
            "import sys, omegafield.integration\n"
            "print('omegafield.integers' in sys.modules)\n"
        )
        assert out == "False\n"

    def test_lifting_reexports_the_tables_from_coefficients(self):
        from omegafield import coefficients, lifting

        for name in ("CoeffTable", "d_to_D_table", "D_to_d_table"):
            assert getattr(lifting, name) is getattr(coefficients, name)
            assert name in lifting.__all__
            assert omegafield._HOME[name] == "coefficients"


def exit_output_and_modules(*argv):
    """Like ``output_and_modules``, for a call that argparse ends: the exit
    code, what was printed to stdout and stderr, and the modules loaded."""
    out = run_python(
        "import contextlib, io, sys\n"
        "from omegafield import cli\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    try:\n"
        f"        cli.main({list(argv)!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, repr(sink.getvalue()))\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    status, modules = out.splitlines()
    code, printed = status.split(" ", 1)
    return int(code), ast.literal_eval(printed), set(modules.split())


class TestArgparseOnlyForHelpAndErrors:
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=("text", "json"))
    @pytest.mark.parametrize("argv", README_CALLS, ids=lambda argv: argv[0])
    def test_plain_call_loads_no_argparse(self, argv, json_flag):
        printed, loaded = output_and_modules(*argv, *json_flag)
        assert printed
        assert "argparse" not in loaded

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--help",), 0),
            (("coeffs", "--help"), 0),
            ((), 2),
            (("eval",), 2),
            (("difftable", "--dir", "x"), 2),
        ],
        ids=lambda v: (" ".join(v) or "no-arguments") if isinstance(v, tuple) else None,
    )
    def test_help_and_usage_errors_load_argparse(self, argv, code):
        status, printed, loaded = exit_output_and_modules(*argv)
        assert "argparse" in loaded
        assert status == code
        assert printed.startswith("usage: omega")
