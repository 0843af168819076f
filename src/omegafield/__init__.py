"""Exact arithmetic on ordered series with infinitesimals.

The package builds three nested exact number systems on one
representation, a truncated series in the infinite unit S with the
infinitesimal o = 1/S as its inverse:

* series in o with rational coefficients (an ordered algebra over the
  rationals, lexicographically ordered so that 0 < o < every positive
  rational);
* infinite integers, polynomials in S closed under sum and product,
  each defined to within one unit by a genuine successor;
* the full ordered field of series with finitely many infinite terms,
  where every nonzero element is invertible and an integer multiple of
  any positive element overtakes any other element.

On top of the arithmetic sit an analytic lift of smooth functions into
the infinitesimal neighborhood of a standard point, two interconvertible
families of higher differentials with exact conversion tables, and a
discrete integral over the o-stepped lattice whose standard part is the
ordinary integral.

Importing the package loads no submodule: each public name below is
imported from its module on first use (PEP 562), so a caller pays only
for the layers it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, listed under the module that defines it; each module
#: sets its ``__all__`` from its entry here.
_EXPORTS = {
    "coefficients": (
        "CoeffTable", "D_to_d_table", "bernoulli", "binomial_general",
        "d_to_D_table", "k_coeff", "stirling1_unsigned", "stirling2", "x_coeff",
    ),
    "errors": (
        "DivisionByZeroError", "ExprSyntaxError",
        "FractionalLeadingExponentError", "IndistinguishableError",
        "IrrationalLeadingCoefficientError", "MathDomainError",
        "NegativeBaseError", "NotCauchyError", "OmegaError", "PrecisionError",
        "PrecisionExhaustedError",
    ),
    "expressions": ("Expression", "evaluate", "parse"),
    "integers": (
        "ALEPH_ONE", "ALEPH_ZERO", "SIGMA", "AlephNumber", "R1Interval",
        "R1Point", "archimedean_witness", "compare_aleph", "count_interval",
        "embed", "integer_truncation", "oplus", "oplus_inductive", "otimes",
        "otimes_inductive", "phi", "predecessor", "psi", "successor",
    ),
    "integration": (
        "PolynomialFn", "difference_equation_check", "discrete_integral",
        "faulhaber", "ns_continuity_check", "riemann",
    ),
    "lifting": (
        "LiftedFunction", "cos_fn", "derivative", "difference",
        "difference_iterated", "differential", "exp_fn", "lift_eval", "log_fn",
        "ns_diff_check", "polynomial_fn", "power_fn", "rational_fn", "sin_fn",
    ),
    "rationals": ("as_rational", "rational_pow"),
    "series": (
        "DEFAULT_DEPTH", "ONE", "S", "ZERO", "ComparisonResult", "OmegaNumber",
        "cauchy_limit", "expand_rational", "o", "omega",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
