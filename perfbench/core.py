"""Shared pieces of the benchmark: spans, typed-error capture, statistics.

Spans are opened by the benchmark's own code around each call it makes
into an ``omegafield`` module, so each module is a layer measured from
outside.  A span's name starts with its layer (``series.invert.d64``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Layers that report calls, self time and failures in the traced run.
LAYERS = (
    "series",
    "rationals",
    "coefficients",
    "lifting",
    "integration",
    "integers",
    "expressions",
)

#: Spans whose median duration the traced run reports, with its unit.
P50_SPANS = (
    ("series.invert.d16", "ms"),
    ("series.invert.d64", "ms"),
    ("series.invert.d128", "ms"),
    ("series.invert.d256", "ms"),
    ("series.pow_alpha.d16", "ms"),
    ("series.pow_alpha.d64", "ms"),
    ("series.pow_alpha.d128", "ms"),
    ("series.pow_alpha.d256", "ms"),
    ("series.mul.dense.d64", "ms"),
    ("series.mul.dense.d128", "ms"),
    ("series.mul.sparse", "us"),
    ("series.ipow", "ms"),
    ("series.expand_rational", "ms"),
    ("series.compare", "us"),
    ("series.cauchy_limit", "ms"),
    ("rationals.rational_pow", "us"),
    ("coefficients.x_coeff", "us"),
    ("coefficients.k_coeff", "us"),
    ("lifting.lift_eval", "ms"),
    ("lifting.difference", "ms"),
    ("lifting.differential", "ms"),
    ("lifting.table", "ms"),
    ("integration.discrete_integral", "ms"),
    ("integers.archimedean_witness", "ms"),
    ("integers.integer_truncation", "us"),
    ("expressions.parse", "us"),
    ("expressions.evaluate", "ms"),
    ("cli.main", "ms"),
)

#: Checks that fail on this code base because of a documented defect.
#: They still count in ``failed`` and are named in every report; they do
#: not make a run incorrect.  Remove an entry once the defect is fixed.
KNOWN_DEFECTS = {
    "cauchy.trunc": "cauchy_limit claims coefficients below its elements' "
    "floors (ROADMAP open item 3)",
    "witness.exact": "archimedean_witness raises PrecisionExhaustedError when "
    "|b|/a is exactly an infinite integer: it divides by a truncated inverse "
    "and cannot see that the fractional part is zero",
}


class Raised:
    """A call that ended in an exception; checks decide if it was expected."""

    __slots__ = ("name",)

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__

    def __repr__(self):
        return f"Raised({self.name})"


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"name": name, "rid": tracer.rid, **attrs}

    def __enter__(self):
        tracer = self.tracer
        rec = self.record
        rec["parent"] = tracer.stack[-1] if tracer.stack else -1
        rec["id"] = len(tracer.spans)
        tracer.spans.append(rec)
        tracer.stack.append(rec["id"])
        rec["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Keeps every span in memory; ``write`` dumps them when the run ends."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.rid = -1

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def write(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same do-nothing context manager."""


    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN


#: Seconds ``reference()`` takes on an uncontended core of the machine the
#: benchmark was calibrated on (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_S = 1.5e-3


def reference() -> float:
    """Wall time of one fixed pure-Python rational computation.

    Shared hosts switch between fast and slow phases that stretch every
    timing by up to 1.7x.  The ratio of a request's time to this one,
    taken next to it, stays within a few percent across phases, so the
    end-to-end times are reported at reference speed:
    ``time * REFERENCE_S / reference()``.
    """
    start = perf_counter()
    x = Fraction(1)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i)
    return perf_counter() - start


def at_reference_speed(times, refs) -> list:
    """Scale each time by the mean of the reference samples around it.

    ``refs`` holds ``(k, seconds)`` pairs in the order taken, ``k`` being
    the number of times already measured when the sample was taken; the
    first sample has ``k == 0`` and the last ``k == len(times)``.
    """
    keys = [k for k, _ in refs]
    out = []
    for i, t in enumerate(times):
        before = refs[bisect.bisect_right(keys, i) - 1][1]
        after = refs[bisect.bisect_left(keys, i + 1)][1]
        out.append(t * REFERENCE_S / ((before + after) / 2))
    return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def child_env() -> dict:
    """Environment for ``omegafield`` child processes: ``src`` on the path,
    ``OMEGA_DEPTH`` unset."""
    env = {k: v for k, v in os.environ.items() if k != "OMEGA_DEPTH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def interpreter_probe(repeats: int = 7) -> tuple:
    """Median wall time of a bare ``python -c pass``, and of importing the
    package on top of it."""

    def timed(code: str) -> float:
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
            samples.append(perf_counter() - start)
        return median(samples)

    bare = timed("pass")
    return bare, timed("import omegafield") - bare


def work_counts(outputs) -> dict:
    """Machine-independent counts read from the series values returned."""
    from omegafield import OmegaNumber

    values = [v for v in outputs if isinstance(v, OmegaNumber)]
    out_terms = 0
    bits = 0
    truncated = 0
    for v in values:
        out_terms += len(v.support)
        for e in v.support:
            c = v.coefficient(e)
            bits = max(bits, c.numerator.bit_length() + c.denominator.bit_length())
        truncated += v.floor is not None
    return {
        "series.out_terms": (out_terms, "count"),
        "series.coeff_bits_max": (bits, "bits"),
        "series.truncated_share": (truncated / len(values) if values else 0.0, "ratio"),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "omegafield").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }
