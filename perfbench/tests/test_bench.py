"""Tests of the benchmark itself: its checks, its seeding and its contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import analysis_mix
import cli_oneshot
import core
import deep_series
import worker
from omegafield import OmegaNumber

BENCH = core.ROOT / "perfbench"


def _corrupt(value: OmegaNumber) -> OmegaNumber:
    """The same value with its lowest known coefficient off by one."""
    low = min(value.support)
    entries = [(e, value.coefficient(e) + (e == low)) for e in value.support]
    return OmegaNumber(entries, value.floor)


def _first(wl, kind, seed=3):
    for k, params in worker.Stream(wl, seed).cycle(0):
        if k == kind:
            return params
    raise LookupError(kind)


@pytest.mark.parametrize(
    "wl, kind",
    [
        (deep_series, "inv.sparse"),
        (deep_series, "pow"),
        (deep_series, "mul.dense"),
        (deep_series, "ipow"),
        (deep_series, "expand"),
        (analysis_mix, "lift.poly"),
        (analysis_mix, "lift.rational"),
        (analysis_mix, "lift.exp"),
        (analysis_mix, "difference"),
        (analysis_mix, "integral"),
        (analysis_mix, "cauchy.exact"),
    ],
)
def test_corrupted_coefficient_is_caught(wl, kind):
    params = _first(wl, kind)
    out = wl.execute(kind, params, core.NullTracer())
    assert wl.check(kind, params, out) is None
    assert wl.check(kind, params, _corrupt(out)) is not None


def test_wrong_floor_is_caught():
    params = _first(deep_series, "inv.sparse")
    out = deep_series.execute("inv.sparse", params, core.NullTracer())
    shallow = OmegaNumber([(e, out.coefficient(e)) for e in out.support if e >= -8], -8)
    assert deep_series.check("inv.sparse", params, shallow) is not None


def test_rational_pow_and_table_corruption_is_caught():
    params = _first(deep_series, "rpow")
    out = deep_series.execute("rpow", params, core.NullTracer())
    assert deep_series.check("rpow", params, out) is None
    assert deep_series.check("rpow", params, out + 1) is not None
    params = _first(analysis_mix, "table")
    forward, backward = analysis_mix.execute("table", params, core.NullTracer())
    assert analysis_mix.check("table", params, (forward, backward)) is None
    rows = list(backward.rows)
    rows[0] = (rows[0][0] + 1,) + rows[0][1:]
    broken = type(backward)(backward.direction, backward.cutoff, tuple(rows))
    assert analysis_mix.check("table", params, (forward, broken)) is not None


def test_expected_error_is_a_success_and_a_missing_one_a_failure():
    params = {"left": OmegaNumber([(0, 1)], -3), "right": OmegaNumber([(0, 1), (-5, 2)]),
              "expected": "IndistinguishableError"}
    out = worker.run_one(analysis_mix, "compare", params, core.NullTracer())
    assert isinstance(out, core.Raised)
    assert analysis_mix.check("compare", params, out) is None
    assert analysis_mix.check("compare", params, "<") is not None


def test_wrong_exit_code_is_caught():
    argv, code = cli_oneshot.ERROR_CASES[0]
    params = {"argv": argv, "code": code}
    assert cli_oneshot.check("error", params, (code, "", "error: bad\n")) is None
    assert cli_oneshot.check("error", params, (0, "", "error: bad\n")) is not None
    assert cli_oneshot.check("error", params, (3, "", "error: bad\n")) is not None
    argv, text = cli_oneshot.README_EXAMPLES[1]
    params = {"argv": argv, "stdout": text}
    assert cli_oneshot.check("readme", params, (0, text, "")) is None
    assert cli_oneshot.check("readme", params, (1, text, "")) is not None
    assert cli_oneshot.check("readme", params, (0, ">\n", "")) is not None


def test_readme_examples_match_the_readme():
    readme = (core.ROOT / "README.md").read_text()
    for argv, text in cli_oneshot.README_EXAMPLES:
        shown = "\n".join("    " + line for line in text.rstrip("\n").split("\n"))
        assert shown in readme, argv


def test_generated_cli_outputs_are_checked_against_in_process_results():
    reqs = worker.Stream(cli_oneshot, 5).cycle(1)
    for kind, params in reqs:
        if kind == "generated":
            expected = cli_oneshot.expected_stdout(params["argv"]) + "\n"
            assert cli_oneshot.check(kind, params, (0, expected, "")) is None
            assert cli_oneshot.check(kind, params, (0, expected + " ", "")) is not None


def test_same_seed_same_requests_and_work_counts():
    def described(wl, seed):
        # "f" is a function object built from the other parameters.
        return [repr((kind, {k: v for k, v in params.items() if k != "f"}))
                for kind, params in worker.Stream(wl, seed).cycle(2)]

    for wl in (deep_series, analysis_mix, cli_oneshot):
        first, again, other = described(wl, 11), described(wl, 11), described(wl, 12)
        assert first == again
        assert first != other

    def counts(seed):
        outs = [worker.run_one(analysis_mix, kind, params, core.NullTracer())
                for kind, params in worker.Stream(analysis_mix, seed).cycle(0)]
        outs += [worker.run_one(deep_series, kind, params, core.NullTracer())
                 for kind, params in worker.Stream(deep_series, seed).warmup()]
        return core.work_counts(outs)

    assert counts(4) == counts(4)
    assert counts(4)["series.out_terms"][0] > 0


def test_known_defect_counts_as_failed_but_not_incorrect():
    named, all_known = worker.summarize_failures([(3, "cauchy.trunc", "claims too much")])
    assert all_known and named[0]["count"] == 1 and named[0]["known_defect"]
    named, all_known = worker.summarize_failures(
        [(3, "cauchy.trunc", "claims too much"), (4, "lift.poly", "wrong")])
    assert not all_known


def test_truncated_cauchy_limit_is_reported():
    params = _first(analysis_mix, "cauchy.trunc")
    out = worker.run_one(analysis_mix, "cauchy.trunc", params, core.NullTracer())
    reason = analysis_mix.check("cauchy.trunc", params, out)
    if isinstance(out, core.Raised) or out.floor >= params["elements"][-1].floor:
        assert reason is None
    else:
        assert reason is not None


def test_self_time_excludes_child_spans():
    tracer = core.Tracer()
    tracer.rid = 0
    with tracer.span("request"):
        with tracer.span("lifting.lift_eval"):
            with tracer.span("series.compare"):
                sum(range(20000))
    metrics = worker._layer_metrics(tracer, {0})
    spans = {rec["name"]: rec["end"] - rec["start"] for rec in tracer.spans}
    child = spans["series.compare"]
    assert metrics["lifting.self_ms"][0] == pytest.approx(1e3 * (spans["lifting.lift_eval"] - child))
    assert metrics["series.self_ms"][0] == pytest.approx(1e3 * child)
    assert metrics["lifting.calls"][0] == 1 and metrics["series.calls"][0] == 1
    assert metrics["lifting.failed"][0] == 1 and metrics["integers.failed"][0] == 0


def test_times_are_scaled_by_the_reference_samples_around_them():
    r = core.REFERENCE_S
    # Samples: before request 0, end of a cycle after request 1, start of
    # the next cycle, after request 2.
    refs = [(0, 2 * r), (2, 2 * r), (2, 4 * r), (3, 4 * r)]
    scaled = core.at_reference_speed([1.0, 1.0, 1.0], refs)
    assert scaled == [0.5, 0.5, 0.25]


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((core.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    tracer = core.Tracer()
    reported = set(worker._layer_metrics(tracer, set())) | set(core.work_counts([]))
    reported |= {"cli.interp_start_ms", "cli.import_ms", "trace.req_per_s_untraced",
                 "trace.req_per_s_traced", "trace.overhead_pct"}
    assert names == reported
    assert {w["name"] for w in spec["workloads"]} == set(worker.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(core.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
