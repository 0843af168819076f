"""Benchmark for omegafield: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload deep_series --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in a fresh worker
process (``worker.py``) against ``src/`` as checked out, as a closed loop
with one client.  With ``--trace 0`` the run reports the end-to-end
metrics, timing set-up in seven extra set-up-only processes as well and
reporting the median of the eight; with ``--trace 1`` it reports the
per-layer metrics from spans the benchmark opens around each call into
``omegafield``.  Every output is checked outside the timed requests.  A
summary goes to stdout, a result file with the run environment to
``perfbench/out/``, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from core import (  # noqa: E402
    OUT, REFERENCE_S, SRC, at_reference_speed, environment, median, reference,
)
from worker import WORKLOADS  # noqa: E402

#: Set-up-only processes started besides the measured one.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only=False) -> dict:
    """Run one worker process; its ``ready`` time minus our start is set-up."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    ref_spawn = reference()
    start = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise WorkerError(f"worker for {workload} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_setup_s"] = result["ready"] - start
    result["setup_s"] = at_reference_speed([result["wall_setup_s"]],
                                           [(0, ref_spawn), (1, result["ref_ready"])])[0]
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload: the JSON result object plus a human-readable report."""
    if trace:
        result = spawn(workload, seed, seconds, 1)
        metrics = result["metrics"]
    else:
        probes = [spawn(workload, seed, seconds, 0, setup_only=True) for _ in range(SETUP_PROBES)]
        result = spawn(workload, seed, seconds, 0)
        setups = [p["setup_s"] for p in probes] + [result["setup_s"]]
        result["setup_samples_s"] = setups
        result["wall_setup_samples_s"] = [p["wall_setup_s"] for p in probes] + [result["wall_setup_s"]]
        metrics = {
            "req_per_s": {"value": result["req_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": result["latency_p90_ms"], "unit": "ms"},
            "ok_ratio": {"value": 1 - result["failed"] / result["attempted"], "unit": "ratio"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "run": {k: v for k, v in result.items() if k != "metrics"},
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record, path)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(record: dict, path: Path) -> None:
    run, env = record["run"], record["environment"]
    mode = "traced, fixed request list" if record["trace"] else "tracing off"
    print(f"== {record['workload']}  seed {env['seed']}  closed loop, 1 client, {mode}")
    print(f"   {run['attempted']} requests in {run['cycles']} cycles; "
          f"failed {run['failed']} (failed_ratio {run['failed'] / run['attempted']:.4f})")
    if "beyond_p90" in run:
        print(f"   samples beyond the 90th percentile: {run['beyond_p90']}")
    for name, metric in record["metrics"].items():
        print(f"   {name:40s} {metric['value']:14.6g} {metric['unit']}")
    if "wall_req_per_s" in run:
        print(f"   times above are at reference speed; wall clock: "
              f"{run['wall_req_per_s']:.6g} req/s, p50 {run['wall_latency_p50_ms']:.6g} ms, "
              f"p90 {run['wall_latency_p90_ms']:.6g} ms, reference "
              f"{1e3 * run['reference_median_s']:.4g} ms (nominal {1e3 * REFERENCE_S:.4g} ms)")
    for failure in run["failures"]:
        note = f"known defect: {failure['known_defect']}" if failure["known_defect"] else "REGRESSION"
        print(f"   failing: {failure['kind']} x{failure['count']} ({note}): {failure['reason']}")
    print(f"   python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}, "
          f"commit {env['commit'][:12]}, src {env['src_sha256']}")
    print(f"   result file: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omegafield" / "__init__.py").is_file():
        print(f"error: no omegafield sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
