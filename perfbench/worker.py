"""One workload run in a fresh process; prints its measurements as one JSON line.

Started by ``run.py``.  ``--setup-only`` stops right after set-up, so the
parent can time set-up several times; otherwise the workload runs as a
closed loop with one client (the next request starts when the previous
one returns), timed with tracing off, or as a fixed request list timed
untraced and then traced with ``--trace 1``.  Outputs are checked
outside the timed requests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from core import (  # noqa: E402
    KNOWN_DEFECTS, LAYERS, OUT, P50_SPANS, SRC, NullTracer, Raised, Tracer, at_reference_speed,
    interpreter_probe, median, quantile, reference, work_counts,
)

sys.path.insert(0, str(SRC))

WORKLOADS = ("deep_series", "analysis_mix", "cli_oneshot")
#: A run ends at a cycle boundary once its time is up and it has at least
#: this many requests, so that ten or more lie beyond the 90th percentile.
MIN_REQUESTS = 110
#: Request time between two reference samples.
REFERENCE_EVERY_S = 0.05


class Stream:
    """The seeded request stream of one workload: cycle i is always the same."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.wl.NAME}:{self.seed}:{label}")

    def cycle(self, index: int) -> list:
        return self.wl.cycle(self.rng(index), index)

    def warmup(self) -> list:
        return self.wl.warmup(self.rng("warmup"))


def run_one(wl, kind: str, params: dict, tr):
    try:
        return wl.execute(kind, params, tr)
    except Exception as exc:  # the checks decide whether this was expected
        return Raised(exc)


def verdict(wl, kind: str, params: dict, out):
    """None when the output passed its check, else the reason it failed."""
    try:
        return wl.check(kind, params, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def failures(wl, records) -> list:
    """``(index, kind, reason)`` for every record whose check failed."""
    out = []
    for index, (kind, params, result) in enumerate(records):
        reason = verdict(wl, kind, params, result)
        if reason:
            out.append((index, kind, reason))
    return out


def summarize_failures(failed) -> tuple:
    """Per-kind failure counts, and whether every failure is a known defect."""
    by_kind = Counter(kind for _, kind, _ in failed)
    reasons = {}
    for _, kind, reason in failed:
        reasons.setdefault(kind, reason)
    named = [
        {"kind": kind, "count": n, "reason": reasons[kind], "known_defect": KNOWN_DEFECTS.get(kind)}
        for kind, n in sorted(by_kind.items())
    ]
    return named, all(kind in KNOWN_DEFECTS for kind in by_kind)


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.NAME == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def closed_loop(wl, stream, first, seconds: float, ready: float, ref_ready: float) -> dict:
    """Tracing off: whole cycles until ``seconds`` of request time have passed.

    Each cycle's outputs are checked after the cycle, outside the timed
    requests, and then dropped, so memory does not grow with the run.
    A reference sample is taken at both ends of every cycle and after
    every ``REFERENCE_EVERY_S`` of request time in between.
    """
    tr = NullTracer()
    latencies, failed, refs = [], [], [(0, ref_ready)]
    reqs, index, busy = first, 0, 0.0
    while True:
        records = []
        since = 0.0
        for kind, params in reqs:
            start = perf_counter()
            out = run_one(wl, kind, params, tr)
            latencies.append(perf_counter() - start)
            records.append((kind, params, out))
            busy += latencies[-1]
            since += latencies[-1]
            if since >= REFERENCE_EVERY_S:
                refs.append((len(latencies), reference()))
                since = 0.0
        if since:
            refs.append((len(latencies), reference()))
        failed += failures(wl, records)
        index += 1
        if busy >= seconds and len(latencies) >= MIN_REQUESTS:
            break
        reqs = stream.cycle(index)
        refs.append((len(latencies), reference()))
    wall = perf_counter() - ready
    rss = peak_rss_mb(wl)
    named, all_known = summarize_failures(failed)
    n = len(latencies)
    scaled = at_reference_speed(latencies, refs)
    p90 = quantile(scaled, 0.9)
    return {
        "attempted": n,
        "failed": len(failed),
        "correct": all_known,
        "failures": named,
        "cycles": index,
        "wall_s": wall,
        "busy_s": busy,
        "reference_median_s": median([r for _, r in refs]),
        "req_per_s": n / sum(scaled),
        "latency_p50_ms": 1000 * median(scaled),
        "latency_p90_ms": 1000 * p90,
        "beyond_p90": sum(1 for v in scaled if v > p90),
        "wall_req_per_s": n / busy,
        "wall_latency_p50_ms": 1000 * median(latencies),
        "wall_latency_p90_ms": 1000 * quantile(latencies, 0.9),
        "peak_rss_mb": rss,
    }


def _layer_metrics(tracer: Tracer, failed_rids: set) -> dict:
    spans = tracer.spans
    covered = defaultdict(float)
    for rec in spans:
        if rec["parent"] >= 0:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    durations = defaultdict(list)
    calls, self_s, failed = Counter(), defaultdict(float), Counter()
    failed_layers = defaultdict(set)
    for rec in spans:
        duration = rec["end"] - rec["start"]
        durations[rec["name"]].append(duration)
        layer = rec["name"].split(".", 1)[0]
        if layer in LAYERS:
            calls[layer] += 1
            self_s[layer] += duration - covered[rec["id"]]
            if rec["rid"] in failed_rids:
                failed_layers[rec["rid"]].add(layer)
    for layers in failed_layers.values():
        failed.update(layers)
    metrics = {}
    for span, unit in P50_SPANS:
        values = durations.get(span)
        scale = 1e6 if unit == "us" else 1e3
        metrics[f"{span}.p50_{unit}"] = (scale * median(values) if values else 0.0, unit)
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_ms"] = (1e3 * self_s[layer], "ms")
        metrics[f"{layer}.failed"] = (failed[layer], "count")
    depths = [rec["depth"] for rec in spans if "depth" in rec]
    metrics["trace.depth_max"] = (max(depths, default=0), "count")
    return metrics


def traced(wl, stream, first, seconds: float, seed: int) -> dict:
    """Fixed request lists: cycles [0, n) untraced, then cycles [n, 2n) traced.

    The two halves get fresh inputs of the same mix, so neither sees
    caches the other filled.  n is sized from ``seconds``, so for one
    seed and one ``--seconds`` the call counts and work counts repeat
    exactly.
    """
    cycles = max(1, round(seconds / (2 * wl.CYCLE_S)))
    plain = first + [r for i in range(1, cycles) for r in stream.cycle(i)]
    reqs = [r for i in range(cycles, 2 * cycles) for r in stream.cycle(i)]
    null = NullTracer()
    start = perf_counter()
    for kind, params in plain:
        run_one(wl, kind, params, null)
    untraced_s = perf_counter() - start

    tracer = Tracer()
    records = []
    start = perf_counter()
    for rid, (kind, params) in enumerate(reqs):
        tracer.rid = rid
        with tracer.span("request", kind=kind):
            records.append((kind, params, run_one(wl, kind, params, tracer)))
    traced_s = perf_counter() - start
    if wl.NAME == "cli_oneshot":
        for rid, (kind, params) in enumerate(reqs, start=len(reqs)):
            tracer.rid = rid
            wl.in_process(kind, params, tracer)

    failed = failures(wl, records)
    named, all_known = summarize_failures(failed)
    metrics = _layer_metrics(tracer, {index for index, _, _ in failed})
    metrics.update(work_counts(out for _, _, out in records))
    interp_s, import_s = interpreter_probe()
    metrics["cli.interp_start_ms"] = (1e3 * interp_s, "ms")
    metrics["cli.import_ms"] = (1e3 * import_s, "ms")
    n = len(reqs)
    metrics["trace.req_per_s_untraced"] = (len(plain) / untraced_s, "1/s")
    metrics["trace.req_per_s_traced"] = (n / traced_s, "1/s")
    metrics["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%")
    spans_path = OUT / f"{wl.NAME}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)
    return {
        "attempted": n,
        "failed": len(failed),
        "correct": all_known,
        "failures": named,
        "cycles": cycles,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = importlib.import_module(args.workload)
    stream = Stream(wl, args.seed)
    first = stream.cycle(0)
    for kind, params in stream.warmup():
        run_one(wl, kind, params, NullTracer())
    ready = perf_counter()
    ref_ready = reference()
    if args.setup_only:
        result = {}
    elif args.trace:
        result = traced(wl, stream, first, args.seconds, args.seed)
    else:
        result = closed_loop(wl, stream, first, args.seconds, ready, ref_ready)
    print(json.dumps({"ready": ready, "ref_ready": ref_ready, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
