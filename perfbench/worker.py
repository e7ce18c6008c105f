"""Run one phase of one workload in a fresh interpreter; print the result as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE MIN_OPS

MODE is ``setup`` (set up, report set-up time and the input digest, exit),
``run`` (set up, then a closed loop with one client for SECONDS and at least
MIN_OPS operations, then the answer checks) or ``traced`` (the same loop with
spans recorded at the layer boundaries).  ``run.py`` starts this script with
``src/`` on PYTHONPATH; each phase gets its own interpreter so that the
library's module-level caches never carry warm state from one phase into the
next.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time includes importing the library

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

MODULES = {"invariants": "invariants", "queries": "queries", "cli": "cli_workload"}
# A timed loop never outlasts this, whatever MIN_OPS asks for, so that a run
# ends within its time limit even on a badly regressed program.
HARD_CAP_S = 120.0
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def untraced(name, fn, *args):
    return fn(*args)


def closed_loop(workload, seconds, min_ops, tracer):
    """Run ops one at a time; returns (latencies, results, elapsed, peak RSS).

    A workload may build the inputs of op i in ``prepare(i)`` just before
    it.  That time is neither in the op's latency nor in ``elapsed`` (the
    loop's busy time, behind ops_per_s), though it counts towards SECONDS.
    """
    span = tracer.call if tracer else untraced
    prepare = getattr(workload, "prepare", None)
    n = workload.inputs()
    latencies, results, rss = [], [], None
    start = time.perf_counter()
    preparing = 0.0
    i = 0
    while i < n:
        if i == min_ops:
            rss = workload.peak_rss_mb()
        wall = time.perf_counter() - start
        if (wall >= seconds and i >= min_ops) or wall >= HARD_CAP_S:
            break
        if tracer:
            tracer.op = i
        began = time.perf_counter()
        try:
            if prepare:
                prepare(i)
                ready = time.perf_counter()
                preparing += ready - began
                began = ready
            result = workload.op(i, span)
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            result = exc
        latencies.append(time.perf_counter() - began)
        results.append(result)
        i += 1
    elapsed = time.perf_counter() - start - preparing
    # Memory is read after the fixed amount of work every run does (MIN_OPS),
    # so that a faster program filling more per-matrix caches in the same
    # time does not read as using more memory.
    return latencies, results, elapsed, workload.peak_rss_mb() if rss is None else rss


def check_all(workload, results):
    """Failure descriptions for the ops whose answers are wrong (checked after timing)."""
    failures = []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                reason = workload.check(i, result)
            except Exception as exc:  # a malformed answer fails its op, not the run
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"op {i} ({workload.kind(i)}): {reason}")
    return failures


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile of a non-empty list.

    A Beta-weighted mean of the order statistics near rank q*n.  Latencies
    here fall into clusters (one per kind of op or matrix size), and a single
    order statistic jumps between clusters from run to run; the weighted mean
    moves smoothly.  Weights further than 8 standard deviations from q are
    negligible and skipped.
    """
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    width = 8 * math.sqrt(q * (1 - q) / n)
    lo, hi = max(0, int((q - width) * n) - 1), min(n, int((q + width) * n) + 2)
    weights = [pdf(i / n) + 4 * pdf((i + 0.5) / n) + pdf((i + 1) / n) for i in range(lo, hi)]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, s[lo:hi])) / total


def layer_metrics(workload, tracer, results):
    spans, by_root = tracer.summary()
    out = {}
    for name, s in spans.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.busy_s"] = s["busy_s"]
        out[f"{name}.self_s"] = s["self_s"]
        out[f"{name}.p50_us"] = tracing.p50(s["durations"]) * 1e6
    out.update(workload.layer_metrics(results, spans, by_root))
    stages = {n: s["root_s"] for n, s in spans.items() if s["root_s"]}
    selfs = {n: s["self_s"] for n, s in spans.items()}
    dominant = {
        "stage": max(stages, key=stages.get) if stages else None,
        "self": max(selfs, key=selfs.get) if selfs else None,
    }
    return out, dominant


def write_spans(tracer, tag):
    """Spans stay in memory during the run and are written once, here."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)


def main(argv):
    workload_name, seed, seconds, mode, min_ops = argv
    seed, seconds, min_ops = int(seed), float(seconds), int(min_ops)
    module = importlib.import_module(MODULES[workload_name])
    workload = module.Workload(seed)
    out = {"setup_s": time.perf_counter() - T0, "digest": workload.digest}
    import sftdim

    out["sftdim_file"] = sftdim.__file__
    if mode == "setup":
        print(json.dumps(out))
        return 0
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer:
        workload.enable_tracing(tracer)
    latencies, results, elapsed, rss = closed_loop(workload, seconds, min_ops, tracer)
    failures = check_all(workload, results)
    by_kind = {}
    for i, lat in enumerate(latencies):
        by_kind.setdefault(workload.kind(i), []).append(lat)
    out.update(
        ops=len(results),
        elapsed_s=elapsed,
        exhausted=len(results) == workload.inputs(),
        ops_per_s=len(results) / elapsed,
        op_p50_ms=percentile(latencies, 0.5) * 1e3,
        op_p90_ms=percentile(latencies, 0.9) * 1e3,
        kind_p50_ms={k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
        peak_rss_mb=rss,
        attempted=len(results),
        failed=len(failures),
        failures=failures[:10],
    )
    if tracer:
        out["layers"], out["dominant"] = layer_metrics(workload, tracer, results)
        out["absent"] = tracer.absent
        write_spans(tracer, f"{workload_name}-{seed}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
