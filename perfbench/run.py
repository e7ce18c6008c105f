"""The sftdim benchmark.

    python3 perfbench/run.py --workload {invariants,queries,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` and the CLI is started as ``python -m sftdim.cli``, with nothing
installed.  Workloads (each a closed loop with one client, one operation in
flight, and its inputs generated from ``--seed`` only):

* ``invariants`` - one fresh matrix per op (K = 4..8 and four structured
  families), so every per-matrix cache misses: centraliser, commutator
  lattice, Smith form, centre and the two preimage closures.
* ``queries`` - warm element arithmetic over a fixed pool of eight matrices;
  the per-matrix structure is built during set-up, so ops only read it.
  Each query's inputs are built just before it and that time is not counted.
* ``cli`` - one ``python -m sftdim.cli --format json`` child at a time:
  small matrices across every subcommand, and a quarter of the calls on
  sparse K = 12..20 matrices.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time (the
median of three set-ups, each in a fresh interpreter), throughput, median and
90th-percentile latency (Harrell-Davis estimates over at least 100 ops; a
loop runs past ``--seconds`` until it has them), and peak resident memory
once the first 100 ops are done (the largest child's, for ``cli``).  A
failed op is one that raises, exits with an unexpected code or gives a wrong
answer; ``failed / attempted`` is printed as ``failed_ratio``.  With
``--trace 1`` it runs the loop twice for half the time each, untraced and
then traced, and reports the per-layer metrics named in BENCHMARK.json plus
the tracing overhead.  Every answer is checked after the timed loop; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A detailed record, with the machine and
versions, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Percentiles need samples: p90 of 100 ops still has 10 beyond it.
MIN_OPS = 100
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, seconds, mode, min_ops):
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode, str(min_ops)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["sftdim_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"sftdim was imported from {result['sftdim_file']}, not from this checkout")
    return result


def machine():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "cli_interpreter": sys.executable,
    }


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(args):
    setups = [spawn(args.workload, args.seed, 0, "setup", 0) for _ in range(SETUP_REPEATS - 1)]
    main = spawn(args.workload, args.seed, args.seconds, "run", MIN_OPS)
    runs = [main]
    times = [r["setup_s"] for r in setups + [main]]
    if len({r["digest"] for r in setups + [main]}) != 1:
        raise BenchError("set-ups with one seed generated different inputs")
    values = {
        "setup_s": statistics.median(times),
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": main["op_p50_ms"],
        "op_p90_ms": main["op_p90_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(times)} set-ups in fresh interpreters: "
        + ", ".join(f"{t:.4f}" for t in times),
        f"ops: {main['ops']} in {main['elapsed_s']:.3f} s (percentiles over n={main['ops']})"
        + (" - the input pool ran out before the time did" if main["exhausted"] else ""),
    ]
    return values, runs, notes


def per_layer(args):
    half = args.seconds / 2
    plain = spawn(args.workload, args.seed, half, "run", 0)
    traced = spawn(args.workload, args.seed, half, "traced", 0)
    values = dict(traced["layers"])
    for kind, ms in plain["kind_p50_ms"].items():
        values.setdefault(f"{args.workload}.{kind}.p50_ms", ms)
    values["bench.trace_overhead_ratio"] = plain["ops_per_s"] / traced["ops_per_s"]
    notes = [
        f"untraced: {plain['ops']} ops in {plain['elapsed_s']:.3f} s; "
        f"traced: {traced['ops']} ops in {traced['elapsed_s']:.3f} s",
        "absent (removed from the library, reported as 0): " + (", ".join(traced["absent"]) or "none"),
    ]
    if traced["dominant"]["stage"]:
        notes += [f"dominant stage (largest busy time among top-level spans): {traced['dominant']['stage']}",
                  f"largest self time: {traced['dominant']['self']}"]
    return values, [plain, traced], notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("invariants", "queries", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sftdim" / "cli.py").is_file():
        print(f"error: no sftdim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        metric_spec = spec()["per_layer" if args.trace else "end_to_end"]
        values, runs, notes = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = machine()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in metric_spec}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **info, "digest": runs[0]["digest"], "attempted": attempted, "failed": failed,
        "failures": [f for r in runs for f in r["failures"]], "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  " + "  ".join(
        f"{k} {v}" for k, v in info.items()))
    print(f"inputs digest {runs[0]['digest']}")
    for note in notes:
        print(note)
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
