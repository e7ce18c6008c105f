"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload: both kinds of run print every metric named in
BENCHMARK.json with its unit and end in a well-formed result line; a planted
wrong answer is counted as failed; two seeds generate different inputs and
one seed the same inputs.  Finally the benchmark must refuse to run, with a
non-zero exit and no result line, where there are no sources.  Exits 0 when
everything holds.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_workload  # noqa: E402
import invariants  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

WORKLOADS = {"invariants": invariants, "queries": queries, "cli": cli_workload}
problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)
        print(f"FAIL {what}")


def run_bench(workload, trace):
    """run.main in this process with a few ops per loop; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)])
    return code, out.getvalue(), err.getvalue()


def check_output(workload, trace, spec):
    code, stdout, stderr = run_bench(workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(code == 0, f"{tag}: exit {code}: {stderr[-2000:]}")
    if code != 0:
        return
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: answers wrong: {[ln for ln in lines if ln.startswith('FAILED')]}")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    expect(list(result["metrics"]) == names, f"{tag}: metric names differ from BENCHMARK.json")
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if len(ln.split()) == 3}
    for m in spec["per_layer" if trace else "end_to_end"]:
        expect(printed.get(m["name"]) == m["unit"], f"{tag}: {m['name']} not printed with unit {m['unit']}")
        expect(result["metrics"][m["name"]]["unit"] == m["unit"], f"{tag}: unit of {m['name']}")
    if not trace:
        for name, m in result["metrics"].items():
            expect(m["value"] > 0, f"{tag}: {name} is not positive")


def check_planted(name, module):
    """Corrupt the expected answer of op 0, run a few ops, and count failures."""
    w = module.Workload(5)
    if name == "invariants":
        w.items[0]["k1"]["equal"] = not w.items[0]["k1"]["equal"]
    elif name == "queries":
        first = next(i for i, q in enumerate(w.pool) if q.check is queries._same)
        w.pool.insert(0, w.pool.pop(first))
        w.pool[0] = w.pool[0]._replace(expected=lambda s: "planted wrong answer")
    else:
        q = list(w.pool[0])
        q[2] = q[2] + 1  # expected exit code
        w.pool[0] = tuple(q)
    _, results, _, _ = worker.closed_loop(w, 0, 3, None)
    failures = worker.check_all(w, results)
    expect(len(failures) == 1 and failures[0].startswith("op 0 "),
           f"{name}: planted wrong answer counted as {failures}")


def check_seeds():
    expect(invariants.Workload(1).digest == invariants.Workload(1).digest, "invariants: one seed, two inputs")
    expect(invariants.Workload(1).digest != invariants.Workload(2).digest, "invariants: two seeds, one input")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "invariants",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "a checkout without sources still printed a result")


def main():
    run.MIN_OPS = 3  # tiny loops: the checks need a few ops, not steady percentiles
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for name in WORKLOADS:
        for trace in (0, 1):
            check_output(name, trace, spec)
    for name, module in WORKLOADS.items():
        check_planted(name, module)
    check_seeds()
    check_refuses_without_sources()
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
