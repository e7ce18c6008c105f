"""Traced stand-in for ``python -m sftdim.cli``: same arguments, same output.

The traced ``cli`` workload starts this script instead of the module.  It
times the import of ``sftdim.cli``, traces the layers the CLI reaches, runs
``cli.main`` and, when the process ends, writes per-name totals to the file
named by PERFBENCH_SPANS.
"""

from __future__ import annotations

import json
import os
import sys
import time

import tracing

TARGETS = ("sft.is_primitive", "sft.period", "exactlinalg.minimal_polynomial", "traces.perron",
           "shift_equivalence.search")


def main(argv):
    t = time.perf_counter()
    import sftdim.cli as cli

    import_ms = (time.perf_counter() - t) * 1e3
    tracer = tracing.Tracer()
    counts = {"traces.perron.iterations": tracing.DistinctSum("iterations"),
              "shift_equivalence.search.candidates_tried": tracing.DistinctSum("candidates_tried")}
    hooks = {"traces.perron": counts["traces.perron.iterations"],
             "shift_equivalence.search": counts["shift_equivalence.search.candidates_tried"]}
    tracer.install({name: hooks.get(name) for name in TARGETS})
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        spans, _ = tracer.summary()
        totals = {f"{name}.busy_s": s["busy_s"] for name, s in spans.items()}
        totals.update({name: hook.total for name, hook in counts.items()})
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "absent": tracer.absent, "totals": totals}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
