"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is (name, parent, op, start, end).  Spans are appended to flat arrays
while the workload runs and summarised only when it ends, so recording costs
two clock reads and a few appends.  Library functions are traced by replacing
the name in every ``sftdim`` module that looks it up, which leaves ``src/``
untouched; a name that no longer exists is reported as absent.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import defaultdict

# Public exactlinalg names whose calls and self time every in-process
# workload reports.
EXACTLINALG = (
    "row_hermite_with_transform",
    "integer_kernel",
    "hermite_row_basis",
    "solve_integer_linear",
    "smith_normal_form",
    "unimodular_inverse",
    "lattice_closure_under_preimage",
)


class Tracer:
    def __init__(self):
        self.ids = {}
        self.names = []
        self.stack = []
        self.op = 0
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.nested = array("b")  # an ancestor has the same name
        self.start = array("d")
        self.end = array("d")
        self.absent = []

    def _id(self, name):
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name):
        nid = self._id(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.opid.append(self.op)
        self.nested.append(any(self.name[s] == nid for s in self.stack))
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args):
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.finish(idx)

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Trace ``module.name`` for each target wherever sftdim modules look it up.

        ``targets`` maps "module.name" to an optional result hook.  All sftdim
        modules must already be imported.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "sftdim" or n.startswith("sftdim.")]
        for qual, hook in targets.items():
            modname, fname = qual.rsplit(".", 1)
            original = getattr(sys.modules.get("sftdim." + modname), fname, None)
            if original is None:
                self.absent.append(qual)
                continue
            traced = self.wrap(qual, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """Per name: calls, busy_s (outermost spans), self_s, root_s (spans with no parent)
        and durations; and call counts per (root name, name)."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        by_root = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "root_s": 0.0,
                                      "durations": []})
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if not self.nested[i]:
                s["busy_s"] += dur[i]
            if self.parent[i] < 0:
                s["root_s"] += dur[i]
            s["durations"].append(dur[i])
            root = i
            while self.parent[root] >= 0:
                root = self.parent[root]
            if root != i:
                by_root[(self.names[self.name[root]], name)] += 1
        return out, by_root

    def dump(self):
        """All spans as plain lists, for writing once the run has ended."""
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.parent[i], self.opid[i], self.start[i], self.end[i]]
                for i in range(len(self.start))
            ],
        }


class DistinctSum:
    """Result hook adding ``attr`` of each distinct result once (a cache hit repeats the object)."""

    def __init__(self, attr):
        self.attr, self.seen, self.total = attr, set(), 0

    def __call__(self, result):
        if id(result) not in self.seen:
            self.seen.add(id(result))
            self.total += getattr(result, self.attr, 0)


def p50(values):
    return statistics.median(values) if values else 0.0
