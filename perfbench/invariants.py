"""Workload ``invariants``: the cold per-matrix structure, one fresh matrix per op.

One op is what ``sftdim info`` plus ``sftdim kgroups`` compute for a matrix
seen for the first time (primitivity, period, minimal polynomial, Perron
data, centraliser, commutator lattice, Smith form, centre), plus the first
degree-one equality and the first subring membership, which build the two
preimage closures.  Inputs cycle through nine strata so every seed has the
same mix of sizes and families; only the entries depend on the seed.
"""

from __future__ import annotations

import resource

import inputs as gen
import tracing

STRATA = (
    ("dense", 4), ("dense", 5), ("dense", 6), ("dense", 7), ("dense", 8),
    ("ones_plus_identity", None), ("companion", None), ("bipartite", None), ("repeated_row", None),
)
# Enough fresh matrices for about five times the throughput measured at the
# commit that introduced the benchmark; a run that exhausts it stops early.
POOL = 1000


def _matrix(rng, family, k, cycle, pairs):
    if family == "dense":
        return gen.dense(rng, k)
    if family == "ones_plus_identity":
        c, d = pairs[(cycle // 5) % len(pairs)]
        return gen.ones_plus_identity(4 + cycle % 5, c, d)
    if family == "companion":
        return gen.companion(rng, 4 + cycle % 5)
    if family == "bipartite":
        return gen.bipartite(rng, (4, 6, 8)[cycle % 3])
    return gen.repeated_row(rng, 4 + cycle % 5)


def generate(seed, count=POOL):
    rng = gen.rng_for(seed, "invariants")
    pairs = [(c, d) for c in range(1, 9) for d in range(1, 9)]
    rng.shuffle(pairs)
    seen, items, cycle = set(), [], 0
    while len(items) < count:
        for family, k in STRATA:
            a = _matrix(rng, family, k, cycle, pairs)
            key = str(a)
            if key in seen:
                continue
            seen.add(key)
            items.append(_item(rng, family, a))
        cycle += 1
    return items[:count]


def _item(rng, family, a):
    k = len(a)
    pw = gen.Powers(a)
    # degree one: y = A^j x A^j + (AW - WA), plus c*I when built unequal.  Every
    # family has a vertex on a closed walk of each even length, so trace(A^2m)
    # > 0 and c*I never reaches B(A) (trace vanishes on B(A)).
    x = gen.rand_matrix(rng, k, -2, 2)
    n, j = rng.randint(0, 3), rng.randint(0, 2)
    equal = rng.random() < 0.5
    y = gen.madd(gen.mm(gen.mm(pw(j), x), pw(j)), gen.commutator(a, gen.rand_matrix(rng, k, -1, 1)))
    if not equal:
        y = gen.madd(y, gen.identity(k), gen.rand_nonzero(rng, -2, 2))
    # subring: p(A) is a member; for c J + d I a non-identity permutation is not
    if family == "ones_plus_identity" and rng.random() < 0.5:
        coeffs, payload = None, gen.cyclic_permutation(k)
    else:
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        coeffs[rng.randrange(k)] = gen.rand_nonzero(rng, -2, 2)
        payload = gen.poly_eval(coeffs, a)
    return {
        "family": family, "a": a,
        "k1": {"x": x, "n": n, "y": y, "m": n + j, "equal": equal},
        "ra": {"payload": payload, "level": rng.randint(0, 3), "member": coeffs is not None},
    }


class Workload:
    def __init__(self, seed):
        from sftdim import cylinder_ring, exactlinalg, sft, traces, validate

        self.cyl, self.el, self.sft, self.traces, self.validate = (
            cylinder_ring, exactlinalg, sft, traces, validate)
        self.items = generate(seed)
        self.digest = gen.digest(self.items)
        self.closure_steps = 0
        self.closure_bits = 0
        self.perron_iterations = tracing.DistinctSum("iterations")

    def inputs(self):
        return len(self.items)

    def kind(self, i):
        return self.items[i]["family"]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def enable_tracing(self, tracer):
        tracer.install(self.trace_targets())

    def trace_targets(self):
        """Library names traced in this workload, each with an optional result hook."""

        def closure(result):
            basis, steps = result
            self.closure_steps += steps
            self.closure_bits = max(self.closure_bits, _max_bits(basis))

        names = [f"exactlinalg.{n}" for n in tracing.EXACTLINALG] + [
            "exactlinalg.minimal_polynomial", "sft.is_primitive", "sft.period",
            "cylinder_ring.centralizer_basis", "cylinder_ring.commutator_lattice",
            "cylinder_ring.k1_group_structure", "cylinder_ring.center_basis",
        ]
        targets = dict.fromkeys(names)
        targets["exactlinalg.lattice_closure_under_preimage"] = closure
        targets["traces.perron"] = self.perron_iterations
        return targets

    def op(self, i, span):
        cyl, el, sft = self.cyl, self.el, self.sft
        item = self.items[i]
        a = self.validate(item["a"])
        irreducible = sft.is_irreducible(a)
        primitive = sft.is_primitive(a)
        per = sft.period(a)
        mp = el.minimal_polynomial(a.matrix)
        perron = self.traces.perron(a) if primitive else None
        cent = cyl.centralizer_basis(a)
        comm = cyl.commutator_lattice(a)
        k1s = cyl.k1_group_structure(a)
        center = cyl.center_basis(a)
        k1 = item["k1"]
        x = cyl.CylinderK1Element(a, el.IntMatrix.from_rows(k1["x"]), k1["n"])
        y = cyl.CylinderK1Element(a, el.IntMatrix.from_rows(k1["y"]), k1["m"])
        decision = span("cylinder_ring.k1_equal.cold", cyl.k1_equal, x, y)
        ra = item["ra"]
        h = cyl.CylinderK0Element(a, el.IntMatrix.from_rows(ra["payload"]), ra["level"])
        witness = span("cylinder_ring.ra_membership.cold", cyl.ra_membership, h)
        return (irreducible, primitive, per, mp, perron, cent, comm, k1s, center, decision, witness)

    def check(self, i, result):
        """None when the answer is right, else the reason it is wrong."""
        item = self.items[i]
        a, fam = item["a"], item["family"]
        k = len(a)
        irreducible, primitive, per, mp, perron, cent, comm, k1s, center, decision, witness = result
        want_period = 2 if fam == "bipartite" else 1
        if not irreducible or per != want_period or primitive != (want_period == 1):
            return "graph structure"
        if fam == "repeated_row" and mp.l < 1:
            return "singular matrix reported with l = 0"
        if fam == "ones_plus_identity" and (mp.k + mp.l >= k or cent.rank != (k - 1) ** 2 + 1):
            return "derogatory structure"
        if fam == "companion" and (list(mp.m_coeffs) != gen.companion_coeffs(a) or cent.rank != k):
            return "companion minimal polynomial or centraliser rank"
        lam = gen.perron(a)[0] if primitive else None
        if primitive and not gen.close(perron.eigenvalue, lam, lam):
            return "Perron eigenvalue"
        for basis in (cent.basis, center.basis):
            for xb in basis:
                xr = xb.to_rows()
                if gen.mm(a, xr) != gen.mm(xr, a):
                    return "basis element does not commute with A"
        for b, w in zip(comm.basis, comm.witnesses):
            if b.to_rows() != gen.commutator(a, w.to_rows()):
                return "commutator witness"
        if cent.rank + comm.rank != k * k or k1s.free_rank != cent.rank:
            return "rank C + rank B != K^2 or free rank != rank C"
        if decision.verdict.value != ("equal" if item["k1"]["equal"] else "not_equal"):
            return f"k1_equal verdict {decision.verdict.value}"
        ra = item["ra"]
        if not ra["member"]:
            return None if witness is None else "non-member reported as member"
        if witness is None:
            return "member reported as non-member"
        m = witness.level - ra["level"]
        pw = gen.Powers(a)
        lhs = gen.mm(gen.mm(pw(k + m), ra["payload"]), pw(k + m))
        q = gen.poly_eval(list(witness.coeffs), a)
        if m < 0 or lhs != gen.mm(gen.mm(pw(k), q), pw(k)):
            return "membership witness is not equal to the element"
        return None

    def layer_metrics(self, results, spans, by_root):
        done = [r for r in results if isinstance(r, tuple)]
        bits = self.closure_bits
        for r in done:
            cent, comm, k1s, center = r[5], r[6], r[7], r[8]
            for m in (*cent.basis, *comm.basis, *comm.witnesses, *center.basis):
                bits = max(bits, _max_bits([m.entries]))
            bits = max(bits, _max_bits([k1s.snf_diagonal]))
        return {
            "exactlinalg.lattice_closure_under_preimage.steps_sum": self.closure_steps,
            "exactlinalg.lattice_dim_sum": sum(
                len(self.items[i]["a"]) ** 2 for i, r in enumerate(results) if isinstance(r, tuple)),
            "cylinder_ring.centralizer_rank_sum": sum(r[5].rank for r in done),
            "cylinder_ring.max_entry_bits": bits,
            "traces.perron.iterations": self.perron_iterations.total,
            "cylinder_ring.k1_equal.cold_busy_s": spans.get("cylinder_ring.k1_equal.cold", {}).get("busy_s", 0.0),
            "cylinder_ring.ra_membership.cold_busy_s": spans.get("cylinder_ring.ra_membership.cold", {}).get("busy_s", 0.0),
        }


def _max_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)
