"""Workload ``queries``: warm element arithmetic over a fixed pool of matrices.

Eight matrices (K = 3..8: dense, c J + d I which is derogatory, a singular
repeated-row matrix with l >= 1, and two companion matrices) are built and
warmed during set-up: the closures, Perron data and minimal polynomials
exist before the timed loop starts.  Each op is one query whose answer is
known by construction.  The kinds follow a fixed schedule (shuffled per
cycle by the seed) and cycle through the matrices in a fixed order, so every
seed runs the same mix; the seed chooses the elements, whose levels reach
into the tens.

The loop cycles through a pool of POOL queries.  On its c-th pass every
query is shifted by c, which keeps its answer known and its cost the same
but makes its inputs new: the levels of the operands move up by c (the
library's equality, product, action and closure work depends only on level
differences), and for ``normalize_s``, whose cost follows the absolute
level, the vector is multiplied by c + 1 instead.  So no query repeats
within a run, and a cache keyed on elements finds nothing the real traffic
would not give it.  The shifted inputs are built between ops, outside the
timed op (``prepare``).
"""

from __future__ import annotations

import resource
from typing import Callable, NamedTuple

import inputs as gen
import tracing

AMBIENTS = (
    ("dense", 3), ("dense", 4), ("ones_plus_identity", 4), ("repeated_row", 5),
    ("companion", 5), ("dense", 6), ("companion", 7), ("dense", 8),
)
# The query kinds of one schedule cycle, each once.  Equal weights: there is
# no record of real traffic to weight them by.  The kinds differ in cost by
# two orders of magnitude, so op_p50_ms sits among the mid-cost kinds and
# op_p90_ms among the closure-backed k1_equal / ra_membership ones.
KINDS = (
    "equal_s", "equal_u", "equal_h", "mul_k0", "k1_equal", "ra", "act_s", "act_u",
    "hom_eval", "normalize_s", "is_positive_s", "trace_s", "trace_u", "trace_ch",
)
POOL = 4096
MAX_LEVEL = 30


class Query(NamedTuple):
    name: str  # span name, also the op's kind
    run: Callable  # (span, *args) -> comparable result
    args: Callable  # shift -> the arguments of ``run``
    expected: Callable  # shift -> the expected answer
    check: Callable  # (result, expected) -> None, or the reason the answer is wrong
    plain: list  # the inputs as plain data, for the digest


class Ambient:
    def __init__(self, rng, family, k):
        if family == "dense":
            rows = gen.dense(rng, k)
        elif family == "ones_plus_identity":
            rows = gen.ones_plus_identity(k, rng.randint(1, 3), rng.randint(1, 3))
        elif family == "companion":
            rows = gen.companion(rng, k)
        else:
            rows = gen.repeated_row(rng, k)
        self.family, self.rows, self.k = family, rows, k
        self.pw = gen.Powers(rows)
        self.lam, self.left, self.right = gen.perron(rows)


class Workload:
    def __init__(self, seed):
        from sftdim import cylinder_ring, dimension_groups, duality, exactlinalg, traces, validate

        self.cyl, self.dg, self.dual, self.traces = cylinder_ring, dimension_groups, duality, traces
        self.IntMatrix = exactlinalg.IntMatrix
        # read through cache_info() while matrix_power has a cache; absent afterwards
        self.matrix_power_cache = getattr(getattr(exactlinalg, "matrix_power", None), "cache_info", None)
        rng = gen.rng_for(seed, "queries")
        self.ambients = [Ambient(rng, f, k) for f, k in AMBIENTS]
        for amb in self.ambients:
            amb.a = validate(amb.rows)
        self.pool = []
        spec = []
        counts = dict.fromkeys(KINDS, 0)
        while len(self.pool) < POOL:
            cycle = list(KINDS)
            rng.shuffle(cycle)
            for kind in cycle:
                allowed = self._allowed(kind)
                c = counts[kind]
                counts[kind] += 1
                # every matrix in turn; built-equal and built-unequal pairs
                # alternate per pass over the matrices, so each matrix gets both
                amb, equal = allowed[c % len(allowed)], c // len(allowed) % 2 == 0
                q = getattr(self, "_make_" + kind)(rng, amb, equal)
                spec.append((q.name, amb.rows, q.plain))
                self.pool.append(q)
        self.pool, spec = self.pool[:POOL], spec[:POOL]
        self.digest = gen.digest(spec)
        self._class_checks = {}
        self.current = None
        # warm: one query of every (kind, matrix) pair builds the closures,
        # Perron data and minimal polynomials before anything is timed
        seen = set()
        for i, (name, rows, _) in enumerate(spec):
            if (name, str(rows)) not in seen:
                seen.add((name, str(rows)))
                self.prepare(i)
                self.op(i, _untraced)

    # -- construction, one method per kind ---------------------------------
    # Each returns a Query.  ``equal`` asks for a pair built equal (or a
    # member); kinds without a verdict ignore it.

    def _allowed(self, kind):
        if kind == "hom_eval":
            return [a for a in self.ambients if a.family == "companion"]
        return self.ambients

    def _make_equal_s(self, rng, amb, equal):
        return self._make_vec_equal(rng, amb, equal, "s")

    def _make_equal_u(self, rng, amb, equal):
        return self._make_vec_equal(rng, amb, equal, "u")

    def _make_vec_equal(self, rng, amb, equal, side):
        k, pw = amb.k, amb.pw
        v = gen.vec(rng, k)
        n, j = rng.randint(0, MAX_LEVEL), rng.randint(0, 4)
        if side == "s":
            push, cls, fn, name = (lambda u, e: gen.vm(u, pw(e))), self.dg.StableElement, self.dg.equal_s, "dimension_groups.equal_s"
        else:
            push, cls, fn, name = (lambda u, e: gen.mv(pw(e), u)), self.dg.UnstableElement, self.dg.equal_u, "dimension_groups.equal_u"
        w = push(v, j)
        if not equal:
            while True:  # delta outside the eventual kernel (l <= K)
                delta = gen.vec(rng, k, -2, 2)
                if any(push(delta, k)):
                    break
            w = [x + y for x, y in zip(w, delta)]
        tv, tw = tuple(v), tuple(w)

        def args(s):
            return name, fn, cls(amb.a, tv, n + s), cls(amb.a, tw, n + j + s)
        return Query(name, _call, args, _const(equal), _same, [v, n, w, n + j])

    def _make_equal_h(self, rng, amb, equal):
        k, pw, M = amb.k, amb.pw, self.IntMatrix.from_rows
        x = gen.rand_matrix(rng, k, -2, 2)
        n, j = rng.randint(0, MAX_LEVEL // 2), rng.randint(0, 3)
        y = gen.mm(gen.mm(pw(j), x), pw(j))
        if not equal:  # c*I survives: A^l (cI) A^l = c A^(2l) != 0
            y = gen.madd(y, gen.identity(k), gen.rand_nonzero(rng, -2, 2))
        he, mx, my = self.dg.HomoclinicElement, M(x), M(y)
        name = "dimension_groups.equal_h"

        def args(s):
            return name, self.dg.equal_h, he(amb.a, mx, n + s), he(amb.a, my, n + j + s)
        return Query(name, _call, args, _const(equal), _same, [x, n, y, n + j])

    def _poly(self, rng, amb, deg=2):
        coeffs = [rng.randint(-2, 2) for _ in range(deg + 1)]
        coeffs[rng.randrange(deg + 1)] = gen.rand_nonzero(rng, -2, 2)
        return coeffs, gen.poly_eval(coeffs, amb.rows)

    def _make_mul_k0(self, rng, amb, equal):
        k, pw, M, k0 = amb.k, amb.pw, self.IntMatrix.from_rows, self.cyl.CylinderK0Element
        (p, pa), (q, qa) = self._poly(rng, amb), self._poly(rng, amb)
        s0, t, j = rng.randint(0, MAX_LEVEL // 2), rng.randint(0, MAX_LEVEL // 2), rng.randint(0, 3)
        z = gen.mm(gen.mm(pw(j), gen.mm(pa, qa)), pw(j))
        if not equal:
            z = gen.madd(z, gen.identity(k), gen.rand_nonzero(rng, -2, 2))
        mp, mz, y = M(pa), M(z), k0(amb.a, M(qa), t)

        def args(s):  # x and the product z move up by s, y stays
            return self.cyl, k0(amb.a, mp, s0 + s), y, k0(amb.a, mz, s0 + t + j + s)
        return Query("cylinder_ring.mul_00", _mul_k0, args, _const(equal), _same, [p, s0, q, t, z, j])

    def _make_k1_equal(self, rng, amb, equal):
        # y = A^j x A^j + (AW - WA), plus c*I when built unequal: every pool
        # matrix has a loop, so trace(A^2m) > 0 while trace vanishes on B(A)
        k, pw, M, k1 = amb.k, amb.pw, self.IntMatrix.from_rows, self.cyl.CylinderK1Element
        x = gen.rand_matrix(rng, k, -2, 2)
        n, j = rng.randint(0, MAX_LEVEL), rng.randint(0, 3)
        y = gen.madd(gen.mm(gen.mm(pw(j), x), pw(j)), gen.commutator(amb.rows, gen.rand_matrix(rng, k, -1, 1)))
        if not equal:
            y = gen.madd(y, gen.identity(k), gen.rand_nonzero(rng, -2, 2))
        verdict = "equal" if equal else "not_equal"
        name = "cylinder_ring.k1_equal." + verdict
        mx, my = M(x), M(y)

        def args(s):
            return name, self.cyl, k1(amb.a, mx, n + s), k1(amb.a, my, n + j + s)
        return Query(name, _k1, args, _const(verdict), _same, [x, n, y, n + j])

    def _make_ra(self, rng, amb, equal):
        # members are p(A) with deg p < K; on c J + d I (minimal polynomial of
        # degree 2) a cyclic permutation commutes with A but is no polynomial in it
        M, k0 = self.IntMatrix.from_rows, self.cyl.CylinderK0Element
        n = rng.randint(0, MAX_LEVEL)
        if amb.family == "ones_plus_identity" and not equal:
            payload, coeffs = gen.cyclic_permutation(amb.k), None
        else:
            coeffs = gen.vec(rng, amb.k, -2, 2)
            payload = gen.poly_eval(coeffs, amb.rows)
        mx = M(payload)

        def args(s):
            ref = None if coeffs is None else self.cyl.ra_reduce(amb.a, coeffs, n + s)
            return self.cyl, k0(amb.a, mx, n + s), ref

        def expected(s):
            return None if coeffs is None else (payload, n + s)
        return Query("cylinder_ring.ra_membership", _ra, args, expected, self._check_ra(amb),
                     [payload, n, coeffs])

    def _make_act_s(self, rng, amb, equal):
        return self._make_act(rng, amb, "s")

    def _make_act_u(self, rng, amb, equal):
        return self._make_act(rng, amb, "u")

    def _make_act(self, rng, amb, side):
        M, dg = self.IntMatrix.from_rows, self.dg
        p, pa = self._poly(rng, amb)
        v = gen.vec(rng, amb.k)
        n, m = rng.randint(0, MAX_LEVEL), rng.randint(0, MAX_LEVEL // 2)
        h, tv = self.cyl.CylinderK0Element(amb.a, M(pa), m), tuple(v)
        if side == "s":
            name, fn, cls, want = "cylinder_ring.act_s", self.cyl.act_s, dg.StableElement, gen.vm(v, pa)

            def args(s):
                return name, fn, cls(amb.a, tv, n + s), h
        else:
            name, fn, cls, want = "cylinder_ring.act_u", self.cyl.act_u, dg.UnstableElement, gen.mv(pa, v)

            def args(s):
                return name, fn, h, cls(amb.a, tv, n + s)
        return Query(name, _call, args, lambda s: (want, n + 2 * m + s), self._check_vec(amb, side),
                     [p, v, n, m])

    def _make_hom_eval(self, rng, amb, equal):
        # companion matrix: p is known, l = 0, and the Horner-tail formula of
        # the duality gives the coefficients of phi[v, n] at level N + n.  The
        # shift moves the level N of phi: the cost of hom_eval follows n.
        z, v = gen.vec(rng, amb.k), gen.vec(rng, amb.k)
        nz, n = rng.randint(0, MAX_LEVEL // 2), rng.randint(0, MAX_LEVEL // 2)
        coeffs = gen.hom_value(amb.rows, amb.pw, gen.companion_coeffs(amb.rows), z, v, n)
        want = gen.poly_eval(coeffs, amb.rows)
        tz, x = tuple(z), self.dg.StableElement(amb.a, tuple(v), n)
        name = "duality.hom_eval"

        def args(s):
            return name, self.dual.hom_eval, self.dual.StableHom(amb.a, tz, nz + s), x
        return Query(name, _call, args, lambda s: (want, nz + n + s), self._check_poly(amb),
                     [z, nz, v, n])

    def _make_normalize_s(self, rng, amb, equal):
        # [v A^j, n + j]: at least j levels strip off; how many more do depends
        # on det A, so the levels stay low to keep seeds comparable
        j, n = rng.randint(0, 3), rng.randint(0, 4)
        v = gen.vm(gen.vec(rng, amb.k), amb.pw(j))
        name = "dimension_groups.normalize_s"

        def args(s):
            return name, self.dg.normalize_s, self.dg.StableElement(amb.a, tuple((s + 1) * x for x in v), n + j)
        return Query(name, _call, args, lambda s: ([(s + 1) * x for x in v], n + j),
                     self._check_vec(amb, "s"), [v, n])

    def _make_is_positive_s(self, rng, amb, equal):
        v, verdict = gen.off_boundary(rng, amb.right)
        level, tv = rng.randint(0, MAX_LEVEL), tuple(v)
        name = "dimension_groups.is_positive_s"

        def args(s):
            return name, self.dg.is_positive_s, self.dg.StableElement(amb.a, tv, level + s)
        return Query(name, _positive, args, _const(verdict), _same, [v])

    def _make_trace_s(self, rng, amb, equal):
        v, n = gen.vec(rng, amb.k), rng.randint(0, MAX_LEVEL)
        terms = [x * r for x, r in zip(v, amb.right)]
        return self._trace(amb, "traces.trace_s", self.traces.trace_s, self.dg.StableElement, tuple(v),
                           n, 1, terms, [v, n])

    def _make_trace_u(self, rng, amb, equal):
        v, n = gen.vec(rng, amb.k), rng.randint(0, MAX_LEVEL)
        terms = [x * l for x, l in zip(v, amb.left)]
        return self._trace(amb, "traces.trace_u", self.traces.trace_u, self.dg.UnstableElement, tuple(v),
                           n, 1, terms, [v, n])

    def _make_trace_ch(self, rng, amb, equal):
        # u_l p(A) u_r = p(lambda) because u_l . u_r = 1
        p, pa = self._poly(rng, amb)
        n = rng.randint(0, MAX_LEVEL // 2)
        terms = [ci * amb.lam ** i for i, ci in enumerate(p)]
        return self._trace(amb, "traces.trace_ch", self.traces.trace_ch, self.cyl.CylinderK0Element,
                           self.IntMatrix.from_rows(pa), n, 2, terms, [p, n])

    def _trace(self, amb, name, fn, cls, payload, n, power, terms, plain):
        """trace of cls(payload, n + s) is sum(terms) / lambda^(power (n + s))."""
        def args(s):
            return name, fn, cls(amb.a, payload, n + s)

        def expected(s):
            scale = amb.lam ** (-power * (n + s))
            return sum(terms) * scale, sum(abs(t) for t in terms) * scale
        return Query(name, _call, args, expected, _float_close, plain)

    # -- checks, with the inputs module's own arithmetic -------------------

    def _check_vec(self, amb, side):
        def check(result, expected):
            want, level = expected
            if gen.vec_class_equal(amb.rows, list(result.vector), result.level, want, level, side, amb.pw):
                return None
            return "result is not the expected class"
        return check

    def _poly_class(self, amb, coeffs, level, payload, payload_level):
        """Whether [p(A), level] == [payload, payload_level], p given by ``coeffs``.

        The answer depends only on the level difference, so it is computed
        once per (matrix, coefficients, payload, difference).
        """
        key = (id(amb), tuple(coeffs), str(payload), level - payload_level)
        ok = self._class_checks.get(key)
        if ok is None:
            ok = self._class_checks[key] = gen.mat_class_equal(
                amb.rows, gen.poly_eval(list(coeffs), amb.rows), level, payload, payload_level, amb.pw)
        return ok

    def _check_poly(self, amb):
        def check(result, expected):
            want, level = expected
            if self._poly_class(amb, result.coeffs, result.level, want, level):
                return None
            return "result is not the expected class"
        return check

    def _check_ra(self, amb):
        def check(result, expected):
            witness, ref, verdict = result
            if expected is None:
                return None if witness is None else "non-member reported as member"
            if witness is None:
                return "member reported as non-member"
            payload, level = expected
            if not self._poly_class(amb, witness.coeffs, witness.level, payload, level):
                return "membership witness is not equal to the element"
            if not self._poly_class(amb, ref.coeffs, ref.level, payload, level):
                return "ra_reduce gave a class other than the element's"
            return None if verdict is True else f"ra_equal(witness, element) is {verdict!r}"
        return check


    # -- the workload interface --------------------------------------------

    def inputs(self):
        return 10**9  # the pool is cycled, shifted on each pass

    def kind(self, i):
        return self.pool[i % POOL].name

    def prepare(self, i):
        q = self.pool[i % POOL]
        self.current = q.args(i // POOL)

    def op(self, i, span):
        return self.pool[i % POOL].run(span, *self.current)

    def check(self, i, result):
        q = self.pool[i % POOL]
        return q.check(result, q.expected(i // POOL))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def enable_tracing(self, tracer):
        if self.matrix_power_cache is None:
            tracer.absent.append("exactlinalg.matrix_power.cache_info")
        else:
            self._cache_before = self.matrix_power_cache()
        tracer.install({f"exactlinalg.{n}": None for n in tracing.EXACTLINALG})

    def layer_metrics(self, results, spans, by_root):
        out = {}
        k1_calls = sum(spans.get(f"cylinder_ring.k1_equal.{v}", {}).get("calls", 0)
                       for v in ("equal", "not_equal"))
        solves = sum(n for (root, name), n in by_root.items()
                     if root.startswith("cylinder_ring.k1_equal.") and name == "exactlinalg.solve_integer_linear")
        out["cylinder_ring.k1_equal.solves_per_call"] = solves / k1_calls if k1_calls else 0.0
        if self.matrix_power_cache is not None:
            before, after = self._cache_before, self.matrix_power_cache()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            out["exactlinalg.matrix_power.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


# runners: (span, *args) -> comparable result


def _untraced(name, fn, *args):
    return fn(*args)


def _call(span, name, fn, *args):
    return span(name, fn, *args)


def _mul_k0(span, cyl, x, y, z):
    product = span("cylinder_ring.mul_00", cyl.mul_00, x, y)
    return span("cylinder_ring.k0_equal", cyl.k0_equal, product, z)


def _k1(span, name, cyl, x, y):
    return span(name, cyl.k1_equal, x, y).verdict.value


def _ra(span, cyl, x, ref):
    """(witness, the reference it is compared with, ra_equal's verdict)."""
    witness = span("cylinder_ring.ra_membership", cyl.ra_membership, x)
    if witness is None or ref is None:
        return witness, ref, None
    return witness, ref, span("cylinder_ring.ra_equal", cyl.ra_equal, witness, ref)


def _positive(span, name, fn, x):
    return span(name, fn, x).kind.value


# checkers: (result, expected) -> None or the reason the answer is wrong


def _same(result, expected):
    return None if result == expected else f"got {result!r}, expected {expected!r}"


def _const(value):
    return lambda s: value


def _float_close(result, expected):
    want, magnitude = expected
    return None if gen.close(result, want, magnitude) else f"trace {result!r}, expected {want!r}"
