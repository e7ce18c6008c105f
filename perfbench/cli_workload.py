"""Workload ``cli``: one ``python -m sftdim.cli --format json`` process per op.

Invocations follow a fixed cycle of sixteen: every subcommand once on a small
matrix (K <= 5), and ``info``, ``trace``, ``positive`` and ``decompose`` once
each on a sparse K-cycle with one chord, K stepping through 12, 14, .., 20.
On the small matrices interpreter start-up and imports dominate; on the
sparse ones primitivity, the minimal polynomial and power iteration do.  The
chord makes a (K-1)-cycle, so the matrix is primitive with spectral radius
the root of x^K = x + 1; larger K, where power iteration stops converging,
is left to the library's own tests.  The seed picks the matrices, their
vertex labelling and the elements.  Exit codes and report fields are checked
against answers known by construction.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs as gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = ("info", "kgroups", "decompose", "mul", "act", "trace", "equal", "positive", "ra",
         "duality", "se-verify", "se-search")
SPARSE = ("info", "trace", "positive", "decompose")
# K = 22 and 24 would cost about 2 s a call: too few ops in a run for steady percentiles
SPARSE_K = (12, 14, 16, 18, 20)
POOL = 480
CHILD_TIMEOUT_S = 60


class Matrix:
    def __init__(self, name, rows, lam=None, period=1):
        self.name, self.rows, self.k, self.period = name, rows, len(rows), period
        self.pw = gen.Powers(rows)
        if period == 1:
            self.lam, self.left, self.right = gen.perron(rows, lam)
        self.path = None


def _el(payload, level, flavor):
    return json.dumps({"payload": payload, "level": level, "flavor": flavor}, separators=(",", ":"))


class Workload:
    def __init__(self, seed):
        import sftdim.cli  # noqa: F401  (set-up includes the parent's import, as in-process workloads)

        rng = gen.rng_for(seed, "cli")
        self._dir = tempfile.TemporaryDirectory(prefix="cli-", dir=_out_dir())
        self.dir = Path(self._dir.name)
        self.matrices = {}
        small = {
            "dense3": gen.dense(rng, 3), "dense4": gen.dense(rng, 4), "dense5": gen.dense(rng, 5),
            "companion4": gen.companion(rng, 4), "companion5": gen.companion(rng, 5),
            "ones3": gen.ones_plus_identity(3, rng.randint(1, 3), rng.randint(1, 3)),
            "repeated4": gen.repeated_row(rng, 4),
        }
        for name, rows in small.items():
            self._add(Matrix(name, rows))
        self._add(Matrix("bipartite4", gen.bipartite(rng, 4), period=2))
        for k in SPARSE_K:
            rows = gen.chord_cycle(k, rng.randrange(k))
            self._add(Matrix(f"chord{k}", rows, lam=gen.chord_cycle_lambda(k)))
        # conjugate pairs (A, P^T A P, P) for the shift-equivalence subcommands
        self.se_pairs = []
        for i, k in enumerate((2, 2, 3, 3, 3, 4, 4, 4)):
            while True:
                perm = list(range(k))
                if k == 2:  # positive off-diagonal: irreducible, and primitive with a loop
                    a = [[rng.randint(1, 2), rng.randint(1, 2)], [rng.randint(1, 2), rng.randint(0, 2)]]
                else:
                    a = gen.dense(rng, k)
                rng.shuffle(perm)
                if _permute(a, perm) != a:
                    break
            p = [[int(perm[r] == c) for c in range(k)] for r in range(k)]
            b = _permute(a, perm)
            self.se_pairs.append((a, b, p, self._write(f"se{i}a", a), self._write(f"se{i}b", b)))
        self.pool = []
        sparse_count = 0
        while len(self.pool) < POOL:
            cycle = list(SMALL)
            rng.shuffle(cycle)
            for pos, sub in enumerate(cycle):
                self.pool.append(getattr(self, "_" + sub.replace("-", "_"))(rng))
                if pos % 3 == 2:
                    m = self.matrices[f"chord{SPARSE_K[sparse_count // 4 % len(SPARSE_K)]}"]
                    self.pool.append(self._sparse(rng, SPARSE[sparse_count % 4], m))
                    sparse_count += 1
        self.pool = self.pool[:POOL]
        self.digest = gen.digest([[m.name, m.rows] for m in self.matrices.values()]
                                 + [p[1] for p in self.pool])
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.tracer = None
        self.span_files = []
        code, _, err = self._run(["info", self.matrices["dense3"].path])  # also warms the file cache
        if code != 0:
            raise RuntimeError(f"the CLI does not start: {err[-2000:]}")

    def _add(self, m):
        self.matrices[m.name] = m
        m.path = self._write(m.name, m.rows)

    def _write(self, name, rows):
        (self.dir / f"{name}.json").write_text(json.dumps(rows))
        return f"{name}.json"  # children run in self.dir

    # -- running a child ---------------------------------------------------

    def _run(self, argv, spans=None):
        if spans is None:
            cmd = [sys.executable, "-m", "sftdim.cli", "--format", "json", *argv]
            env = self.env
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), "--format", "json", *argv]
            env = dict(self.env, PERFBENCH_SPANS=spans)
        proc = subprocess.run(cmd, cwd=self.dir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def inputs(self):
        return len(self.pool)

    def kind(self, i):
        return self.pool[i][0]

    def op(self, i, span):
        argv = self.pool[i][1]
        if self.tracer is None:
            return self._run(argv)
        spans = str(self.dir / f"spans-{i}.json")
        self.span_files.append(spans)
        return self._run(argv, spans)

    def check(self, i, result):
        _, _, want_code, checker = self.pool[i]
        code, out, err = result
        if code != want_code:
            return f"exit {code}, expected {want_code}: {err.strip()[-300:]}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON report"
        try:
            return checker(report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"report field missing or malformed: {exc!r}"

    def peak_rss_mb(self):
        """Largest child: Linux reports the maximum over waited-for children."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def enable_tracing(self, tracer):
        self.tracer = tracer

    def layer_metrics(self, results, spans, by_root):
        totals, imports, absent = {}, [], set()
        for path in self.span_files:
            try:
                with open(path, encoding="utf-8") as fh:
                    child = json.load(fh)
            except FileNotFoundError:
                continue  # the child died before writing; its op is already failed
            imports.append(child["import_ms"])
            absent.update(child["absent"])
            for name, value in child["totals"].items():
                totals[name] = totals.get(name, 0.0) + value
        self.tracer.absent.extend(sorted(absent))
        bare = []
        for _ in range(5):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
            bare.append((time.perf_counter() - t) * 1e3)
        totals["cli.interpreter_ms"] = statistics.median(bare)
        totals["cli.import_ms"] = statistics.median(imports) if imports else 0.0
        return totals

    # -- small-matrix invocations: (subcommand, argv, exit code, checker) --

    def _primitive_small(self, rng):
        return self.matrices[rng.choice(("dense3", "dense4", "dense5", "companion4", "companion5",
                                         "ones3", "repeated4"))]

    def _info(self, rng):
        m = self.matrices[rng.choice(("dense3", "dense5", "companion4", "ones3", "repeated4",
                                      "bipartite4"))]
        return ("info", ["info", m.path], 0, lambda r: _check_info(m, r))

    def _kgroups(self, rng):
        m = self.matrices[rng.choice(("dense3", "dense4", "companion4", "ones3", "repeated4",
                                      "bipartite4"))]

        def check(r):
            for basis in r["centralizer"]["basis"]:
                if gen.mm(m.rows, basis) != gen.mm(basis, m.rows):
                    return "centraliser basis element does not commute with A"
            rank_c = r["centralizer"]["rank"]
            if rank_c + r["commutator"]["rank"] != m.k ** 2:
                return "rank C + rank B != K^2"
            if r["k1_level_group"]["free_rank"] != rank_c:
                return "free rank != rank C"
            if m.name == "ones3" and rank_c != 5:
                return "derogatory centraliser rank"
            return None

        return ("kgroups", ["kgroups", m.path], 0, check)

    def _decompose(self, rng):
        m = self.matrices[rng.choice(("bipartite4", "dense4", "companion5"))]

        def check(r):
            classes = sorted(v for c in r["classes"] for v in c)
            if r["period"] != m.period or classes != list(range(m.k)):
                return "period or cyclic classes"
            if m.period == 1 and (r["component"] != m.rows
                                  or not gen.close(r["eigenvalue"], m.lam, m.lam)):
                return "mixing component or eigenvalue"
            return None

        return ("decompose", ["decompose", m.path], 0, check)

    def _mul(self, rng):
        m = self._primitive_small(rng)
        s, t = rng.randint(0, 2), rng.randint(0, 2)
        if rng.random() < 0.5:
            a = rng.randint(0, 2 * (s + t))
            b = 2 * (s + t) - a
        else:
            a, b = rng.randint(0, 4), rng.randint(0, 4)
        identity = a + b == 2 * (s + t)  # A is not of finite order, so only then
        want = m.lam ** (a + b - 2 * (s + t))

        def check(r):
            if r["equals_identity"] != identity or r["equals_zero"]:
                return "product class"
            return None if gen.close(r["trace"], want, want) else "trace of the product"

        argv = ["mul", m.path, _el(m.pw(a), s, "k0"), _el(m.pw(b), t, "k0")]
        return ("mul", argv, 0, check)

    def _act(self, rng):
        m = self._primitive_small(rng)
        side = rng.choice("su")
        v = gen.vec(rng, m.k)
        n, lvl, c = rng.randint(0, 6), rng.randint(0, 3), rng.randint(0, 3)
        if side == "s":
            want_vec, eig = gen.vm(v, m.pw(c)), m.right
        else:
            want_vec, eig = gen.mv(m.pw(c), v), m.left
        scale = m.lam ** -(n + 2 * lvl)
        want = gen.dot(want_vec, eig) * scale
        mag = sum(abs(x * y) for x, y in zip(want_vec, eig)) * scale

        def check(r):
            res = r["result"]
            if res["flavor"] != side or not gen.vec_class_equal(
                    m.rows, res["payload"], res["level"], want_vec, n + 2 * lvl, side):
                return "action result class"
            return None if gen.close(r["trace"], want, mag) else "trace of the action"

        argv = ["act", m.path, _el(v, n, side), _el(m.pw(c), lvl, "k0")]
        return ("act", argv, 0, check)

    def _trace(self, rng):
        m = self._primitive_small(rng)
        flavor = rng.choice(("s", "u", "k0"))
        n = rng.randint(0, 12)
        if flavor == "k0":
            c = rng.randint(0, 3)  # u_l A^c u_r = lambda^c
            payload, want, mag = m.pw(c), m.lam ** (c - 2 * n), m.lam ** (c - 2 * n)
        else:
            payload = gen.vec(rng, m.k)
            eig = m.right if flavor == "s" else m.left
            want = gen.dot(payload, eig) * m.lam ** -n
            mag = sum(abs(x * y) for x, y in zip(payload, eig)) * m.lam ** -n
        return ("trace", ["trace", m.path, _el(payload, n, flavor)], 0,
                lambda r: None if gen.close(r["trace"], want, mag) else "trace value")

    def _equal(self, rng):
        flavor = rng.choice(("s", "u", "h", "k0", "k1", "ra"))
        m = self.matrices["companion4" if flavor == "ra" else rng.choice(
            ("dense3", "dense4", "companion5", "ones3", "repeated4"))]
        k, pw = m.k, m.pw
        equal = rng.random() < 0.5
        n, j = rng.randint(0, 8), rng.randint(0, 3)
        c = gen.rand_nonzero(rng, -2, 2)
        if flavor in ("s", "u"):
            push = (lambda u, e: gen.vm(u, pw(e))) if flavor == "s" else (lambda u, e: gen.mv(pw(e), u))
            x = gen.vec(rng, k)
            y = push(x, j)
            if not equal:
                while True:
                    delta = gen.vec(rng, k)
                    if any(push(delta, k)):
                        break
                y = [p + q for p, q in zip(y, delta)]
        elif flavor == "ra":  # companion: reduced minimal polynomial known, x^2 per level
            p = gen.companion_coeffs(m.rows)
            x = gen.vec(rng, k)
            y = gen.poly_mod(gen.poly_mul(x, [0] * (2 * j) + [1]), p)
            if not equal:
                y[0] += c
        else:
            if flavor == "k0":
                coeffs = [rng.randint(-2, 2) for _ in range(3)]
                x = gen.poly_eval(coeffs, m.rows)
            else:
                x = gen.rand_matrix(rng, k, -2, 2)
            y = gen.mm(gen.mm(pw(j), x), pw(j))
            if flavor == "k1":
                y = gen.madd(y, gen.commutator(m.rows, gen.rand_matrix(rng, k, -1, 1)))
            if not equal:  # c*I: nonzero at level l, and off B(A) since trace(A^2m) > 0
                y = gen.madd(y, gen.identity(k), c)
        if flavor == "k1":
            want_verdict = "equal" if equal else "not_equal"

            def check(r):
                return None if r["verdict"] == want_verdict else f"verdict {r['verdict']}"
        else:
            def check(r):
                return None if r["equal"] is equal else "equality verdict"
        argv = ["equal", m.path, _el(x, n, flavor), _el(y, n + j, flavor)]
        return ("equal", argv, 0, check)

    def _positive(self, rng):
        m = self._primitive_small(rng)
        v, want = gen.off_boundary(rng, m.right)
        return ("positive", ["positive", m.path, _el(v, rng.randint(0, 6), "s")], 0,
                lambda r: None if r["positivity"] == want else f"positivity {r['positivity']}")

    def _ra(self, rng):
        if rng.random() < 0.5:  # reduce on a companion matrix, whose p is known
            m = self.matrices["companion5"]
            p = gen.companion_coeffs(m.rows)
            rem = [0] * m.k if rng.random() < 0.5 else gen.vec(rng, m.k)
            q = gen.vec(rng, 3)
            coeffs = [a + b for a, b in zip(gen.poly_mul(p, q), rem + [0] * 3)]
            level = rng.randint(0, 5)

            def check(r):
                res = r["result"]
                if res["payload"] != rem or res["level"] != level or r["is_zero"] != (not any(rem)):
                    return "reduced representative"
                return None

            return ("ra", ["ra", "reduce", m.path, json.dumps(coeffs), str(level)], 0, check)
        m = self.matrices[rng.choice(("ones3", "companion4", "dense4"))]
        n = rng.randint(0, 5)
        if m.name == "ones3" and rng.random() < 0.5:  # a permutation is never in the subring
            payload, member = gen.cyclic_permutation(m.k), False
        else:
            payload, member = gen.poly_eval(gen.vec(rng, m.k, -2, 2), m.rows), True

        def check(r):
            if r["member"] is not member:
                return "membership verdict"
            if member:
                w = r["witness"]
                q = gen.poly_eval(w["payload"], m.rows)
                if w["flavor"] != "ra" or not gen.mat_class_equal(m.rows, payload, n, q, w["level"]):
                    return "membership witness"
            return None

        return ("ra", ["ra", "member", m.path, _el(payload, n, "k0")], 0, check)

    def _duality(self, rng):
        m = self.matrices[rng.choice(("companion4", "companion5"))]
        k, pw = m.k, m.pw
        sub = rng.choice(("eval", "equal", "to-unstable", "from-unstable"))
        z, nz = gen.vec(rng, k), rng.randint(0, 5)
        hom = json.dumps({"z": z, "level": nz})
        if sub == "eval":  # Horner tails of the (known) minimal polynomial, l = 0
            v, n = gen.vec(rng, k), rng.randint(0, 5)
            coeffs = gen.hom_value(m.rows, pw, gen.companion_coeffs(m.rows), z, v, n)
            want = gen.poly_eval(coeffs, m.rows)

            def check(r):
                res = r["result"]
                got = gen.poly_eval(res["payload"], m.rows)
                ok = res["flavor"] == "ra" and gen.mat_class_equal(m.rows, got, res["level"], want, nz + n)
                return None if ok else "homomorphism value"

            return ("duality", ["duality", "eval", m.path, hom, _el(v, n, "s")], 0, check)
        if sub == "equal":
            equal = rng.random() < 0.5
            other = {"z": gen.mv(pw(2), z), "level": nz + 1} if equal else {
                "z": [a + b for a, b in zip(z, gen.vec(rng, k))], "level": nz}
            return ("duality", ["duality", "equal", m.path, hom, json.dumps(other)], 0,
                    lambda r: None if r["equal"] is equal else "homomorphism equality")
        if sub == "to-unstable":
            def check(r):
                res = r["result"]
                ok = res["flavor"] == "u" and gen.vec_class_equal(m.rows, res["payload"], res["level"], z, 2 * nz, "u")
                return None if ok else "unstable image"
            return ("duality", ["duality", "to-unstable", m.path, hom], 0, check)
        w, lw = gen.vec(rng, k), rng.randint(0, 7)

        def check(r):
            res = r["result"]
            ok = gen.vec_class_equal(m.rows, res["z"], 2 * res["level"], w, lw, "u")
            return None if ok else "homomorphism of an unstable class"

        return ("duality", ["duality", "from-unstable", m.path, _el(w, lw, "u")], 0, check)

    def _se_verify(self, rng):
        # B = P^T A P is shift equivalent to A with R = P, S = P^T A, lag 1;
        # lag 2 with the same R, S is not a witness (RS = A != A^2)
        a, b, p, pa, pb = rng.choice(self.se_pairs)
        valid = rng.random() < 0.5
        pt = [list(col) for col in zip(*p)]
        witness = json.dumps({"R": p, "S": gen.mm(pt, a), "k": 1 if valid else 2})
        return ("se-verify", ["se-verify", pa, pb, witness], 0 if valid else 4,
                lambda r: None if r["valid"] is valid else "witness verdict")

    def _se_search(self, rng):
        a, b, _, pa, pb = rng.choice([pair for pair in self.se_pairs if len(pair[0]) <= 3])

        def check(r):
            if not r["found"]:
                return "no witness found for conjugate matrices"
            w = r["witness"]
            rr, ss, lag = w["R"], w["S"], w["k"]
            pa_, pb_ = gen.Powers(a), gen.Powers(b)
            ok = (all(x >= 0 for row in rr + ss for x in row)
                  and gen.mm(rr, ss) == pa_(lag) and gen.mm(ss, rr) == pb_(lag)
                  and gen.mm(a, rr) == gen.mm(rr, b) and gen.mm(ss, a) == gen.mm(b, ss))
            return None if ok else "returned witness fails its equations"

        return ("se-search", ["se-search", pa, pb], 0, check)

    # -- sparse invocations -------------------------------------------------

    def _sparse(self, rng, sub, m):
        if sub == "info":
            return ("info", ["info", m.path], 0, lambda r: _check_info(m, r))
        if sub == "decompose":
            def check(r):
                if r["period"] != 1 or r["component"] != m.rows or not r["component_primitive"]:
                    return "mixing component"
                return None if gen.close(r["eigenvalue"], m.lam, m.lam) else "eigenvalue"
            return ("decompose", ["decompose", m.path], 0, check)
        if sub == "trace":
            i, n = rng.randrange(m.k), rng.randint(0, 12)
            flavor = rng.choice("su")
            c = gen.rand_nonzero(rng, -3, 3)
            eig = m.right if flavor == "s" else m.left
            want = c * eig[i] * m.lam ** -n
            payload = [c if t == i else 0 for t in range(m.k)]
            return ("trace", ["trace", m.path, _el(payload, n, flavor)], 0,
                    lambda r: None if gen.close(r["trace"], want, want) else "trace value")
        i = rng.randrange(m.k)
        sign = rng.choice((1, -1))
        v = [sign if t == i else 0 for t in range(m.k)]
        want = "positive" if sign > 0 else "negative_or_mixed"
        return ("positive", ["positive", m.path, _el(v, rng.randint(0, 6), "s")], 0,
                lambda r: None if r["positivity"] == want else f"positivity {r['positivity']}")


def _out_dir():
    path = ROOT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def _permute(a, perm):
    """P^T A P for the permutation matrix P with P[r][perm[r]] = 1."""
    k = len(a)
    p = [[int(perm[r] == c) for c in range(k)] for r in range(k)]
    return gen.mm(gen.mm([list(col) for col in zip(*p)], a), p)


def _check_info(m, r):
    if r["size"] != m.k or not r["irreducible"] or r["primitive"] != (m.period == 1):
        return "size, irreducibility or primitivity"
    if r["period"] != m.period:
        return "period"
    if m.name == "ones3" and r["centralizer_rank"] != 5:
        return "derogatory centraliser rank"
    if m.name.startswith("companion") and r["minimal_polynomial"]["full_coeffs_low_to_high"] != gen.companion_coeffs(m.rows):
        return "minimal polynomial"
    if m.period == 1 and not gen.close(r["perron"]["eigenvalue"], m.lam, m.lam):
        return "Perron eigenvalue"
    return None
