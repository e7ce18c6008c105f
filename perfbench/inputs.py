"""Seeded input generators and the independent arithmetic the checks use.

Everything here works on plain lists of Python ints (or floats for the
eigen-data) and imports nothing from ``sftdim``: a generated input is known
to have its defining property because this module checks it with its own
code, and an expected answer is computed here without the library under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# ---------------------------------------------------------------------------
# integer matrices as lists of rows
# ---------------------------------------------------------------------------


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def mm(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def madd(a, b, c=1):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def vm(v, a):
    """Row vector times matrix."""
    return [sum(x * a[i][j] for i, x in enumerate(v)) for j in range(len(a[0]))]


def mv(a, w):
    """Matrix times column vector."""
    return [sum(x * y for x, y in zip(row, w)) for row in a]


class Powers:
    """Memoised powers of one matrix (own arithmetic, used only by generators)."""

    def __init__(self, a):
        self.cache = [identity(len(a)), a]

    def __call__(self, e):
        while len(self.cache) <= e:
            self.cache.append(mm(self.cache[-1], self.cache[1]))
        return self.cache[e]


def poly_eval(coeffs, a):
    """sum_i coeffs[i] A^i (low degree first)."""
    k = len(a)
    acc = [[0] * k for _ in range(k)]
    for c in reversed(coeffs):
        acc = madd(mm(acc, a), identity(k), c)
    return acc


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def commutator(a, w):
    return madd(mm(a, w), mm(w, a), -1)


def is_zero(m):
    return all(x == 0 for row in m for x in row)


# ---------------------------------------------------------------------------
# graph properties
# ---------------------------------------------------------------------------


def _reach(a, reverse):
    k = len(a)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for j in range(k):
            if (a[j][v] if reverse else a[v][j]) and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == k


def irreducible(a):
    return _reach(a, False) and _reach(a, True)


def period(a):
    """gcd of cycle lengths, from BFS depths (irreducible input)."""
    k = len(a)
    depth = [None] * k
    depth[0] = 0
    queue = [0]
    for v in queue:
        for j in range(k):
            if a[v][j] and depth[j] is None:
                depth[j] = depth[v] + 1
                queue.append(j)
    g = 0
    for u in range(k):
        for v in range(k):
            if a[u][v]:
                g = math.gcd(g, depth[u] + 1 - depth[v])
    return g


def determinant(a):
    """Bareiss fraction-free elimination."""
    m = [list(r) for r in a]
    n, sign, prev = len(m), 1, 1
    for i in range(n):
        p = next((r for r in range(i, n) if m[r][i]), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p] = m[p], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def require(cond, what):
    """Generator self-check; raised errors abort set-up, never a timed run."""
    if not cond:
        raise ValueError(f"generated input violates its defining property: {what}")


# ---------------------------------------------------------------------------
# eigen-data in binary64, independent of the library's power iteration
# ---------------------------------------------------------------------------


def _solve_float(a, b):
    n = len(a)
    m = [list(map(float, row)) + [float(x)] for row, x in zip(a, b)]
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(m[r][i]))
        m[i], m[p] = m[p], m[i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            if f:
                for c in range(i, n + 1):
                    m[r][c] -= f * m[i][c]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][c] * x[c] for c in range(i + 1, n))) / m[i][i]
    return x


def _inverse_iterate(a, mu):
    k = len(a)
    shifted = [[a[i][j] - (mu if i == j else 0.0) for j in range(k)] for i in range(k)]
    x = [1.0] * k
    for _ in range(3):
        x = _solve_float(shifted, x)
        s = sum(x)
        x = [v / s for v in x]
    return x


def perron(a, lam=None):
    """(lambda, left, right) normalised like the library: sum(left) = 1, left.right = 1.

    ``lam`` may be supplied when it is known in closed form; otherwise power
    iteration on A + I finds it (the shift damps the periodic part).
    """
    k = len(a)
    if lam is None:
        x = [1.0 / k] * k
        for _ in range(200_000):
            y = [sum(x[i] * a[i][j] for i in range(k)) + x[j] for j in range(k)]
            s = sum(y)
            y = [v / s for v in y]
            done = max(abs(p - q) for p, q in zip(x, y)) < 1e-15
            x = y
            if done:
                break
        lam = sum(x[i] * a[i][j] for i in range(k) for j in range(k))
    mu = lam * (1 + 1e-9)
    left = _inverse_iterate([list(col) for col in zip(*a)], mu)
    right = _inverse_iterate(a, mu)
    scale = sum(p * q for p, q in zip(left, right))
    return lam, left, [v / scale for v in right]


def dot(u, v):
    return sum(float(x) * float(y) for x, y in zip(u, v))


TOL = 1e-6  # fixed relative tolerance for every float answer


def close(got, want, magnitude):
    """Whether a float answer is within TOL of ``want``, relative to the size of its terms."""
    return isinstance(got, float) and abs(got - want) <= TOL * abs(magnitude)


def off_boundary(rng, right):
    """A stable vector and its positivity, with |v . u_r| at least a fifth of |v| |u_r|.

    Far from the boundary of the cone the verdict does not depend on how the
    eigen-data is computed, so float and exact positivity give the same answer.
    """
    norm_r = sum(x * x for x in right) ** 0.5
    while True:
        v = vec(rng, len(right))
        pairing = dot(v, right)
        if abs(pairing) >= 0.2 * norm_r * sum(x * x for x in v) ** 0.5:
            return v, "positive" if pairing > 0 else "negative_or_mixed"


def hom_value(a, pw, p, z, v, n):
    """Coefficients of phi_(z, N)[v, n] for nonsingular A with minimal polynomial p.

    Horner tails H_0 = 1, H_(j+1) = x H_j + p_(k-1-j); coefficient k-1-j is
    (v A^n) . (H_j(A) z).  The value is the subring class at level N + n.
    """
    k = len(p) - 1
    tails = [[1]]
    for j in range(k - 1):
        tails.append([p[k - 1 - j]] + tails[-1])
    w = vm(v, pw(n))
    coeffs = [0] * k
    for j, tail in enumerate(tails):
        coeffs[k - 1 - j] = sum(x * y for x, y in zip(w, mv(poly_eval(tail, a), z)))
    return coeffs


def chord_cycle_lambda(k):
    """Root > 1 of x^k = x + 1: the spectral radius of a k-cycle with one 2-step chord."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid**k - mid - 1 > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# matrix families
# ---------------------------------------------------------------------------


def _ones(rng, k, forced, count):
    """k x k 0/1 matrix with ``count`` ones, the ``forced`` cells among them.

    A fixed count of ones, rather than independent coin flips, keeps the cost
    of the lattice work on one size much the same from one seed to the next.
    """
    free = [(i, j) for i in range(k) for j in range(k) if (i, j) not in forced]
    ones = set(forced) | set(rng.sample(free, count - len(forced)))
    return [[int((i, j) in ones) for j in range(k)] for i in range(k)]


def dense(rng, k):
    """Irreducible 0/1 matrix of density 1/2 with a loop at vertex 0 (so primitive)."""
    while True:
        a = _ones(rng, k, [(0, 0)], k * k // 2)
        if irreducible(a):
            require(period(a) == 1, "dense: period 1")
            return a


def ones_plus_identity(k, c, d):
    """c J + d I: derogatory (minimal polynomial of degree 2), centraliser rank (k-1)^2+1."""
    a = [[c + (d if i == j else 0) for j in range(k)] for i in range(k)]
    shifted = madd(a, identity(k), -d)
    require(is_zero(mm(shifted, madd(a, identity(k), -(c * k + d)))), "ones+I: derogatory")
    return a


def companion(rng, k):
    """Companion matrix of x^k - sum c_i x^i with c_0, c_(k-1) >= 1 (non-derogatory)."""
    c = [rng.randint(0, 2) for _ in range(k)]
    c[0] = max(c[0], 1)
    c[-1] = max(c[-1], 1)
    a = [[int(j == i + 1) for j in range(k)] for i in range(k - 1)] + [c]
    require(irreducible(a) and period(a) == 1, "companion: primitive")
    return a


def companion_coeffs(a):
    """Monic minimal (= characteristic) polynomial of a companion matrix, low degree first."""
    return [-x for x in a[-1]] + [1]


def bipartite(rng, k):
    """Irreducible two-block matrix of period 2; the loops i -> h+i -> i keep trace(A^2m) > 0."""
    h = k // 2
    diagonal = [(i, i) for i in range(h)]
    while True:
        count = max(h + 1, (h * h + h) // 2)
        b, c = _ones(rng, h, diagonal, count), _ones(rng, h, diagonal, count)
        a = [[0] * h + row for row in b] + [row + [0] * h for row in c]
        if irreducible(a):
            require(period(a) == 2, "bipartite: period 2")
            return a


def repeated_row(rng, k):
    """Dense matrix whose last row repeats row 0: singular, so l >= 1."""
    while True:
        a = dense(rng, k)
        a[k - 1] = list(a[0])
        if irreducible(a):
            require(determinant(a) == 0 and period(a) == 1, "repeated row: singular, primitive")
            return a


def chord_cycle(k, shift):
    """k-cycle plus the chord shift -> shift+2 (vertex labels rotated by ``shift``)."""
    a = [[0] * k for _ in range(k)]
    for i in range(k):
        a[i][(i + 1) % k] = 1
    a[shift % k][(shift + 2) % k] = 1
    require(irreducible(a) and period(a) == 1, "chord cycle: primitive")
    return a


def rand_matrix(rng, k, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]


def vec(rng, k, lo=-3, hi=3):
    """Random nonzero integer vector."""
    while True:
        v = [rng.randint(lo, hi) for _ in range(k)]
        if any(v):
            return v


def rand_nonzero(rng, lo, hi):
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def cyclic_permutation(k):
    return [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# seeding and digests
# ---------------------------------------------------------------------------


def rng_for(seed, stream):
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# class equality in the limit groups, decided at exponent K (K >= l always)
# ---------------------------------------------------------------------------


def vec_class_equal(a, u, lu, w, lw, side, pw=None):
    """[u, lu] == [w, lw] in the stable (side "s") or unstable ("u") group.

    ``pw``, the Powers of ``a``, may be passed to reuse its powers across calls.
    """
    if lu > lw:
        u, lu, w, lw = w, lw, u, lu
    pw, k = pw or Powers(a), len(a)
    if side == "s":
        return vm(u, pw(k + lw - lu)) == vm(w, pw(k))
    return mv(pw(k + lw - lu), u) == mv(pw(k), w)


def mat_class_equal(a, x, lx, y, ly, pw=None):
    """[X, lx] == [Y, ly] in the tower X -> A X A (``pw`` as for vec_class_equal)."""
    if lx > ly:
        x, lx, y, ly = y, ly, x, lx
    pw, k = pw or Powers(a), len(a)
    hi = pw(k + ly - lx)
    return mm(mm(hi, x), hi) == mm(mm(pw(k), y), pw(k))


def poly_mod(p, m):
    """Remainder of p modulo the monic polynomial m (low degree first)."""
    r = list(p)
    d = len(m) - 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for j in range(d + 1):
                r[i - d + j] -= c * m[j]
    r = r[:d] + [0] * (d - len(r))
    return r
