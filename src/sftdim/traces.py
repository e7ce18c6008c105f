"""Perron-Frobenius data and the trace maps on the limit groups.

Floating point lives here and only here.  The dominant eigenvalue is an
algebraic irrational in general.  For primitive A it is a simple root of the
characteristic polynomial p and every other root has smaller real part, so
p(x + lambda) has non-negative coefficients: p is convex and increasing to
the right of lambda.  Newton's method from the maximum row sum (an upper
bound) therefore decreases monotonically to lambda; it runs in integers on
dyadics m / 2^64, each step rounded down so that every iterate stays an upper
bound, and stops when the step is zero.  The result is rounded once to
binary64.  Each eigenvector is then one Gaussian elimination of A - lambda I
(or its transpose) in binary64, and every downstream assertion carries an
explicit tolerance.

Normalisation convention: the left eigenvector is scaled to sum to 1 and the
right eigenvector is then scaled so that (left . right) = 1.  Only the second
condition is forced by the trace formulas; fixing the first as well makes the
reported vectors (and therefore golden tests) deterministic.
"""

from __future__ import annotations

from .exactlinalg import characteristic_polynomial, frozen, memo
from .sft import AdjacencyMatrix, NotPrimitiveError, is_primitive

_FRACTION_BITS = 64


@frozen
class PerronData:
    """Dominant eigenvalue with left/right eigenvectors and a residual bound.

    ``iterations`` counts the Newton steps that located the eigenvalue.
    """

    eigenvalue: float
    left: tuple
    right: tuple
    residual: float
    iterations: int


def _newton_root(coeffs: tuple, start: int) -> tuple:
    """(m, steps) with m / 2^64 the largest real root of p, from above.

    ``coeffs`` are p's integer coefficients, low degree first, and ``start``
    is an integer upper bound on a root right of which p is convex and
    increasing.  Horner's rule evaluates the pair
    (2^(64 d) p(x), 2^(64 (d - 1)) p'(x)) at x = m / 2^64 exactly.
    """
    m = start << _FRACTION_BITS
    steps = 0
    while True:
        val, der, scale = coeffs[-1], 0, 1
        for c in reversed(coeffs[:-1]):
            scale <<= _FRACTION_BITS
            der = der * m + val
            val = val * m + c * scale
        step = val // der
        if step == 0:
            return m, steps
        m -= step
        steps += 1


def _null_vector(rows: list, lam: float) -> list:
    """x with (M - lam I) x ~ 0 and x[-1] = 1, for rows of M.

    Gaussian elimination with partial pivoting.  The null space of
    A - lambda I is spanned by a positive vector, so no null vector vanishes
    in the last coordinate and the first K - 1 columns are independent:
    every pivot but the last is nonzero, and the last (rounding noise) is
    dropped.
    """
    n = len(rows)
    m = [[float(x) for x in row] for row in rows]
    for i in range(n):
        m[i][i] -= lam
    for col in range(n - 1):
        p = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[p] = m[p], m[col]
        pivot_row = m[col]
        for r in range(col + 1, n):
            f = m[r][col] / pivot_row[col]
            if f:
                row = m[r]
                for t in range(col + 1, n):
                    row[t] -= f * pivot_row[t]
    x = [0.0] * n
    x[-1] = 1.0
    for i in range(n - 2, -1, -1):
        row = m[i]
        x[i] = -sum(row[t] * x[t] for t in range(i + 1, n)) / row[i]
    return x


@memo
def perron(a: AdjacencyMatrix) -> PerronData:
    """Dominant eigen-data of a primitive matrix."""
    if not is_primitive(a):
        raise NotPrimitiveError("Perron data needs a primitive matrix")
    rows = a.matrix.to_rows()
    cols = a.matrix.transpose().to_rows()
    m, steps = _newton_root(characteristic_polynomial(a.matrix), max(map(sum, rows)))
    lam = m / (1 << _FRACTION_BITS)
    left = _null_vector(cols, lam)
    right = _null_vector(rows, lam)
    total = sum(left)
    left = [x / total for x in left]
    dot = _dot(left, right)
    right = [x / dot for x in right]
    res_l = max(abs(_dot(left, col) - lam * x) for col, x in zip(cols, left))
    res_r = max(abs(_dot(row, right) - lam * x) for row, x in zip(rows, right))
    return PerronData(
        eigenvalue=lam,
        left=tuple(left),
        right=tuple(right),
        residual=max(res_l, res_r),
        iterations=steps,
    )


def _dot(u, v) -> float:
    return float(sum(float(a) * float(b) for a, b in zip(u, v)))


def trace_s(element) -> float:
    """lambda^-N * (v . right) for a stable element [v, N]."""
    data = perron(element.ambient)
    return _dot(element.vector, data.right) * data.eigenvalue ** -element.level


def trace_u(element) -> float:
    """lambda^-N * (left . w) for an unstable element [w, N]."""
    data = perron(element.ambient)
    return _dot(data.left, element.vector) * data.eigenvalue ** -element.level


def trace_ch(element) -> float:
    """lambda^-2N * (left . X . right) for a cylinder class [X, N]."""
    data = perron(element.ambient)
    xw = [
        sum(element.matrix.entry(i, j) * data.right[j] for j in range(element.matrix.cols))
        for i in range(element.matrix.rows)
    ]
    return _dot(data.left, xw) * data.eigenvalue ** (-2 * element.level)
