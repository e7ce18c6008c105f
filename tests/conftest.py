import random
from bisect import bisect_left
from typing import Sequence

import pytest
from hypothesis import settings

from sftdim import IntMatrix, is_primitive, perron, validate
from sftdim.cylinder_ring import RAElement, centralizer_basis
from sftdim.dimension_groups import is_zero_s
from sftdim.exactlinalg import (
    DimensionMismatchError,
    MinPolyData,
    RowHermiteForm,
    _min_poly_data,
    annihilator,
    hermite_coords,
    hermite_pivots,
    kron,
    minimal_polynomial,
    poly_eval_matrix,
    xgcd,
)

# `pytest --hypothesis-profile=thorough` runs the property tests that take
# the default example count at ten times it
settings.register_profile("thorough", max_examples=1000, deadline=None)


FULL_TWO_SHIFT = [[2]]
GOLDEN_MEAN = [[1, 1], [1, 0]]
SYMMETRIC_3 = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
ABELIAN_2 = [[1, 2], [2, 1]]
SPARSE_3 = [[0, 1, 5], [1, 0, 1], [1, 1, 0]]
DOUBLED = [[4, 2], [2, 4]]
NILPOTENT_PART = [[1, 1], [1, 1]]


@pytest.fixture(scope="session")
def two():
    return validate(FULL_TWO_SHIFT)


@pytest.fixture(scope="session")
def fib():
    return validate(GOLDEN_MEAN)


@pytest.fixture(scope="session")
def sym3():
    return validate(SYMMETRIC_3)


@pytest.fixture(scope="session")
def abelian2():
    return validate(ABELIAN_2)


@pytest.fixture(scope="session")
def sparse3():
    return validate(SPARSE_3)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_valid_adjacency(rng, size, hi=3):
    while True:
        rows = [[max(0, rng.randint(-1, hi)) for _ in range(size)] for _ in range(size)]
        try:
            return validate(rows)
        except ValueError:
            continue


def random_primitive_adjacency(rng, size, hi=3):
    while True:
        a = random_valid_adjacency(rng, size, hi)
        if is_primitive(a):
            return a


@pytest.fixture(scope="session")
def primitive_pool():
    """A deterministic pool of small primitive matrices, sizes 1 through 4."""
    rng = random.Random(20240811)
    pool = [validate(FULL_TWO_SHIFT), validate(GOLDEN_MEAN), validate(SYMMETRIC_3),
            validate(ABELIAN_2), validate(DOUBLED)]
    for size in (2, 3, 4):
        for _ in range(2):
            pool.append(random_primitive_adjacency(rng, size))
    return pool


def random_centralizer_element(rng, ambient, bound=3):
    basis = centralizer_basis(ambient).basis
    k = ambient.size
    acc = IntMatrix.zeros(k, k)
    for b in basis:
        acc = acc + b.scale(rng.randint(-bound, bound))
    return acc


def commutator_map(a):
    """Matrix of X -> AX - XA on row-major coordinates: vec(AX - XA) =
    (A kron I - I kron A^T) vec(X)."""
    ident = IntMatrix.identity(a.size)
    return kron(a.matrix, ident) - kron(ident, a.matrix.transpose())


def chord_cycle(k, shift=0):
    """A k-cycle plus the chord shift -> shift + 2: primitive, with characteristic
    polynomial x^k - x - 1 (cycle lengths k and k - 1)."""
    rows = [[1 if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
    rows[shift % k][(shift + 2) % k] = 1
    return validate(rows)


# The dense Hermite builder that exactlinalg._HnfBuilder replaced, kept
# verbatim as the reference: it performs every row operation in full, so it
# shares no zero-skipping shortcut with the code it checks.
class ReferenceHnfBuilder:
    """Incremental canonical Hermite row basis.

    The basis is kept fully reduced after every insertion (positive pivots,
    entries above a pivot within [0, pivot)); without this discipline the
    intermediate entries explode exponentially at the sizes used here.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list = []
        self.pivots: list = []

    def _reduce_against_later(self, v: list, start_pos: int) -> None:
        for pos in range(start_pos, len(self.rows)):
            j = self.pivots[pos]
            if v[j]:
                q = v[j] // self.rows[pos][j]
                if q:
                    row = self.rows[pos]
                    for t in range(j, self.width):
                        v[t] -= q * row[t]

    def _reduce_above(self, pos: int) -> None:
        row = self.rows[pos]
        j = self.pivots[pos]
        d = row[j]
        for above in range(pos):
            other = self.rows[above]
            if other[j]:
                q = other[j] // d
                if q:
                    for t in range(j, self.width):
                        other[t] -= q * row[t]

    def insert(self, vec: Sequence[int]) -> None:
        v = list(vec)
        if len(v) != self.width:
            raise DimensionMismatchError("vector width mismatch")
        while True:
            j = next((idx for idx, x in enumerate(v) if x), None)
            if j is None:
                return
            pos = bisect_left(self.pivots, j)
            if pos < len(self.pivots) and self.pivots[pos] == j:
                row = self.rows[pos]
                a, b = row[j], v[j]
                if b % a == 0:
                    q = b // a
                    for t in range(j, self.width):
                        v[t] -= q * row[t]
                else:
                    g, x, y = xgcd(a, b)
                    au, bu = a // g, b // g
                    new_row = [x * p + y * q2 for p, q2 in zip(row, v)]
                    v = [-bu * p + au * q2 for p, q2 in zip(row, v)]
                    self.rows[pos] = new_row
                    self._reduce_against_later(new_row, pos + 1)
                    self._reduce_above(pos)
            else:
                if v[j] < 0:
                    v = [-x for x in v]
                self._reduce_against_later(v, pos)
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                self._reduce_above(pos)
                return

    def basis(self) -> tuple:
        # one left-to-right sweep makes the form canonical: reducing at a
        # pivot column never disturbs earlier pivot columns
        for pos in range(len(self.rows)):
            self._reduce_above(pos)
        return tuple(tuple(r) for r in self.rows)


def reference_hermite_row_basis(vectors, width):
    """Oracle for hermite_row_basis, built with the reference builder."""
    builder = ReferenceHnfBuilder(width)
    for v in vectors:
        builder.insert(v)
    return builder.basis()


def top_down_row_hermite(m):
    """Oracle for row_hermite_with_transform: the augmented rows [m_i | e_i]
    inserted from the first row down, into the reference builder."""
    builder = ReferenceHnfBuilder(m.cols + m.rows)
    for i in range(m.rows):
        builder.insert(list(m.row(i)) + [1 if t == i else 0 for t in range(m.rows)])
    rows = builder.basis()
    h = tuple(r[: m.cols] for r in rows)
    w = tuple(r[m.cols :] for r in rows)
    pivots = tuple(next(j for j, x in enumerate(r) if x) for r in h if any(r))
    return RowHermiteForm(h=h, w=w, pivots=pivots)


# The builder that exactlinalg.minimal_polynomial ran whenever chi_A was not
# squarefree, before the lcm of the vector annihilators replaced it, kept
# verbatim as the reference: it searches the powers of M themselves, in one
# Hermite builder K^2 + K + 1 wide.
def reference_minimal_polynomial(m: IntMatrix) -> MinPolyData:
    """Minimal polynomial: the annihilator of I under X -> X M."""
    n = m.rows
    return _min_poly_data(
        annihilator(IntMatrix.identity(n).entries, lambda x: (IntMatrix(n, n, x) @ m).entries, n)
    )


# The Hermite read-offs that exactlinalg.hermite_coords replaced, kept
# verbatim as references: lattice_contains looked each pivot up in a dict
# and stopped at the first unmatched entry, left_solve ran its own loop.
def reference_lattice_contains(basis_rows, target):
    """Membership of ``target`` in the lattice given by a Hermite row basis."""
    v = list(target)
    by_pivot = {next(idx for idx, x in enumerate(row) if x): row for row in basis_rows}
    for j in range(len(v)):
        if v[j] == 0:
            continue
        row = by_pivot.get(j)
        if row is None or v[j] % row[j]:
            return False
        q = v[j] // row[j]
        v = [x - q * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def reference_left_solve(form, b):
    """Some integer y with y . M = b, or None when no integer solution exists."""
    v = list(b)
    ys = []
    for row, p in zip(form.h, form.pivots):
        q, r = divmod(v[p], row[p])
        if r:
            return None
        ys.append(q)
        if q:
            for t in range(p, len(v)):
                v[t] -= q * row[t]
    if any(v):
        return None
    y = [0] * (len(form.w[0]) if form.w else 0)
    for q, wrow in zip(ys, form.w):
        if q:
            for t, x in enumerate(wrow):
                y[t] += q * x
    return tuple(y)


# RowHermiteForm.left_kernel, which every kernel and every preimage-closure
# step read before integer_kernel's column scan replaced it, kept as the
# reference: the augmented form is fully reduced, and the W rows beside the
# zero rows of H have their pivots in W.
def left_kernel(form):
    """Canonical Hermite basis of {y : y . M = 0} for the transform form of M."""
    return tuple(wr for hr, wr in zip(form.h, form.w) if not any(hr))


# The float positivity test that dimension_groups.is_positive_s replaced,
# kept as a reference: the pairing with the float right Perron vector and a
# sign search, capped at j_max steps near the boundary and at 4096 elsewhere.
# None stands for the "undecided" verdict it gave on the boundary.
def reference_float_positivity(x, tol=1e-9, j_max=64):
    if is_zero_s(x):
        return "zero"
    pairing = sum(float(v) * r for v, r in zip(x.vector, perron(x.ambient).right))
    near_boundary = abs(pairing) <= tol
    w = x.vector
    for _ in range((j_max if near_boundary else max(j_max, 4096)) + 1):
        if all(v >= 0 for v in w):
            return "positive"
        if all(v <= 0 for v in w):
            return "negative_or_mixed"
        w = x.ambient.matrix.row_apply(w)
    return "negative_or_mixed" if pairing < -tol else None


# The Newton iteration that exactlinalg.perron_root replaced, kept verbatim
# as the reference for the bits = 64 root that traces.perron rounds.
def reference_newton_root(coeffs: tuple, start: int) -> tuple:
    """(m, steps) with m / 2^64 the largest real root of p, from above."""
    m = start << 64
    steps = 0
    while True:
        val, der, scale = coeffs[-1], 0, 1
        for c in reversed(coeffs[:-1]):
            scale <<= 64
            der = der * m + val
            val = val * m + c * scale
        step = val // der
        if step == 0:
            return m, steps
        m -= step
        steps += 1


# The Horner loop that traces._eigenvector wrote out before it called
# exactlinalg._horner, kept verbatim as the reference for its bits.
def reference_eigenvector(edge: tuple, r: int) -> list:
    """An edge of adj(tI - A) at t = r / 2^64, each entry divided by the largest."""
    acc = list(edge[0])
    for k, row in enumerate(edge[1:], 1):
        acc = [x * r + (y << (64 * k)) for x, y in zip(acc, row)]
    top = max(acc)
    return [x / top for x in acc]


# Lattice membership by the one Hermite read-off, an oracle for the tests.
def lattice_contains(basis_rows, target):
    """Membership of ``target`` in the lattice given by a Hermite row basis."""
    return hermite_coords(basis_rows, hermite_pivots(basis_rows), target) is not None


def lattice_coordinates(lattice, x):
    """The integer c with x = sum c_i lattice.basis_i for a matrix ``x`` and a
    lattice of matrices (C(A), B(A), the centre), or None when x is outside."""
    rows = [b.vec() for b in lattice.basis]
    return hermite_coords(rows, hermite_pivots(rows), x.vec())


# The IntMatrix product and vector applications that the two-sided
# zero-skipping kernels replaced, kept verbatim as references.
def reference_matmul(self, other):
    if self.cols != other.rows:
        raise DimensionMismatchError(
            f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
        )
    n, k, m = self.rows, self.cols, other.cols
    a, b = self.entries, other.entries
    out = [0] * (n * m)
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        base = i * m
        for s in range(k):
            x = arow[s]
            if x:
                brow = b[s * m : (s + 1) * m]
                for j in range(m):
                    out[base + j] += x * brow[j]
    return IntMatrix(n, m, tuple(out))


def reference_row_apply(self, v):
    """v . M for a row vector ``v`` of length ``rows``."""
    if len(v) != self.rows:
        raise DimensionMismatchError("row vector length mismatch")
    out = [0] * self.cols
    for i, x in enumerate(v):
        if x:
            base = i * self.cols
            for j in range(self.cols):
                out[j] += x * self.entries[base + j]
    return tuple(out)


def reference_col_apply(self, w):
    """M . w for a column vector ``w`` of length ``cols``."""
    if len(w) != self.cols:
        raise DimensionMismatchError("column vector length mismatch")
    out = []
    for i in range(self.rows):
        base = i * self.cols
        out.append(sum(self.entries[base + j] * w[j] for j in range(self.cols)))
    return tuple(out)


def reference_hom_eval(phi, x):
    """duality.hom_eval by the tail matrices it used to build, the reference
    for the vector recurrence: coefficient k-1-j of phi(x) is
    (v A^n) . (H_j(A) z), with H_j(x) = x^j + a_(k-1) x^(j-1) + ... + a_(k-j)
    the j-th Horner tail of the reduced minimal polynomial."""
    a = phi.ambient.matrix
    mp = minimal_polynomial(a)
    m0 = (mp.l + 1) // 2
    z, w = phi._push(m0), x._push(x.level)
    coeffs = [0] * mp.k
    for j in range(mp.k):
        tz = poly_eval_matrix(mp.p_coeffs[mp.k - j :], a).col_apply(z)
        coeffs[mp.k - 1 - j] = sum(p * q for p, q in zip(w, tz))
    return RAElement(phi.ambient, tuple(coeffs), phi.level + m0 + x.level)
