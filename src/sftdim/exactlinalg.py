"""Exact linear algebra over the integers.

Everything in this module computes with Python's unbounded ints; nothing here
ever rounds.  Matrix powers grow like the spectral radius raised to the
exponent, so fixed-width arithmetic would silently corrupt the equality tests
that the rest of the package is built on.  Matrices are immutable, so a fact
about one (a power, a factorisation, a polynomial) is kept on the object
itself by :func:`memo` and freed with it.  Records are made immutable by
:func:`frozen`, which imports nothing and compiles only an ``__init__`` per
class, because every CLI call is a fresh process that pays for each import and
each generated method at start-up.

A product skips the zeros of both operands (``X @ A`` costs nnz(A) K
multiplications, not K^3), ``row_apply`` skips the vector's zeros, and
``col_apply`` is one C-level dot product per row in index order.

The workhorse is a Hermite row reduction that keeps the basis fully reduced
after every insertion; naive two-sided elimination doubles digit counts per
pivot and dies well below the sizes this package targets.  Linear solving
rides on a Hermite form with a tracked unimodular transform, built by
inserting the augmented rows ``[m_i | e_i]`` from the last row up.  Those
rows are independent, so the form is the same in any order, but the order
sets the work: the systems solved here, and the commutator systems whose
plain Hermite basis is built the same way, arrive in roughly ascending pivot
order, so bottom up a new row mostly becomes the first row and has no
earlier rows to re-reduce.  Row operations skip the zero entries of the row
they subtract, and a pivot row's nonzero entries are gathered once for all
the rows above it: a commutator system row has at most 2K nonzeros of K^2.
Those transforms are as wide as the system is tall, so a kernel, of any
shape, is built column by column instead, with a transform slot only for
the columns that are not unit pivots of the kernel (:func:`integer_kernel`):
the K power traces of a K x K matrix, the relations of a level group and
each step of a preimage closure all take it.
Lattice membership, coordinates in a Hermite basis and integer solving share
one pivot read-off, :func:`hermite_coords`.  The Smith invariant factors
come from alternating row and column Hermite passes with no transforms
(:func:`invariant_factors`).  Both preimage closures go through
:func:`preimage_closure`, in the coordinates of a lattice the map keeps: a
lazy record that builds that lattice, the map and the chain only for a
vector outside the span of its seed.  The Perron root is located once per
matrix (:func:`perron_root`) in one record that every reader shares,
:class:`LocatedRoot`: two dyadics that bracket it, its Horner rule and sign
test, and refinements from the last upper end.
Every polynomial of a matrix is read off Krylov vectors, with no K x K
product: the minimal polynomial is the lcm of the annihilators of the unit
vectors (:func:`minimal_polynomial`), each found in a builder 2K + 1 wide;
chi_M is m_M when deg m_M = K and otherwise the product of the annihilators
of e_i modulo the Krylov span of e_0, ..., e_(i-1), in one builder that
carries the span; the edges of adj(tI - M) are the Horner tails of chi_M at
e_0 (:func:`horner_tails`).
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from math import gcd, prod
from operator import mul
from typing import Iterable, Optional, Sequence


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class FrozenInstanceError(AttributeError):
    """A field of a :func:`frozen` record was assigned or deleted."""


_NO_DEFAULT = object()


def frozen(cls):
    """Make ``cls`` an immutable record of its annotated fields.

    The fields are those of any record base, then the class's own annotations;
    a default kept on the class is the field's default.  The class gets an
    ``__init__`` taking the fields in that order (then ``__post_init__``),
    ``__eq__`` and ``__hash__`` over the field tuple, restricted to the same
    class, and a ``Name(field=value, ...)`` ``__repr__``; assigning or
    deleting an attribute raises :class:`FrozenInstanceError`.  Instances
    keep their ``__dict__``, which :func:`memo` and ``cached_property`` store
    into.
    """
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(base.__dict__.get("_frozen_fields", {}))
    for name in cls.__annotations__:
        fields[name] = cls.__dict__.get(name, _NO_DEFAULT)
    cls._frozen_fields = fields
    names = tuple(fields)
    # __init__, __eq__ and __hash__ are compiled with the fields spelt out:
    # they run on every construction and binary operation.  __init__ stores
    # through object.__setattr__, since reading self.__dict__ would move the
    # instance's inline attribute values into a dict and slow every later
    # field read.
    params = ", ".join(
        n if d is _NO_DEFAULT else f"{n}=_defaults[{n!r}]" for n, d in fields.items()
    )
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    source = f"""
def __init__(self, {params}):{body}{post}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""
    methods = {}
    exec(source, {"_defaults": fields, "_set": object.__setattr__}, methods)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    methods["__repr__"] = __repr__
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def memo(fn):
    """Keep ``fn(obj, *args)`` in ``obj.__dict__``, so it lives as long as ``obj``.

    There is no registry and no eviction: callers validate a matrix once and
    reuse that object.  A result that is ``obj`` itself is not kept, since
    that would be a reference cycle only the cyclic collector frees.
    """
    key = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(obj, *args):
        table = obj.__dict__.get(key)
        if table is None:
            table = obj.__dict__[key] = {}
        try:
            return table[args]
        except KeyError:
            value = fn(obj, *args)
            if value is not obj:
                table[args] = value
            return value

    return wrapper


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@frozen
class IntMatrix:
    """Immutable arbitrary-precision integer matrix, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatchError("ragged rows")
        ents = []
        for row in rows:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"integer entry expected, got {x!r}")
                ents.append(int(x))
        return cls(r, c, tuple(ents))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        cols = [list(c) for c in columns]
        if any(len(c) != rows for c in cols):
            raise DimensionMismatchError("column length mismatch")
        ents = [cols[j][i] for i in range(rows) for j in range(len(cols))]
        return cls(rows, len(cols), tuple(ents))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    # -- access ------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def vec(self) -> tuple:
        """Row-major flattening, the convention used for all Kronecker maps."""
        return self.entries

    @classmethod
    def from_vec(cls, v: Sequence[int], rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(v))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def transpose(self) -> "IntMatrix":
        c, ents = self.cols, self.entries
        return IntMatrix(c, self.rows, tuple(x for j in range(c) for x in ents[j::c]))

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        # the nonzero (column, value) pairs of each row of the right operand
        nonzero = [[(j, y) for j, y in enumerate(b[s * m : (s + 1) * m]) if y] for s in range(k)]
        out = []
        for i in range(n):
            acc = [0] * m
            for x, row in zip(a[i * k : (i + 1) * k], nonzero):
                if x:
                    for j, y in row:
                        acc[j] += x * y
            out.extend(acc)
        return IntMatrix(n, m, tuple(out))

    def row_apply(self, v: Sequence[int]) -> tuple:
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

    def col_apply(self, w: Sequence[int]) -> tuple:
        """M . w for a column vector ``w`` of length ``cols``."""
        if len(w) != self.cols:
            raise DimensionMismatchError("column vector length mismatch")
        c, ents = self.cols, self.entries
        return tuple(sum(map(mul, ents[i * c : (i + 1) * c], w)) for i in range(self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        rows = [self.row(i) for i in row_idx]
        return IntMatrix(len(row_idx), len(col_idx), tuple(r[j] for r in rows for j in col_idx))


@memo
def matrix_power(m: IntMatrix, e: int) -> IntMatrix:
    """m**e for e >= 0 by repeated squaring (memoised on ``m``)."""
    if not m.is_square:
        raise DimensionMismatchError("power needs a square matrix")
    if e < 0:
        raise ValueError("negative power")
    if e == 0:
        return IntMatrix.identity(m.rows)
    if e == 1:
        return m
    half = matrix_power(m, e // 2)
    sq = half @ half
    return sq if e % 2 == 0 else sq @ m


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product; with row-major vec, vec(P X Q^T) = (P kron Q) vec(X)."""
    # row (i, p) of the product is a[i, j] * b[p, :] for j = 0, 1, ... in turn
    b_rows = [b.row(p) for p in range(b.rows)]
    zero = (0,) * b.cols
    ents = []
    for i in range(a.rows):
        a_row = a.row(i)
        for b_row in b_rows:
            for x in a_row:
                ents.extend([x * y for y in b_row] if x else zero)
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, tuple(ents))


def xgcd(a: int, b: int) -> tuple:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = a, b
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


# ---------------------------------------------------------------------------
# Hermite reduction (the growth-safe workhorse)
# ---------------------------------------------------------------------------


class _HnfBuilder:
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
                        x = row[t]
                        if x:
                            v[t] -= q * x

    def _reduce_above(self, pos: int) -> None:
        row = self.rows[pos]
        j = self.pivots[pos]
        d = row[j]
        # the pivot row's nonzero entries, gathered once and only when some
        # row above needs them: a row operation leaves a zero column alone
        nonzero = None
        for above in range(pos):
            other = self.rows[above]
            if other[j]:
                q = other[j] // d
                if q:
                    if nonzero is None:
                        nonzero = [(t, row[t]) for t in range(j, self.width) if row[t]]
                    for t, x in nonzero:
                        other[t] -= q * x

    def insert(self, vec: Sequence[int]) -> None:
        v = list(vec)
        if len(v) != self.width:
            raise DimensionMismatchError("vector width mismatch")
        j = 0
        while True:
            # entries left of the column just cleared are zero already
            j = next((t for t in range(j, self.width) if v[t]), None)
            if j is None:
                return
            pos = bisect_left(self.pivots, j)
            if pos < len(self.pivots) and self.pivots[pos] == j:
                row = self.rows[pos]
                a, b = row[j], v[j]
                if b % a == 0:
                    q = b // a
                    for t in range(j, self.width):
                        x = row[t]
                        if x:
                            v[t] -= q * x
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


def hermite_row_basis(vectors: Iterable[Sequence[int]], width: int) -> tuple:
    """Unique Hermite row basis of the lattice spanned by ``vectors``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    rows are ordered by pivot column.  Two generating sets span the same
    lattice iff they produce identical output.
    """
    builder = _HnfBuilder(width)
    for v in vectors:
        builder.insert(v)
    return builder.basis()


def hermite_pivots(rows: Iterable[Sequence[int]]) -> tuple:
    """The pivot column of each row of a Hermite basis (its first nonzero entry)."""
    return tuple(next(j for j, x in enumerate(r) if x) for r in rows)


def hermite_coords(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int]
) -> Optional[tuple]:
    """The integer c with v = sum c_i rows_i for a Hermite basis, or None.

    Read off the pivots: row i vanishes before its pivot, so its coefficient
    is fixed by v's entry there once the earlier rows are taken out; v is a
    member iff every such entry divides and nothing is left over.
    """
    v = list(v)
    coords = []
    for row, p in zip(rows, pivots):
        c, r = divmod(v[p], row[p])
        if r:
            return None
        coords.append(c)
        if c:
            for t in range(p, len(v)):
                v[t] -= c * row[t]
    return None if any(v) else tuple(coords)


def hermite_combine(rows: Sequence[Sequence[int]], coords: Sequence[int]) -> tuple:
    """The vector sum c_i rows_i."""
    out = [0] * (len(rows[0]) if rows else 0)
    for c, row in zip(coords, rows):
        if c:
            for t, x in enumerate(row):
                out[t] += c * x
    return tuple(out)


def saturation(hermite_rows: Sequence[Sequence[int]], width: int) -> tuple:
    """Hermite basis of the saturation (L tensor Q) meet Z^width of the lattice
    L given by its Hermite rows H.

    Fraction-free.  With T the pivot block of H and D = det T, the matrix
    G = D T^-1 H is integral (adj(T) H), and back substitution gives it with
    exact divisions.  A rational vector of L tensor Q with integer pivot
    entries y is y G / D, so the saturation is {y G / D : y . G_j = 0 mod D
    for every column G_j}.  Each congruence cuts the current basis of such y
    down by one Hermite step of width s + 1, where s = rank L.
    """
    rows = [tuple(r) for r in hermite_rows]
    s = len(rows)
    pivots = hermite_pivots(rows)
    det = 1
    for r, p in zip(rows, pivots):
        det *= r[p]
    if det == 1:  # unit pivots: L is saturated already
        return tuple(rows)
    g = [None] * s
    for i in reversed(range(s)):
        acc = [det * x for x in rows[i]]
        for t in range(i + 1, s):
            c = rows[i][pivots[t]]
            if c:
                acc = [x - c * y for x, y in zip(acc, g[t])]
        d = rows[i][pivots[i]]
        g[i] = [x // d for x in acc]
    ys = [[1 if t == i else 0 for t in range(s)] for i in range(s)]
    combos = g  # combos[i] = ys[i] G, whose column j holds the residues
    for j in range(width):
        residues = [r[j] % det for r in combos]
        if any(residues):
            # rows [y . G_j | y] and [D | 0]: the Hermite rows after the first
            # have a zero residue, and they are a basis of the y that satisfy it
            step = hermite_row_basis(
                [[x, *y] for x, y in zip(residues, ys)] + [[det] + [0] * s], s + 1
            )
            ys = [r[1:] for r in step[1:]]
            # the y of L itself are the rows of T, of determinant D, and
            # every cut keeps them: once the y left have that determinant
            # too, they are those of L, and L is saturated
            if prod(y[i] for i, y in enumerate(ys)) == det:
                return tuple(rows)
            combos = [hermite_combine(g, y) for y in ys]
    vectors = [[x // det for x in r] for r in combos]
    return hermite_row_basis(vectors, width)


@frozen
class RowHermiteForm:
    """H = W . M with W unimodular and H the canonical row-Hermite form.

    Rows are returned pivot-sorted; zero rows of H trail, and the matching
    rows of W form a saturated basis of the left kernel of M.
    """

    h: tuple
    w: tuple
    pivots: tuple  # pivot column per nonzero row of h

    def left_solve(self, b: Sequence[int]) -> Optional[tuple]:
        """Some integer y with y . M = b, or None when no integer solution exists."""
        ys = hermite_coords(self.h, self.pivots, b)
        return None if ys is None else hermite_combine(self.w, ys)


def row_hermite_with_transform(m: IntMatrix) -> RowHermiteForm:
    builder = _HnfBuilder(m.cols + m.rows)
    # Bottom up (see the module docstring): [M | I] has full row rank, so the
    # form is the same in any order, and a new row mostly lands at position 0
    # with no earlier rows for _reduce_above to re-reduce.
    for i in reversed(range(m.rows)):
        augmented = list(m.row(i)) + [1 if t == i else 0 for t in range(m.rows)]
        builder.insert(augmented)
    rows = builder.basis()
    assert len(rows) == m.rows  # augmented rows are independent
    h = tuple(r[: m.cols] for r in rows)
    w = tuple(r[m.cols :] for r in rows)
    return RowHermiteForm(h=h, w=w, pivots=hermite_pivots(r for r in h if any(r)))


@memo
def _column_hermite(m: IntMatrix) -> RowHermiteForm:
    # Row form of the transpose: W . M^T = H, so M . W^T = H^T gives the
    # column structure that solving reads.  Only matrices that are read
    # again belong here; a one-shot caller factors M^T with
    # row_hermite_with_transform instead.
    return row_hermite_with_transform(m.transpose())


def integer_kernel(m: IntMatrix) -> tuple:
    """Canonical basis of the saturated lattice {x : M x = 0}, as a tuple of
    coordinate tuples, for M of any shape; the kernel of an integer matrix
    contains every integer vector that is rationally in it.

    The columns are scanned from the last one.  One builder holds
    [column | transform] for the columns J that are not in the span of the
    later ones, with one transform slot per column of J, so no transform is
    as wide as M.  A column in that span reduces to zero against the rows
    pivoted in the column part, and the transform entries it picks up give
    the kernel row e_j - sum c t, whose pivot is a 1 at j: J holds only later
    columns.  The builder rows with a zero column part are the relations
    among J; in Hermite form over J in ascending order, and with each unit
    row reduced at their pivots, the rows sorted by pivot are the canonical
    basis.
    """
    r = m.rows
    builder = _HnfBuilder(r)
    coords, units = [], []  # J in the order the columns joined; (j, transform) rows
    for j in reversed(range(m.cols)):
        v = list(m.column(j)) + [0] * len(coords)
        for row, p in zip(builder.rows, builder.pivots):
            if p >= r:
                break
            q, rem = divmod(v[p], row[p])
            if rem:
                break
            if q:
                for t in range(p, builder.width):
                    x = row[t]
                    if x:
                        v[t] -= q * x
        if any(v[:r]):
            # v differs from [column | 0] by builder rows, so it spans the same
            coords.append(j)
            builder.width += 1
            for row in builder.rows:
                row.append(0)
            builder.insert(v + [1])
        else:
            units.append((j, v[r:]))
    n = len(coords)
    ascending = coords[::-1]
    relations = hermite_row_basis(
        (row[r:][::-1] for row, p in zip(builder.rows, builder.pivots) if p >= r), n
    )
    rel_pivots = hermite_pivots(relations)

    def lift(u, unit=None):
        x = [0] * m.cols
        if unit is not None:
            x[unit] = 1
        for c, y in zip(ascending, u):
            if y:
                x[c] = y
        return tuple(x)

    rows = [(ascending[p], lift(rel)) for rel, p in zip(relations, rel_pivots)]
    for j, slots in units:
        u = [0] * (n - len(slots)) + slots[::-1]
        for rel, p in zip(relations, rel_pivots):
            q = u[p] // rel[p]
            if q:
                for t in range(p, n):
                    u[t] -= q * rel[t]
        rows.append((j, lift(u, j)))
    rows.sort()
    return tuple(x for _, x in rows)


def solve_integer_linear(m: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """Some integer x with M x = b, or None when no integer solution exists."""
    if len(b) != m.rows:
        raise DimensionMismatchError("right-hand side length mismatch")
    return _column_hermite(m).left_solve(b)


# ---------------------------------------------------------------------------
# invariant factors
# ---------------------------------------------------------------------------


_SNF_PASS_CAP = 1000


def invariant_factors(m: IntMatrix) -> tuple:
    """The nonzero Smith invariant factors of ``m``, in divisibility order.

    The cokernel Z^rows / M Z^cols is the sum of Z/d over these factors and a
    free part of rank ``rows - len(factors)``.  Row and column Hermite passes
    alternate until the matrix is diagonal (Kannan-Bachem), at most
    ``2 * _SNF_PASS_CAP`` of them; a column pass on D is a row pass on D^T,
    so each pass is the Hermite basis of the last one's transpose, and no
    transform is kept.  gcd/lcm merges then turn the diagonal into the
    divisibility chain.
    """
    rows = m.to_rows()
    for _ in range(2 * _SNF_PASS_CAP):
        if not any(x for i, r in enumerate(rows) for j, x in enumerate(r) if i != j):
            break
        rows = hermite_row_basis(zip(*rows), len(rows))
    else:
        raise RuntimeError("Smith reduction did not converge")
    diag = [abs(r[i]) for i, r in enumerate(rows) if i < len(r) and r[i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(diag)


def describe_group(free_rank: int, factors: Sequence[int]) -> str:
    """Z^free_rank + Z/d + ... over the non-unit ``factors``, free part first; "0" if empty."""
    parts = [f"Z^{free_rank}"] if free_rank > 1 else ["Z"] * free_rank
    parts += [f"Z/{d}" for d in factors if d > 1]
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# lattice closure under preimages
# ---------------------------------------------------------------------------


_CLOSURE_STEP_CAP = 512


def lattice_closure_under_preimage(psi: IntMatrix, seed_rows: Iterable[Sequence[int]]) -> tuple:
    """Stabilised union of psi^-m (L) over m >= 0, for a psi-invariant lattice L.

    Returns (hermite_basis, steps); any member x of the closure satisfies
    psi^steps (x) in L.  The ascending chain of lattices stabilises because
    rank and index are both bounded; ``_CLOSURE_STEP_CAP`` is a defensive cap.
    """
    if not psi.is_square:
        raise DimensionMismatchError("closure needs a square map")
    d = psi.rows
    # psi x lies in L iff [psi | -L^T] (x, c) = 0 for some c: each step is
    # the kernel of this d-row matrix, scanned column by column.
    psi_columns = psi.transpose().to_rows()
    current = hermite_row_basis(seed_rows, d)
    steps = 0
    while True:
        stacked = IntMatrix.from_columns(psi_columns + [[-x for x in r] for r in current], d)
        kernel = integer_kernel(stacked)
        new = hermite_row_basis([k[:d] for k in kernel] + [list(r) for r in current], d)
        if new == current:
            return current, steps
        current = new
        steps += 1
        if steps > _CLOSURE_STEP_CAP:
            raise RuntimeError("lattice closure failed to stabilise")


def identity_rows(n: int) -> tuple:
    """The Hermite basis of Z^n."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _coordinates(basis: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int]):
    # a saturated lattice of full rank is Z^n, whose coordinates are the vector
    return tuple(v) if len(pivots) == len(v) else hermite_coords(basis, pivots, v)


@frozen
class PreimageClosure:
    """The closure of the span of ``generators`` (ambient rows) under preimages of
    ``image``, a map that sends a saturated lattice into itself, built lazily.

    Only ``span``, the Hermite basis of the generators, comes with the record,
    and ``witness`` reads it first.  The rest is built on first read:
    ``basis``, the lattice's Hermite basis from ``lattice()``; ``seed``, the
    span in its coordinates; the map ``psi`` there, None when the seed fills
    the lattice; and the ``closure`` that psi takes into the seed in ``depth``
    steps."""

    lattice: object  # () -> the Hermite basis of the lattice, in ambient rows
    image: object  # ambient row -> ambient row
    generators: tuple
    span: tuple
    span_pivots: tuple

    @functools.cached_property
    def basis(self) -> tuple:
        return tuple(self.lattice())

    @functools.cached_property
    def pivots(self) -> tuple:
        return hermite_pivots(self.basis)

    @functools.cached_property
    def seed(self) -> tuple:
        rows = [_coordinates(self.basis, self.pivots, g) for g in self.span]
        return hermite_row_basis(rows, len(self.basis))

    @functools.cached_property
    def psi(self) -> Optional[IntMatrix]:
        """The map in the lattice's coordinates; None when the seed fills the
        lattice, which is then its own closure."""
        seed, rank = self.seed, len(self.basis)
        if len(seed) == rank and all(row[i] == 1 for i, row in enumerate(seed)):
            return None
        return IntMatrix.from_columns(
            [_coordinates(self.basis, self.pivots, self.image(b)) for b in self.basis], rank
        )

    @functools.cached_property
    def _chain(self) -> tuple:
        if self.psi is None:
            return self.seed, 0
        return lattice_closure_under_preimage(self.psi, self.seed)

    @property
    def closure(self) -> tuple:
        return self._chain[0]

    @property
    def depth(self) -> int:
        return self._chain[1]

    @functools.cached_property
    def seed_form(self) -> RowHermiteForm:
        """W . S = H for the generators S at the pivot columns of ``span``, built on
        first read: a member's entries there give its coefficients in
        independent generators, with no lattice built."""
        return row_hermite_with_transform(
            IntMatrix.from_rows([[g[p] for p in self.span_pivots] for g in self.generators])
        )

    @functools.cached_property
    def closure_pivots(self) -> tuple:
        return hermite_pivots(self.closure)

    @functools.cached_property
    def seed_pivots(self) -> tuple:
        return hermite_pivots(self.seed)

    def witness(self, v: Sequence[int]) -> Optional[int]:
        """The least m with psi^m v in the seed; None when ``v`` is outside the closure.

        A member of the span is found at m = 0 with nothing else built.  Any
        other ``v`` needs its coordinates in the lattice, and then psi and the
        closure; with no psi the seed holds every member of the lattice."""
        if hermite_coords(self.span, self.span_pivots, v) is not None:
            return 0
        c = _coordinates(self.basis, self.pivots, v)
        if c is None or self.psi is None:
            return None
        if hermite_coords(self.closure, self.closure_pivots, c) is None:
            return None
        for m in range(1, self.depth + 1):
            c = self.psi.col_apply(c)
            if hermite_coords(self.seed, self.seed_pivots, c) is not None:
                return m
        raise RuntimeError("closure membership without a witness level")


def preimage_closure(lattice, image, generators) -> PreimageClosure:
    """The closure of the span of ``generators`` under preimages of a map that
    sends a saturated lattice into itself, and a member (an ambient row) to
    ``image(member)``; ``lattice()`` gives the lattice's Hermite basis.  Only
    the Hermite basis of the generators is built here: the lattice, the map
    on its coordinates and the chain of preimages wait for a ``witness`` that
    is not in that span (see :class:`PreimageClosure`)."""
    generators = tuple(generators)
    span = hermite_row_basis(generators, len(generators[0]) if generators else 0)
    return PreimageClosure(lattice, image, generators, span, hermite_pivots(span))


# ---------------------------------------------------------------------------
# polynomials (integer coefficients, low degree first)
# ---------------------------------------------------------------------------


def poly_trim(coeffs: Sequence[int]) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_mod(a: Sequence[int], m: Sequence[int]) -> tuple:
    """Remainder of ``a`` modulo the monic polynomial ``m``."""
    m = poly_trim(m)
    if not m or m[-1] != 1:
        raise ValueError("modulus must be monic")
    r = list(poly_trim(a))
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i, c in enumerate(m):
            r[shift + i] -= lead * c
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def poly_eval_matrix(coeffs: Sequence[int], m: IntMatrix) -> IntMatrix:
    """p(M) by Horner's rule."""
    if not m.is_square:
        raise DimensionMismatchError("polynomial evaluation needs a square matrix")
    n = m.rows
    acc = IntMatrix.zeros(n, n)
    ident = IntMatrix.identity(n)
    for c in reversed(list(coeffs)):
        acc = acc @ m + ident.scale(c)
    return acc


def poly_apply(coeffs: Sequence[int], m: IntMatrix, v: Sequence[int]) -> tuple:
    """p(M) v by Horner's rule on vectors: one application of M a coefficient."""
    acc = [0] * len(v)
    for c in reversed(coeffs):
        acc = [x + c * y for x, y in zip(m.col_apply(acc), v)]
    return tuple(acc)


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials
# ---------------------------------------------------------------------------


@memo
def characteristic_polynomial(m: IntMatrix) -> tuple:
    """Monic characteristic polynomial, low degree first: m_M when deg m_M = K,
    else the product of the annihilators of e_i modulo the Krylov span W_(i-1)
    of e_0, ..., e_(i-1), the characteristic polynomials of M on W_i / W_(i-1),
    found in one Hermite builder that holds W_i from one step to the next."""
    if non_derogatory(m):
        return minimal_polynomial(m).m_coeffs
    chi, span, units = (1,), None, iter(identity_rows(m.rows))
    while len(chi) <= m.rows:
        q, span = annihilator(next(units), m.col_apply, m.rows, span)
        chi = poly_mul(chi, q)
    return chi


def horner_tails(p: Sequence[int], step, z: Sequence[int]) -> tuple:
    """The vectors H_j(M) z, j < deg p, for the Horner tails of the monic ``p``
    (H_0 = 1, H_(j+1)(x) = x H_j(x) + p_(d-1-j), d = deg p) and step(x) = M x:
    one step a tail, no matrix formed."""
    tails = [tuple(z)]
    for c in p[-2:0:-1]:
        tails.append(tuple(x + c * y for x, y in zip(step(tails[-1]), z)))
    return tuple(tails)


@memo
def adjugate_edges(m: IntMatrix) -> tuple:
    """(rows 0, columns 0) of the coefficients M_1..M_n of adj(tI - M) = sum M_k t^(n-k):
    M_1 = I and M_(k+1) = M M_k + c_(n-k) I make M_k the Horner tail H_(k-1)(M)
    of chi_M, so they are the tails at e_0 under ``row_apply`` and ``col_apply``."""
    chi, e0 = characteristic_polynomial(m), identity_rows(m.rows)[0]
    return horner_tails(chi, m.row_apply, e0), horner_tails(chi, m.col_apply, e0)


@frozen
class LocatedRoot:
    """The Perron root lambda of a primitive M in [(r - 1) / 2^bits, r / 2^bits],
    with chi = chi_M, low degree first, and the Newton steps since the row sum."""

    chi: tuple
    r: int
    bits: int
    steps: int

    def value(self, p: Sequence[int]) -> int:
        """2^(bits d) p(r / 2^bits), exactly, by the Horner rule (d = len(p) - 1)."""
        val, scale, r, bits = 0, 1, self.r, self.bits
        for c in reversed(p):
            val = val * r + c * scale
            scale <<= bits
        return val

    def sign(self, p: Sequence[int]) -> int:
        """The sign of ``p`` on the interval, or 0 (not certain) when |p(r / 2^bits)|
        is at most 2^-bits sum i |p_i| (r / 2^bits)^(i - 1), which bounds |p'| there for r >= 1."""
        val = self.value(p)
        bound = self.value([i * abs(c) for i, c in enumerate(p)][1:])
        return (val > 0) - (val < 0) if abs(val) > bound else 0

    @memo
    def refined(self) -> "LocatedRoot":
        """lambda to twice the bits, by Newton steps from the upper end."""
        return _newton(self.chi, self.r << self.bits, 2 * self.bits, self.steps)


def _newton(chi: tuple, r: int, bits: int, steps: int) -> LocatedRoot:
    """Newton steps on chi from the upper bound r / 2^bits, rounded down to dyadics.

    Every other root has smaller real part, so chi is convex and increasing
    right of lambda and each step stays an upper bound; chi((r - 1) / 2^bits)
    <= 0 certifies the lower end, and otherwise the root is refined."""
    slope = [i * c for i, c in enumerate(chi)][1:]  # value: 2^(bits (d - 1)) chi'(x)
    while True:
        root = LocatedRoot(chi, r, bits, steps)
        val, der = root.value(chi), root.value(slope)
        if val < der:  # the step val // der is zero
            return root.refined() if LocatedRoot(chi, r - 1, bits, steps).value(chi) > 0 else root
        r, steps = r - val // der, steps + 1


@memo
def perron_root(m: IntMatrix) -> LocatedRoot:
    """The Perron root of a primitive M, to 64 bits when that lower end is certified."""
    return _newton(characteristic_polynomial(m), max(map(sum, m.to_rows())) << 64, 64, 0)


@frozen
class MinPolyData:
    """Minimal polynomial split m(x) = x^l * p(x) with p(0) != 0.

    ``l`` bounds every kernel-stabilisation argument used by the limit-group
    equality tests; ``k`` = deg p bounds polynomial representatives.
    Coefficients are low degree first and monic.
    """

    l: int
    k: int
    p_coeffs: tuple
    m_coeffs: tuple


def _min_poly_data(m_coeffs: tuple) -> MinPolyData:
    l = 0
    while m_coeffs[l] == 0:
        l += 1
    p_coeffs = m_coeffs[l:]
    return MinPolyData(l=l, k=len(p_coeffs) - 1, p_coeffs=p_coeffs, m_coeffs=m_coeffs)


@memo
def minimal_polynomial(m: IntMatrix) -> MinPolyData:
    """Minimal polynomial: the lcm of the annihilators of the unit vectors.

    With p the lcm so far, the annihilator of p(M) e_i is
    ann(e_i) / gcd(ann(e_i), p), so p times it is lcm(p, ann(e_i)) with no
    gcd taken.  Each annihilator divides the monic integer chi_M, so by
    Gauss's lemma it is monic and integral.  Each search runs in a Hermite
    builder 2K + 1 wide, and the loop stops once deg p = K.
    """
    if not m.is_square:
        raise DimensionMismatchError("minimal polynomial needs a square matrix")
    n = m.rows
    if n == 0:
        raise DimensionMismatchError("empty matrix")
    p = (1,)
    for i in range(n):
        if len(p) > n:
            break
        v = poly_apply(p, m, tuple(int(t == i) for t in range(n)))
        if any(v):
            p = poly_mul(p, annihilator(v, m.col_apply, n)[0])
    return _min_poly_data(p)


def non_derogatory(m: IntMatrix) -> bool:
    """Whether deg m_M = K, that is m_M = chi_M."""
    return len(minimal_polynomial(m).m_coeffs) == m.rows + 1


def annihilator(x: Sequence[int], step, n: int, builder: Optional[_HnfBuilder] = None) -> tuple:
    """(q, builder): the monic least-degree q with q(step) x in the span held
    by ``builder``, low degree first, and that builder, now holding the span
    with x, step(x), ... added.

    The builder is len(x) + n + 1 wide and holds the span as rows s | 0 (a
    new one holds nothing), so one builder carries a growing span from call
    to call with nothing reloaded.  The rows x_d | e_d, x_0 = x and x_(d+1) =
    step(x_d), go into it one at a time; its first row with a pivot right of
    the vector part is t q for the least t that puts t q(step) x in the
    lattice of the span (t = 1 with no span).  That row leaves the builder,
    and the e_d parts of the rows left are cleared.  For a linear integer
    ``step`` q divides a monic integer characteristic polynomial, so by
    Gauss's lemma it is integral and dividing by the top coefficient is exact.
    """
    width = len(x)
    if builder is None:
        builder = _HnfBuilder(width + n + 1)
    for deg in range(n + 1):
        builder.insert(tuple(x) + tuple(1 if t == deg else 0 for t in range(n + 1)))
        if builder.pivots[-1] >= width:
            builder.pivots.pop()
            relation = builder.rows.pop()[width : width + deg + 1]
            cleared = [0] * (n + 1)
            for row in builder.rows:
                row[width:] = cleared
            return tuple(c // relation[-1] for c in relation), builder
        x = step(x)
    raise RuntimeError("no annihilating polynomial up to the matrix size")
