"""Elements of the three inductive-limit groups attached to an adjacency matrix.

A class is a pair (payload, level): a row vector for the stable group, a
column vector for the unstable group, a square matrix for the homoclinic
group.  Raising the level by one multiplies the payload by A (stable), by A
on the left (unstable), or conjugates it to A X A (homoclinic); two pairs are
equal when they merge somewhere down the tower.  The cylinder K-groups, the
stable homomorphisms and the polynomial subring (Z[x]/p(x) pushed by x^2)
are towers of the same kind, so one base class, :class:`TowerElement`,
carries the group law, equality and normalisation of all of them; each
element class gives only its payload and its push map.
A zero-step push is the payload itself: on a nonsingular ambient (l = 0),
equality at equal levels multiplies nothing.

Equality is decidable in one shot: with l the multiplicity of 0 as a root of
the minimal polynomial, the kernels of multiplication by A^j stabilise at
j = l, so the existential over merge depths collapses to the single test at
exponent l.

Automorphism conventions.  On stable classes the shift acts as
[v, N] -> [vA, N] with inverse [v, N] -> [v, N+1].  The unstable group is
defined by transposing A, which reverses the roles: the shift acts as
[w, N] -> [w, N+1] with inverse [w, N] -> [Aw, N].  This is the unique choice
dual to the stable one under which the trace maps scale by lambda and
1/lambda respectively.
"""

from __future__ import annotations

import enum

from .exactlinalg import (
    IntMatrix,
    adjugate_edges,
    annihilator,
    frozen,
    hermite_combine,
    identity_rows,
    matrix_power,
    memo,
    minimal_polynomial,
    perron_root,
    solve_integer_linear,
)
from .sft import AdjacencyMatrix, NotPrimitiveError, is_primitive


class AmbientMismatchError(ValueError):
    """Operands live over different adjacency matrices."""


def _same_ambient(a, b) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatchError("elements have different ambient matrices")


def _zero_index(a: AdjacencyMatrix) -> int:
    return minimal_polynomial(a.matrix).l


def _apow(a: AdjacencyMatrix, j: int) -> IntMatrix:
    return matrix_power(a.matrix, j)


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------


class TowerElement:
    """A class [payload, level] of an inductive limit along one push map.

    Subclasses are :func:`~sftdim.exactlinalg.frozen` records with the fields
    ``ambient``, a payload and ``level``.  Each supplies ``_lift(j)``, its
    payload j >= 1 levels further up as a flat tuple (matrices row-major); the
    two payload bases below supply the shape check, the payload width
    ``_width(ambient)`` and the way back from a flat tuple.  The group law,
    equality and normalisation are shared by every tower.
    """

    def __post_init__(self):
        if not self._fits():
            raise ValueError(self._shape_error)
        if self.level < 0:
            raise ValueError("level must be non-negative")

    @classmethod
    def zero(cls, a: AdjacencyMatrix):
        return cls._make(a, (0,) * cls._width(a), 0)

    @classmethod
    def _lattice(cls, a: AdjacencyMatrix):
        """Flat basis of the admissible payloads, or None for all of Z^width."""
        return None

    def _push(self, j: int) -> tuple:
        """The flat payload j levels up; zero levels up it is the payload."""
        return self._lift(j) if j else tuple(self._flat)

    def __add__(self, other):
        return add(self, other)

    def __neg__(self):
        return neg(self)


class VectorPayload(TowerElement):
    """Payload: an integer vector of length ``_width(ambient)`` (K unless a
    tower says otherwise), in the field named ``_field``."""

    _field = "vector"
    _shape_error = "vector length must match the matrix size"

    @property
    def _flat(self) -> tuple:
        return getattr(self, self._field)

    def _fits(self) -> bool:
        return len(self._flat) == self._width(self.ambient)

    @staticmethod
    def _width(a: AdjacencyMatrix) -> int:
        return a.size

    @classmethod
    def _make(cls, a: AdjacencyMatrix, flat, level: int):
        return cls(a, tuple(flat), level)


class MatrixPayload(TowerElement):
    """Payload: an integer K x K matrix in the field ``matrix``."""

    _shape_error = "payload shape must match the ambient size"

    @property
    def _flat(self) -> tuple:
        return self.matrix.entries

    def _fits(self) -> bool:
        k = self.ambient.size
        return self.matrix.rows == k and self.matrix.cols == k

    @staticmethod
    def _width(a: AdjacencyMatrix) -> int:
        return a.size * a.size

    @classmethod
    def _make(cls, a: AdjacencyMatrix, flat, level: int):
        return cls(a, IntMatrix(a.size, a.size, tuple(flat)), level)

    def _lift(self, j: int) -> tuple:
        """X -> A^j X A^j, the push of every matrix tower."""
        p = _apow(self.ambient, j)
        return (p @ self.matrix @ p).entries


@frozen
class StableElement(VectorPayload):
    """[v, N]: an integer row vector at level N, pushed by v -> vA."""

    ambient: AdjacencyMatrix
    vector: tuple
    level: int

    def _lift(self, j: int) -> tuple:
        return _apow(self.ambient, j).row_apply(self.vector)


@frozen
class UnstableElement(VectorPayload):
    """[w, N]: an integer column vector at level N, pushed by w -> Aw."""

    ambient: AdjacencyMatrix
    vector: tuple
    level: int

    def _lift(self, j: int) -> tuple:
        return _apow(self.ambient, j).col_apply(self.vector)


@frozen
class HomoclinicElement(MatrixPayload):
    """[X, N]: an integer square matrix at level N, pushed by X -> AXA."""

    ambient: AdjacencyMatrix
    matrix: IntMatrix
    level: int


def align(x: TowerElement, y: TowerElement) -> tuple:
    """The flat payloads of x and y pushed to their common level, and that level."""
    _same_ambient(x, y)
    level = max(x.level, y.level)
    return x._push(level - x.level), y._push(level - y.level), level


def equal(x: TowerElement, y: TowerElement) -> bool:
    """Whether [x] = [y], tested once, l levels above the higher of the two."""
    _same_ambient(x, y)
    if x.level > y.level:
        x, y = y, x
    l = _zero_index(x.ambient)
    return x._push(l + y.level - x.level) == y._push(l)


def is_zero(x: TowerElement) -> bool:
    return not any(x._push(_zero_index(x.ambient)))


def add(x: TowerElement, y: TowerElement) -> TowerElement:
    px, py, level = align(x, y)
    return x._make(x.ambient, [s + t for s, t in zip(px, py)], level)


def neg(x: TowerElement) -> TowerElement:
    return x._make(x.ambient, [-s for s in x._flat], x.level)


@memo
def _preimage_system(a: AdjacencyMatrix, cls: type) -> tuple:
    """The basis of ``cls`` payloads (None: all) and its (l+1)-step push on them."""
    basis = cls._lattice(a)
    l = _zero_index(a)
    width = cls._width(a)
    rows = identity_rows(width) if basis is None else basis
    cols = [cls._make(a, b, 0)._push(l + 1) for b in rows]
    return basis, IntMatrix.from_columns(cols, width)


def normalize(x: TowerElement) -> TowerElement:
    """Equivalent element at the smallest level reachable by exact division.

    Pushes into the stable range first (l levels), then strips levels while
    an admissible integer preimage under the one-step push exists.  Display
    aid only: the limit group has no canonical representative in general.
    """
    a = x.ambient
    l = _zero_index(a)
    cur = x._make(a, x._push(l), x.level + l)
    while cur.level > 0:
        # u with [u, level-1] = [cur, level], i.e. push^(l+1) u = push^l cur
        basis, system = _preimage_system(a, type(x))
        sol = solve_integer_linear(system, cur._push(l))
        if sol is None:
            break
        cur = x._make(a, sol if basis is None else hermite_combine(basis, sol), cur.level - 1)
    return cur


equal_s = equal_u = equal_h = equal
add_s = add_u = add_h = add
neg_s = neg_u = neg_h = neg
is_zero_s = is_zero_u = is_zero_h = is_zero
normalize_s = normalize_u = normalize_h = normalize


# ---------------------------------------------------------------------------
# the shift automorphisms
# ---------------------------------------------------------------------------


def alpha_s(a: StableElement) -> StableElement:
    return StableElement(a.ambient, a.ambient.matrix.row_apply(a.vector), a.level)


def alpha_s_inv(a: StableElement) -> StableElement:
    return StableElement(a.ambient, a.vector, a.level + 1)


def alpha_u(a: UnstableElement) -> UnstableElement:
    return UnstableElement(a.ambient, a.vector, a.level + 1)


def alpha_u_inv(a: UnstableElement) -> UnstableElement:
    return UnstableElement(a.ambient, a.ambient.matrix.col_apply(a.vector), a.level)


def alpha_h(a: HomoclinicElement) -> HomoclinicElement:
    return HomoclinicElement(a.ambient, a.matrix @ _apow(a.ambient, 2), a.level + 1)


def alpha_h_inv(a: HomoclinicElement) -> HomoclinicElement:
    return HomoclinicElement(a.ambient, _apow(a.ambient, 2) @ a.matrix, a.level + 1)


# ---------------------------------------------------------------------------
# positivity in the stable dimension group
# ---------------------------------------------------------------------------


class Positivity(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE_OR_MIXED = "negative_or_mixed"


@frozen
class PositivityResult:
    kind: Positivity


def is_positive_s(a: StableElement) -> PositivityResult:
    """Exact membership in the positive cone: for primitive A, the nonzero
    classes [v, N] with v . r > 0, r the right Perron vector.  Column 0 of
    adj(lambda I - A) is a positive multiple of r, so q(t) = v . adj(tI - A) e_0
    has the sign of v . r at lambda; q(lambda) = 0 exactly when lambda is not a
    root of v's annihilator p_v under A.  As the located root is refined,
    one of the two signs becomes certain."""
    if not is_primitive(a.ambient):
        raise NotPrimitiveError("positivity needs a primitive ambient matrix")
    if is_zero_s(a):
        return PositivityResult(Positivity.ZERO)
    m = a.ambient.matrix
    q = tuple(sum(x * c for x, c in zip(a.vector, col)) for col in reversed(adjugate_edges(m)[1]))
    root, p_v = perron_root(m), None
    while True:
        sign = root.sign(q)
        if sign:
            kind = Positivity.POSITIVE if sign > 0 else Positivity.NEGATIVE_OR_MIXED
            return PositivityResult(kind)
        if p_v is None:
            p_v = annihilator(a.vector, m.row_apply, m.rows)[0]
        if root.sign(p_v):  # v . r = 0: the class is on the boundary
            return PositivityResult(Positivity.NEGATIVE_OR_MIXED)
        root = root.refined()
