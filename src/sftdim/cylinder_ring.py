"""The graded ring on the mapping-cylinder K-groups and its module actions.

Degree zero is the limit of the centraliser lattice C(A) = {X : AX = XA}
under X -> AXA; degree one is the limit of the quotient of all integer
matrices by the commutator lattice B(A) = {AY - YA}.  The product is

    [X, N] * [Y, M]             = [XY, N + M]          (0 x 0)
    [X, N] * [Y + B(A), M]      = [XY + B(A), N + M]   (0 x 1, and mirrored)
    (degree one) * (degree one) = 0

and the stable/unstable limit groups are right/left modules via
[v, N] * [X, M] = [vX, N + 2M] and [X, M] * [w, N] = [Xw, N + 2M].

Each per-matrix invariant is computed in the smallest space that holds it.
One cached Hermite basis of B(A), built with no transform, presents the
level group Q = M_K(Z)/B(A) as Z^J modulo a few relations: a basis row with
pivot 1 eliminates its coordinate, and J keeps the rest (usually far fewer
than K^2).  The torsion of Q is read off the invariant factors of those
relations, and C(A), the transpose of the orthogonal complement of B(A),
off their kernel (see centralizer_basis).  Degree-one equality
has no single-shot test like the degree-zero one, but two exact
certificates come first.  With D the aligned difference, the power traces
s_j = tr(A^j D) vanish from j = 2m on when A^m D A^m lies in B(A), and
from j = l on they obey the recurrence of p_A, so a nonzero among s_l, ...,
s_(deg m_A - 1) proves the classes differ, for every A; and a projected
difference already in the relations is equal at level 0.  Only the rest
needs the preimages of the relations under the map induced by X -> AXA,
an ascending chain that stabilises: membership of the projected difference
in the stabilised closure settles equality outright, and applying the
induced map until the relations are reached gives the merge depth.
Membership in the polynomial subring generated by [A, 0] and [A, 1] has a
certificate too: a payload q(A) with integer q is [q mod p_A, N].  Any
other payload is the same closure question in the coordinates of the
matrix-level center of C(A), which Y -> A^2 Y maps into itself.  Each
closure is one lazy record of exactlinalg.preimage_closure, which holds
only the span of its seed until a witness outside that span needs the
lattice, the map and the chain; both answers read its one witness walk.
The center is M_K(Z) intersected with Q[A] (double centraliser), the
saturation of Z[A] in M_K(Z), of rank deg m_A, built from the powers of A
for every A and reading no basis of B(A); for non-derogatory A it is C(A),
and centralizer_basis returns it.
The subring is a tower like the groups: Z[x]/p_A(x), pushed by x^2.

For nonsingular A both closures run in the saturation of their seed, which
is far smaller; for the subring that is the center, where its closure runs
for every A (see _ra_closure).  X -> AXA is injective on M_K(Q) and maps
B(A) into itself, so it maps B(A) tensor Q onto itself and the induced map
on Q tensor Q is injective: whatever some power maps into the relations L
lies in sat(L), of rank len(relations), and sat(L)/L is the torsion of Q.
A torsion-free Q is its own closure, and so is any seed that fills its
lattice, with depth 0.

Most matrices take a K-wide model instead.  When A mod p is cyclic for
every prime p (locally cyclic: exactly when deg m_A = K and Z[A] is
saturated, so that the centre's Hermite rows decide it, see _locally_cyclic),
C(A) = Z[A] is the centre, Q is Z^K through the K power traces
X -> tr(A^i X), B(A) is their kernel, and degree-one equality reads the
traces of the difference: no K^2-row basis, presentation or closure is
built.  Every other A, derogatory or with torsion in Q, takes the general
path above.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Optional, Sequence

from . import exactlinalg
from .exactlinalg import (
    IntMatrix,
    PreimageClosure,
    frozen,
    hermite_combine,
    hermite_pivots,
    hermite_row_basis,
    identity_rows,
    integer_kernel,
    invariant_factors,
    matrix_power,
    memo,
    minimal_polynomial,
    non_derogatory,
    poly_mod,
    poly_eval_matrix,
    poly_mul,
    preimage_closure,
    saturation,
)
from .sft import AdjacencyMatrix
from .dimension_groups import (
    MatrixPayload,
    StableElement,
    UnstableElement,
    VectorPayload,
    _same_ambient,
    add,
    align,
    equal,
    neg,
)


class NotCentralizedError(ValueError):
    """The payload does not commute with the adjacency matrix."""


# ---------------------------------------------------------------------------
# the centraliser and commutator lattices
# ---------------------------------------------------------------------------


def commutator_system(m: IntMatrix) -> IntMatrix:
    """The transpose of the commutator map of a square ``m``, built row by row.

    Row (p, q) is vec(M E_pq - E_pq M): column p of M in column q, minus
    row q of M in row p, so it has at most 2K nonzeros.
    """
    k = m.rows
    ents = []
    for p in range(k):
        column = m.column(p)
        for q in range(k):
            v = [0] * (k * k)
            v[q :: k] = column
            base = p * k
            v[base : base + k] = [x - y for x, y in zip(v[base : base + k], m.row(q))]
            ents.extend(v)
    return IntMatrix(k * k, k * k, tuple(ents))


@memo
def _locally_cyclic(a: AdjacencyMatrix) -> bool:
    """Whether A mod p is cyclic for every prime p, decided exactly.

    A mod p is cyclic iff I, A, ..., A^(K-1) stay independent mod p.  They do
    for every p exactly when deg m_A = K and Z[A] = span{I, ..., A^(K-1)} is
    saturated in M_K(Z), that is when the Hermite rows of the powers equal
    their saturation, which the centre builds anyway (_power_span).  For such
    A, Z[A] equals C(A), and the commutator map has rank K^2 - K mod every p:
    its nonzero invariant factors are 1, Q = M_K(Z)/B(A) is Z^K and B(A) is
    saturated.  As B(A)^perp = C(A^T) under the trace pairing,
    B(A) = {X : tr(A^i X) = 0, i < K}: the K power traces model Q.
    """
    return non_derogatory(a.matrix) and operator.eq(*_power_span(a))


@memo
def _trace_rows(a: AdjacencyMatrix) -> tuple:
    """vec((A^T)^j) for j < K, so that tr(A^j X) is the dot product of row j
    with vec(X): B(A) lies in their kernel, and is that kernel for locally
    cyclic A.  k1_equal reads the first deg m_A of them (see _trace_witness)."""
    return tuple(matrix_power(a.matrix, j).transpose().vec() for j in range(a.size))


@frozen
class CentralizerLattice:
    """Saturated Hermite basis of a sublattice of the commuting matrices."""

    basis: tuple
    rank: int


@memo
def centralizer_basis(a: AdjacencyMatrix) -> CentralizerLattice:
    """Canonical saturated basis of C(A), the kernel of the commutator map.

    Under the trace pairing the orthogonal complement of B(A) is C(A^T): X is
    orthogonal to every AY - YA iff X^T commutes with A.  So C(A) is the
    transpose of ker_Z H for the Hermite basis H of B(A).  In the presentation
    of Q a unit row of H is x_p + row_p . x_J and the others are the relations
    on Z^J, so ker_Z H is ker_Z(relations) in Z^J, lifted by x_p = -row_p . x_J.
    For non-derogatory A the centraliser of A over Q is Q[A], so C(A) is
    Q[A] meet M_K(Z), the centre, built from the powers of A with no basis
    of B(A).
    """
    if non_derogatory(a.matrix):
        return center_basis(a)
    k = a.size
    pres = _k1_presentation(a)
    kernel = integer_kernel(pres.relation_matrix())
    tr = [j % k * k + j // k for j in range(k * k)]  # where X_ij sits in vec(X^T)
    reads = [[] for _ in pres.coords]  # per coordinate of J, the unit rows' entries
    for p, row in pres.unit_rows:
        for t, x in enumerate(row):
            if x:
                reads[t].append((tr[p], x))
    vectors = []
    for y in kernel:
        v = [0] * (k * k)
        for t, c in enumerate(y):
            if c:
                v[tr[pres.coords[t]]] = c
                for q, x in reads[t]:
                    v[q] -= c * x
        vectors.append(v)
    basis = tuple(IntMatrix.from_vec(r, k, k) for r in hermite_row_basis(vectors, k * k))
    return CentralizerLattice(basis=basis, rank=len(basis))


def centralizer_rank(a: AdjacencyMatrix) -> int:
    """rank C(A), which is at least K with equality exactly when A is
    non-derogatory (deg m_A = K); otherwise it is K^2 - rank B(A), read off
    the K1 presentation without building C(A)."""
    if non_derogatory(a.matrix):
        return a.size
    pres = _k1_presentation(a)
    return len(pres.coords) - len(pres.relations)


@frozen
class CommutatorLattice:
    """Basis of B(A) for the matrix A.  ``witnesses`` holds a Y with AY - YA
    equal to each basis element; it factors the commutator map on first read."""

    matrix: IntMatrix
    basis: tuple
    rank: int

    @functools.cached_property
    def witnesses(self) -> tuple:
        k, solve = self.matrix.rows, exactlinalg.solve_integer_linear
        cmap = commutator_system(self.matrix).transpose()
        return tuple(IntMatrix.from_vec(solve(cmap, b.vec()), k, k) for b in self.basis)


@memo
def commutator_lattice(a: AdjacencyMatrix) -> CommutatorLattice:
    """The canonical basis of B(A): the Hermite basis of the rows of the
    commutator system, built with no transform, which C(A) and the K1
    presentation read too.  The rows go in from the last one up, which
    re-reduces least (see exactlinalg).  For locally cyclic A it is the
    kernel of the K power traces X -> tr(A^i X), i < K, a K x K^2 system.
    The witnesses are solved for only when read."""
    k = a.size
    if _locally_cyclic(a):
        rows = integer_kernel(IntMatrix(k, k * k, tuple(x for r in _trace_rows(a) for x in r)))
    else:
        s = commutator_system(a.matrix)
        rows = hermite_row_basis((s.row(i) for i in reversed(range(s.rows))), s.cols)
    basis = tuple(IntMatrix.from_vec(row, k, k) for row in rows)
    return CommutatorLattice(matrix=a.matrix, basis=basis, rank=len(basis))


@frozen
class K1Structure:
    """Shape of the level group M_K(Z)/B(A): free rank plus torsion factors.

    ``snf_diagonal`` is the Smith diagonal of the commutator map.
    """

    free_rank: int
    torsion: tuple
    snf_diagonal: tuple


@memo
def k1_group_structure(a: AdjacencyMatrix) -> K1Structure:
    """Q = M_K(Z)/B(A) is Z^J modulo the relations, so its torsion is theirs.

    The relations are independent, so each gives one invariant factor; the
    non-unit ones are the torsion, and every other nonzero factor of the
    commutator map is 1.  For locally cyclic A, Q is Z^K: the structure is
    known with nothing factored.
    """
    k2 = a.size * a.size
    if _locally_cyclic(a):
        return K1Structure(a.size, (), (1,) * (k2 - a.size) + (0,) * a.size)
    pres = _k1_presentation(a)
    torsion = tuple(d for d in invariant_factors(pres.relation_matrix()) if d > 1)
    rank_b = k2 - len(pres.coords) + len(pres.relations)
    return K1Structure(
        free_rank=k2 - rank_b,
        torsion=torsion,
        snf_diagonal=(1,) * (rank_b - len(torsion)) + torsion + (0,) * (k2 - rank_b),
    )


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@frozen
class CylinderK0Element(MatrixPayload):
    """[X, N] with X in C(A); construction rejects non-commuting payloads."""

    ambient: AdjacencyMatrix
    matrix: IntMatrix
    level: int

    def __post_init__(self):
        super().__post_init__()
        a = self.ambient.matrix
        if a @ self.matrix != self.matrix @ a:
            raise NotCentralizedError("payload does not commute with the matrix")

    @classmethod
    def _lattice(cls, a: AdjacencyMatrix) -> tuple:
        return tuple(b.vec() for b in centralizer_basis(a).basis)

    def _lift(self, j: int) -> tuple:
        """A^j X A^j = A^(2j) X, as X commutes with A: one product."""
        return (matrix_power(self.ambient.matrix, 2 * j) @ self.matrix).entries


@frozen
class CylinderK1Element(MatrixPayload):
    """[Y + B(A), N]: a coset representative at level N (Y unconstrained)."""

    ambient: AdjacencyMatrix
    matrix: IntMatrix
    level: int


def k0_identity(a: AdjacencyMatrix) -> CylinderK0Element:
    return CylinderK0Element(a, IntMatrix.identity(a.size), 0)


def k0_zero(a: AdjacencyMatrix) -> CylinderK0Element:
    return CylinderK0Element.zero(a)


# degree zero inherits equality from the homoclinic tower (the inclusion is
# injective); degree one adds and negates representatives in the same tower
k0_equal = equal
k0_add = k1_add = add
k0_neg = k1_neg = neg


def alpha_k0(x: CylinderK0Element) -> CylinderK0Element:
    """Shift automorphism [X, N] -> [X A^2, N + 1]; the identity on classes."""
    return CylinderK0Element(
        x.ambient, x.matrix @ matrix_power(x.ambient.matrix, 2), x.level + 1
    )


# ---------------------------------------------------------------------------
# degree-one equality (decided in cokernel coordinates)
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not_equal"


@frozen
class K1Decision:
    verdict: Verdict
    witness_level: Optional[int] = None


@frozen
class K1Presentation:
    """The level group Q = M_K(Z)/B(A) presented as Z^J / <relations>.

    Read off the cached Hermite basis of B(A): a row with pivot 1 eliminates
    its pivot coordinate, and J keeps every other coordinate.  A unit pivot's
    column is zero in every other Hermite row, so projecting a vector onto
    Z^J subtracts v[p] times each unit row at once.  The remaining rows,
    restricted to J, are a Hermite basis of B(A) intersected with Z^J.
    """

    coords: tuple
    unit_rows: tuple  # (pivot, row restricted to coords) per unit pivot
    relations: tuple

    def relation_matrix(self) -> IntMatrix:
        """The relations as the rows of a matrix on Z^J."""
        rows = self.relations
        return IntMatrix(len(rows), len(self.coords), tuple(x for r in rows for x in r))

    def project(self, v: Sequence[int]) -> tuple:
        """Coordinates on Z^J of the class of ``v`` (row-major) in Q."""
        out = [v[j] for j in self.coords]
        for p, row in self.unit_rows:
            c = v[p]
            if c:
                for t, x in enumerate(row):
                    if x:
                        out[t] -= c * x
        return tuple(out)


@memo
def _k1_presentation(a: AdjacencyMatrix) -> K1Presentation:
    rows = [b.vec() for b in commutator_lattice(a).basis]
    pivots = hermite_pivots(rows)
    unit = {p: row for row, p in zip(rows, pivots) if row[p] == 1}
    coords = tuple(j for j in range(a.size * a.size) if j not in unit)
    unit_rows = tuple((p, tuple(row[j] for j in coords)) for p, row in unit.items())
    relations = tuple(
        tuple(row[j] for j in coords) for row, p in zip(rows, pivots) if p not in unit
    )
    return K1Presentation(coords, unit_rows, relations)


@memo
def _k1_closure(a: AdjacencyMatrix) -> PreimageClosure:
    """The preimage closure of the relations under the map X -> AXA induces on
    Z^J, run in all of Z^J for singular A and otherwise in the saturation of
    the relations (module docstring), which is the relations themselves when
    Q is torsion-free.  The record is lazy: a difference that already lies in
    the relations is decided before the saturation is taken."""
    pres = _k1_presentation(a)
    m, k, width = a.matrix, a.size, len(pres.coords)

    def lattice():
        return identity_rows(width) if minimal_polynomial(m).l else saturation(pres.relations, width)

    def image(v):
        x = [0] * (k * k)
        for j, c in zip(pres.coords, v):
            x[j] = c
        return pres.project((m @ IntMatrix(k, k, tuple(x)) @ m).entries)

    return preimage_closure(lattice, image, pres.relations)


def _trace_witness(a: AdjacencyMatrix, diff: Sequence[int]) -> Optional[int]:
    """None when no m puts A^m D A^m in B(A), certified by the power traces
    of D, for every A; otherwise the least m the traces allow, which is the
    merge depth for locally cyclic A.

    With s_j = tr(A^j D): the trace vanishes on A^i B(A), so A^m D A^m in
    B(A) forces s_j = 0 for every j >= 2m.  From index l on, s obeys the
    recurrence of p_A both ways (A^j p_A(A) = 0 for j >= l, and p_A(0) != 0),
    so s_l, ..., s_(l+k-1) all vanish iff s_j = 0 for every j >= l.  A nonzero
    among them certifies that the classes differ; otherwise the least m with
    s_2m, ..., s_(l-1) zero is at most ceil(l/2).  Every index read is below
    deg m_A = l + k <= K, where the rows of _trace_rows are.  For locally
    cyclic A, B(A) is the kernel of the K power traces, so A^m D A^m lies in
    it iff s_j = 0 for j >= 2m: the bound is the depth.
    """
    mp = minimal_polynomial(a.matrix)
    s = [sum(map(operator.mul, row, diff)) for row in _trace_rows(a)[: mp.l + mp.k]]
    if any(s[mp.l :]):
        return None
    return next(m for m in range(mp.l + 1) if not any(s[2 * m :]))


def k1_equal(x: CylinderK1Element, y: CylinderK1Element) -> K1Decision:
    """Equality in the degree-one limit group.

    Two exact certificates come first.  Nonzero power traces s_l, ...,
    s_(l+k-1) of the aligned difference certify NOT_EQUAL for every A, and
    for locally cyclic A the traces decide both the verdict and the merge
    depth (see _trace_witness).  Otherwise the difference is projected into
    Q, and the lazy closure record answers: a projection inside the relations
    is EQUAL at level 0 with nothing more built; NOT_EQUAL is non-membership
    in the stabilised closure, and applying X -> AXA in Q reaches the
    relations within the closure depth, the number of applications being the
    merge depth at which the difference lands in B(A).
    """
    px, py, _ = align(x, y)
    diff = [s - t for s, t in zip(px, py)]
    if not any(diff):
        return K1Decision(Verdict.EQUAL, witness_level=0)
    a = x.ambient
    level = _trace_witness(a, diff)
    if level is not None and not _locally_cyclic(a):
        level = _k1_closure(a).witness(_k1_presentation(a).project(diff))
    if level is None:
        return K1Decision(Verdict.NOT_EQUAL)
    return K1Decision(Verdict.EQUAL, witness_level=level)


# ---------------------------------------------------------------------------
# the graded product and the module actions
# ---------------------------------------------------------------------------


def mul(x, y):
    """The graded product [X, N] [Y, M] = [XY, N + M]: degrees add, and the
    product of two degree-one classes vanishes identically."""
    graded = (CylinderK0Element, CylinderK1Element)
    if type(x) not in graded or type(y) not in graded:
        raise ValueError("mul needs two cylinder classes (flavors k0/k1)")
    _same_ambient(x, y)
    if type(x) is type(y) is CylinderK1Element:
        return k0_zero(x.ambient)
    cls = CylinderK0Element if type(x) is type(y) else CylinderK1Element
    return cls(x.ambient, x.matrix @ y.matrix, x.level + y.level)


mul_00 = mul_01 = mul_10 = mul_11 = mul


def act_s(v: StableElement, h: CylinderK0Element) -> StableElement:
    """Right action [v, N] * [X, M] = [vX, N + 2M]."""
    _same_ambient(v, h)
    return StableElement(v.ambient, h.matrix.row_apply(v.vector), v.level + 2 * h.level)


def act_u(h: CylinderK0Element, w: UnstableElement) -> UnstableElement:
    """Left action [X, M] * [w, N] = [Xw, N + 2M]."""
    _same_ambient(h, w)
    return UnstableElement(w.ambient, h.matrix.col_apply(w.vector), w.level + 2 * h.level)


# ---------------------------------------------------------------------------
# the polynomial subring generated by [A, 0] and [A, 1]
# ---------------------------------------------------------------------------


@frozen
class RAElement(VectorPayload):
    """[p(A), N] with deg p < k, the canonical presentation of the subring.

    A tower like the others: the payload is the coefficient tuple of p
    reduced modulo the reduced minimal polynomial p_A (k = deg p_A), and one
    level up multiplies it by x^2 modulo p_A.  p_A(0) is nonzero, so x is a
    unit modulo p_A, the push is injective, and the tower's equality is
    coefficient equality at the common level.
    """

    ambient: AdjacencyMatrix
    coeffs: tuple
    level: int

    _field = "coeffs"

    @property
    def _shape_error(self) -> str:
        return f"expected {self._width(self.ambient)} coefficients, got {len(self.coeffs)}"

    @staticmethod
    def _width(a: AdjacencyMatrix) -> int:
        return minimal_polynomial(a.matrix).k

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _lift(self, j: int) -> tuple:
        return _reduce(self.ambient, (0,) * (2 * j) + self.coeffs)  # x^(2j) p


def _reduce(a: AdjacencyMatrix, coeffs: Sequence[int]) -> tuple:
    """The k coefficients of ``coeffs`` modulo p_A."""
    mp = minimal_polynomial(a.matrix)
    c = poly_mod(coeffs, mp.p_coeffs)
    return c + (0,) * (mp.k - len(c))


def ra_reduce(a: AdjacencyMatrix, coeffs: Sequence[int], level: int) -> RAElement:
    """Reduce an arbitrary integer polynomial to its canonical representative."""
    return RAElement(a, _reduce(a, coeffs), level)


def ra_one(a: AdjacencyMatrix) -> RAElement:
    return ra_reduce(a, (1,), 0)


def ra_generator(a: AdjacencyMatrix, level: int = 0) -> RAElement:
    """[A, level]; level 0 gives the generator, level 1 its inverse."""
    return ra_reduce(a, (0, 1), level)


ra_add = add
ra_equal = equal


def ra_mul(x: RAElement, y: RAElement) -> RAElement:
    _same_ambient(x, y)
    return ra_reduce(x.ambient, poly_mul(x.coeffs, y.coeffs), x.level + y.level)


def ra_to_cylinder(x: RAElement) -> CylinderK0Element:
    return CylinderK0Element(x.ambient, poly_eval_matrix(x.coeffs, x.ambient.matrix), x.level)


@memo
def _ra_closure(a: AdjacencyMatrix) -> PreimageClosure:
    """Closure of span{A^(2l+i) : i < k} under division by Y -> A^2 Y, run on
    the coordinates of the center M_K(Z) meet Q[A] (rank deg m_A = l + k,
    not K^2) for every A.

    The tested payload Y = A^l X A^l = A^(2l) X vanishes on the nilpotent
    block of A.  If A^(2m) Y = p(A) A^(2l), then on the invertible block Y is
    a polynomial in A, and combining it with x^l by the Chinese remainder
    theorem (x^l and p_A are coprime) gives one polynomial that is Y on both
    blocks: Y lies in the center, which Y -> A^2 Y maps into itself.  A
    payload outside the center is no member.
    """
    mp, k = minimal_polynomial(a.matrix), a.size
    a2 = matrix_power(a.matrix, 2)
    return preimage_closure(
        lambda: [b.vec() for b in center_basis(a).basis],
        lambda y: (a2 @ IntMatrix.from_vec(y, k, k)).vec(),
        [matrix_power(a.matrix, 2 * mp.l + i).vec() for i in range(mp.k)],
    )


@memo
def _power_form(a: AdjacencyMatrix) -> tuple:
    """(powers, pivots, W . P = H): the entries of I, A, ..., A^(n-1), n =
    deg m_A, and P, the powers at the pivot columns of their Hermite rows,
    where they are independent, so that a polynomial in A is fixed there."""
    mp = minimal_polynomial(a.matrix)
    powers = [matrix_power(a.matrix, i).entries for i in range(mp.l + mp.k)]
    pivots = hermite_pivots(_power_span(a)[0])
    form = exactlinalg.row_hermite_with_transform(
        IntMatrix.from_rows([[p[j] for j in pivots] for p in powers])
    )
    return powers, pivots, form


def _power_coordinates(a: AdjacencyMatrix, x: IntMatrix) -> Optional[tuple]:
    """The integer q with X = sum q_i A^i, i < deg m_A, or None when X is no
    polynomial in A with integer coefficients."""
    powers, pivots, form = _power_form(a)
    q = form.left_solve([x.entries[j] for j in pivots])
    return None if q is None or hermite_combine(powers, q) != x.entries else q


def ra_membership(x: CylinderK0Element) -> Optional[RAElement]:
    """Witness [p(A), N + m] equal to [X, N], or None when no such class exists.

    [X, N] equals [p(A), N + m] iff A^(2m) (A^l X A^l) = p(A) A^(2l).  A
    payload X = q(A) with integer q is its own certificate: A^(2l) (q - c)(A)
    = 0 for c = q mod p_A, as x^(2l) p_A is a multiple of m_A, so the witness
    is [c(A), N] with m = 0 and no closure.  Otherwise the set of payloads
    solvable for some m is the stabilised division closure of the span of
    {A^(2l + i)}, so membership is one lattice test and the witness level is
    the closure's walk; the lazy record builds its chain only for a centre
    member outside that span.  The powers are independent (k = deg p), so
    the coefficients of A^(2m) A^l X A^l in them are unique, read at the
    span's pivot columns.  A^l X A^l is the element's push by l, which is X
    itself when l = 0.
    """
    amb = x.ambient
    q = _power_coordinates(amb, x.matrix)
    if q is not None:
        return RAElement(amb, _reduce(amb, q), x.level)
    mp = minimal_polynomial(amb.matrix)
    y = x._push(mp.l)
    closure = _ra_closure(amb)
    m = closure.witness(y)
    if m is None:
        return None
    if m:
        y = (matrix_power(amb.matrix, 2 * m) @ IntMatrix.from_vec(y, amb.size, amb.size)).vec()
    coeffs = closure.seed_form.left_solve([y[p] for p in closure.span_pivots])
    return RAElement(amb, coeffs, x.level + m)


# ---------------------------------------------------------------------------
# the matrix-level center of C(A)
# ---------------------------------------------------------------------------


@memo
def _power_span(a: AdjacencyMatrix) -> tuple:
    """The Hermite rows of Z[A] = span{I, A, ..., A^(deg m_A - 1)} in M_K(Z),
    and those of their saturation."""
    mp = minimal_polynomial(a.matrix)
    k = a.size
    powers = [matrix_power(a.matrix, i).vec() for i in range(mp.k + mp.l)]
    rows = hermite_row_basis(powers, k * k)
    return rows, saturation(rows, k * k)


@memo
def center_basis(a: AdjacencyMatrix) -> CentralizerLattice:
    """Sublattice of C(A) commuting with every element of C(A).

    This is the center at the matrix level; it is reported next to the rank
    of the polynomial subring for comparison.  Over Q the matrices commuting
    with everything that commutes with A are exactly the polynomials in A
    (the double centraliser theorem), so the center is M_K(Z) meet Q[A], of
    rank deg m_A: the saturation of Z[A] = span{I, A, ..., A^(deg m_A - 1)}
    in M_K(Z), one path for every A.  When deg m_A = K (A is non-derogatory)
    that lattice is C(A) itself, and centralizer_basis returns it.
    """
    k = a.size
    basis = tuple(IntMatrix.from_vec(rw, k, k) for rw in _power_span(a)[1])
    return CentralizerLattice(basis=basis, rank=len(basis))
