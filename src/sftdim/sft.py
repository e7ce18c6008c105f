"""Adjacency matrices of shifts of finite type and their graph structure.

An adjacency matrix is accepted when it is square, non-negative, and has no
zero row or column (every vertex of the underlying graph must have both an
incoming and an outgoing edge).  Reducible matrices pass validation but are
rejected with a distinct error by every invariant that assumes irreducibility,
because a silent wrong answer is worse than a refusal.

The graph structure comes from one breadth-first search from vertex 0: run
forward and along the reversed edges it decides irreducibility, and its
depths give the period and the cyclic classes.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .exactlinalg import IntMatrix, frozen, memo


class NonSquareError(ValueError):
    """Input matrix is not square."""


class NegativeEntryError(ValueError):
    """Input matrix has a negative entry; ``position`` names it."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"negative entry at {position}")


class ZeroRowOrColumnError(ValueError):
    """Zero row or column (a source or sink vertex); names the offender."""

    def __init__(self, kind: str, index: int):
        self.kind = kind
        self.index = index
        super().__init__(f"zero {kind} {index}")


class ReducibleError(ValueError):
    """The operation needs an irreducible (strongly connected) matrix."""


class NotPrimitiveError(ValueError):
    """The operation needs a primitive matrix."""


@frozen
class AdjacencyMatrix:
    """A validated adjacency matrix; construct through :func:`validate`."""

    matrix: IntMatrix

    @property
    def size(self) -> int:
        return self.matrix.rows


def validate(raw: Union[IntMatrix, Sequence[Sequence[int]]]) -> AdjacencyMatrix:
    """Check squareness, non-negativity and absence of sources/sinks."""
    m = raw if isinstance(raw, IntMatrix) else IntMatrix.from_rows(raw)
    if not m.is_square or m.rows == 0:
        raise NonSquareError(f"need a non-empty square matrix, got {m.rows}x{m.cols}")
    for i in range(m.rows):
        for j in range(m.cols):
            if m.entry(i, j) < 0:
                raise NegativeEntryError((i, j))
    for i in range(m.rows):
        if all(x == 0 for x in m.row(i)):
            raise ZeroRowOrColumnError("row", i)
    for j in range(m.cols):
        if all(x == 0 for x in m.column(j)):
            raise ZeroRowOrColumnError("column", j)
    return AdjacencyMatrix(m)


def _bfs_levels(a: AdjacencyMatrix, reverse: bool = False) -> list:
    """Breadth-first depth of each vertex from vertex 0, None where unreached;
    along the edges reversed (the graph of A^T) when ``reverse``."""
    edges = a.matrix.column if reverse else a.matrix.row
    levels = [None] * a.size
    levels[0] = 0
    queue = [0]
    for v in queue:  # the queue grows while it is read
        for j, x in enumerate(edges(v)):
            if x > 0 and levels[j] is None:
                levels[j] = levels[v] + 1
                queue.append(j)
    return levels


@memo
def is_irreducible(a: AdjacencyMatrix) -> bool:
    """Strong connectivity: vertex 0 reaches every vertex and every vertex reaches it."""
    return None not in _bfs_levels(a) and None not in _bfs_levels(a, reverse=True)


@memo
def period(a: AdjacencyMatrix) -> int:
    """gcd of cycle lengths through vertex 0; requires irreducibility."""
    if not is_irreducible(a):
        raise ReducibleError("period is only defined for irreducible matrices")
    levels = _bfs_levels(a)
    g = 0
    m = a.matrix
    for u in range(a.size):
        for v in range(a.size):
            if m.entry(u, v) > 0:
                g = math.gcd(g, levels[u] + 1 - levels[v])
    return g


@memo
def is_primitive(a: AdjacencyMatrix) -> bool:
    """True iff some power is entrywise positive.

    That holds iff the graph is strongly connected with period 1, which the
    breadth-first search decides; squaring boolean powers up to Wielandt's
    bound (K - 1)^2 + 1 would cost O(K^5).
    """
    return is_irreducible(a) and period(a) == 1


@frozen
class SpectralDecomposition:
    """Cyclic-class structure of an irreducible matrix.

    ``classes`` partitions the vertices; in the order given by
    ``vertex_order`` the matrix is block-cyclic, and ``component`` is the
    product of the consecutive blocks (a primitive matrix describing the
    return map to the class of vertex 0).
    """

    period: int
    classes: tuple
    component: AdjacencyMatrix
    vertex_order: tuple


def spectral_decomposition(a: AdjacencyMatrix) -> SpectralDecomposition:
    """Split an irreducible matrix into its cyclic tower over a mixing base.

    Classes are BFS depth mod period from vertex 0, reported with the class
    of vertex 0 first so the output is deterministic.  Not memoised: it is
    read once per call site, and at period 1 it holds ``a`` itself.
    """
    n = period(a)
    if n == 1:
        order = tuple(range(a.size))
        return SpectralDecomposition(1, (order,), a, order)
    levels = _bfs_levels(a)
    classes = tuple(
        tuple(sorted(v for v in range(a.size) if levels[v] % n == i)) for i in range(n)
    )
    blocks = [
        a.matrix.submatrix(classes[i], classes[(i + 1) % n]) for i in range(n)
    ]
    product = blocks[0]
    for b in blocks[1:]:
        product = product @ b
    component = validate(product)
    order = tuple(v for cls in classes for v in cls)
    return SpectralDecomposition(n, classes, component, order)
