"""Perron-Frobenius data and the trace maps on the limit groups.

Floating point enters the package here, in one final rounding and in the
traces.  The dominant eigenvalue lambda is read from its located root
(:class:`~sftdim.exactlinalg.LocatedRoot`, the record that
:func:`~sftdim.exactlinalg.perron_root` keeps per matrix) and rounded once.
For primitive A, adj(lambda I - A) is positive of rank one, so its row 0 and
column 0 (:func:`~sftdim.exactlinalg.adjugate_edges`) are the left and right
eigenvectors, evaluated exactly at the upper end of the located root by its
Horner rule and rounded once per entry.  The traces are not correctly
rounded: each pairs an integer payload with the rounded eigenvectors in
floating point and carries no error bound, so a class whose pairing cancels
can lose every digit, its sign included ("Exact, correctly rounded traces"
in ROADMAP.md).

Normalisation convention: the left eigenvector is scaled to sum to 1 and the
right eigenvector is then scaled so that (left . right) = 1.  Only the second
condition is forced by the trace formulas; fixing the first as well makes the
reported vectors (and therefore golden tests) deterministic.
"""

from __future__ import annotations

from .exactlinalg import LocatedRoot, adjugate_edges, frozen, memo, perron_root
from .sft import AdjacencyMatrix, NotPrimitiveError, is_primitive


@frozen
class PerronData:
    """Dominant eigenvalue with left/right eigenvectors and their residuals.

    ``residual`` is the largest entry of A^T left - lambda left and of
    A right - lambda right; ``relative_residual`` measures each in units of
    lambda times its vector's largest entry, so it does not grow with the
    scale of A.  ``iterations`` counts the Newton steps that located the
    eigenvalue.
    """

    eigenvalue: float
    left: tuple
    right: tuple
    residual: float
    relative_residual: float
    iterations: int


def _eigenvector(edge: tuple, root: LocatedRoot) -> list:
    """An edge of adj(tI - A) at the upper end of ``root``, each entry rounded
    once in its ratio to the largest, so the common power of two cancels."""
    exact = [root.value(column[::-1]) for column in zip(*edge)]
    top = max(exact)
    return [x / top for x in exact]


@memo
def perron(a: AdjacencyMatrix) -> PerronData:
    """Dominant eigen-data of a primitive matrix."""
    if not is_primitive(a):
        raise NotPrimitiveError("Perron data needs a primitive matrix")
    root = perron_root(a.matrix)
    lam = root.r / (1 << root.bits)
    left, right = (_eigenvector(edge, root) for edge in adjugate_edges(a.matrix))
    total = sum(left)
    left = [x / total for x in left]
    dot = _dot(left, right)
    right = [x / dot for x in right]
    res_l = max(abs(y - lam * x) for y, x in zip(a.matrix.row_apply(left), left))
    res_r = max(abs(y - lam * x) for y, x in zip(a.matrix.col_apply(right), right))
    return PerronData(
        eigenvalue=lam,
        left=tuple(left),
        right=tuple(right),
        residual=max(res_l, res_r),
        relative_residual=max(res_l / max(left), res_r / max(right)) / lam,
        iterations=root.steps,
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
    xw = element.matrix.col_apply(data.right)
    return _dot(data.left, xw) * data.eigenvalue ** (-2 * element.level)
