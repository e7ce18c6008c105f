"""Module homomorphisms from the stable group into the polynomial subring.

Every such homomorphism is classified by a pair (z, N): an integer column
vector and a level.  Evaluation expands through the Horner tails of the
reduced minimal polynomial p(x) = x^k + a_{k-1} x^{k-1} + ... + a_0:

    phi[v, n] = [ sum_j (v A^n H_j(A) z) A^(k-1-j), N + n ],
    H_0 = 1,  H_{j+1}(x) = x H_j(x) + a_{k-1-j}.

Evaluation runs the recurrence on the vectors H_j(A) z, one application of
A a step, so it forms no matrix: exactlinalg.horner_tails, which reads the
edges of adj(tI - A) off chi_A the same way.

The pairs form the inductive system z -> A^2 z, which is the unstable system
with levels counted twice; that identification realises the duality between
the stable and unstable groups and fixes the conversion maps below.  The odd
level parity on the unstable side is lifted by one extra application of A,
the deterministic choice that makes both round trips the identity.
"""

from __future__ import annotations

from operator import mul

from .exactlinalg import frozen, horner_tails, matrix_power, minimal_polynomial, poly_apply
from .sft import AdjacencyMatrix
from .dimension_groups import (
    StableElement,
    UnstableElement,
    VectorPayload,
    _same_ambient,
    add,
    equal,
)
from .cylinder_ring import RAElement


@frozen
class StableHom(VectorPayload):
    """The homomorphism classified by (z, N), pushed by z -> A^2 z."""

    _field = "z"

    ambient: AdjacencyMatrix
    z: tuple
    level: int

    def _lift(self, j: int) -> tuple:
        return matrix_power(self.ambient.matrix, 2 * j).col_apply(self.z)


def hom_eval(phi: StableHom, a: StableElement) -> RAElement:
    """Apply the classified homomorphism to a stable class.

    The coefficient formula is independent of the chosen representative of
    the argument only when p(A) z = 0.  That is automatic for l = 0 but not
    in general, so (z, N) is first pushed along the defining relation to
    (A^(2m) z, N + m) with 2m >= l, an equal homomorphism whose data always
    satisfies the constraint (p(A) A^(2m) is annihilated by the minimal
    polynomial once 2m >= l).
    """
    _same_ambient(phi, a)
    amb = phi.ambient
    mp = minimal_polynomial(amb.matrix)
    m0 = (mp.l + 1) // 2
    z = phi._push(m0)
    w = a._push(a.level)
    tails = horner_tails(mp.p_coeffs, amb.matrix.col_apply, z)
    coeffs = tuple(sum(map(mul, w, tz)) for tz in reversed(tails))
    return RAElement(amb, coeffs, phi.level + m0 + a.level)


# equality is tested once at the kernel-stabilising depth, as in every tower
hom_equal = equal
hom_add = add


def hom_scale(r: RAElement, phi: StableHom) -> StableHom:
    """The module action of the polynomial subring: (r . phi)(a) = r * phi(a)."""
    _same_ambient(r, phi)
    z = poly_apply(r.coeffs, phi.ambient.matrix, phi.z)
    return StableHom(phi.ambient, z, phi.level + r.level)


def hom_to_unstable(phi: StableHom) -> UnstableElement:
    """(z, N) in the squared system corresponds to [z, 2N] unstably."""
    return UnstableElement(phi.ambient, phi.z, 2 * phi.level)


def unstable_to_hom(b: UnstableElement) -> StableHom:
    """Inverse correspondence; odd levels lift through one application of A."""
    if b.level % 2 == 0:
        return StableHom(b.ambient, b.vector, b.level // 2)
    lifted = b.ambient.matrix.col_apply(b.vector)
    return StableHom(b.ambient, lifted, (b.level + 1) // 2)
