"""Shift-equivalence witnesses, bounded search, and the induced isomorphisms.

A witness for matrices A (n x n) and B (m x m) is a pair of non-negative
integer matrices R (n x m), S (m x n) and a lag k >= 1 with

    RS = A^k,   SR = B^k,   AR = RB,   SA = BS.

Verification is exact.  The search is a verifier-first tool: it enumerates
small solutions of AR = RB, solves the remaining equations for S linearly,
and reports exhausted bounds when nothing is found; absence of a witness is
never presented as inequivalence.  Three exact invariants of shift
equivalence are compared first, and each mismatch is reported as an
obstruction that proves inequivalence: the reduced minimal polynomials, the
characteristic polynomials away from zero, and the Bowen-Franks groups
Z^K/(I - A)Z^K (Bowen & Franks, Ann. Math. 1977; Lind & Marcus, An
Introduction to Symbolic Dynamics and Coding, section 7.4).  The search runs
only when all three agree.

A verified witness induces isomorphisms of all the limit structures:

    phi_S [v, n] = [vR, n]            inverse  [w, n] -> [wS, n + k]
    phi_U [w, n] = [Sw, n]            inverse  [u, n] -> [Ru, n + k]
    phi_H [X, M] = [S X R, M + k/2]           (k even)
    phi_H [X, M] = [S X R B, M + (k+1)/2]     (k odd)

The degree-zero formulas follow from the intertwining relations
A^j R = R B^j and S A^j = B^j S; both parities make phi_H unital and
multiplicative on the nose, which the test-suite checks property-wise.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .exactlinalg import (
    IntMatrix,
    characteristic_polynomial,
    describe_group,
    frozen,
    hermite_combine,
    integer_kernel,
    invariant_factors,
    kron,
    matrix_power,
    minimal_polynomial,
    poly_trim,
    solve_integer_linear,
)
from .sft import AdjacencyMatrix
from .dimension_groups import StableElement, UnstableElement
from .cylinder_ring import CylinderK0Element


class InvalidWitnessError(ValueError):
    """The witness fails verification, so no induced maps exist."""


class SearchSpaceTooLargeError(ValueError):
    """The requested search exceeds the configured caps."""


@frozen
class ShiftEquivalenceWitness:
    r: IntMatrix
    s: IntMatrix
    k: int


@frozen
class EquationCheck:
    name: str
    ok: bool
    residual: Optional[IntMatrix] = None


@frozen
class VerificationReport:
    ok: bool
    checks: tuple


def verify(
    a: AdjacencyMatrix, b: AdjacencyMatrix, w: ShiftEquivalenceWitness
) -> VerificationReport:
    """Check non-negativity and the four defining equations, reported per item."""
    n, m = a.size, b.size
    if w.r.rows != n or w.r.cols != m or w.s.rows != m or w.s.cols != n:
        raise InvalidWitnessError(
            f"witness shapes {w.r.rows}x{w.r.cols}, {w.s.rows}x{w.s.cols} do not "
            f"fit matrices of sizes {n} and {m}"
        )
    if w.k < 1:
        raise InvalidWitnessError("lag must be a positive integer")
    checks = []
    checks.append(EquationCheck("R_nonnegative", all(x >= 0 for x in w.r.entries)))
    checks.append(EquationCheck("S_nonnegative", all(x >= 0 for x in w.s.entries)))
    pairs = [
        ("RS_equals_A_power_k", w.r @ w.s, matrix_power(a.matrix, w.k)),
        ("SR_equals_B_power_k", w.s @ w.r, matrix_power(b.matrix, w.k)),
        ("AR_equals_RB", a.matrix @ w.r, w.r @ b.matrix),
        ("SA_equals_BS", w.s @ a.matrix, b.matrix @ w.s),
    ]
    for name, lhs, rhs in pairs:
        res = lhs - rhs
        checks.append(EquationCheck(name, res.is_zero, residual=res))
    return VerificationReport(ok=all(c.ok for c in checks), checks=tuple(checks))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _strip_x(coeffs: tuple) -> tuple:
    c = list(poly_trim(coeffs))
    while c and c[0] == 0:
        c.pop(0)
    return tuple(c)


def spectral_obstructions(a: AdjacencyMatrix, b: AdjacencyMatrix) -> tuple:
    """Exact invariants that must agree for shift-equivalent matrices."""
    notes = []
    pa = minimal_polynomial(a.matrix).p_coeffs
    pb = minimal_polynomial(b.matrix).p_coeffs
    if pa != pb:
        notes.append(f"reduced minimal polynomials differ: {list(pa)} vs {list(pb)}")
    ca = _strip_x(characteristic_polynomial(a.matrix))
    cb = _strip_x(characteristic_polynomial(b.matrix))
    if ca != cb:
        notes.append(
            "characteristic polynomials away from zero differ: "
            f"{list(ca)} vs {list(cb)}"
        )
    ga, gb = _bowen_franks(a), _bowen_franks(b)
    if ga != gb:
        notes.append(f"Bowen-Franks groups differ: {ga} vs {gb}")
    return tuple(notes)


def _bowen_franks(a: AdjacencyMatrix) -> str:
    """Z^K/(I - A)Z^K as a sum of cyclic groups, free part first.

    Unit invariant factors are dropped: matrices of different sizes can be
    shift equivalent, and their I - A then differ in the number of 1s.
    """
    factors = invariant_factors(IntMatrix.identity(a.size) - a.matrix)
    return describe_group(a.size - len(factors), factors)


@frozen
class SearchReport:
    witness: Optional[ShiftEquivalenceWitness]
    obstructions: tuple
    k_max: int
    entry_bound: int
    candidates_tried: int


def _combos_by_radius(length: int, bound: int):
    # a combo whose largest entry is r comes up only at radius r
    for radius in range(bound + 1):
        for combo in itertools.product(range(-radius, radius + 1), repeat=length):
            if max((abs(c) for c in combo), default=0) == radius:
                yield combo


_DIM_CAP = 64
_COMBO_CAP = 200_000


def search(
    a: AdjacencyMatrix, b: AdjacencyMatrix, k_max: int = 4, entry_bound: int = 3
) -> SearchReport:
    """Bounded search for a witness; exhaustion is reported, never concluded from."""
    n, m = a.size, b.size
    if n * m > _DIM_CAP:
        raise SearchSpaceTooLargeError(
            f"product of sizes {n * m} exceeds the cap {_DIM_CAP}"
        )
    obstructions = spectral_obstructions(a, b)
    tried = 0
    if not obstructions:
        sylvester = kron(a.matrix, IntMatrix.identity(m)) - kron(
            IntMatrix.identity(n), b.matrix.transpose()
        )
        kernel = integer_kernel(sylvester)
        g = len(kernel)
        if g and (2 * entry_bound + 1) ** g > _COMBO_CAP:
            raise SearchSpaceTooLargeError(
                f"{(2 * entry_bound + 1) ** g} coefficient combinations exceed the "
                f"cap {_COMBO_CAP}; lower entry_bound"
            )
        # an empty kernel has only R = 0, which is no witness
        for combo in _combos_by_radius(g, entry_bound) if g else ():
            r = IntMatrix.from_vec(hermite_combine(kernel, combo), n, m)
            if r.is_zero or any(x < 0 or x > entry_bound for x in r.entries):
                continue
            tried += 1
            witness = _solve_for_s(a, b, r, k_max, entry_bound)
            if witness is not None:
                return SearchReport(witness, obstructions, k_max, entry_bound, tried)
    return SearchReport(None, obstructions, k_max, entry_bound, tried)


def _solve_for_s(
    a: AdjacencyMatrix, b: AdjacencyMatrix, r: IntMatrix, k_max: int, entry_bound: int
) -> Optional[ShiftEquivalenceWitness]:
    n, m = a.size, b.size
    # Equations linear in S: RS = A^k, SR = B^k, SA - BS = 0.
    top = kron(r, IntMatrix.identity(n))
    mid = kron(IntMatrix.identity(m), r.transpose())
    bot = kron(IntMatrix.identity(m), a.matrix.transpose()) - kron(b.matrix, IntMatrix.identity(n))
    system = IntMatrix.from_rows([row for block in (top, mid, bot) for row in block.to_rows()])
    homogeneous = integer_kernel(system)
    for k in range(1, k_max + 1):
        rhs = (
            list(matrix_power(a.matrix, k).vec())
            + list(matrix_power(b.matrix, k).vec())
            + [0] * (m * n)
        )
        particular = solve_integer_linear(system, rhs)
        if particular is None:
            continue
        for combo in _combos_by_radius(len(homogeneous), min(entry_bound, 2)):
            vec = hermite_combine((*homogeneous, particular), (*combo, 1))
            if all(x >= 0 for x in vec):
                s = IntMatrix.from_vec(vec, m, n)
                w = ShiftEquivalenceWitness(r=r, s=s, k=k)
                if verify(a, b, w).ok:
                    return w
    return None


# ---------------------------------------------------------------------------
# induced isomorphisms
# ---------------------------------------------------------------------------


class InducedIsomorphism:
    """The maps induced on all limit structures by a verified witness."""

    def __init__(
        self, a: AdjacencyMatrix, b: AdjacencyMatrix, witness: ShiftEquivalenceWitness
    ):
        report = verify(a, b, witness)
        if not report.ok:
            failing = [c.name for c in report.checks if not c.ok]
            raise InvalidWitnessError(f"witness fails: {', '.join(failing)}")
        self.a = a
        self.b = b
        self.witness = witness

    def phi_s(self, v: StableElement) -> StableElement:
        if v.ambient != self.a:
            raise InvalidWitnessError("stable element does not live over the source")
        return StableElement(self.b, self.witness.r.row_apply(v.vector), v.level)

    def phi_s_inv(self, w: StableElement) -> StableElement:
        if w.ambient != self.b:
            raise InvalidWitnessError("stable element does not live over the target")
        return StableElement(
            self.a, self.witness.s.row_apply(w.vector), w.level + self.witness.k
        )

    def phi_u(self, w: UnstableElement) -> UnstableElement:
        if w.ambient != self.a:
            raise InvalidWitnessError("unstable element does not live over the source")
        return UnstableElement(self.b, self.witness.s.col_apply(w.vector), w.level)

    def phi_u_inv(self, u: UnstableElement) -> UnstableElement:
        if u.ambient != self.b:
            raise InvalidWitnessError("unstable element does not live over the target")
        return UnstableElement(
            self.a, self.witness.r.col_apply(u.vector), u.level + self.witness.k
        )

    def phi_h(self, x: CylinderK0Element) -> CylinderK0Element:
        if x.ambient != self.a:
            raise InvalidWitnessError("class does not live over the source")
        k = self.witness.k
        core = self.witness.s @ x.matrix @ self.witness.r
        if k % 2 == 0:
            return CylinderK0Element(self.b, core, x.level + k // 2)
        return CylinderK0Element(
            self.b, core @ self.b.matrix, x.level + (k + 1) // 2
        )

    def inverse(self) -> "InducedIsomorphism":
        """Swapping (R, S) witnesses equivalence in the other direction."""
        return InducedIsomorphism(
            self.b,
            self.a,
            ShiftEquivalenceWitness(r=self.witness.s, s=self.witness.r, k=self.witness.k),
        )

    def phi_h_inv(self, y: CylinderK0Element) -> CylinderK0Element:
        return self.inverse().phi_h(y)
