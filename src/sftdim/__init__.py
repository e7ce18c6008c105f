"""Exact K-theoretic invariants of shifts of finite type.

Given a non-degenerate adjacency matrix, this package computes the three
inductive-limit dimension groups with decidable equality, the graded ring on
the mapping-cylinder K-groups together with its module actions, the trace
maps coming from the dominant eigen-data, the polynomial subring and the
stable/unstable duality, and shift-equivalence certificates with the
isomorphisms they induce.  All group-level arithmetic and every verdict,
positivity included, is exact (unbounded integers).  The Perron eigenvalue and
eigenvectors are computed exactly and rounded once; floating point enters only
in that final rounding and in the traces built on them.
"""

__version__ = "0.1.0"

from .exactlinalg import (
    DimensionMismatchError,
    IntMatrix,
    MinPolyData,
    characteristic_polynomial,
    integer_kernel,
    matrix_power,
    minimal_polynomial,
    solve_integer_linear,
)
from .sft import (
    AdjacencyMatrix,
    NegativeEntryError,
    NonSquareError,
    NotPrimitiveError,
    ReducibleError,
    SpectralDecomposition,
    ZeroRowOrColumnError,
    is_irreducible,
    is_primitive,
    period,
    spectral_decomposition,
    validate,
)
from .traces import PerronData, perron, trace_ch, trace_s, trace_u
from .dimension_groups import (
    AmbientMismatchError,
    HomoclinicElement,
    Positivity,
    PositivityResult,
    StableElement,
    UnstableElement,
    add_h,
    add_s,
    add_u,
    alpha_h,
    alpha_h_inv,
    alpha_s,
    alpha_s_inv,
    alpha_u,
    alpha_u_inv,
    equal_h,
    equal_s,
    equal_u,
    is_positive_s,
    neg_h,
    neg_s,
    neg_u,
    normalize_h,
    normalize_s,
    normalize_u,
)
from .cylinder_ring import (
    CentralizerLattice,
    CommutatorLattice,
    CylinderK0Element,
    CylinderK1Element,
    K1Decision,
    K1Structure,
    NotCentralizedError,
    RAElement,
    Verdict,
    act_s,
    act_u,
    alpha_k0,
    center_basis,
    centralizer_basis,
    centralizer_rank,
    commutator_lattice,
    k0_add,
    k0_equal,
    k0_identity,
    k0_neg,
    k0_zero,
    k1_add,
    k1_equal,
    k1_group_structure,
    k1_neg,
    mul,
    mul_00,
    mul_01,
    mul_10,
    mul_11,
    ra_add,
    ra_equal,
    ra_generator,
    ra_membership,
    ra_mul,
    ra_one,
    ra_reduce,
    ra_to_cylinder,
)
from .duality import (
    StableHom,
    hom_add,
    hom_equal,
    hom_eval,
    hom_scale,
    hom_to_unstable,
    unstable_to_hom,
)
from .shift_equivalence import (
    InducedIsomorphism,
    InvalidWitnessError,
    SearchReport,
    SearchSpaceTooLargeError,
    ShiftEquivalenceWitness,
    VerificationReport,
    search,
    spectral_obstructions,
    verify,
)
