"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is pinned here, not configured elsewhere.
"""

import math
import random
import time

from sftdim import (
    CylinderK0Element,
    CylinderK1Element,
    HomoclinicElement,
    InducedIsomorphism,
    IntMatrix,
    ShiftEquivalenceWitness,
    StableElement,
    StableHom,
    UnstableElement,
    act_s,
    act_u,
    alpha_s,
    alpha_s_inv,
    alpha_u,
    center_basis,
    centralizer_basis,
    equal_h,
    equal_s,
    equal_u,
    hom_equal,
    hom_eval,
    hom_to_unstable,
    is_primitive,
    k0_add,
    k0_equal,
    k0_identity,
    k0_zero,
    k1_group_structure,
    matrix_power,
    mul_00,
    mul_11,
    perron,
    ra_equal,
    ra_generator,
    ra_membership,
    ra_mul,
    search,
    spectral_decomposition,
    trace_ch,
    trace_s,
    trace_u,
    unstable_to_hom,
    validate,
    verify,
)
from sftdim.cylinder_ring import alpha_k0
from sftdim.exactlinalg import solve_integer_linear

from conftest import (
    lattice_coordinates,
    random_centralizer_element,
    random_primitive_adjacency,
    random_valid_adjacency,
)


def _report(number: int, text: str) -> None:
    print(f"acceptance criterion {number:02d}: PASS - {text}")


def test_criterion_01_full_two_shift_is_dyadic():
    start = time.monotonic()
    two = validate([[2]])
    # all three groups realise the dyadic rationals: 1/2 = 2/4
    assert equal_s(StableElement(two, (1,), 1), StableElement(two, (2,), 2))
    assert equal_u(UnstableElement(two, (1,), 1), UnstableElement(two, (2,), 2))
    assert equal_h(
        HomoclinicElement(two, IntMatrix.from_rows([[1]]), 1),
        HomoclinicElement(two, IntMatrix.from_rows([[4]]), 2),
    )
    # the stable automorphism multiplies by 2
    for c in range(-4, 5):
        s = StableElement(two, (c,), 2)
        assert equal_s(alpha_s(s), StableElement(two, (2 * c,), 2))
    # the unstable automorphism divides by 2: alpha_u[2c, N] = [c, N]
    for c in range(-4, 5):
        u = UnstableElement(two, (2 * c,), 1)
        assert equal_u(alpha_u(u), UnstableElement(two, (c,), 1))
    # the cylinder automorphism is the identity on classes
    rng = random.Random(1)
    for _ in range(20):
        x = CylinderK0Element(two, IntMatrix.from_rows([[rng.randint(-9, 9)]]), rng.randint(0, 3))
        assert k0_equal(alpha_k0(x), x)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"full 2-shift realises Z[1/2], automorphisms x2, x1/2, id ({elapsed:.3f}s)")


def test_criterion_02_symmetric_example_centralizer_and_traces():
    start = time.monotonic()
    sym3 = validate([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    x1 = IntMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
    x2 = IntMatrix.from_rows([[0, 1, -1], [0, -1, 1], [0, 0, 0]])
    x3 = IntMatrix.from_rows([[0, 0, 0], [1, -1, 0], [-1, 1, 0]])
    x4 = IntMatrix.from_rows([[0, 0, 0], [0, 1, -1], [0, -1, 1]])
    x5 = IntMatrix.identity(3)
    listed = [x1, x2, x3, x4, x5]
    cent = centralizer_basis(sym3)
    assert cent.rank == 5
    # lattice equality by mutual membership
    for x in listed:
        assert lattice_coordinates(cent, x) is not None
    span = IntMatrix.from_columns([x.vec() for x in listed], 9)
    for b in cent.basis:
        assert solve_integer_linear(span, b.vec()) is not None
    for x in (x1, x2, x3, x4):
        assert abs(trace_ch(CylinderK0Element(sym3, x, 0))) < 1e-9
    h1 = CylinderK0Element(sym3, x1, 0)
    h3 = CylinderK0Element(sym3, x3, 0)
    assert not k0_equal(mul_00(h1, h3), mul_00(h3, h1))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"rank-5 centralizer matches the listed lattice, kernel traces 0, "
               f"non-commuting pair found ({elapsed:.3f}s)")


def test_criterion_03_subring_non_members():
    abelian = validate([[1, 2], [2, 1]])
    half_diff = CylinderK0Element(abelian, IntMatrix.from_rows([[0, 1], [1, 0]]), 0)
    assert ra_membership(half_diff) is None
    center = center_basis(abelian)
    cent = centralizer_basis(abelian)
    assert center.rank == cent.rank == 2
    assert tuple(b.vec() for b in center.basis) == tuple(b.vec() for b in cent.basis)

    sparse = validate([[0, 1, 5], [1, 0, 1], [1, 1, 0]])
    a2 = matrix_power(sparse.matrix, 2)
    payload = IntMatrix.from_vec(
        tuple((x + y) // 2 for x, y in zip(a2.entries, sparse.matrix.entries)), 3, 3
    )
    assert all((x + y) % 2 == 0 for x, y in zip(a2.entries, sparse.matrix.entries))
    elem = CylinderK0Element(sparse, payload, 0)  # construction checks commuting
    assert ra_membership(elem) is None
    _report(3, "(A-I)/2 and (A^2+A)/2 commute but lie outside the polynomial subring; "
               "abelian centralizer equals its center")


def test_criterion_04_identity_and_inverse_laws(primitive_pool):
    rng = random.Random(4)
    for _ in range(100):
        a = rng.choice(primitive_pool)
        x = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
        assert k0_equal(mul_00(k0_identity(a), x), x)
    for a in primitive_pool:
        gen = CylinderK0Element(a, a.matrix, 0)
        inv = CylinderK0Element(a, a.matrix, 1)
        assert k0_equal(mul_00(gen, inv), k0_identity(a))
    for _ in range(50):
        a = rng.choice(primitive_pool)
        k = a.size
        y1 = CylinderK1Element(
            a, IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]),
            rng.randint(0, 2),
        )
        y2 = CylinderK1Element(
            a, IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]),
            rng.randint(0, 2),
        )
        assert k0_equal(mul_11(y1, y2), k0_zero(a))
    _report(4, "unit law on 100 random classes, [A,0]*[A,1] = [I,0], "
               "degree-one products vanish")


def test_criterion_05_equality_against_brute_force():
    start = time.monotonic()
    rng = random.Random(5)
    ambients = [random_valid_adjacency(rng, rng.randint(1, 4)) for _ in range(10)]

    def oracle_s(v, n, w, m, a):
        for k in range(21):
            if matrix_power(a.matrix, k + m - n).row_apply(v) == matrix_power(
                a.matrix, k
            ).row_apply(w):
                return True
        return False

    def oracle_h(x, n, y, m, a):
        for k in range(21):
            hi = matrix_power(a.matrix, k + m - n)
            lo = matrix_power(a.matrix, k)
            if hi @ x @ hi == lo @ y @ lo:
                return True
        return False

    def oracle_hom(z, n, w, m, a):
        for k in range(21):
            if matrix_power(a.matrix, 2 * (k + m - n)).col_apply(z) == matrix_power(
                a.matrix, 2 * k
            ).col_apply(w):
                return True
        return False

    for _ in range(500):
        a = rng.choice(ambients)
        k = a.size
        v = tuple(rng.randint(-5, 5) for _ in range(k))
        w = tuple(rng.randint(-5, 5) for _ in range(k))
        n, m = sorted((rng.randint(0, 3), rng.randint(0, 3)))
        assert equal_s(StableElement(a, v, n), StableElement(a, w, m)) == oracle_s(
            v, n, w, m, a
        )
        x = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)])
        y = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)])
        assert equal_h(
            HomoclinicElement(a, x, n), HomoclinicElement(a, y, m)
        ) == oracle_h(x, n, y, m, a)
        assert hom_equal(StableHom(a, v, n), StableHom(a, w, m)) == oracle_hom(
            v, n, w, m, a
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, f"500 random instances agree with exhaustive merge search ({elapsed:.2f}s)")


def test_criterion_06_ring_and_module_axioms(primitive_pool):
    rng = random.Random(6)
    for _ in range(200):
        a = rng.choice(primitive_pool)
        x, y, z = (
            CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
            for _ in range(3)
        )
        assert k0_equal(mul_00(mul_00(x, y), z), mul_00(x, mul_00(y, z)))
        assert k0_equal(mul_00(x, k0_add(y, z)), k0_add(mul_00(x, y), mul_00(x, z)))
    for _ in range(200):
        a = rng.choice(primitive_pool)
        k = a.size
        v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
        h1 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
        h2 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
        assert equal_s(act_s(v, k0_identity(a)), v)
        assert equal_s(act_s(v, mul_00(h1, h2)), act_s(act_s(v, h1), h2))
        w = UnstableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
        assert equal_u(act_u(mul_00(h1, h2), w), act_u(h1, act_u(h2, w)))
    for _ in range(200):
        a = rng.choice(primitive_pool)
        k = a.size
        v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
        gen = CylinderK0Element(a, a.matrix, 0)
        inv = CylinderK0Element(a, a.matrix, 1)
        assert equal_s(act_s(v, gen), alpha_s(v))
        assert equal_s(act_s(v, inv), alpha_s_inv(v))
    _report(6, "associativity, distributivity, module laws and the "
               "automorphism-as-action identity hold on 200 random trials each")


def test_criterion_07_trace_homomorphism(primitive_pool):
    rng = random.Random(7)
    for _ in range(200):
        a = rng.choice(primitive_pool)
        x = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
        y = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
        assert abs(trace_ch(mul_00(x, y)) - trace_ch(x) * trace_ch(y)) < 1e-9
        k = a.size
        v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
        assert abs(trace_s(act_s(v, x)) - trace_s(v) * trace_ch(x)) < 1e-9
        w = UnstableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
        assert abs(trace_u(act_u(x, w)) - trace_ch(x) * trace_u(w)) < 1e-9
        # the trace value matches the closed formula verbatim
        data = perron(a)
        xr = [
            sum(x.matrix.entry(i, j) * data.right[j] for j in range(k)) for i in range(k)
        ]
        direct = sum(l * t for l, t in zip(data.left, xr)) / data.eigenvalue ** (
            2 * x.level
        )
        assert abs(trace_ch(x) - direct) < 1e-12
    _report(7, "trace is a ring homomorphism and module-compatible within 1e-9 "
               "over 200 random trials")


def test_criterion_08_duality_round_trips():
    rng = random.Random(8)
    pool = [random_primitive_adjacency(rng, rng.randint(1, 4)) for _ in range(6)]
    for _ in range(100):
        a = rng.choice(pool)
        k = a.size
        w = UnstableElement(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 4))
        assert equal_u(hom_to_unstable(unstable_to_hom(w)), w)
        phi = StableHom(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 3))
        assert hom_equal(unstable_to_hom(hom_to_unstable(phi)), phi)
        # linearity over the subring: phi(a * [A,0]) = phi(a) * [A,0] and the inverse
        v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
        for level in (0, 1):
            h = CylinderK0Element(a, a.matrix, level)
            lhs = hom_eval(phi, act_s(v, h))
            rhs = ra_mul(hom_eval(phi, v), ra_generator(a, level))
            assert ra_equal(lhs, rhs)
    _report(8, "hom/unstable conversions round-trip and evaluation is linear over "
               "the subring on 100 random elements")


def test_criterion_09_shift_equivalence(primitive_pool):
    rng = random.Random(9)
    fib = validate([[1, 1], [1, 0]])
    swapped = validate([[0, 1], [1, 1]])
    witnesses = []
    for a in primitive_pool[:4]:
        w = ShiftEquivalenceWitness(r=IntMatrix.identity(a.size), s=a.matrix, k=1)
        assert verify(a, a, w).ok
        witnesses.append((a, a, w))
    found = search(fib, swapped).witness
    assert found is not None and verify(fib, swapped, found).ok
    witnesses.append((fib, swapped, found))
    for a, b, w in witnesses:
        iso = InducedIsomorphism(a, b, w)
        k = a.size
        assert k0_equal(iso.phi_h(k0_identity(a)), k0_identity(b))
        for _ in range(100):
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            assert equal_s(iso.phi_s(alpha_s(v)), alpha_s(iso.phi_s(v)))
            h1 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
            h2 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
            assert k0_equal(iso.phi_h(mul_00(h1, h2)), mul_00(iso.phi_h(h1), iso.phi_h(h2)))
            assert equal_s(iso.phi_s(act_s(v, h1)), act_s(iso.phi_s(v), iso.phi_h(h1)))
            wv = UnstableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            assert equal_u(iso.phi_u(act_u(h1, wv)), act_u(iso.phi_h(h1), iso.phi_u(wv)))
    report = search(validate([[2]]), validate([[3]]))
    assert report.witness is None
    assert any("polynomial" in o or "eigenvalue" in o for o in report.obstructions)
    _report(9, "trivial and searched witnesses verify; induced maps intertwine, "
               "multiply, and respect the actions; mismatched shifts report "
               "their spectral obstruction")


def test_criterion_10_golden_mean_invariants():
    fib = validate([[1, 1], [1, 0]])
    lam = perron(fib).eigenvalue
    assert abs(lam - (1 + math.sqrt(5)) / 2) < 1e-9
    cent = centralizer_basis(fib)
    assert cent.rank == 2
    span = IntMatrix.from_columns([IntMatrix.identity(2).vec(), fib.matrix.vec()], 4)
    for b in cent.basis:
        assert solve_integer_linear(span, b.vec()) is not None
    assert lattice_coordinates(cent, IntMatrix.identity(2)) is not None
    assert lattice_coordinates(cent, fib.matrix) is not None
    k1 = k1_group_structure(fib)
    assert k1.snf_diagonal == (1, 1, 0, 0)
    assert (k1.free_rank, k1.torsion) == (2, ())
    _report(10, "golden mean: eigenvalue to 1e-9, centralizer = span{I, A}, "
                "degree-one level group Z^2")


def test_criterion_11_spectral_decomposition():
    swap = validate([[0, 1], [1, 0]])
    dec = spectral_decomposition(swap)
    assert dec.period == 2 and dec.component.matrix.to_rows() == [[1]]
    weighted = validate([[0, 2], [3, 0]])
    dec2 = spectral_decomposition(weighted)
    assert dec2.period == 2 and dec2.component.matrix.to_rows() == [[6]]
    for a, dec_ in ((swap, dec), (weighted, dec2)):
        assert is_primitive(dec_.component)
        lam_comp = perron(dec_.component).eigenvalue
        import numpy as np

        lam = max(
            abs(v) for v in np.linalg.eigvals(np.array(a.matrix.to_rows(), dtype=float))
        )
        assert abs(lam_comp - lam**dec_.period) < 1e-6
    _report(11, "period-2 examples decompose to components [1] and [6], both "
                "primitive, with eigenvalues matching the period power")
