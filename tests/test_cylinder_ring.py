import functools
import gc
import json
import random
import weakref

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, find, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from sftdim import (
    CylinderK0Element,
    CylinderK1Element,
    IntMatrix,
    NotCentralizedError,
    StableElement,
    UnstableElement,
    Verdict,
    act_s,
    act_u,
    alpha_s,
    alpha_s_inv,
    center_basis,
    centralizer_basis,
    centralizer_rank,
    commutator_lattice,
    equal_s,
    equal_u,
    k0_add,
    k0_equal,
    k0_identity,
    k0_zero,
    k1_equal,
    k1_group_structure,
    matrix_power,
    mul,
    mul_00,
    mul_01,
    mul_10,
    mul_11,
    ra_equal,
    ra_generator,
    ra_membership,
    ra_mul,
    ra_one,
    ra_reduce,
    ra_to_cylinder,
    validate,
)
from sftdim import cylinder_ring, dimension_groups, exactlinalg
from sftdim.cli import main
from sftdim.cylinder_ring import alpha_k0, commutator_system
from sftdim.exactlinalg import (
    hermite_combine,
    hermite_row_basis,
    kron,
    lattice_closure_under_preimage,
    solve_integer_linear,
)

from conftest import (
    chord_cycle,
    commutator_map,
    lattice_contains,
    lattice_coordinates,
    left_kernel,
    random_centralizer_element,
    random_matrix,
    random_primitive_adjacency,
    top_down_row_hermite,
)
from make_cli_digests import LARGE

X1 = IntMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
X2 = IntMatrix.from_rows([[0, 1, -1], [0, -1, 1], [0, 0, 0]])
X3 = IntMatrix.from_rows([[0, 0, 0], [1, -1, 0], [-1, 1, 0]])
X4 = IntMatrix.from_rows([[0, 0, 0], [0, 1, -1], [0, -1, 1]])
X5 = IntMatrix.identity(3)
SYM3_BASIS = [X1, X2, X3, X4, X5]


class TestCentralizer:
    def test_scalar(self, two):
        cent = centralizer_basis(two)
        assert cent.rank == 1
        assert cent.basis[0].to_rows() == [[1]]

    def test_golden_mean_is_span_of_identity_and_matrix(self, fib):
        cent = centralizer_basis(fib)
        assert cent.rank == 2
        assert lattice_coordinates(cent, IntMatrix.identity(2)) is not None
        assert lattice_coordinates(cent, fib.matrix) is not None
        # mutual membership: every basis element is an integer combination of I, A
        span = IntMatrix.from_columns(
            [IntMatrix.identity(2).vec(), fib.matrix.vec()], 4
        )
        for b in cent.basis:
            assert solve_integer_linear(span, b.vec()) is not None

    def test_symmetric_example_lattice(self, sym3):
        cent = centralizer_basis(sym3)
        assert cent.rank == 5
        for x in SYM3_BASIS:
            assert lattice_coordinates(cent, x) is not None
        span = IntMatrix.from_columns([x.vec() for x in SYM3_BASIS], 9)
        for b in cent.basis:
            assert solve_integer_linear(span, b.vec()) is not None

    def test_every_basis_element_commutes(self, primitive_pool):
        for a in primitive_pool:
            for b in centralizer_basis(a).basis:
                assert a.matrix @ b == b @ a.matrix

    def test_coordinates_read_off_the_pivots(self, primitive_pool):
        rng = random.Random(29)
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            cent = centralizer_basis(a)
            r = cent.rank
            for i, b in enumerate(cent.basis):
                assert lattice_coordinates(cent, b) == tuple(int(t == i) for t in range(r))
            c = tuple(rng.randint(-3, 3) for _ in range(r))
            x = IntMatrix.from_vec(hermite_combine([b.vec() for b in cent.basis], c), a.size, a.size)
            assert lattice_coordinates(cent, x) == c
            # C(A) is saturated, so its non-members are the non-commuting matrices
            if a.size > 1:
                e01 = IntMatrix.from_vec((0, 1) + (0,) * (a.size * a.size - 2), a.size, a.size)
                assert lattice_coordinates(cent, e01) is None
                assert lattice_coordinates(cent, x + e01) is None


class TestCommutatorAndK1Structure:
    def test_scalar_commutators_vanish(self, two):
        assert commutator_lattice(two).rank == 0
        k1 = k1_group_structure(two)
        assert (k1.free_rank, k1.torsion) == (1, ())

    def test_golden_mean(self, fib):
        assert commutator_lattice(fib).rank == 2
        k1 = k1_group_structure(fib)
        assert k1.snf_diagonal == (1, 1, 0, 0)
        assert (k1.free_rank, k1.torsion) == (2, ())

    def test_symmetric_example_free_rank(self, sym3):
        k1 = k1_group_structure(sym3)
        assert k1.free_rank == 5  # 9 - rank B(A) = 9 - 4
        assert commutator_lattice(sym3).rank == 4

    def test_witnesses(self, primitive_pool):
        for a in primitive_pool:
            lattice = commutator_lattice(a)
            for b, y in zip(lattice.basis, lattice.witnesses):
                assert a.matrix @ y - y @ a.matrix == b

    def test_rank_complementarity(self, primitive_pool):
        for a in primitive_pool:
            k = a.size
            assert centralizer_basis(a).rank + commutator_lattice(a).rank == k * k

    def test_one_factorisation_matches_independent_paths(self, primitive_pool):
        # the commutator lattice read off the shared column Hermite form must
        # equal a fresh Hermite basis of the map's columns with one solve per
        # row, and the Smith diagonal must agree with sympy's
        cj_plus_di = validate([[3, 2, 2, 2], [2, 3, 2, 2], [2, 2, 3, 2], [2, 2, 2, 3]])
        repeated_row = validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        for a in [*primitive_pool, cj_plus_di, repeated_row]:
            k = a.size
            cmap = commutator_map(a)
            rows = hermite_row_basis([cmap.column(j) for j in range(k * k)], k * k)
            lattice = commutator_lattice(a)
            assert tuple(b.vec() for b in lattice.basis) == rows
            assert tuple(y.vec() for y in lattice.witnesses) == tuple(
                solve_integer_linear(cmap, row) for row in rows
            )
            reference = invariant_factors(sympy.Matrix(cmap.to_rows()), domain=sympy.ZZ)
            assert k1_group_structure(a).snf_diagonal == tuple(abs(int(d)) for d in reference)


def _live_forms():
    """Row Hermite forms alive once the one-shot ones are collected."""
    gc.collect()
    return sum(type(o) is exactlinalg.RowHermiteForm for o in gc.get_objects())


class TestSharedFactorisation:
    def test_commutator_map_is_factored_once(self, monkeypatch):
        # a cold matrix that is not locally cyclic (Q has torsion Z/2 + Z/2):
        # the centraliser, B(A) and the K1 structure share one transform-free
        # Hermite basis, and only reading the witnesses factors the
        # commutator map with its transform, once
        a = validate([[1, 3, 3, 1], [2, 3, 2, 3], [0, 3, 0, 2], [2, 3, 1, 1]])
        assert not cylinder_ring._locally_cyclic(a)

        def counted(module, name):
            seen = []
            original = getattr(module, name)

            def wrapper(*args):
                seen.append(args)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)
            return seen

        factored = counted(exactlinalg, "row_hermite_with_transform")
        systems = counted(cylinder_ring, "commutator_system")
        solves = counted(exactlinalg, "solve_integer_linear")
        cmap = commutator_map(a)

        def wide():
            # the relations' kernel is factored too, but it is a few columns wide
            return [m for m, *_ in factored if max(m.rows, m.cols) >= a.size ** 2]

        centralizer_basis(a)
        lattice = commutator_lattice(a)
        structure = k1_group_structure(a)
        assert (wide(), solves) == ([], [])
        assert len(systems) == 1
        assert lattice.witnesses == lattice.witnesses
        assert wide() == [cmap.transpose()]
        assert len(solves) == lattice.rank
        reference = invariant_factors(sympy.Matrix(cmap.to_rows()), domain=sympy.ZZ)
        assert structure.snf_diagonal == tuple(abs(int(d)) for d in reference)
        assert structure.torsion == (2, 2)

        # a locally cyclic matrix builds no commutator system at all, and
        # only reading the witnesses factors the commutator map, once
        lc = validate([[1, 2, 0, 1], [1, 0, 3, 1], [2, 1, 1, 0], [0, 1, 2, 1]])
        assert cylinder_ring._locally_cyclic(lc)
        for seen in (factored, systems, solves):
            seen.clear()
        centralizer_basis(lc)
        lattice = commutator_lattice(lc)
        k1_group_structure(lc)
        x = CylinderK1Element(lc, IntMatrix.identity(4), 0)
        k1_equal(x, CylinderK1Element(lc, lc.matrix, 0))
        assert (factored, systems, solves) == ([], [], [])
        assert lattice.witnesses == lattice.witnesses
        assert [m for m, *_ in factored] == [commutator_map(lc).transpose()]
        assert len(systems) == 1 and len(solves) == lattice.rank

    def test_one_shot_factorisations_are_not_cached(self):
        # per cold matrix only the subring's witness system keeps its
        # factorisation; minimal polynomials, closure steps, the kernel of
        # the relations, the centre and the witnesses of B(A) factor their
        # one-shot systems without keeping them, and every kept form is freed
        # with its matrix
        rng = random.Random(20261018)
        matrices = [random_primitive_adjacency(rng, k) for k in (4, 5, 4, 5)]
        refs = [weakref.ref(a) for a in matrices]
        before = _live_forms()
        for a in matrices:
            k = a.size
            centralizer_basis(a)
            commutator_lattice(a).witnesses
            k1_group_structure(a)
            center_basis(a)
            x = CylinderK1Element(a, IntMatrix.identity(k), 0)
            k1_equal(x, CylinderK1Element(a, IntMatrix.zeros(k, k), 0))
            ra_membership(CylinderK0Element(a, a.matrix, 1))
        assert _live_forms() - before <= len(matrices)
        del a, x, matrices
        gc.collect()
        assert all(r() is None for r in refs)
        assert _live_forms() <= before


class TestCylinderElements:
    def test_rejects_non_commuting(self, fib):
        with pytest.raises(NotCentralizedError):
            CylinderK0Element(fib, IntMatrix.from_rows([[1, 0], [0, 0]]), 0)

    def test_k0_equal_defining_relation(self, fib):
        x = fib.matrix  # A commutes with itself
        a = CylinderK0Element(fib, x, 0)
        b = CylinderK0Element(fib, fib.matrix @ x @ fib.matrix, 1)
        assert k0_equal(a, b)

    def test_identity_equals_squared(self, primitive_pool):
        for a in primitive_pool:
            ident = k0_identity(a)
            sq = CylinderK0Element(a, matrix_power(a.matrix, 2), 1)
            assert k0_equal(ident, sq)

    def test_half_difference_nonzero(self, abelian2):
        x = IntMatrix.from_rows([[0, 1], [1, 0]])  # (A - I)/2
        elem = CylinderK0Element(abelian2, x, 0)
        assert not k0_equal(elem, k0_zero(abelian2))

    def test_alpha_is_identity_on_classes(self, primitive_pool):
        rng = random.Random(53)
        for a in primitive_pool:
            x = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
            assert k0_equal(alpha_k0(x), x)


class TestK1Equality:
    def test_commutator_perturbation_is_equal(self, fib):
        rng = random.Random(59)
        y = random_matrix(rng, 2, 2)
        z = random_matrix(rng, 2, 2)
        a = CylinderK1Element(fib, y, 0)
        b = CylinderK1Element(fib, y + (fib.matrix @ z - z @ fib.matrix), 0)
        decision = k1_equal(a, b)
        assert decision.verdict is Verdict.EQUAL
        assert decision.witness_level == 0

    def test_scalar_distinguishes(self, two):
        a = CylinderK1Element(two, IntMatrix.from_rows([[1]]), 0)
        b = CylinderK1Element(two, IntMatrix.from_rows([[0]]), 0)
        assert k1_equal(a, b).verdict is Verdict.NOT_EQUAL

    def test_witness_is_independently_checkable(self, primitive_pool):
        rng = random.Random(61)
        for _ in range(120):
            a = rng.choice(primitive_pool)
            k = a.size
            x = CylinderK1Element(a, random_matrix(rng, k, k, lo=-3, hi=3), rng.randint(0, 2))
            y = CylinderK1Element(a, random_matrix(rng, k, k, lo=-3, hi=3), rng.randint(0, 2))
            decision = k1_equal(x, y)
            level = max(x.level, y.level)
            px = matrix_power(a.matrix, level - x.level)
            py = matrix_power(a.matrix, level - y.level)
            diff = px @ x.matrix @ px - py @ y.matrix @ py
            if decision.verdict is Verdict.EQUAL:
                j = decision.witness_level
                p = matrix_power(a.matrix, j)
                target = p @ diff @ p
                sol = solve_integer_linear(commutator_map(a), target.vec())
                assert sol is not None
                z = IntMatrix.from_vec(sol, k, k)
                assert a.matrix @ z - z @ a.matrix == target
            else:
                assert decision.verdict is Verdict.NOT_EQUAL
                # necessary condition: no merge up to depth 20 by brute force
                for j in range(21):
                    p = matrix_power(a.matrix, j)
                    target = p @ diff @ p
                    assert solve_integer_linear(commutator_map(a), target.vec()) is None


def _k1_closure_oracle(a):
    """The closure of B(A) under division by X -> AXA, in all of M_K(Z)."""
    psi = kron(a.matrix, a.matrix.transpose())
    seed = tuple(b.vec() for b in commutator_lattice(a).basis)
    return lattice_closure_under_preimage(psi, seed)


def _k1_equal_oracle(x, y):
    """Verdict and merge depth through the K^2-dimensional closure and solves."""
    amb = x.ambient
    level = max(x.level, y.level)
    px = matrix_power(amb.matrix, level - x.level)
    py = matrix_power(amb.matrix, level - y.level)
    diff = px @ x.matrix @ px - py @ y.matrix @ py
    if diff.is_zero:
        return Verdict.EQUAL, 0
    closure, depth = _k1_closure_oracle(amb)
    if not lattice_contains(closure, diff.vec()):
        return Verdict.NOT_EQUAL, None
    for j in range(depth + 1):
        p = matrix_power(amb.matrix, j)
        if solve_integer_linear(commutator_map(amb), (p @ diff @ p).vec()) is not None:
            return Verdict.EQUAL, j
    raise AssertionError("oracle closure member without a merge depth")


def _k1_pairs(rng, a, count):
    """Pairs of degree-one classes: unrelated, shifted copies plus commutators,
    with and without a multiple of I, and rank-one payloads killed by A."""
    k = a.size
    kernel = [IntMatrix.from_rows([[x] for x in v]) for v in exactlinalg.integer_kernel(a.matrix)]
    for _ in range(count):
        x = CylinderK1Element(a, random_matrix(rng, k, k, lo=-3, hi=3), rng.randint(0, 2))
        j = rng.randint(0, 2)
        p = matrix_power(a.matrix, j)
        w = random_matrix(rng, k, k, lo=-2, hi=2)
        payload = p @ x.matrix @ p + (a.matrix @ w - w @ a.matrix)
        payload = payload + IntMatrix.identity(k).scale(rng.choice((0, 0, 1, -2)))
        yield x, CylinderK1Element(a, payload, x.level + j)
        yield x, CylinderK1Element(a, random_matrix(rng, k, k, lo=-3, hi=3), rng.randint(0, 2))
        if kernel:
            u = rng.choice(kernel)
            v = random_matrix(rng, 1, k, lo=-2, hi=2)
            yield x, CylinderK1Element(a, x.matrix + u @ v, x.level)


CJ_PLUS_DI = validate([[3, 2, 2], [2, 3, 2], [2, 2, 3]])
REPEATED_ROW = validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
BIPARTITE = validate([[0, 0, 1, 1], [0, 0, 1, 2], [1, 2, 0, 0], [1, 1, 0, 0]])
COMPANION = validate([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [3, 1, 2, 1]])


def _ones_plus_identity(k, c, d):
    return validate([[c + d if i == j else c for j in range(k)] for i in range(k)])


def _all_ones(k):
    """J_K: singular (l = 1), and derogatory for K >= 3."""
    return _ones_plus_identity(k, 1, 0)


@st.composite
def _adjacency(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k))
    try:
        return validate(rows)
    except ValueError:
        assume(False)


@st.composite
def _singular_derogatory(draw):
    """B kron J_m and matrices with repeated rows and columns, kept when A is
    singular and derogatory (deg m_A < K)."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    b = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    rows = kron(IntMatrix.from_rows(b), IntMatrix.from_rows([[1] * m] * m)).to_rows()
    if draw(st.booleans()):  # a vertex copied: one more kernel vector
        rows = [r + [r[0]] for r in rows]
        rows.append(list(rows[0]))
    try:
        a = validate(rows)
    except ValueError:
        assume(False)
    mp = exactlinalg.minimal_polynomial(a.matrix)
    assume(mp.l and mp.l + mp.k < a.size)
    return a


class TestK1CokernelCoordinates:
    def _assert_agrees(self, a, rng, count=12):
        for x, y in _k1_pairs(rng, a, count):
            decision = k1_equal(x, y)
            assert (decision.verdict, decision.witness_level) == _k1_equal_oracle(x, y)

    def test_matches_full_closure_on_pool(self, primitive_pool):
        rng = random.Random(131)
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            self._assert_agrees(a, rng)

    def test_membership_matches_full_closure(self, primitive_pool):
        rng = random.Random(137)
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            k = a.size
            pres = cylinder_ring._k1_presentation(a)
            q = cylinder_ring._k1_closure(a)
            closure, depth = _k1_closure_oracle(a)
            assert q.depth <= depth
            members = [b.vec() for b in commutator_lattice(a).basis] + list(closure)
            for _ in range(20):
                v = random_matrix(rng, k, k, lo=-3, hi=3).vec()
                assert (q.witness(pres.project(v)) is not None) == lattice_contains(closure, v)
            for v in members:
                assert q.witness(pres.project(v)) is not None

    def test_witness_reads_the_pivots_once(self, primitive_pool, monkeypatch):
        # the closure's and the seed's pivots are kept on the record, and the
        # levels still match the membership tests through lattice_contains
        rng = random.Random(139)
        calls = []
        real = exactlinalg.hermite_pivots

        def counting(rows):
            calls.append(rows)
            return real(rows)

        checked = 0
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            for q in (cylinder_ring._k1_closure(a), cylinder_ring._ra_closure(a)):
                if q.psi is None:
                    continue
                coords = [
                    hermite_combine(q.closure, [rng.randint(-3, 3) for _ in q.closure])
                    for _ in range(20)
                ]
                monkeypatch.setattr(exactlinalg, "hermite_pivots", counting)
                del calls[:]
                levels = [q.witness(hermite_combine(q.basis, c)) for c in coords]
                assert len(calls) <= 2
                monkeypatch.setattr(exactlinalg, "hermite_pivots", real)
                for c, level in zip(coords, levels):
                    for _ in range(level):
                        assert not lattice_contains(q.seed, c)
                        c = q.psi.col_apply(c)
                    assert lattice_contains(q.seed, c)
                    checked += 1
        assert checked >= 100

    def test_relations_are_the_commutators_inside_the_coordinates(self, primitive_pool):
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            q = cylinder_ring._k1_presentation(a)
            assert hermite_row_basis(q.relations, len(q.coords)) == q.relations
            for b in commutator_lattice(a).basis:
                assert lattice_contains(q.relations, q.project(b.vec()))

    def test_scaled_all_ones_keeps_every_coordinate(self):
        # B(cJ + dI) = c B(J): no pivot is 1, so Q keeps all K^2 coordinates
        q = cylinder_ring._k1_presentation(CJ_PLUS_DI)
        assert len(q.coords) == 9 and not q.unit_rows

    def test_singular_matrix_merges_one_level_up(self):
        # X = u v^T with A u = 0 dies under X -> AXA but has trace v.u != 0
        u = IntMatrix.from_rows([[0], [1], [-1]])
        v = IntMatrix.from_rows([[0, 1, 0]])
        x = CylinderK1Element(REPEATED_ROW, u @ v, 0)
        zero = CylinderK1Element(REPEATED_ROW, IntMatrix.zeros(3, 3), 0)
        decision = k1_equal(x, zero)
        assert (decision.verdict, decision.witness_level) == (Verdict.EQUAL, 1)

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_adjacency(), seed=st.integers(0, 2**16))
    def test_matches_full_closure_on_generated_matrices(self, a, seed):
        self._assert_agrees(a, random.Random(seed), count=3)

    def test_cold_call_solves_nothing_in_fewer_coordinates(self, monkeypatch):
        a = validate([
            [1, 2, 0, 1, 3, 1], [2, 1, 1, 0, 1, 2], [0, 3, 1, 2, 1, 1],
            [1, 1, 2, 1, 0, 3], [2, 0, 1, 3, 1, 1], [1, 1, 3, 0, 2, 1],
        ])
        solves = []
        dims = []
        closure = exactlinalg.lattice_closure_under_preimage

        def count_solve(*args):
            solves.append(args)
            return solve_integer_linear(*args)

        def record_closure(psi, seed):
            dims.append(psi.rows)
            return closure(psi, seed)

        monkeypatch.setattr(exactlinalg, "solve_integer_linear", count_solve)
        monkeypatch.setattr(exactlinalg, "lattice_closure_under_preimage", record_closure)
        x = CylinderK1Element(a, IntMatrix.identity(6), 0)
        y = CylinderK1Element(a, IntMatrix.zeros(6, 6), 0)
        assert k1_equal(x, y).verdict is Verdict.NOT_EQUAL  # trace vanishes on B(A)
        assert solves == []
        # nonsingular with torsion-free Q: the relations are their own closure
        assert exactlinalg.minimal_polynomial(a.matrix).l == 0
        assert k1_group_structure(a).torsion == ()
        assert dims == []

    def test_scaled_all_ones_closes_in_small_saturations(self, monkeypatch):
        a = _ones_plus_identity(6, 2, 1)
        for warm in (centralizer_basis, cylinder_ring._k1_presentation, k1_group_structure, center_basis):
            warm(a)
        dims = []
        closure = exactlinalg.lattice_closure_under_preimage

        def record_closure(psi, seed):
            dims.append(psi.rows)
            return closure(psi, seed)

        def no_kron(*args):
            raise AssertionError("kron called")

        monkeypatch.setattr(exactlinalg, "lattice_closure_under_preimage", record_closure)
        monkeypatch.setattr(exactlinalg, "kron", no_kron)
        relations = cylinder_ring._k1_presentation(a).relations
        cylinder_ring._k1_closure(a).depth  # the record is lazy: reading depth runs the chain
        assert dims == [len(relations)] and len(relations) < 36
        dims.clear()
        cylinder_ring._ra_closure(a).depth
        assert dims == [2]

    def test_seeds_that_fill_their_lattice_build_nothing(self, monkeypatch):
        # a torsion-free Q for nonsingular A, and a subring seed that spans the
        # center: both are their own closures, with no map and no factorisation
        a = validate([
            [1, 2, 0, 1, 3, 1], [2, 1, 1, 0, 1, 2], [0, 3, 1, 2, 1, 1],
            [1, 1, 2, 1, 0, 3], [2, 0, 1, 3, 1, 1], [1, 1, 3, 0, 2, 1],
        ])
        for warm in (centralizer_basis, k1_group_structure, center_basis):
            warm(a)
        assert exactlinalg.minimal_polynomial(a.matrix).l == 0
        assert k1_group_structure(a).torsion == ()
        calls = []

        def refuse(name):
            def fn(*args):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return fn

        for name in ("lattice_closure_under_preimage", "row_hermite_with_transform"):
            monkeypatch.setattr(exactlinalg, name, refuse(name))
        q = cylinder_ring._k1_closure(a)
        assert (q.psi, q.depth) == (None, 0)
        w = random_matrix(random.Random(7), 6, 6)
        x = CylinderK1Element(a, w, 0)
        decision = k1_equal(x, CylinderK1Element(a, w + (a.matrix @ w - w @ a.matrix), 0))
        assert (decision.verdict, decision.witness_level) == (Verdict.EQUAL, 0)
        y = CylinderK1Element(a, w + IntMatrix.identity(6), 0)
        assert k1_equal(x, y).verdict is Verdict.NOT_EQUAL
        rc = cylinder_ring._ra_closure(a)
        assert (rc.psi, rc.depth) == (None, 0)
        assert rc.witness(a.matrix.vec()) == 0
        assert rc.witness(tuple(int(j == 1) for j in range(36))) is None  # E_01 is no member
        assert calls == []


def _lifted(closure, width):
    """The Hermite basis of a PreimageClosure's closure in ambient coordinates."""
    return hermite_row_basis([hermite_combine(closure.basis, c) for c in closure.closure], width)


def _k1_quotient_oracle(a):
    """(coords, relations, psi, closure, depth) by the closure in all of Z^J,
    with psi projected from the K^2 x K^2 Kronecker map."""
    pres = cylinder_ring._k1_presentation(a)
    full = kron(a.matrix, a.matrix.transpose())
    psi = IntMatrix.from_columns([pres.project(full.column(j)) for j in pres.coords], len(pres.coords))
    closure, depth = lattice_closure_under_preimage(psi, pres.relations)
    return pres.coords, pres.relations, psi, closure, depth


def _ra_closure_in_centralizer(a):
    """(basis, depth) of the subring closure run in C(A) coordinates, as it was
    for singular A."""
    mp = exactlinalg.minimal_polynomial(a.matrix)
    cent = centralizer_basis(a)
    a2 = matrix_power(a.matrix, 2)
    seed = [lattice_coordinates(cent, matrix_power(a.matrix, 2 * mp.l + i)) for i in range(mp.k)]
    psi = IntMatrix.from_columns([lattice_coordinates(cent, a2 @ b) for b in cent.basis], cent.rank)
    closure, depth = lattice_closure_under_preimage(psi, seed)
    rows = [b.vec() for b in cent.basis]
    return hermite_row_basis([hermite_combine(rows, c) for c in closure], a.size * a.size), depth


class TestClosuresInSaturations:
    """Both closures against the paths that run them in Z^J and in C(A)."""

    def _assert_agrees(self, a):
        a = validate(a.matrix.to_rows())  # cold
        pres = cylinder_ring._k1_presentation(a)
        q = cylinder_ring._k1_closure(a)
        coords, relations, psi, closure, depth = _k1_quotient_oracle(a)
        assert (pres.coords, pres.relations) == (coords, relations)
        assert (_lifted(q, len(coords)), q.depth) == (closure, depth)
        if q.psi is not None:  # the map on the lattice's coordinates is psi there
            for j, b in enumerate(q.basis):
                assert hermite_combine(q.basis, q.psi.column(j)) == psi.col_apply(b)
        # the subring closure runs in the center for every A; C(A) holds the
        # same closure unless A is singular and derogatory, where the part of
        # C(A)'s closure outside the center is killed by a power of A
        rc = cylinder_ring._ra_closure(a)
        assert rc.basis == tuple(b.vec() for b in center_basis(a).basis)
        closure, depth = _ra_closure_in_centralizer(a)
        mp = exactlinalg.minimal_polynomial(a.matrix)
        if mp.l == 0 or mp.l + mp.k == a.size:
            assert (_lifted(rc, a.size ** 2), rc.depth) == (closure, depth)
        else:
            assert all(lattice_contains(closure, row) for row in _lifted(rc, a.size ** 2))
            assert rc.depth <= depth

    def test_pool_and_families(self, primitive_pool):
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            self._assert_agrees(a)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_scaled_all_ones(self, k):
        for c in (2, 3):
            for d in (1, 2):
                self._assert_agrees(_ones_plus_identity(k, c, d))

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_adjacency())
    def test_generated_matrices(self, a):
        self._assert_agrees(a)


class TestProducts:
    def test_identity_is_unit(self, primitive_pool):
        rng = random.Random(67)
        for _ in range(100):
            a = rng.choice(primitive_pool)
            x = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
            assert k0_equal(mul_00(k0_identity(a), x), x)
            assert k0_equal(mul_00(x, k0_identity(a)), x)

    def test_generator_and_inverse(self, primitive_pool):
        for a in primitive_pool:
            gen = CylinderK0Element(a, a.matrix, 0)
            inv = CylinderK0Element(a, a.matrix, 1)
            assert k0_equal(mul_00(gen, inv), k0_identity(a))

    def test_noncommutative_example(self, sym3):
        h1 = CylinderK0Element(sym3, X1, 0)
        h3 = CylinderK0Element(sym3, X3, 0)
        assert not k0_equal(mul_00(h1, h3), mul_00(h3, h1))

    def test_scalar_case_matches_dyadic_arithmetic(self, two):
        c = CylinderK0Element(two, IntMatrix.from_rows([[3]]), 0)
        d = CylinderK1Element(two, IntMatrix.from_rows([[5]]), 2)
        product = mul_01(c, d)
        assert product.matrix.to_rows() == [[15]] and product.level == 2

    def test_one_product_picks_the_degree(self, sym3):
        assert mul_00 is mul_01 is mul_10 is mul_11 is mul
        h = CylinderK0Element(sym3, X1, 1)
        y = CylinderK1Element(sym3, X3, 2)
        for left, right, cls in ((h, h, CylinderK0Element), (h, y, CylinderK1Element),
                                 (y, h, CylinderK1Element)):
            product = mul(left, right)
            assert type(product) is cls
            assert product.matrix == left.matrix @ right.matrix
            assert product.level == left.level + right.level
        assert mul(y, y) == k0_zero(sym3)
        for other in (StableElement(sym3, (1, 0, 0), 0), ra_one(sym3)):
            for args in ((h, other), (other, y)):
                with pytest.raises(ValueError, match=r"mul needs two cylinder classes \(flavors k0/k1\)"):
                    mul(*args)

    def test_degree_one_squares_to_zero(self, primitive_pool):
        rng = random.Random(71)
        for _ in range(30):
            a = rng.choice(primitive_pool)
            k = a.size
            x = CylinderK1Element(a, random_matrix(rng, k, k), rng.randint(0, 2))
            y = CylinderK1Element(a, random_matrix(rng, k, k), rng.randint(0, 2))
            assert k0_equal(mul_11(x, y), k0_zero(a))

    def test_mul01_well_defined_mod_commutators(self, primitive_pool):
        rng = random.Random(73)
        for _ in range(50):
            a = rng.choice(primitive_pool)
            k = a.size
            x = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
            y = random_matrix(rng, k, k)
            z = random_matrix(rng, k, k)
            y1 = CylinderK1Element(a, y, 1)
            y2 = CylinderK1Element(a, y + (a.matrix @ z - z @ a.matrix), 1)
            assert k1_equal(mul_01(x, y1), mul_01(x, y2)).verdict is Verdict.EQUAL
            assert k1_equal(mul_10(y1, x), mul_10(y2, x)).verdict is Verdict.EQUAL

    def test_mul00_respects_equality(self, primitive_pool):
        rng = random.Random(79)
        for _ in range(50):
            amb = rng.choice(primitive_pool)
            x = CylinderK0Element(amb, random_centralizer_element(rng, amb), rng.randint(0, 1))
            y = CylinderK0Element(amb, random_centralizer_element(rng, amb), rng.randint(0, 1))
            x_shifted = CylinderK0Element(
                amb, amb.matrix @ x.matrix @ amb.matrix, x.level + 1
            )
            assert k0_equal(mul_00(x, y), mul_00(x_shifted, y))

    def test_ring_axioms(self, primitive_pool):
        rng = random.Random(83)
        for _ in range(200):
            a = rng.choice(primitive_pool)
            xs = [
                CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
                for _ in range(3)
            ]
            x, y, z = xs
            assert k0_equal(mul_00(mul_00(x, y), z), mul_00(x, mul_00(y, z)))
            lhs = mul_00(x, k0_add(y, z))
            rhs = k0_add(mul_00(x, y), mul_00(x, z))
            assert k0_equal(lhs, rhs)

    def test_graded_associativity_with_degree_one(self, primitive_pool):
        rng = random.Random(89)
        for _ in range(60):
            a = rng.choice(primitive_pool)
            k = a.size
            h1 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
            h2 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
            y = CylinderK1Element(a, random_matrix(rng, k, k, lo=-2, hi=2), rng.randint(0, 1))
            lhs = mul_01(mul_00(h1, h2), y)
            rhs = mul_01(h1, mul_01(h2, y))
            assert k1_equal(lhs, rhs).verdict is Verdict.EQUAL


class TestModuleActions:
    def test_identity_acts_trivially(self, primitive_pool):
        rng = random.Random(97)
        for a in primitive_pool:
            k = a.size
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            assert equal_s(act_s(v, k0_identity(a)), v)

    def test_action_levels(self, fib):
        v = StableElement(fib, (1, 0), 1)
        h = CylinderK0Element(fib, fib.matrix, 2)
        result = act_s(v, h)
        assert result.level == 1 + 2 * 2
        assert result.vector == fib.matrix.row_apply((1, 0))

    def test_alpha_is_action_by_generator(self, primitive_pool):
        rng = random.Random(101)
        for _ in range(200):
            a = rng.choice(primitive_pool)
            k = a.size
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            gen = CylinderK0Element(a, a.matrix, 0)
            inv = CylinderK0Element(a, a.matrix, 1)
            assert equal_s(act_s(v, gen), alpha_s(v))
            assert equal_s(act_s(v, inv), alpha_s_inv(v))

    def test_right_module_law(self, primitive_pool):
        rng = random.Random(103)
        for _ in range(200):
            a = rng.choice(primitive_pool)
            k = a.size
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            h1 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
            h2 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
            assert equal_s(act_s(v, mul_00(h1, h2)), act_s(act_s(v, h1), h2))

    def test_left_module_law(self, primitive_pool):
        rng = random.Random(107)
        for _ in range(100):
            a = rng.choice(primitive_pool)
            k = a.size
            w = UnstableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            h1 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
            h2 = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
            assert equal_u(act_u(mul_00(h1, h2), w), act_u(h1, act_u(h2, w)))

    def test_action_well_defined(self, primitive_pool):
        rng = random.Random(109)
        for _ in range(50):
            a = rng.choice(primitive_pool)
            k = a.size
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            h = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
            h_shift = CylinderK0Element(a, a.matrix @ h.matrix @ a.matrix, h.level + 1)
            assert equal_s(act_s(v, h), act_s(v, h_shift))


class TestPolynomialSubring:
    def test_reduce_annihilator_to_zero(self, fib):
        assert ra_reduce(fib, (-1, -1, 1), 0).is_zero

    def test_reduce_square(self, fib):
        # x^2 = x + 1 modulo the reduced minimal polynomial
        assert ra_reduce(fib, (0, 0, 1), 0).coeffs == (1, 1)

    def test_low_degree_unchanged(self, fib):
        assert ra_reduce(fib, (2, -3), 1).coeffs == (2, -3)

    def test_generator_inverse(self, primitive_pool):
        for a in primitive_pool:
            product = ra_mul(ra_generator(a, 0), ra_generator(a, 1))
            assert ra_equal(product, ra_one(a))

    def test_membership_of_power(self, fib):
        x = CylinderK0Element(fib, matrix_power(fib.matrix, 3), 2)
        witness = ra_membership(x)
        assert witness is not None
        assert witness.coeffs == (1, 2)  # x^3 = 2x + 1 mod (x^2 - x - 1)
        assert k0_equal(ra_to_cylinder(witness), x)

    def test_half_integer_combinations_are_non_members(self, abelian2, sparse3):
        half_diff = CylinderK0Element(
            abelian2, IntMatrix.from_rows([[0, 1], [1, 0]]), 0
        )
        assert ra_membership(half_diff) is None
        a2 = matrix_power(sparse3.matrix, 2)
        half_square = IntMatrix.from_vec(
            tuple((x + y) // 2 for x, y in zip(a2.entries, sparse3.matrix.entries)), 3, 3
        )
        elem = CylinderK0Element(sparse3, half_square, 0)
        assert ra_membership(elem) is None

    def test_membership_found_at_higher_level(self):
        # (A - 4I)/2 over [[4,2],[2,4]] is not an integer polynomial in A at
        # its own level but equals [10A - 24I, level+1]; the decision procedure
        # must find the shifted witness.
        doubled = validate([[4, 2], [2, 4]])
        j = IntMatrix.from_rows([[0, 1], [1, 0]])
        elem = CylinderK0Element(doubled, j, 0)
        witness = ra_membership(elem)
        assert witness is not None
        assert witness.level == 1
        assert k0_equal(ra_to_cylinder(witness), elem)

    def test_membership_oracle(self, primitive_pool):
        rng = random.Random(113)
        for _ in range(60):
            a = rng.choice(primitive_pool)
            x = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
            witness = ra_membership(x)
            if witness is not None:
                # a witness is self-certifying through the independent equality test
                assert k0_equal(ra_to_cylinder(witness), x)
            else:
                # brute force small levels and coefficients: nothing matches
                from sftdim.exactlinalg import minimal_polynomial

                mp = minimal_polynomial(a.matrix)
                found = False
                for m in range(3):
                    lhs_p = matrix_power(a.matrix, mp.l + m)
                    lhs = lhs_p @ x.matrix @ lhs_p
                    span = IntMatrix.from_columns(
                        [matrix_power(a.matrix, 2 * mp.l + i).vec() for i in range(mp.k)],
                        a.size * a.size,
                    )
                    sol = solve_integer_linear(span, lhs.vec())
                    if sol is not None and all(abs(c) <= 30 for c in sol):
                        found = True
                assert not found

    def test_ra_linearity_of_level_shift(self, primitive_pool):
        rng = random.Random(127)
        for a in primitive_pool:
            x = ra_reduce(a, tuple(rng.randint(-3, 3) for _ in range(a.size)), 0)
            shifted = ra_mul(x, ra_generator(a, 1))  # multiply by [A, 1]
            direct = ra_to_cylinder(x)
            assert k0_equal(
                ra_to_cylinder(shifted),
                CylinderK0Element(a, direct.matrix @ a.matrix, direct.level + 1),
            )


class TestCenter:
    def test_abelian_centralizer_is_its_own_center(self, abelian2):
        cent = centralizer_basis(abelian2)
        center = center_basis(abelian2)
        assert center.rank == cent.rank == 2
        assert tuple(b.vec() for b in center.basis) == tuple(b.vec() for b in cent.basis)

    def test_scalar(self, two):
        assert center_basis(two).rank == 1

    def test_noncommutative_example_has_smaller_center(self, sym3):
        center = center_basis(sym3)
        assert 2 <= center.rank < 5
        assert lattice_coordinates(center, IntMatrix.identity(3)) is not None
        assert lattice_coordinates(center, sym3.matrix) is not None

    def test_center_elements_commute_with_centralizer(self, primitive_pool):
        for a in primitive_pool:
            cent = centralizer_basis(a)
            for c in center_basis(a).basis:
                for b in cent.basis:
                    assert c @ b == b @ c

    def test_center_is_not_all_of_a_derogatory_centralizer(self, sym3):
        center = center_basis(sym3)
        assert lattice_coordinates(center, X1) is None
        assert lattice_coordinates(center, IntMatrix.identity(3)) is not None


def _center_oracle(a):
    """The elements of C(A) commuting with every basis element of C(A), as the
    left kernel of the r x r*K^2 system of commutators."""
    cent = centralizer_basis(a)
    k = a.size
    rows = []
    for bi in cent.basis:
        row = []
        for bj in cent.basis:
            row.extend((bi @ bj - bj @ bi).vec())
        rows.append(row)
    combos = left_kernel(exactlinalg.row_hermite_with_transform(IntMatrix.from_rows(rows)))
    vectors = []
    for combo in combos:
        acc = IntMatrix.zeros(k, k)
        for c, b in zip(combo, cent.basis):
            acc = acc + b.scale(c)
        vectors.append(acc.vec())
    return hermite_row_basis(vectors, k * k)


@functools.lru_cache(maxsize=16)
def _ra_closure_oracle(a):
    """The closure of span{A^(2l+i)} under division by Y -> A^2 Y in all of M_K(Z)."""
    mp = exactlinalg.minimal_polynomial(a.matrix)
    seed = [matrix_power(a.matrix, 2 * mp.l + i).vec() for i in range(mp.k)]
    psi = kron(matrix_power(a.matrix, 2), IntMatrix.identity(a.size))
    return lattice_closure_under_preimage(psi, seed)


def _ra_membership_oracle(x):
    """(coefficients, level) of the witness through the K^2 closure, or None."""
    amb = x.ambient
    mp = exactlinalg.minimal_polynomial(amb.matrix)
    p_l = matrix_power(amb.matrix, mp.l)
    y = p_l @ x.matrix @ p_l
    closure, depth = _ra_closure_oracle(amb)
    if not lattice_contains(closure, y.vec()):
        return None
    span = IntMatrix.from_columns(
        [matrix_power(amb.matrix, 2 * mp.l + i).vec() for i in range(mp.k)], amb.size ** 2
    )
    for m in range(depth + 1):
        sol = solve_integer_linear(span, y.vec())
        if sol is not None:
            return sol, x.level + m
        y = matrix_power(amb.matrix, 2) @ y
    raise AssertionError("oracle closure member without a witness level")


class TestSmallestSpaces:
    """The centre, the K1 torsion and subring membership against the old
    K^2-sized computations, kept here as oracles."""

    def _assert_agrees(self, a, rng):
        k = a.size
        cent = centralizer_basis(a)
        assert tuple(b.vec() for b in center_basis(a).basis) == _center_oracle(a)
        if exactlinalg.non_derogatory(a.matrix):
            # sat(Z[A]) is C(A), basis for basis, against the general path's C(A)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cylinder_ring, "non_derogatory", lambda _: False)
                general = centralizer_basis(validate(a.matrix.to_rows()))
            assert center_basis(a) == general == cent
        reference = invariant_factors(sympy.Matrix(commutator_map(a).to_rows()), domain=sympy.ZZ)
        structure = k1_group_structure(a)
        assert structure.snf_diagonal == tuple(abs(int(d)) for d in reference)
        assert structure.torsion == tuple(d for d in structure.snf_diagonal if d > 1)
        assert structure.free_rank == cent.rank
        assert cylinder_ring._ra_closure(a).depth <= _ra_closure_oracle(a)[1]
        payloads = list(cent.basis[:4])
        payloads.append(random_centralizer_element(rng, a, 2))
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        payloads.append(exactlinalg.poly_eval_matrix(coeffs, a.matrix))
        for payload in payloads:
            x = CylinderK0Element(a, payload, rng.randint(0, 2))
            witness = ra_membership(x)
            got = None if witness is None else (witness.coeffs, witness.level)
            assert got == _ra_membership_oracle(x)

    def test_matches_old_paths_on_pool(self, primitive_pool):
        rng = random.Random(149)
        doubled_ones = validate([[3, 2, 2, 2], [2, 3, 2, 2], [2, 2, 3, 2], [2, 2, 2, 3]])
        singular = [_all_ones(k) for k in range(2, 7)]  # derogatory for K >= 3
        inputs = [*primitive_pool, CJ_PLUS_DI, doubled_ones, REPEATED_ROW, BIPARTITE, *singular]
        inputs += [chord_cycle(k) for k in (5, 8, 12)] + [COMPANION]  # non-derogatory
        for a in inputs:
            self._assert_agrees(a, rng)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_adjacency(), seed=st.integers(0, 2**16))
    def test_matches_old_paths_on_generated_matrices(self, a, seed):
        self._assert_agrees(a, random.Random(seed))

    def test_scaled_all_ones_has_torsion_and_saturated_center(self):
        # 2J + I: B(A) = 2 B(J), so Q has Z/2 torsion, and the center is
        # span{I, J}, the saturation of Z[A] = span{I, 2J}
        structure = k1_group_structure(CJ_PLUS_DI)
        assert structure.torsion and set(structure.torsion) == {2}
        center = center_basis(CJ_PLUS_DI)
        assert center.rank == 2
        assert lattice_coordinates(center, IntMatrix.from_rows([[1, 1, 1]] * 3)) is not None

    def test_non_derogatory_center_factors_nothing(self, monkeypatch):
        a = validate(COMPANION.matrix.to_rows())  # cold: C(A) is not built
        calls = []
        for module, name in (
            (exactlinalg, "row_hermite_with_transform"),
            (cylinder_ring, "commutator_system"),
        ):
            original = getattr(module, name)

            def counted(m, original=original, name=name):
                calls.append(name)
                return original(m)

            monkeypatch.setattr(module, name, counted)
        center = center_basis(a)
        assert calls == []
        assert center == centralizer_basis(a)  # equal, reached without the system

    def test_k1_structure_skips_the_full_map(self, monkeypatch):
        # not locally cyclic (Q has torsion Z/3 + Z/3): the invariant factors
        # of the few relations
        a = validate([
            [1, 3, 2, 2, 0, 0], [1, 0, 2, 2, 1, 3], [3, 1, 1, 1, 0, 1],
            [1, 0, 2, 2, 2, 3], [3, 2, 1, 3, 0, 1], [3, 3, 0, 3, 1, 0],
        ])
        assert not cylinder_ring._locally_cyclic(a)
        widths = []

        def record(m):
            widths.append(m.cols)
            return exactlinalg.invariant_factors(m)

        monkeypatch.setattr(cylinder_ring, "invariant_factors", record)
        structure = k1_group_structure(a)
        assert len(widths) == 1 and widths[0] < 36
        assert len(structure.snf_diagonal) == 36
        assert structure.torsion == (3, 3)
        # locally cyclic: the structure is known, and no factor is computed
        lc = validate([
            [1, 2, 0, 1, 3, 1], [2, 1, 1, 0, 1, 2], [0, 3, 1, 2, 1, 1],
            [1, 1, 2, 1, 0, 3], [2, 0, 1, 3, 1, 1], [1, 1, 3, 0, 2, 1],
        ])
        assert cylinder_ring._locally_cyclic(lc)
        widths.clear()
        assert k1_group_structure(lc) == cylinder_ring.K1Structure(6, (), (1,) * 30 + (0,) * 6)
        assert widths == []

    def test_ra_witness_solves_no_k_squared_system(self, monkeypatch, primitive_pool):
        # the witness level is searched at the pivot entries of the closure's
        # lattice; the coefficients are unique, so they equal the K^2 solve's
        solves = []
        solve = exactlinalg.solve_integer_linear

        def count_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(exactlinalg, "solve_integer_linear", count_solve)
        rng = random.Random(61)
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            a = validate(a.matrix.to_rows())  # cold
            coeffs = [rng.randint(-2, 2) for _ in range(a.size)]
            for payload in (a.matrix, exactlinalg.poly_eval_matrix(coeffs, a.matrix)):
                x = CylinderK0Element(a, payload, rng.randint(0, 2))
                witness = ra_membership(x)
                assert not solves
                assert (witness.coeffs, witness.level) == _ra_membership_oracle(x)

    def test_ra_closure_runs_in_center_coordinates(self, monkeypatch, primitive_pool):
        dims = []
        closure = exactlinalg.lattice_closure_under_preimage

        def record(psi, seed):
            dims.append(psi.rows)
            return closure(psi, seed)

        monkeypatch.setattr(exactlinalg, "lattice_closure_under_preimage", record)
        singular = [_all_ones(k) for k in (3, 4, 5)]  # l = 1, derogatory
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE, *singular]:
            a = validate(a.matrix.to_rows())  # cold
            mp = exactlinalg.minimal_polynomial(a.matrix)
            # the center M_K(Z) meet Q[A], of rank deg m_A = l + k, for every A
            lattice = center_basis(a)
            assert lattice.rank == mp.l + mp.k
            dims.clear()
            rc = cylinder_ring._ra_closure(a)
            # a seed that spans the lattice needs no closure at all
            fills = rc.depth == 0 and _lifted(rc, a.size ** 2) == tuple(b.vec() for b in lattice.basis)
            assert dims == ([] if fills else [lattice.rank])

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_singular_derogatory(), seed=st.integers(0, 2**16))
    def test_matches_old_paths_on_singular_derogatory_matrices(self, a, seed):
        # the subring closure runs in the center, far smaller than C(A) here
        self._assert_agrees(a, random.Random(seed))


class TestCommutatorForm:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_system_is_the_transposed_kronecker_map(self, k):
        rng = random.Random(k)
        ident = IntMatrix.identity(k)
        for _ in range(5):
            m = random_matrix(rng, k, k, -4, 4)
            cmap = kron(m, ident) - kron(ident, m.transpose())
            assert commutator_system(m) == cmap.transpose()

    def test_map_keeps_its_value(self, primitive_pool):
        # the system B(A) is read from is the transposed map X -> AX - XA
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            x = IntMatrix.from_vec(range(a.size * a.size), a.size, a.size)
            commutator = a.matrix @ x - x @ a.matrix
            assert commutator_system(a.matrix).transpose() == commutator_map(a)
            assert commutator_system(a.matrix).row_apply(x.vec()) == commutator.vec()

    def test_bottom_up_form_equals_top_down(self, primitive_pool):
        # the witnesses are read off this form, and B(A) is its Hermite part
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE, chord_cycle(12), chord_cycle(12, 5)]:
            cm = commutator_map(a)
            form = exactlinalg.row_hermite_with_transform(commutator_system(a.matrix))
            assert form == top_down_row_hermite(cm.transpose())
            assert tuple(b.vec() for b in commutator_lattice(a).basis) == tuple(r for r in form.h if any(r))


class TestCentralizerRank:
    def test_matches_the_basis(self, primitive_pool):
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE]:
            assert centralizer_rank(a) == centralizer_basis(a).rank

    def test_non_derogatory_rank_factors_nothing(self, monkeypatch):
        k = 12
        a = chord_cycle(k)  # companion-like, so non-derogatory
        factored = []
        original = exactlinalg.row_hermite_with_transform

        def counted(m):
            factored.append(m)
            return original(m)

        monkeypatch.setattr(exactlinalg, "row_hermite_with_transform", counted)
        assert centralizer_rank(a) == k
        assert factored == []

    def test_non_derogatory_centralizer_is_the_centre(self, monkeypatch):
        # torsion in Q (Z/2 + Z/2), so not locally cyclic, but non-derogatory:
        # C(A) = Q[A] meet M_K(Z) is read off the centre, with no kernel of
        # the relations and no K1 presentation
        rows = [[1, 3, 3, 1], [2, 3, 2, 3], [0, 3, 0, 2], [2, 3, 1, 1]]
        a = validate(rows)
        assert exactlinalg.non_derogatory(a.matrix) and not cylinder_ring._locally_cyclic(a)
        assert k1_group_structure(a).torsion == (2, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cylinder_ring, "non_derogatory", lambda _: False)
            general = centralizer_basis(validate(rows))
        calls = []
        for name in ("_k1_presentation", "integer_kernel"):
            def counted(*args, original=getattr(cylinder_ring, name), name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(cylinder_ring, name, counted)
        cold = validate(rows)
        assert centralizer_basis(cold) == general == center_basis(cold)
        assert calls == []


def _transform_oracle(a):
    """C(A), B(A) with its witnesses, and the K1 presentation as the transform
    form W . S = H of the commutator system S gave them: C(A) is the W rows
    beside the zero rows of H, B(A) and its witnesses the H and W rows beside
    the others, and the presentation is read off the nonzero H rows."""
    form = exactlinalg.row_hermite_with_transform(commutator_system(a.matrix))
    image = [(h, w) for h, w in zip(form.h, form.w) if any(h)]
    unit = {p: row for row, p in zip(form.h, form.pivots) if row[p] == 1}
    coords = tuple(j for j in range(a.size ** 2) if j not in unit)
    pres = cylinder_ring.K1Presentation(
        coords,
        tuple((p, tuple(row[j] for j in coords)) for p, row in unit.items()),
        tuple(tuple(row[j] for j in coords) for row, p in zip(form.h, form.pivots) if p not in unit),
    )
    return left_kernel(form), tuple(h for h, _ in image), tuple(w for _, w in image), pres


@st.composite
def _commutator_pool(draw):
    """Random matrices, c J + d I (derogatory, with torsion in Q when c > 1)
    and singular derogatory matrices."""
    kind = draw(st.sampled_from(("random", "ones_plus_identity", "singular")))
    if kind == "ones_plus_identity":
        return _ones_plus_identity(draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    return draw(_singular_derogatory() if kind == "singular" else _adjacency())


class TestTransformFreeCommutator:
    """C(A), B(A) and the K1 presentation read off one transform-free Hermite
    basis of B(A), against the transform form they were read off before."""

    def _assert_agrees(self, a, rng):
        a = validate(a.matrix.to_rows())  # cold
        kernel, image, witnesses, pres = _transform_oracle(a)
        pairs = list(_k1_pairs(rng, a, 3))
        # the old path: the same readers, fed the transform form's presentation
        old = validate(a.matrix.to_rows())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cylinder_ring, "_k1_presentation", lambda _: pres)
            structure = k1_group_structure(old)
            decisions = [
                k1_equal(CylinderK1Element(old, x.matrix, x.level), CylinderK1Element(old, y.matrix, y.level))
                for x, y in pairs
            ]
        assert tuple(b.vec() for b in centralizer_basis(a).basis) == kernel
        assert centralizer_rank(a) == len(kernel)
        lattice = commutator_lattice(a)
        assert tuple(b.vec() for b in lattice.basis) == image
        assert tuple(y.vec() for y in lattice.witnesses) == witnesses
        assert cylinder_ring._k1_presentation(a) == pres
        assert k1_group_structure(a) == structure
        assert [k1_equal(x, y) for x, y in pairs] == decisions

    def test_matches_the_transform_form_on_pool(self, primitive_pool):
        rng = random.Random(223)
        extra = [CJ_PLUS_DI, REPEATED_ROW, BIPARTITE, chord_cycle(12), _ones_plus_identity(4, 2, 1), _all_ones(4)]
        for a in [*primitive_pool, *extra]:
            self._assert_agrees(a, rng)

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_commutator_pool(), seed=st.integers(0, 2**16))
    def test_matches_the_transform_form_on_generated_matrices(self, a, seed):
        self._assert_agrees(a, random.Random(seed))

    def test_generated_pool_reaches_torsion_and_derogatory_matrices(self):
        def torsion_and_derogatory(a):
            mp = exactlinalg.minimal_polynomial(a.matrix)
            return bool(k1_group_structure(a).torsion) and mp.k + mp.l < a.size

        assert torsion_and_derogatory(find(_commutator_pool(), torsion_and_derogatory))

    def test_cold_kgroups_and_k1_equal_factor_nothing_k_squared_wide(self, monkeypatch, tmp_path, capsys):
        rows = LARGE["seeded12"]
        k = len(rows)
        path = tmp_path / "seeded12.json"
        path.write_text(json.dumps(rows))
        widths = []
        original = exactlinalg.row_hermite_with_transform

        def counted(m):
            widths.append(m.rows + m.cols)
            return original(m)

        monkeypatch.setattr(exactlinalg, "row_hermite_with_transform", counted)
        m, rng = IntMatrix.from_rows(rows), random.Random(5)
        x, w = random_matrix(rng, k, k, -2, 2), random_matrix(rng, k, k, -1, 1)
        assert main(["--format", "json", "kgroups", str(path)]) == 0
        verdicts = []
        # x + (AW - WA) merges with x; x + I does not, as trace(A^2m) > 0
        for y in (x + m @ w - w @ m, x + IntMatrix.identity(k)):
            classes = [json.dumps({"payload": z.to_rows(), "level": 1, "flavor": "k1"}) for z in (x, y)]
            capsys.readouterr()
            assert main(["--format", "json", "equal", str(path), *classes]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["verdict"])
        assert verdicts == ["equal", "not_equal"]
        assert all(width < k * k for width in widths)
        lattice = commutator_lattice(validate(rows))
        widths.clear()
        assert lattice.witnesses is lattice.witnesses
        assert widths == [2 * k * k]


def _five_readers(a, pairs):
    """B(A), C(A), the centre, the K1 structure and k1_equal on ``pairs``,
    read on a cold copy of ``a``."""
    a = validate(a.matrix.to_rows())
    decisions = [
        k1_equal(CylinderK1Element(a, x.matrix, x.level), CylinderK1Element(a, y.matrix, y.level))
        for x, y in pairs
    ]
    return (
        commutator_lattice(a).basis,
        centralizer_basis(a),
        center_basis(a),
        k1_group_structure(a),
        decisions,
    )


def _companion(last_row):
    k = len(last_row)
    return validate([[int(j == i + 1) for j in range(k)] for i in range(k - 1)] + [list(last_row)])


@st.composite
def _zero_one(draw):
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k))
    try:
        return validate(rows)
    except ValueError:
        assume(False)


def _krylov_gcd(a):
    """gcd_i det[e_i, A e_i, ..., A^(K-1) e_i], by sympy."""
    k = a.size
    powers = [sympy.Matrix(matrix_power(a.matrix, t).to_rows()) for t in range(k)]
    return functools.reduce(sympy.gcd, (sympy.Matrix.hstack(*(p[:, i] for p in powers)).det() for i in range(k)))


# locally cyclic, but e_i is a cyclic vector mod every p for no unit vector e_i
_CYCLIC_THROUGH_NO_UNIT_VECTOR = [[1, 0, 1, 1, 0], [1, 0, 1, 1, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 1], [1, 0, 1, 1, 0]]


def _exact_certificates(a):
    """Two exact forms of "A mod p is cyclic for every prime p": A is
    non-derogatory and Q is torsion-free on the general path (certificate
    turned off), and the K x K^2 matrix of I, A, ..., A^(K-1) has a Smith
    form of ones, by sympy."""
    k = a.size
    mp = exactlinalg.minimal_polynomial(a.matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cylinder_ring, "_locally_cyclic", lambda _: False)
        torsion_free = k1_group_structure(validate(a.matrix.to_rows())).torsion == ()
    powers = sympy.Matrix([list(matrix_power(a.matrix, t).vec()) for t in range(k)])
    smith = [abs(int(d)) for d in invariant_factors(powers, domain=sympy.ZZ)]
    return mp.k + mp.l == k and torsion_free, smith == [1] * k


class TestLocallyCyclic:
    """Locally cyclic A (A mod p cyclic for every prime p) reads B(A), C(A),
    the centre, the K1 structure and degree-one equality off the K power
    traces, and every non-derogatory A reads C(A) off the centre; the general
    path, reached with deg m_A = K hidden from both routes, is the oracle."""

    def _assert_agrees(self, a, rng):
        pairs = list(_k1_pairs(rng, a, 4))
        fast = _five_readers(a, pairs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cylinder_ring, "non_derogatory", lambda _: False)
            assert _five_readers(a, pairs) == fast
        return cylinder_ring._locally_cyclic(validate(a.matrix.to_rows()))

    def test_matches_the_general_path_on_pool(self, primitive_pool):
        rng = random.Random(241)
        companions = [_companion(r) for r in ([1, 1], [2, 0, 1], [1, 3, 0, 2], [3, 1, 2, 1, 1], [1, 0, 0, 2, 0, 1])]
        chords = [chord_cycle(k, shift) for k in (5, 8, 12) for shift in (0, 3)]
        inputs = [*primitive_pool, *companions, *chords, COMPANION, REPEATED_ROW, BIPARTITE]
        inputs.append(validate(_CYCLIC_THROUGH_NO_UNIT_VECTOR))
        certified = [self._assert_agrees(a, rng) for a in inputs]
        assert any(certified) and not all(certified)  # both paths run

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_zero_one(), seed=st.integers(0, 2**16))
    def test_matches_the_general_path_on_generated_matrices(self, a, seed):
        self._assert_agrees(a, random.Random(seed))

    def test_generated_pool_reaches_singular_locally_cyclic_matrices(self):
        def singular_certified(a):
            return exactlinalg.minimal_polynomial(a.matrix).l > 0 and cylinder_ring._locally_cyclic(a)

        assert singular_certified(find(_zero_one(), singular_certified))

    def test_singular_matrix_merges_at_the_last_tested_level(self):
        # J_2 is cyclic mod every p (l = 1, g = 1); X has trace 1, so it is
        # outside B(A), and A X A = 0: the classes merge one level up
        a = validate([[1, 1], [1, 1]])
        assert cylinder_ring._locally_cyclic(a)
        x = CylinderK1Element(a, IntMatrix.from_rows([[1, -1], [0, 0]]), 0)
        zero = CylinderK1Element(a, IntMatrix.zeros(2, 2), 0)
        assert k1_equal(x, zero) == cylinder_ring.K1Decision(Verdict.EQUAL, witness_level=1)
        y = CylinderK1Element(a, IntMatrix.identity(2), 0)
        assert k1_equal(y, zero) == cylinder_ring.K1Decision(Verdict.NOT_EQUAL)
        # the traces read stop below deg m_A: no power past A^(K-1)
        assert len(cylinder_ring._trace_rows(a)) == a.size
        self._assert_agrees(a, random.Random(7))

    @pytest.mark.parametrize(
        "rows, g, torsion",
        [([[1, 2], [2, 1]], 2, (2, 2)), ([[1, 2, 0], [0, 1, 2], [2, 0, 1]], 8, (2,) * 6)],
    )
    def test_certificate_refuses_torsion(self, rows, g, torsion):
        a = validate(rows)
        mp = exactlinalg.minimal_polynomial(a.matrix)
        assert mp.k + mp.l == a.size and _krylov_gcd(a) == g
        assert not cylinder_ring._locally_cyclic(a)
        structure = k1_group_structure(a)
        assert structure.torsion == torsion
        reference = invariant_factors(sympy.Matrix(commutator_map(a).to_rows()), domain=sympy.ZZ)
        assert structure.snf_diagonal == tuple(abs(int(d)) for d in reference)
        self._assert_agrees(a, random.Random(g))

    def test_certificate_is_exact_on_pool(self, primitive_pool):
        # no unit vector is a cyclic vector of this A mod every p, yet A is
        # locally cyclic
        found = validate(_CYCLIC_THROUGH_NO_UNIT_VECTOR)
        assert _krylov_gcd(found) != 1 and cylinder_ring._locally_cyclic(found)
        for a in [*primitive_pool, COMPANION, REPEATED_ROW, BIPARTITE, CJ_PLUS_DI, chord_cycle(6), found]:
            certified = cylinder_ring._locally_cyclic(a)
            assert _exact_certificates(a) == (certified, certified)

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_zero_one())
    @example(a=validate(_CYCLIC_THROUGH_NO_UNIT_VECTOR))
    def test_certificate_is_exact_on_generated_matrices(self, a):
        certified = cylinder_ring._locally_cyclic(a)
        assert _exact_certificates(a) == (certified, certified)

    def test_cold_kgroups_and_k1_equal_build_no_commutator_system(self, monkeypatch, tmp_path, capsys):
        rows = LARGE["seeded12"]
        k = len(rows)
        assert cylinder_ring._locally_cyclic(validate(rows))
        path = tmp_path / "seeded12.json"
        path.write_text(json.dumps(rows))
        calls = []
        for module, name in (
            (exactlinalg, "row_hermite_with_transform"),
            (cylinder_ring, "commutator_system"),
            (cylinder_ring, "invariant_factors"),
            (cylinder_ring, "_k1_presentation"),
        ):
            def counted(*args, original=getattr(module, name), name=name):
                calls.append((name, args))
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        m, rng = IntMatrix.from_rows(rows), random.Random(5)
        x, w = random_matrix(rng, k, k, -2, 2), random_matrix(rng, k, k, -1, 1)
        assert main(["--format", "json", "kgroups", str(path)]) == 0
        verdicts = []
        for y in (x + m @ w - w @ m, x + IntMatrix.identity(k)):
            classes = [json.dumps({"payload": z.to_rows(), "level": 1, "flavor": "k1"}) for z in (x, y)]
            capsys.readouterr()
            assert main(["--format", "json", "equal", str(path), *classes]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["verdict"])
        assert verdicts == ["equal", "not_equal"]
        # the minimal polynomials' builders factor nothing K^2 wide
        assert [(name, args) for name, args in calls if name != "row_hermite_with_transform"] == []
        assert all(args[0].rows + args[0].cols < k * k for _, args in calls)
        lattice = commutator_lattice(validate(rows))
        calls.clear()
        assert lattice.witnesses is lattice.witnesses
        assert [(name, args[0].rows + args[0].cols) for name, args in calls] == [
            ("commutator_system", 2 * k),
            ("row_hermite_with_transform", 2 * k * k),
        ]


# ---------------------------------------------------------------------------
# certificates first, and the lazy closure records behind them
# ---------------------------------------------------------------------------

# 2(J + I): derogatory and nonsingular, with torsion (Z/2)^4 in Q.  B(A) =
# 2 B(J), and A X A lies in 4 B(J) for X in B(J), so such an X merges with 0
# one level up, while every power trace of it vanishes
DOUBLED_ONES = validate([[4, 2, 2], [2, 4, 2], [2, 2, 4]])
# singular (l = 1): a centre element that is no integer polynomial in A and
# joins the subring one level up
SINGULAR_CENTRE = validate([[0, 2, 2], [2, 2, 2], [0, 2, 2]])
SINGULAR_CENTRE_PAYLOAD = IntMatrix.from_rows([[0, 1, 1], [0, 1, 2], [1, 1, 0]])


def _built(record):
    """Which of the lazy parts of a PreimageClosure have been built."""
    return {name for name in ("basis", "seed", "psi", "_chain") if name in vars(record)}


def _eager(record):
    """A record with its lattice, psi and chain read before any witness."""
    record.basis, record.psi, record.closure, record.depth
    return record


def _closure_probes(rng, a):
    """(K1 vectors in Z^J, subring payloads in M_K(Z)): members of the seeds,
    of the closures and of neither."""
    k = a.size
    pres = cylinder_ring._k1_presentation(a)
    mp = exactlinalg.minimal_polynomial(a.matrix)
    k1 = [pres.project(random_matrix(rng, k, k, -3, 3).vec()) for _ in range(6)]
    k1 += [hermite_combine(pres.relations, [rng.randint(-2, 2) for _ in pres.relations]) for _ in range(3)]
    k1 += [pres.project((random_matrix(rng, k, k, -2, 2) + IntMatrix.identity(k)).vec())]
    lattice = _eager(cylinder_ring._k1_closure(validate(a.matrix.to_rows())))
    k1 += [
        hermite_combine(lattice.basis, hermite_combine(lattice.closure, [rng.randint(-2, 2) for _ in lattice.closure]))
        for _ in range(3)
        if lattice.closure
    ]
    p_l = matrix_power(a.matrix, mp.l)
    payloads = [*center_basis(a).basis, *centralizer_basis(a).basis[:4], random_centralizer_element(rng, a, 2)]
    payloads.append(exactlinalg.poly_eval_matrix([rng.randint(-2, 2) for _ in range(k)], a.matrix))
    ra = [(p_l @ x @ p_l).vec() for x in payloads] + [random_matrix(rng, k, k, -2, 2).vec()]
    return k1, ra


class TestLazyClosures:
    """The lazy PreimageClosure records against eager ones, whose lattice,
    psi and chain are built before the first witness, and the queries that
    still need the chain."""

    def _assert_agrees(self, a, rng):
        k1, ra = _closure_probes(rng, a)
        for build, probes in ((cylinder_ring._k1_closure, k1), (cylinder_ring._ra_closure, ra)):
            lazy = build(validate(a.matrix.to_rows()))
            eager = _eager(build(validate(a.matrix.to_rows())))
            assert _built(lazy) == set()
            in_span = [v for v in probes if lattice_contains(lazy.span, v)]
            assert [lazy.witness(v) for v in in_span] == [0] * len(in_span)
            assert _built(lazy) == set()  # a member of the span builds nothing
            assert [lazy.witness(v) for v in probes] == [eager.witness(v) for v in probes]
            assert (lazy.basis, lazy.seed, lazy.psi, lazy.closure, lazy.depth) == (
                eager.basis, eager.seed, eager.psi, eager.closure, eager.depth
            )

    def test_lazy_and_eager_witnesses_agree_on_pool(self, primitive_pool):
        rng = random.Random(251)
        for a in [*primitive_pool, CJ_PLUS_DI, REPEATED_ROW, BIPARTITE, DOUBLED_ONES, SINGULAR_CENTRE]:
            self._assert_agrees(a, rng)

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_commutator_pool(), seed=st.integers(0, 2**16))
    def test_lazy_and_eager_witnesses_agree_on_generated_matrices(self, a, seed):
        self._assert_agrees(a, random.Random(seed))

    def test_torsion_class_merges_above_level_zero_through_the_chain(self):
        a = validate(DOUBLED_ONES.matrix.to_rows())  # cold
        assert not cylinder_ring._locally_cyclic(a) and exactlinalg.minimal_polynomial(a.matrix).l == 0
        assert k1_group_structure(a).torsion == (2, 2, 2, 2)
        j, w = IntMatrix.from_rows([[1] * 3] * 3), IntMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        x = CylinderK1Element(a, j @ w - w @ j, 2)  # in B(J), not in B(A) = 2 B(J)
        zero = CylinderK1Element(a, IntMatrix.zeros(3, 3), 2)
        assert cylinder_ring._trace_witness(a, x.matrix.vec()) == 0  # the traces cannot tell
        decision = k1_equal(x, zero)
        assert (decision.verdict, decision.witness_level) == _k1_equal_oracle(x, zero) == (Verdict.EQUAL, 1)
        assert _built(cylinder_ring._k1_closure(a)) == {"basis", "seed", "psi", "_chain"}

    def test_singular_centre_payload_joins_above_level_zero_through_the_chain(self):
        a = validate(SINGULAR_CENTRE.matrix.to_rows())  # cold
        assert exactlinalg.minimal_polynomial(a.matrix).l == 1
        assert lattice_coordinates(center_basis(a), SINGULAR_CENTRE_PAYLOAD) is not None
        assert cylinder_ring._power_coordinates(a, SINGULAR_CENTRE_PAYLOAD) is None
        x = CylinderK0Element(a, SINGULAR_CENTRE_PAYLOAD, 1)
        witness = ra_membership(x)
        assert (witness.coeffs, witness.level) == _ra_membership_oracle(x)
        assert witness.level == 2
        assert _built(cylinder_ring._ra_closure(a)) == {"basis", "seed", "psi", "_chain"}


def _decisions(a, pairs):
    """k1_equal on ``pairs``, read on a cold copy of ``a``."""
    a = validate(a.matrix.to_rows())
    return [
        k1_equal(CylinderK1Element(a, x.matrix, x.level), CylinderK1Element(a, y.matrix, y.level))
        for x, y in pairs
    ]


def _witnesses(a, payloads):
    """ra_membership of [X, level] for each (X, level), on a cold copy of ``a``."""
    a = validate(a.matrix.to_rows())
    out = []
    for x, level in payloads:
        w = ra_membership(CylinderK0Element(a, x, level))
        out.append(None if w is None else (w.coeffs, w.level))
    return out


@st.composite
def _commutators_plus_identity(draw):
    """A derogatory or torsion matrix and pairs whose difference is a member
    of B(A) plus a multiple of I, pushed up to two levels."""
    a = draw(_commutator_pool())
    rng = random.Random(draw(st.integers(0, 2**16)))
    k, pairs = a.size, []
    for _ in range(3):
        x = CylinderK1Element(a, random_matrix(rng, k, k, -3, 3), rng.randint(0, 2))
        j = rng.randint(0, 2)
        p = matrix_power(a.matrix, j)
        w = random_matrix(rng, k, k, -2, 2)
        c = draw(st.integers(-2, 2))
        payload = p @ x.matrix @ p + a.matrix @ w - w @ a.matrix + IntMatrix.identity(k).scale(c)
        pairs.append((x, CylinderK1Element(a, payload, x.level + j)))
    return a, pairs


class TestCertificates:
    """The trace certificate for degree-one equality and the polynomial
    certificate for subring membership, against the closures with each
    certificate patched off."""

    def _assert_k1_agrees(self, a, pairs):
        fast = _decisions(a, pairs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cylinder_ring, "_trace_witness", lambda a, diff: 0)
            patch.setattr(cylinder_ring, "_locally_cyclic", lambda a: False)
            assert _decisions(a, pairs) == fast
        return fast

    def _assert_ra_agrees(self, a, payloads):
        fast = _witnesses(a, payloads)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cylinder_ring, "_power_coordinates", lambda a, x: None)
            assert _witnesses(a, payloads) == fast

    def test_match_the_closures_on_pool(self, primitive_pool):
        rng = random.Random(257)
        extra = [CJ_PLUS_DI, REPEATED_ROW, BIPARTITE, DOUBLED_ONES, SINGULAR_CENTRE, _ones_plus_identity(4, 2, 1)]
        for a in [*primitive_pool, *extra, _all_ones(4), COMPANION]:
            k = a.size
            self._assert_k1_agrees(a, list(_k1_pairs(rng, a, 6)))
            payloads = [(b, 1) for b in (*center_basis(a).basis, *centralizer_basis(a).basis[:4])]
            payloads += [(exactlinalg.poly_eval_matrix([rng.randint(-3, 3) for _ in range(k + 2)], a.matrix), 2)]
            self._assert_ra_agrees(a, payloads)

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(case=_commutators_plus_identity())
    def test_trace_certificate_is_sound(self, case):
        a, pairs = case
        decisions = self._assert_k1_agrees(a, pairs)
        for (x, y), decision in zip(pairs, decisions):
            px, py, _ = dimension_groups.align(x, y)
            bound = cylinder_ring._trace_witness(a, [s - t for s, t in zip(px, py)])
            if bound is None:  # certified: the closure finds no merge either
                assert decision.verdict is Verdict.NOT_EQUAL
            elif decision.verdict is Verdict.EQUAL:  # the traces bound the depth from below
                assert decision.witness_level >= bound

    def test_generated_pairs_reach_derogatory_torsion_certificates(self):
        def certified_on_torsion_and_derogatory(case):
            a, pairs = case
            mp = exactlinalg.minimal_polynomial(a.matrix)
            if not k1_group_structure(a).torsion or mp.k + mp.l == a.size:
                return False
            diffs = [[s - t for s, t in zip(*dimension_groups.align(x, y)[:2])] for x, y in pairs]
            return any(cylinder_ring._trace_witness(a, d) is None for d in diffs)

        assert certified_on_torsion_and_derogatory(find(_commutators_plus_identity(), certified_on_torsion_and_derogatory))

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_commutator_pool(), coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=7), level=st.integers(0, 3))
    def test_polynomial_payloads_are_their_own_witnesses(self, a, coeffs, level):
        x = exactlinalg.poly_eval_matrix(coeffs, a.matrix)
        q = cylinder_ring._power_coordinates(a, x)
        assert q is not None and exactlinalg.poly_eval_matrix(q, a.matrix) == x
        self._assert_ra_agrees(a, [(x, level)])

    def test_trace_certified_not_equal_builds_no_commutator_lattice(self, monkeypatch):
        a = _ones_plus_identity(6, 2, 1)  # derogatory, Q with torsion
        for name in ("commutator_lattice", "_k1_presentation", "_k1_closure", "commutator_system"):
            def refuse(*args, name=name):
                raise AssertionError(f"{name} called")

            monkeypatch.setattr(cylinder_ring, name, refuse)
        x = CylinderK1Element(a, IntMatrix.identity(6), 1)
        zero = CylinderK1Element(a, IntMatrix.zeros(6, 6), 0)
        assert k1_equal(x, zero) == cylinder_ring.K1Decision(Verdict.NOT_EQUAL)

    def test_polynomial_payload_builds_no_psi(self, monkeypatch):
        a = _all_ones(4)  # singular and derogatory: its subring closure has a psi
        x = CylinderK0Element(a, exactlinalg.poly_eval_matrix([3, -1, 2], a.matrix), 2)
        want = _ra_membership_oracle(x)
        assert cylinder_ring._ra_closure(validate(a.matrix.to_rows())).psi is not None

        def refuse(*args):
            raise AssertionError("closure built")

        factored = []
        original = exactlinalg.row_hermite_with_transform
        monkeypatch.setattr(exactlinalg.PreimageClosure, "psi", property(refuse))
        monkeypatch.setattr(exactlinalg, "lattice_closure_under_preimage", refuse)
        monkeypatch.setattr(cylinder_ring, "preimage_closure", refuse)
        monkeypatch.setattr(exactlinalg, "row_hermite_with_transform", lambda m: factored.append(m) or original(m))
        witness = ra_membership(x)
        assert (witness.coeffs, witness.level) == want
        # the one factorisation is the power form's, deg m_A = 2 square, seen through the module
        assert [(m.rows, m.cols) for m in factored] == [(2, 2)]

    def test_level_zero_equal_runs_no_closure(self, monkeypatch):
        for a in (validate(CJ_PLUS_DI.matrix.to_rows()), _all_ones(4), DOUBLED_ONES):
            k = a.size
            assert cylinder_ring._k1_closure(a).psi is not None  # torsion or singular
            a = validate(a.matrix.to_rows())  # cold closures
            assert not cylinder_ring._locally_cyclic(a)  # its centre takes a saturation too
            rng = random.Random(k)
            w, z = random_matrix(rng, k, k, -3, 3), random_matrix(rng, k, k, -2, 2)
            x, y = CylinderK1Element(a, w, 1), CylinderK1Element(a, w + a.matrix @ z - z @ a.matrix, 1)

            def refuse(*args):
                raise AssertionError("closure chain built")

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(exactlinalg, "lattice_closure_under_preimage", refuse)
                patch.setattr(cylinder_ring, "saturation", refuse)
                assert k1_equal(x, y) == cylinder_ring.K1Decision(Verdict.EQUAL, witness_level=0)
            assert _built(cylinder_ring._k1_closure(a)) == set()
