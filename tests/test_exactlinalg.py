import dataclasses
import functools
import random

import pytest
import sympy
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from sftdim import (
    cylinder_ring,
    dimension_groups,
    duality,
    exactlinalg,
    sft,
    shift_equivalence,
    traces,
)
from sftdim.exactlinalg import (
    DimensionMismatchError,
    IntMatrix,
    LocatedRoot,
    adjugate_edges,
    annihilator,
    characteristic_polynomial,
    describe_group,
    frozen,
    hermite_combine,
    hermite_coords,
    hermite_pivots,
    hermite_row_basis,
    horner_tails,
    integer_kernel,
    invariant_factors,
    matrix_power,
    minimal_polynomial,
    non_derogatory,
    perron_root,
    poly_eval_matrix,
    poly_mod,
    poly_mul,
    row_hermite_with_transform,
    solve_integer_linear,
    xgcd,
)

from conftest import (
    chord_cycle,
    lattice_contains,
    left_kernel,
    random_matrix,
    random_primitive_adjacency,
    reference_newton_root,
    reference_hermite_row_basis,
    reference_minimal_polynomial,
    reference_lattice_contains,
    reference_left_solve,
    reference_matmul,
    reference_row_apply,
    reference_col_apply,
    reference_faddeev_leverrier,
    top_down_row_hermite,
)


def sympy_matrix(m):
    return sympy.Matrix(m.to_rows())


def sympy_factors(m):
    """The nonzero invariant factors of ``m`` by sympy's Smith form."""
    reference = sympy_invariant_factors(sympy.Matrix(m.rows, m.cols, list(m.entries)), domain=sympy.ZZ)
    return tuple(abs(int(d)) for d in reference if d)


def _min_annihilating_divisor(m):
    """Independent oracle: the minimal-degree monic divisor of the
    characteristic polynomial (factored by sympy) that annihilates m,
    returned as low-to-high integer coefficients."""
    lam = sympy.symbols("lam")
    char = sympy.Poly(sympy_matrix(m).charpoly(lam).all_coeffs(), lam, domain="ZZ")
    _, factors = char.factor_list()
    divisors = [sympy.Poly(1, lam, domain="ZZ")]
    for base, mult in factors:
        divisors = [d * base**e for d in divisors for e in range(mult + 1)]
    best = None
    me = sympy_matrix(m)
    for d in divisors:
        if d.degree() == 0:
            continue
        coeffs = [int(c) for c in d.all_coeffs()[::-1]]
        value = sum(
            (c * me**i for i, c in enumerate(coeffs)),
            start=sympy.zeros(m.rows, m.rows),
        )
        if value.is_zero_matrix and (best is None or d.degree() < best.degree()):
            best = d
    assert best is not None
    return [int(c) for c in best.all_coeffs()[::-1]]


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1.5]])

    def test_matmul_and_vectors(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        assert a.row_apply((1, 1)) == (4, 6)
        assert a.col_apply((1, 1)) == (3, 7)
        with pytest.raises(DimensionMismatchError):
            a @ IntMatrix.from_rows([[1, 2, 3]])

    def test_power(self):
        a = IntMatrix.from_rows([[1, 1], [1, 0]])
        assert matrix_power(a, 0) == IntMatrix.identity(2)
        # Fibonacci growth stays exact
        p = matrix_power(a, 50)
        assert p.entry(0, 0) == 20365011074  # F_51

    def test_kron_vec_convention(self):
        # vec(P X Q^T) = (P kron Q) vec(X) in row-major layout
        from sftdim.exactlinalg import kron

        rng = random.Random(7)
        for _ in range(10):
            p = random_matrix(rng, 2, 2)
            q = random_matrix(rng, 2, 2)
            x = random_matrix(rng, 2, 2)
            lhs = (p @ x @ q.transpose()).vec()
            rhs = kron(p, q).col_apply(x.vec())
            assert lhs == rhs


class TestSmithNormalForm:
    """Smith diagonals read through invariant_factors, with sympy as the oracle."""

    def test_already_diagonal(self):
        m = IntMatrix.from_rows([[3, 0], [0, 6]])
        assert invariant_factors(m) == sympy_factors(m) == (3, 6)

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 2)
        assert invariant_factors(m) == sympy_factors(m) == ()

    def test_already_diagonal_edge_cases(self):
        m = IntMatrix.from_rows([[-1]])
        assert invariant_factors(m) == sympy_factors(m) == (1,)
        m = IntMatrix.from_rows([[0, 0], [0, 3]])
        assert invariant_factors(m) == sympy_factors(m) == (3,)

    def test_moderate_size_terminates_quickly(self):
        # the naive two-sided elimination explodes here; the Hermite-based
        # reduction must stay polynomial-sized
        import time

        rng = random.Random(909)
        m = random_matrix(rng, 25, 25, lo=-3, hi=3)
        start = time.monotonic()
        factors = invariant_factors(m)
        assert time.monotonic() - start < 20.0
        assert factors == sympy_factors(m)

    def test_classic_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        # gcd of entries is 2 and |det| = 8, so the factors must be (2, 4)
        assert invariant_factors(m) == sympy_factors(m) == (2, 4)

    def test_random_properties(self):
        rng = random.Random(101)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            factors = invariant_factors(m)
            assert factors == sympy_factors(m)
            assert len(factors) == sympy_matrix(m).rank()
            assert all(d > 0 for d in factors)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert integer_kernel(IntMatrix.identity(3)) == ()

    def test_zero_matrix_kernel_is_standard_basis(self):
        assert integer_kernel(IntMatrix.zeros(2, 2)) == ((1, 0), (0, 1))

    def test_ones_matrix(self):
        assert integer_kernel(IntMatrix.from_rows([[1, 1], [1, 1]])) == ((1, -1),)

    def test_kernel_vectors_and_saturation(self):
        rng = random.Random(202)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            kernel = integer_kernel(m)
            for v in kernel:
                assert all(x == 0 for x in m.col_apply(v))
            if kernel:
                stacked = IntMatrix.from_rows([list(v) for v in kernel])
                # a saturated basis has unit invariant factors
                assert all(d == 1 for d in invariant_factors(stacked))


    def test_kernel_is_already_in_hermite_form(self):
        # the transform rows beside zero Hermite rows are read off as is
        rng = random.Random(204)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), lo=-3, hi=3)
            kernel = integer_kernel(m)
            assert hermite_row_basis(kernel, m.cols) == kernel


@st.composite
def _kernel_shapes(draw):
    """Matrices of every shape, 0..9 rows and 0..10 columns: dense, sparse or
    0/1 entries, some scaled so that no column is a unit pivot."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 10))
    entries = draw(st.sampled_from((st.integers(-3, 3), st.sampled_from((0, 0, 0, 1, -1, 2, -3)), st.integers(0, 1))))
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    return IntMatrix(rows, cols, tuple(scale * x for x in draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))))


class TestWideKernel:
    """integer_kernel scans the columns of a matrix of every shape, wide,
    square or tall; the column Hermite form, which only solving still reads,
    is the oracle."""

    @settings(deadline=None)
    @given(m=_kernel_shapes())
    # a unit row with entries outside [0, d) at relation pivots d = 4 and 3
    @example(m=IntMatrix(4, 8, (
        -1, -3, -1, -3, -3, -3, -3, 3, -2, 1, -3, 2, 2, 0, 0, 1,
        -1, 2, -3, -1, -3, -1, -1, -1, -3, 1, 0, -2, 3, 0, 2, -1,
    )))
    def test_matches_the_column_hermite_form(self, m):
        assert integer_kernel(m) == left_kernel(exactlinalg._column_hermite(m))

    def test_trace_rows_and_scaled_relations(self):
        # the K power traces of chord cycles, and c B(J) for c J + d I, whose
        # relations keep every coordinate
        for a in (chord_cycle(6), chord_cycle(8, 3)):
            k = a.size
            m = IntMatrix(k, k * k, tuple(x for j in range(k) for x in matrix_power(a.matrix, j).transpose().vec()))
            assert integer_kernel(m) == left_kernel(exactlinalg._column_hermite(m))
        for c in (2, 3):
            rel = cylinder_ring._k1_presentation(sft.validate([[c + 1 if i == j else c for j in range(4)] for i in range(4)]))
            assert len(rel.coords) == 16
            m = rel.relation_matrix()
            assert integer_kernel(m) == left_kernel(exactlinalg._column_hermite(m))

    def test_wide_matrices_build_no_transform(self, monkeypatch):
        def refuse(m):
            raise AssertionError("a transform was built")

        monkeypatch.setattr(exactlinalg, "row_hermite_with_transform", refuse)
        assert integer_kernel(IntMatrix.from_rows([[2, 4, 6]])) == ((1, 1, -1), (0, 3, -2))
        assert integer_kernel(IntMatrix.zeros(0, 2)) == ((1, 0), (0, 1))
        # nor does a tall one, or a preimage closure's step
        assert integer_kernel(IntMatrix.from_rows([[1, 2], [2, 4], [3, 6]])) == ((2, -1),)
        psi = IntMatrix.from_rows([[2, 1], [0, 2]])
        assert exactlinalg.lattice_closure_under_preimage(psi, [[4, 0], [0, 4]]) == (((1, 0), (0, 1)), 2)
        # c J + d I: the relations on all K^2 coordinates give C(A) with no
        # transform K^2 + 2K - 2 wide
        a = sft.validate([[3 if i == j else 2 for j in range(6)] for i in range(6)])
        assert cylinder_ring.centralizer_basis(a).rank == 5 * 5 + 1


class TestSolve:
    def test_identity(self):
        m = IntMatrix.identity(3)
        assert solve_integer_linear(m, (4, 5, 6)) == (4, 5, 6)

    def test_parity_obstruction(self):
        assert solve_integer_linear(IntMatrix.from_rows([[2]]), (3,)) is None

    def test_bezout(self):
        m = IntMatrix.from_rows([[2, 3]])
        x = solve_integer_linear(m, (1,))
        assert x is not None and m.col_apply(x) == (1,)

    def test_random_solvable_and_not(self):
        rng = random.Random(303)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x0 = tuple(rng.randint(-4, 4) for _ in range(m.cols))
            b = m.col_apply(x0)
            x = solve_integer_linear(m, b)
            assert x is not None and m.col_apply(x) == b
        with pytest.raises(DimensionMismatchError):
            solve_integer_linear(IntMatrix.identity(2), (1, 2, 3))


class TestHermite:
    def test_canonical_form(self):
        basis = hermite_row_basis([(2, 4), (6, 8)], 2)
        assert basis == ((2, 0), (0, 4))

    def test_generating_sets_agree(self):
        rng = random.Random(404)
        for _ in range(60):
            width = rng.randint(2, 6)
            vectors = [
                tuple(rng.randint(-6, 6) for _ in range(width))
                for _ in range(rng.randint(1, width + 2))
            ]
            h1 = hermite_row_basis(vectors, width)
            shuffled = list(vectors)
            rng.shuffle(shuffled)
            # add redundant combinations
            extra = tuple(a + b for a, b in zip(vectors[0], vectors[-1]))
            scaled = tuple(3 * a for a in vectors[0])
            h2 = hermite_row_basis(shuffled + [extra, scaled], width)
            assert h1 == h2
            for v in vectors:
                assert lattice_contains(h1, v)


@st.composite
def _hermite_input(draw):
    """Non-square integer matrices with zero rows, repeated rows and rows that
    are combinations of others, so many are rank-deficient."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.integers(-6, 6)
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat", "combination")))
        if kind == "zero":
            row = [0] * cols
        elif kind == "repeat" and out:
            row = list(draw(st.sampled_from(out)))
        elif kind == "combination" and out:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
        out.append(row)
    return IntMatrix.from_rows(out)


class TestInsertionOrder:
    """row_hermite_with_transform inserts rows bottom up; [M | I] has full row
    rank, so the canonical form must equal the top-down one exactly."""

    @settings(max_examples=150, deadline=None)
    @given(m=_hermite_input())
    def test_equals_top_down_form(self, m):
        form = row_hermite_with_transform(m)
        assert form == top_down_row_hermite(m)
        assert row_hermite_with_transform(m.transpose()) == top_down_row_hermite(m.transpose())


@st.composite
def _int_matrix(draw, rows=None, cols=None):
    """Small integer matrices, 0-row and 0-column shapes included."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    entries = draw(st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, tuple(entries))


_BIG = 2**60


@st.composite
def _sparse_or_dense(draw, rows=None, cols=None):
    """Matrices of every density, widths 0 to 8, with zero rows and columns,
    rows combined from earlier ones, 0/1 entries, negative entries and entries
    up to 2^60."""
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 8)) if cols is None else cols
    entry = draw(st.sampled_from((
        st.integers(-6, 6),
        st.integers(-_BIG, _BIG),
        st.sampled_from((-_BIG, -1, 1, 2, _BIG)),
        st.just(1),
    )))
    density = draw(st.integers(1, 10))  # out of 10
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination")))
        if kind == "zero":
            row = [0] * cols
        elif kind == "combination" and out:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [draw(entry) if draw(st.integers(0, 9)) < density else 0 for _ in range(cols)]
        out.append([0 if j in zero_cols else x for j, x in enumerate(row)])
    return IntMatrix(rows, cols, tuple(x for row in out for x in row))


class TestZeroSkippingRowOperations:
    """The builder skips the row operations that would subtract a multiple of
    zero; the dense reference builder in conftest performs every one, and
    the forms must be identical."""

    @settings(deadline=None)
    @given(m=_sparse_or_dense())
    def test_equals_dense_reference(self, m):
        for n in (m, m.transpose()):
            rows = [n.row(i) for i in range(n.rows)]
            assert hermite_row_basis(rows, n.cols) == reference_hermite_row_basis(rows, n.cols)
            assert row_hermite_with_transform(n) == top_down_row_hermite(n)

    def test_width_zero(self):
        assert hermite_row_basis([(), ()], 0) == reference_hermite_row_basis([(), ()], 0) == ()
        m = IntMatrix(3, 0, ())
        assert row_hermite_with_transform(m) == top_down_row_hermite(m)


@st.composite
def _product_pair(draw):
    """(a, b) with a n x k and b k x m, shapes from 0 up, either one possibly all zero."""
    n, k, m = draw(st.integers(0, 7)), draw(st.integers(0, 8)), draw(st.integers(0, 8))
    a, b = draw(_sparse_or_dense(n, k)), draw(_sparse_or_dense(k, m))
    zeroed = draw(st.sampled_from((None, None, None, "a", "b")))
    if zeroed == "a":
        a = IntMatrix.zeros(n, k)
    elif zeroed == "b":
        b = IntMatrix.zeros(k, m)
    return a, b


def _same_bits(u, v):
    """Equal entry by entry as numbers of the same type; repr tells -0.0 from 0.0."""
    return [(type(x), repr(x)) for x in u] == [(type(x), repr(x)) for x in v]


class TestProductKernels:
    """``@`` skips the zero entries of both operands and ``col_apply`` sums one
    C-level dot product per row; both, and ``row_apply``, must equal the
    kernels they replaced (kept verbatim in conftest) and the per-entry
    formula.  Float vectors must give the same bits: the summation order is
    unchanged."""

    @settings(deadline=None)
    @given(pair=_product_pair())
    def test_matmul(self, pair):
        a, b = pair
        got = a @ b
        assert got == reference_matmul(a, b)
        assert got.to_rows() == [
            [sum(a.entry(i, s) * b.entry(s, j) for s in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]

    @settings(deadline=None)
    @given(m=_sparse_or_dense(), data=st.data())
    def test_vector_applications(self, m, data):
        entry = st.integers(-3, 3) | st.integers(-_BIG, _BIG)
        v = data.draw(st.lists(entry, min_size=m.rows, max_size=m.rows))
        w = data.draw(st.lists(entry, min_size=m.cols, max_size=m.cols))
        assert m.row_apply(v) == reference_row_apply(m, v) == tuple(
            sum(v[i] * m.entry(i, j) for i in range(m.rows)) for j in range(m.cols)
        )
        assert m.col_apply(w) == reference_col_apply(m, w) == tuple(
            sum(m.entry(i, j) * w[j] for j in range(m.cols)) for i in range(m.rows)
        )
        real = st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 1e-300, 2.0**53 + 1))
        wf = data.draw(st.lists(real, min_size=m.cols, max_size=m.cols))
        assert _same_bits(m.col_apply(wf), reference_col_apply(m, wf))
        assert _same_bits(m.col_apply(tuple(wf)), reference_col_apply(m, wf))

    def test_shapes(self):
        a = IntMatrix.from_rows([[0, 2, -1], [0, 0, 0]])
        b = IntMatrix.from_rows([[5, 0], [0, 0], [-_BIG, 1]])
        cases = [
            (IntMatrix(0, 3, ()), IntMatrix.zeros(3, 2)),  # 0 x n
            (IntMatrix(3, 0, ()), IntMatrix(0, 2, ())),  # n x 0: the product is all zero
            (IntMatrix(2, 2, (0, 0, 0, 0)), IntMatrix(2, 0, ())),
            (IntMatrix(1, 1, (-7,)), IntMatrix(1, 1, (3,))),
            (a, b),  # non-square, a zero row, a zero column, negative entries
            (b, a),
            (a, IntMatrix.zeros(3, 4)),
            (IntMatrix.zeros(4, 2), a),
        ]
        for x, y in cases:
            assert x @ y == reference_matmul(x, y)
        assert IntMatrix(3, 0, ()) @ IntMatrix(0, 2, ()) == IntMatrix.zeros(3, 2)
        assert a @ b == IntMatrix.from_rows([[_BIG, -1], [0, 0]])
        assert IntMatrix(3, 0, ()).col_apply(()) == (0, 0, 0)
        assert IntMatrix(0, 3, ()).row_apply(()) == (0, 0, 0)
        with pytest.raises(DimensionMismatchError):
            a @ a
        with pytest.raises(DimensionMismatchError):
            a.col_apply((1, 2))
        with pytest.raises(DimensionMismatchError):
            a.row_apply((1, 2, 3))

    def test_float_vectors_on_perron_data(self, primitive_pool):
        # the vectors traces.trace_ch and the Perron residuals apply
        for a in primitive_pool:
            data = traces.perron(a)
            m = a.matrix @ a.matrix - a.matrix
            for w in (data.right, data.left):
                assert _same_bits(m.col_apply(w), reference_col_apply(m, w))


class TestHermiteReadOff:
    """hermite_coords is the one pivot read-off behind left_solve, the lattice
    coordinates and the tests' lattice_contains; the read-offs it replaced,
    kept verbatim in conftest, must agree with it."""

    @settings(deadline=None)
    @given(m=_sparse_or_dense(), data=st.data())
    def test_membership_equals_reference(self, m, data):
        width = m.cols
        basis = hermite_row_basis([m.row(i) for i in range(m.rows)], width)
        pivots = hermite_pivots(basis)
        entry = st.integers(-9, 9)
        targets = [tuple(data.draw(st.lists(entry, min_size=width, max_size=width)))]
        for _ in range(2):
            c = tuple(data.draw(st.integers(-3, 3)) for _ in basis)
            member = tuple(sum(x * row[t] for x, row in zip(c, basis)) for t in range(width))
            assert hermite_coords(basis, pivots, member) == c
            targets.append(member)
            for t in range(width):
                bumped = member[:t] + (member[t] + 1,) + member[t + 1 :]
                targets.append(bumped)
                if t in pivots and basis[pivots.index(t)][t] > 1:
                    # the pivot entry does not divide: the read-off stops there
                    assert not reference_lattice_contains(basis, bumped)
        for v in targets:
            coords = hermite_coords(basis, pivots, v)
            assert lattice_contains(basis, v) == reference_lattice_contains(basis, v)
            assert lattice_contains(basis, v) == (coords is not None)
            if coords is not None and basis:
                assert hermite_combine(basis, coords) == v

    @settings(deadline=None)
    @given(m=_sparse_or_dense(), data=st.data())
    def test_left_solve_equals_reference(self, m, data):
        # rank-deficient inputs leave zero rows in H, which the read-off skips
        form = row_hermite_with_transform(m)
        y = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
        member = m.row_apply(y)
        rhs = [member, tuple(data.draw(st.lists(st.integers(-9, 9), min_size=m.cols, max_size=m.cols)))]
        rhs += [member[:t] + (member[t] + 1,) + member[t + 1 :] for t in range(m.cols)]
        assert form.left_solve(member) is not None
        for b in rhs:
            got = form.left_solve(b)
            assert got == reference_left_solve(form, b)
            if got is not None:
                assert m.row_apply(got) == b

    def test_examples(self):
        assert hermite_coords(((2, 1),), (0,), (2, 1)) == (1,)
        assert hermite_coords(((2, 1),), (0,), (1, 0)) is None  # 2 does not divide 1
        assert not reference_lattice_contains(((2, 1),), (1, 0))
        assert hermite_coords(((1, 0),), (0,), (1, 1)) is None  # left over off the pivots
        assert hermite_combine(((2, 1), (0, 3)), (1, -1)) == (2, -2)
        m = IntMatrix.from_rows([[2, 4], [1, 2], [0, 0]])
        form = row_hermite_with_transform(m)
        assert sum(not any(r) for r in form.h) == 2
        for b in ((1, 2), (2, 4), (1, 3), (0, 1), (0, 0)):
            assert form.left_solve(b) == reference_left_solve(form, b)
        assert form.left_solve((1, 3)) is None and m.row_apply(form.left_solve((3, 6))) == (3, 6)

    def test_width_zero(self):
        assert hermite_pivots(()) == () and hermite_coords((), (), ()) == ()
        assert lattice_contains((), ()) and reference_lattice_contains((), ())
        form = row_hermite_with_transform(IntMatrix(3, 0, ()))
        assert form.left_solve(()) == reference_left_solve(form, ()) == (0, 0, 0)
        form = row_hermite_with_transform(IntMatrix(0, 2, ()))
        assert form.left_solve((0, 0)) == reference_left_solve(form, (0, 0)) == ()
        assert form.left_solve((0, 1)) is reference_left_solve(form, (0, 1)) is None


class TestInvariantFactors:
    """invariant_factors, the library's Smith form, against sympy's."""

    @settings(deadline=None)
    @given(m=st.one_of(
        _int_matrix(),
        _int_matrix(rows=0),
        _int_matrix(cols=0),
        st.builds(IntMatrix.zeros, st.integers(0, 5), st.integers(0, 5)),
        _sparse_or_dense(),
    ))
    def test_equals_smith_form_and_sympy(self, m):
        # sympy's Smith form is the independent oracle
        assert invariant_factors(m) == sympy_factors(m)

    def test_honours_the_pass_cap(self, monkeypatch):
        monkeypatch.setattr(exactlinalg, "_SNF_PASS_CAP", 1)
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        with pytest.raises(RuntimeError):
            invariant_factors(m)
        monkeypatch.setattr(exactlinalg, "_SNF_PASS_CAP", 0)
        with pytest.raises(RuntimeError):
            invariant_factors(IntMatrix.identity(2))

    def test_describe_group(self):
        # the string that kgroups' cylinder_k1 and the Bowen-Franks note share
        cases = [
            ((0, ()), "0"),
            ((1, ()), "Z"),
            ((3, ()), "Z^3"),
            ((0, (1, 1, 2)), "Z/2"),
            ((1, (4,)), "Z + Z/4"),
            ((2, (1, 2, 6)), "Z^2 + Z/2 + Z/6"),
        ]
        for (free, factors), want in cases:
            assert describe_group(free, factors) == want


class TestEntryAccess:
    """transpose, kron and submatrix read ``entries`` by slice or stride;
    each must equal its per-entry formula."""

    @settings(max_examples=100, deadline=None)
    @given(m=_int_matrix())
    def test_transpose(self, m):
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert all(t.entry(j, i) == m.entry(i, j) for i in range(m.rows) for j in range(m.cols))
        assert all(m.column(j) == tuple(m.entry(i, j) for i in range(m.rows)) for j in range(m.cols))

    @settings(max_examples=100, deadline=None)
    @given(a=_int_matrix(), b=_int_matrix())
    def test_kron(self, a, b):
        from sftdim.exactlinalg import kron

        p = kron(a, b)
        assert (p.rows, p.cols) == (a.rows * b.rows, a.cols * b.cols)
        for i in range(a.rows):
            for j in range(a.cols):
                for s in range(b.rows):
                    for t in range(b.cols):
                        got = p.entry(i * b.rows + s, j * b.cols + t)
                        assert got == a.entry(i, j) * b.entry(s, t)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=_int_matrix())
    def test_submatrix(self, data, m):
        rows = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=4)) if m.rows else []
        cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=4)) if m.cols else []
        sub = m.submatrix(rows, cols)
        assert (sub.rows, sub.cols) == (len(rows), len(cols))
        assert sub.to_rows() == [[m.entry(i, j) for j in cols] for i in rows]


def _saturation_oracle(rows, width):
    """The kernel of the kernel: the integer vectors orthogonal to every
    integer vector orthogonal to the lattice."""
    relations = left_kernel(row_hermite_with_transform(IntMatrix.from_columns(rows, width)))
    return left_kernel(row_hermite_with_transform(IntMatrix.from_columns(relations, width)))


@st.composite
def _lattice(draw):
    """Hermite bases: full rank, rank deficient, already saturated (rows of a
    unimodular matrix) and with large non-unit pivots."""
    width = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("full", "deficient", "saturated", "large")))
    entry = st.integers(-5, 5)
    if kind == "saturated":
        u = IntMatrix.identity(width)
        for _ in range(draw(st.integers(0, 8))):
            i, j = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
            if i != j:
                e = IntMatrix.identity(width).to_rows()
                e[i][j] = draw(entry)
                u = IntMatrix.from_rows(e) @ u
        rows = u.to_rows()[: draw(st.integers(0, width))]
    else:
        count = width if kind != "deficient" else draw(st.integers(0, width - 1))
        rows = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(count)]
        if kind == "deficient" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([2 * x - 3 * y for x, y in zip(a, b)])
        if kind == "large":
            scales = st.sampled_from((1, 2, 6, 2**40, 3**25, 10**9 + 7))
            rows = [[draw(scales) * x for x in r] for r in rows]
    return hermite_row_basis(rows, width), width


def _pivot_product(rows):
    product = 1
    for r in rows:
        product *= next(x for x in r if x)
    return product


class TestSaturation:
    @settings(max_examples=200, deadline=None)
    @given(lattice=_lattice())
    def test_matches_kernel_of_kernel(self, lattice):
        h, width = lattice
        sat = exactlinalg.saturation(h, width)
        assert sat == _saturation_oracle(h, width)
        assert len(sat) == len(h)
        assert all(lattice_contains(sat, r) for r in h)
        # both span the same rational space, so they share pivot columns and
        # the index [sat : L] is the ratio of pivot products, which must be
        # the order of the torsion of Z^width / L
        torsion = 1
        if h:
            for d in invariant_factors(IntMatrix.from_rows(h)):
                torsion *= d
        assert _pivot_product(h) == _pivot_product(sat) * torsion
        assert exactlinalg.saturation(sat, width) == sat

    def test_examples(self):
        assert exactlinalg.saturation(((2, 4, 6),), 3) == ((1, 2, 3),)
        assert exactlinalg.saturation(((2, 0), (0, 3)), 2) == ((1, 0), (0, 1))
        assert exactlinalg.saturation(((1, 1, 0), (0, 2, 2)), 3) == ((1, 0, -1), (0, 1, 1))
        assert exactlinalg.saturation((), 4) == ()


class TestPolynomials:
    def test_mod_monic(self):
        # x^2 mod (x^2 - x - 1) = x + 1
        assert poly_mod((0, 0, 1), (-1, -1, 1)) == (1, 1)
        assert poly_mod((-1, -1, 1), (-1, -1, 1)) == ()

    def test_mul(self):
        assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)

    def test_eval(self):
        a = IntMatrix.from_rows([[1, 1], [1, 0]])
        # p(A) for the annihilating polynomial is zero
        assert poly_eval_matrix((-1, -1, 1), a).is_zero

    def test_xgcd(self):
        for a, b in [(12, 18), (-5, 7), (0, 0), (4, 0), (0, -9)]:
            g, x, y = xgcd(a, b)
            assert g >= 0 and x * a + y * b == g


@st.composite
def _square(draw):
    """A K <= 6 integer matrix; half are derogatory (U diag(B, B) U^-1 or cJ + dI),
    so their characteristic polynomial is not squarefree."""
    if not draw(st.booleans()):
        k = draw(st.integers(1, 6))
        return IntMatrix.from_rows(
            draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k)))
    if draw(st.booleans()):
        k, c, d = draw(st.integers(3, 6)), draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return IntMatrix.from_rows([[c + d * (i == j) for j in range(k)] for i in range(k)])
    h = draw(st.integers(1, 3))
    k = 2 * h
    block = draw(st.lists(st.lists(st.integers(-2, 2), min_size=h, max_size=h), min_size=h, max_size=h))
    m = IntMatrix.from_rows(
        [[block[i % h][j % h] if i // h == j // h else 0 for j in range(k)] for i in range(k)])
    return _conjugated(draw, m)


@st.composite
def _jordan(draw):
    """U (J_s1(c1) + ... + J_sr(cr)) U^-1 with K <= 12: nilpotent blocks (c = 0)
    and repeated eigenvalues are common, so m_A is often a proper divisor of
    chi_A with a power of x in it."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from((0, 0, 1, -1, 2))),
                           min_size=1, max_size=3))
    k = sum(s for s, _ in blocks)
    rows = [[0] * k for _ in range(k)]
    start = 0
    for size, c in blocks:
        for t in range(start, start + size):
            rows[t][t] = c
            if t + 1 < start + size:
                rows[t][t + 1] = 1
        start += size
    return _conjugated(draw, IntMatrix.from_rows(rows))


def _conjugated(draw, m):
    """``m`` conjugated by up to three elementary matrices I + c e_i e_j^T,
    whose inverse is I - c e_i e_j^T."""
    k = m.rows
    for _ in range(draw(st.integers(0, 3))):
        i, j, c = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)), draw(st.integers(-2, 2))
        if i == j:
            continue
        e = [[c * (r == i and t == j) for t in range(k)] for r in range(k)]
        ident = IntMatrix.identity(k)
        m = (ident + IntMatrix.from_rows(e)) @ m @ (ident - IntMatrix.from_rows(e))
    return m


class TestCharPoly:
    def test_against_sympy(self):
        rng = random.Random(505)
        lam = sympy.symbols("lam")
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            mine = characteristic_polynomial(m)
            ref = sympy_matrix(m).charpoly(lam).all_coeffs()[::-1]
            assert list(mine) == [int(c) for c in ref]


@st.composite
def _scalar_or_block_diagonal(draw):
    """c I (the zero matrix at c = 0) or diag(B_1, ..., B_r), K <= 8, each
    block drawn afresh or a copy of an earlier one, conjugated."""
    if draw(st.booleans()):
        k, c = draw(st.integers(1, 6)), draw(st.sampled_from((0, 0, 1, -2, 3)))
        return IntMatrix.from_rows([[c * (i == j) for j in range(k)] for i in range(k)])
    blocks = []
    for _ in range(draw(st.integers(2, 3))):
        if blocks and draw(st.booleans()):
            blocks.append(draw(st.sampled_from(blocks)))
        else:
            h = draw(st.integers(1, 3))
            blocks.append(draw(st.lists(st.lists(st.integers(-2, 2), min_size=h, max_size=h),
                                        min_size=h, max_size=h)))
    k = sum(len(b) for b in blocks)
    rows = [[0] * k for _ in range(k)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[start + i][start : start + len(b)] = row
        start += len(b)
    return _conjugated(draw, IntMatrix.from_rows(rows))


def _derogatory_pool():
    """Derogatory, scalar, zero, nilpotent-Jordan and block-diagonal matrices,
    beside random ones."""
    return st.one_of(_square(), _jordan(), _scalar_or_block_diagonal())


class TestKrylovCharacteristicPolynomial:
    """chi_M and the adjugate edges from Krylov vectors against the
    Faddeev-LeVerrier recurrence they replaced and sympy's charpoly, and the
    guard that no K x K product serves them."""

    @settings(deadline=None)
    @given(m=_derogatory_pool())
    @example(m=IntMatrix.zeros(4, 4))
    @example(m=IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    @example(m=IntMatrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]))
    def test_matches_faddeev_leverrier_and_sympy(self, m):
        chi, rows, cols = reference_faddeev_leverrier(m)
        assert characteristic_polynomial(m) == chi
        assert adjugate_edges(m) == (rows, cols)
        t = sympy.symbols("t")
        assert chi == tuple(int(c) for c in reversed(sympy_matrix(m).charpoly(t).all_coeffs()))

    def test_pool_reaches_every_kind(self):
        def kinds(m):
            mp = minimal_polynomial(m)
            return {
                "derogatory": not non_derogatory(m),
                "scalar": mp.k + mp.l == 1 and m.rows > 1,
                "nilpotent": mp.k == 0 and m.rows > 1,
                "zero": m.is_zero and m.rows > 1,
            }

        for kind in ("derogatory", "scalar", "nilpotent", "zero"):
            assert kinds(find(_derogatory_pool(), lambda m: kinds(m)[kind]))[kind]

    def test_horner_tails_are_the_adjugate_coefficients(self):
        # M_k = H_(k-1)(M) for the tails of chi: their columns are adj(tI - M)'s
        rng = random.Random(311)
        for n in range(1, 6):
            m = random_matrix(rng, n, n, lo=-3, hi=3)
            chi = characteristic_polynomial(m)
            for j in range(n):
                e = tuple(int(t == j) for t in range(n))
                mk = IntMatrix.identity(n)
                for k, tail in enumerate(horner_tails(chi, m.col_apply, e), 1):
                    assert tail == mk.column(j)
                    mk = m @ mk + IntMatrix.identity(n).scale(chi[n - k])

    def test_no_matrix_product_serves_chi_or_the_edges(self, monkeypatch):
        def refused(self, other):
            raise AssertionError("a K x K product")

        inputs = [
            IntMatrix.from_rows(rows)
            for rows in (
                chord_cycle(20).matrix.to_rows(),
                [[2 + (i == j) for j in range(8)] for i in range(8)],  # 2J + I
                [[1, 2, 0, 0], [3, 1, 0, 0], [0, 0, 1, 2], [0, 0, 3, 1]],  # diag(B, B)
                [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # nilpotent
                [[0] * 3] * 3,
            )
        ]
        want = [reference_faddeev_leverrier(m) for m in inputs]
        monkeypatch.setattr(IntMatrix, "__matmul__", refused)
        for m, (chi, rows, cols) in zip(inputs, want):
            m = IntMatrix(m.rows, m.cols, m.entries)  # a fresh matrix: nothing is memoised
            assert characteristic_polynomial(m) == chi
            assert adjugate_edges(m) == (rows, cols)

    @pytest.mark.parametrize("rows, derogatory", [
        (chord_cycle(12).matrix.to_rows(), False),
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], False),
        ([[2 + (i == j) for j in range(5)] for i in range(5)], True),
        ([[1, 2, 0, 0], [3, 1, 0, 0], [0, 0, 1, 2], [0, 0, 3, 1]], True),
    ])
    def test_non_derogatory_runs_no_further_annihilator(self, rows, derogatory, monkeypatch):
        calls = []
        real = exactlinalg.annihilator

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exactlinalg, "annihilator", counted)
        minimal_polynomial(IntMatrix.from_rows(rows))
        by_minimal = len(calls)
        calls.clear()
        m = IntMatrix.from_rows(rows)  # fresh: the minimal polynomial is found again
        characteristic_polynomial(m)
        assert non_derogatory(m) is not derogatory
        assert (len(calls) > by_minimal) is derogatory
        assert all(len(args) == 3 for args in calls[:by_minimal])


class TestMinimalPolynomial:
    def test_scalar(self):
        mp = minimal_polynomial(IntMatrix.from_rows([[2]]))
        assert (mp.l, mp.k, mp.p_coeffs) == (0, 1, (-2, 1))

    def test_fibonacci(self):
        mp = minimal_polynomial(IntMatrix.from_rows([[1, 1], [1, 0]]))
        assert (mp.l, mp.p_coeffs) == (0, (-1, -1, 1))

    def test_repeated_eigenvalue(self):
        mp = minimal_polynomial(IntMatrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]]))
        assert (mp.l, mp.k, mp.p_coeffs) == (0, 2, (4, -5, 1))

    def test_zero_root(self):
        mp = minimal_polynomial(IntMatrix.from_rows([[1, 1], [1, 1]]))
        assert (mp.l, mp.k, mp.p_coeffs) == (1, 1, (-2, 1))
        assert mp.m_coeffs == (0, -2, 1)

    def test_annihilates_and_divisor_oracle_agreement(self):
        rng = random.Random(606)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, lo=-3, hi=3)
            mp = minimal_polynomial(m)
            assert poly_eval_matrix(mp.m_coeffs, m).is_zero
            assert mp.p_coeffs[0] != 0 and mp.p_coeffs[-1] == 1
            ref = _min_annihilating_divisor(m)
            assert list(mp.m_coeffs) == ref

    @settings(max_examples=80, deadline=None)
    @given(m=_square())
    def test_divides_charpoly_annihilates_and_is_minimal(self, m):
        mp = minimal_polynomial(m)
        assert mp.m_coeffs[-1] == 1
        assert poly_mod(characteristic_polynomial(m), mp.m_coeffs) == ()
        assert poly_eval_matrix(mp.m_coeffs, m).is_zero
        # minimality: I, M, ..., M^(deg - 1) are linearly independent
        degree = len(mp.m_coeffs) - 1
        powers = sympy.Matrix([matrix_power(m, i).vec() for i in range(degree)])
        assert powers.rank() == degree
        assert mp == reference_minimal_polynomial(m)

    @given(m=st.one_of(_square(), _jordan()))
    @example(m=IntMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    @example(m=IntMatrix.zeros(3, 3))
    def test_matches_the_powers_builder(self, m):
        assert minimal_polynomial(m) == reference_minimal_polynomial(m)

    @pytest.mark.parametrize("rows, m_coeffs", [
        *((chord_cycle(k).matrix.to_rows(), (-1, -1) + (0,) * (k - 2) + (1,)) for k in (5, 12, 20, 30)),
        ([[2 + (i == j) for j in range(8)] for i in range(8)], (17, -18, 1)),  # 2J + I
        ([[1, 2, 0, 0], [3, 1, 0, 0], [0, 0, 1, 2], [0, 0, 3, 1]], (-5, -2, 1)),  # diag(B, B)
        ([[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 1]], (0, 1, -2, 1)),  # chi = x (x - 1)^3
    ], ids=["chord5", "chord12", "chord20", "chord30", "2J+I", "diag(B,B)", "repeated_row"])
    def test_no_builder_wider_than_2k_plus_1(self, rows, m_coeffs, monkeypatch):
        # chord cycles: chi = x^k - x - 1 is squarefree; the other three are derogatory
        k = len(rows)
        oracle = reference_minimal_polynomial(IntMatrix.from_rows(rows))
        widths, chi_calls = [], []

        class Recording(exactlinalg._HnfBuilder):
            def __init__(self, width):
                widths.append(width)
                super().__init__(width)

        def recorded_chi(m):
            chi_calls.append(m)
            return characteristic_polynomial(m)

        monkeypatch.setattr(exactlinalg, "_HnfBuilder", Recording)
        monkeypatch.setattr(exactlinalg, "characteristic_polynomial", recorded_chi)
        mp = minimal_polynomial(IntMatrix.from_rows(rows))  # a fresh matrix: nothing is memoised
        assert mp == oracle and mp.m_coeffs == m_coeffs
        assert widths and max(widths) <= 2 * k + 1
        assert not chi_calls

    def test_divisor_lattice_minimality(self):
        # No proper monic divisor of the characteristic polynomial of lower
        # degree annihilates the matrix (desk-scale brute force via factoring).
        rng = random.Random(707)
        lam = sympy.symbols("lam")
        for _ in range(10):
            n = rng.randint(2, 4)
            m = random_matrix(rng, n, n, lo=-2, hi=2)
            mp = minimal_polynomial(m)
            char = sympy.Poly(
                list(characteristic_polynomial(m))[::-1], lam, domain="ZZ"
            )
            _, factors = char.factor_list()
            divisors = [sympy.Poly(1, lam, domain="ZZ")]
            for base, mult in factors:
                divisors = [
                    d * base**e for d in divisors for e in range(mult + 1)
                ]
            me = sympy_matrix(m)
            for d in divisors:
                if d.degree() >= mp.l + mp.k or d.degree() == 0:
                    continue
                coeffs = [int(c) for c in d.all_coeffs()[::-1]]
                value = poly_eval_matrix(tuple(coeffs), m)
                assert not value.is_zero, "a smaller divisor annihilates the matrix"


@functools.lru_cache(maxsize=None)
def _perron_matrices() -> tuple:
    rng = random.Random(2718)
    pool = [random_primitive_adjacency(rng, k) for k in (1, 2, 3, 4, 5, 6) for _ in range(3)]
    return tuple(pool + [chord_cycle(k) for k in (12, 20, 40)])


class TestAdjugateAndPerronRoot:
    """The adjugate edges against sympy's adjugate, the located root and its
    refinements against sympy's real roots and the Newton iteration it
    replaced, the sign test against polynomials whose value at the root is
    known exactly, and the cost of each refinement."""

    def test_edges_against_sympy_adjugate(self):
        rng = random.Random(909)
        t = sympy.symbols("t")
        for _ in range(15):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, lo=-3, hi=3)
            adj = (t * sympy.eye(n) - sympy_matrix(m)).adjugate()
            rows, cols = adjugate_edges(m)
            assert len(rows) == len(cols) == n
            for j in range(n):  # entry j of row 0 and of column 0, as polynomials in t
                for entry, edge in ((adj[0, j], rows), (adj[j, 0], cols)):
                    want = sympy.Poly(entry, t).all_coeffs()
                    got = [e[j] for e in edge]  # M_1 (t^(n-1)) first
                    assert [int(c) for c in want] == got[len(got) - len(want):]
                    assert not any(got[: len(got) - len(want)])
            assert characteristic_polynomial(m) == tuple(
                int(c) for c in reversed(sympy_matrix(m).charpoly(t).all_coeffs())
            )

    def test_root_is_enclosed(self):
        x = sympy.symbols("x")
        for a in _perron_matrices():
            chi = sympy.Poly(list(reversed(characteristic_polynomial(a.matrix))), x)
            root = perron_root(a.matrix)
            for bits in (64, 128, 256, 512):
                assert root.bits == bits and root.steps >= 0
                # by Sturm sequences: chi has a root in [lo, hi] and none above hi
                lo, hi = sympy.Rational(root.r - 1, 2**bits), sympy.Rational(root.r, 2**bits)
                inside = chi.count_roots(lo, hi)
                assert inside >= 1 and chi.count_roots(lo) == inside
                root = root.refined()

    def test_bits_64_matches_the_replaced_newton(self, primitive_pool):
        for a in [*primitive_pool, *(chord_cycle(k) for k in (12, 20, 40, 60, 100))]:
            rows = a.matrix.to_rows()
            want = reference_newton_root(characteristic_polynomial(a.matrix), max(map(sum, rows)))
            root = perron_root(a.matrix)
            assert (root.r, root.steps, root.bits) == (*want, 64)

    def test_takes_only_the_matrix(self):
        with pytest.raises(TypeError):
            perron_root(chord_cycle(7).matrix, 64)

    def test_uncertified_root_is_refined(self, monkeypatch):
        want = perron_root(chord_cycle(7).matrix)
        a = chord_cycle(7)  # a fresh matrix: nothing memoised
        real = LocatedRoot.value
        refused = []

        def value(root, p):
            # report chi > 0 at the first lower end asked for at 64 bits
            val = real(root, p)
            if root.bits == 64 and root.r == want.r - 1 and not refused:
                refused.append(root.r)
                return abs(val) + 1
            return val

        monkeypatch.setattr(LocatedRoot, "value", value)
        root = perron_root(a.matrix)
        assert refused == [want.r - 1]
        assert root == want.refined() and root.bits == 128
        x = sympy.symbols("x")
        lam = max(sympy.Poly(x**7 - x - 1, x).real_roots())
        assert sympy.Rational(root.r - 1, 2**128) <= lam <= sympy.Rational(root.r, 2**128)

    @settings(deadline=None)
    @given(
        data=st.data(),
        h=st.lists(st.integers(-9, 9), max_size=4),
        c=st.integers(-3, 3),
    )
    def test_sign_is_never_wrong(self, data, h, c):
        # p = chi h + c takes the value c at the Perron root, exactly
        a = data.draw(st.sampled_from(_perron_matrices()))
        chi = characteristic_polynomial(a.matrix)
        p = list(poly_mul(chi, h)) or [0]
        p[0] += c
        want = (c > 0) - (c < 0)
        root = perron_root(a.matrix)
        while root.bits <= 4096:
            got = root.sign(p)
            assert got in (0, want)
            if got:
                break
            root = root.refined()
        assert got == want

    def test_constant_and_zero_polynomials(self):
        def root_of(c):  # the full c-shift: lambda = c located exactly, on [c - 2^-64, c]
            return LocatedRoot((-c, 1), c << 64, 64, 0)

        assert root_of(1).sign(()) == 0
        assert root_of(1).sign((0, 0)) == 0
        assert root_of(3).sign((-5,)) == -1
        # x - 2 on [2 - 2^-64, 2]: zero at the right end, so never certain
        assert root_of(2).sign((-2, 1)) == 0

    def test_refinements_start_from_the_last_upper_end(self, monkeypatch):
        # every refinement takes at most 3 Newton steps, where a restart from
        # the row sum takes about log2(bits); a warm positivity test takes none
        real, seen = exactlinalg._newton, []  # (bits, Newton steps) of each location

        def newton(chi, r, bits, steps):
            root = real(chi, r, bits, steps)
            seen.append((bits, root.steps - steps))
            return root

        monkeypatch.setattr(exactlinalg, "_newton", newton)
        fib = sft.validate([[1, 1], [1, 0]])
        f = [0, 1]
        while len(f) < 802:
            f.append(f[-1] + f[-2])
        ladder = range(60, 801, 37)
        for n in ladder:
            want = "positive" if n % 2 else "negative_or_mixed"
            assert dimension_groups.is_positive_s(
                dimension_groups.StableElement(fib, (f[n], -f[n + 1]), 3)
            ).kind.value == want
        for k in (5, 12, 20, 40):
            root = perron_root(chord_cycle(k).matrix)
            while root.bits < 2048:
                root = root.refined()
        refinements = [steps for bits, steps in seen if bits > 64]
        assert max(bits for bits, _ in seen) >= 1024
        assert len(refinements) >= 4 * 5 and max(refinements) <= 3
        seen.clear()
        for n in ladder:
            dimension_groups.is_positive_s(dimension_groups.StableElement(fib, (f[n], -f[n + 1]), 3))
        assert seen == []

    @settings(deadline=None)
    @given(m=_square(), data=st.data())
    def test_annihilator_is_the_least_relation(self, m, data):
        v = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=m.rows, max_size=m.rows)))
        p, _ = annihilator(v, m.row_apply, m.rows)
        assert p[-1] == 1
        assert (IntMatrix.from_rows([v]) @ poly_eval_matrix(p, m)).is_zero
        krylov = [v]
        for _ in range(m.rows):
            krylov.append(m.row_apply(krylov[-1]))
        assert sympy.Matrix(krylov).rank() == len(p) - 1
        assert poly_mod(minimal_polynomial(m).m_coeffs, p) == ()


# ---------------------------------------------------------------------------
# frozen records, against dataclass(frozen=True) twins
# ---------------------------------------------------------------------------

# Every record in the package: (module, class, fields in order, defaults).
RECORDS = [
    (exactlinalg, "IntMatrix", ("rows", "cols", "entries"), {}),
    (exactlinalg, "RowHermiteForm", ("h", "w", "pivots"), {}),
    (
        exactlinalg,
        "PreimageClosure",
        ("lattice", "image", "generators", "span", "span_pivots"),
        {},
    ),
    (exactlinalg, "MinPolyData", ("l", "k", "p_coeffs", "m_coeffs"), {}),
    (exactlinalg, "LocatedRoot", ("chi", "r", "bits", "steps"), {}),
    (sft, "AdjacencyMatrix", ("matrix",), {}),
    (sft, "SpectralDecomposition", ("period", "classes", "component", "vertex_order"), {}),
    (traces, "PerronData", ("eigenvalue", "left", "right", "residual", "relative_residual", "iterations"), {}),
    (dimension_groups, "StableElement", ("ambient", "vector", "level"), {}),
    (dimension_groups, "UnstableElement", ("ambient", "vector", "level"), {}),
    (dimension_groups, "HomoclinicElement", ("ambient", "matrix", "level"), {}),
    (dimension_groups, "PositivityResult", ("kind",), {}),
    (duality, "StableHom", ("ambient", "z", "level"), {}),
    (cylinder_ring, "CentralizerLattice", ("basis", "rank"), {}),
    (cylinder_ring, "CommutatorLattice", ("matrix", "basis", "rank"), {}),
    (cylinder_ring, "K1Structure", ("free_rank", "torsion", "snf_diagonal"), {}),
    (cylinder_ring, "CylinderK0Element", ("ambient", "matrix", "level"), {}),
    (cylinder_ring, "CylinderK1Element", ("ambient", "matrix", "level"), {}),
    (cylinder_ring, "K1Decision", ("verdict", "witness_level"), {"witness_level": None}),
    (cylinder_ring, "K1Presentation", ("coords", "unit_rows", "relations"), {}),
    (cylinder_ring, "RAElement", ("ambient", "coeffs", "level"), {}),
    (shift_equivalence, "ShiftEquivalenceWitness", ("r", "s", "k"), {}),
    (shift_equivalence, "EquationCheck", ("name", "ok", "residual"), {"residual": None}),
    (shift_equivalence, "VerificationReport", ("ok", "checks"), {}),
    (
        shift_equivalence,
        "SearchReport",
        ("witness", "obstructions", "k_max", "entry_bound", "candidates_tried"),
        {},
    ),
]


def _record_samples():
    """Two instances of every record, built by the library itself."""
    from sftdim.sft import validate

    fib = validate([[1, 1], [1, 0]])
    sing = validate([[1, 1], [1, 1]])
    cyc = validate([[0, 1], [1, 0]])
    m = IntMatrix.from_rows([[2, 4], [6, 9]])
    n = IntMatrix.from_rows([[1, 2], [3, 4]])
    s_fib = dimension_groups.StableElement(fib, (1, 2), 0)
    s_sing = dimension_groups.StableElement(sing, (1, 0), 1)
    u_fib = dimension_groups.UnstableElement(fib, (1, 2), 0)
    i2 = IntMatrix.identity(2)
    w = shift_equivalence.ShiftEquivalenceWitness(fib.matrix, fib.matrix, 1)
    k1 = cylinder_ring.CylinderK1Element
    return {
        "IntMatrix": (m, n),
        "RowHermiteForm": (
            exactlinalg.row_hermite_with_transform(m),
            exactlinalg.row_hermite_with_transform(n),
        ),
        "MinPolyData": (minimal_polynomial(m), minimal_polynomial(sing.matrix)),
        "LocatedRoot": (perron_root(fib.matrix), perron_root(sing.matrix).refined()),
        "AdjacencyMatrix": (fib, sing),
        "SpectralDecomposition": (
            sft.spectral_decomposition(cyc),
            sft.spectral_decomposition(fib),
        ),
        "PerronData": (traces.perron(fib), traces.perron(sing)),
        "StableElement": (s_fib, s_sing),
        "UnstableElement": (u_fib, dimension_groups.UnstableElement(sing, (0, 1), 2)),
        "HomoclinicElement": (
            dimension_groups.HomoclinicElement(fib, i2, 0),
            dimension_groups.HomoclinicElement(fib, n, 1),
        ),
        "PositivityResult": (
            dimension_groups.is_positive_s(s_fib),
            dimension_groups.is_positive_s(-s_sing),
        ),
        "StableHom": (
            duality.unstable_to_hom(u_fib),
            duality.StableHom(sing, (1, 1), 3),
        ),
        "CentralizerLattice": (
            cylinder_ring.centralizer_basis(fib),
            cylinder_ring.center_basis(sing),
        ),
        "CommutatorLattice": (
            cylinder_ring.commutator_lattice(fib),
            cylinder_ring.commutator_lattice(sing),
        ),
        "K1Structure": (
            cylinder_ring.k1_group_structure(fib),
            cylinder_ring.k1_group_structure(sing),
        ),
        "CylinderK0Element": (
            cylinder_ring.k0_identity(fib),
            cylinder_ring.CylinderK0Element(fib, fib.matrix, 2),
        ),
        "CylinderK1Element": (k1(fib, i2, 0), k1(sing, n, 1)),
        "K1Decision": (
            cylinder_ring.k1_equal(k1(fib, i2, 0), k1(fib, i2, 1)),
            cylinder_ring.k1_equal(k1(fib, i2, 0), k1(fib, n, 0)),
        ),
        "K1Presentation": (
            cylinder_ring._k1_presentation(fib),
            cylinder_ring._k1_presentation(sing),
        ),
        "PreimageClosure": (
            cylinder_ring._k1_closure(sing),
            cylinder_ring._ra_closure(fib),
        ),
        "RAElement": (cylinder_ring.ra_one(fib), cylinder_ring.ra_generator(sing, 2)),
        "ShiftEquivalenceWitness": (
            w,
            shift_equivalence.ShiftEquivalenceWitness(i2, fib.matrix, 2),
        ),
        "EquationCheck": (
            shift_equivalence.EquationCheck("lag", True),
            shift_equivalence.EquationCheck("R A = B R", False, n),
        ),
        "VerificationReport": (
            shift_equivalence.verify(fib, fib, w),
            shift_equivalence.VerificationReport(False, ()),
        ),
        "SearchReport": (
            shift_equivalence.search(fib, fib),
            shift_equivalence.search(fib, validate([[2]])),
        ),
    }


def _twin(name, fields, defaults):
    """The dataclass(frozen=True) a record stands in for: the oracle."""
    spec = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in fields
    ]
    return dataclasses.make_dataclass(name, spec, frozen=True)


class TestFrozenRecords:
    @pytest.fixture(scope="class")
    def samples(self):
        return _record_samples()

    def test_every_record_is_listed(self):
        listed = {(mod.__name__, name) for mod, name, _, _ in RECORDS}
        found = {
            (mod.__name__, name)
            for mod in (exactlinalg, sft, traces, dimension_groups, duality,
                        cylinder_ring, shift_equivalence)
            for name, obj in vars(mod).items()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and "_frozen_fields" in obj.__dict__
        }
        assert len(RECORDS) == 25
        assert listed == found

    @pytest.mark.parametrize("mod, name, fields, defaults", RECORDS, ids=[r[1] for r in RECORDS])
    def test_matches_dataclass_twin(self, samples, mod, name, fields, defaults):
        cls = getattr(mod, name)
        twin = _twin(name, fields, defaults)
        assert tuple(f.name for f in dataclasses.fields(twin)) == fields
        x, y = samples[name]
        assert type(x) is cls and type(y) is cls
        vx = [getattr(x, f) for f in fields]
        vy = [getattr(y, f) for f in fields]
        by_position = cls(*vx)
        by_keyword = cls(**dict(zip(fields, vx)))
        assert by_position == by_keyword == x
        assert not (by_position != x)
        tx, ty = twin(*vx), twin(*vy)
        assert repr(x) == repr(tx) and repr(y) == repr(ty)
        assert hash(x) == hash(tx) == hash(by_keyword)
        assert hash(y) == hash(ty)
        assert (x == y) == (tx == ty)
        assert (x != y) == (tx != ty)
        assert x.__eq__(tx) is NotImplemented and tx.__eq__(x) is NotImplemented
        assert x != tx and not (x == tx)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("StableElement", "UnstableElement"),
            ("HomoclinicElement", "CylinderK0Element"),
            ("CylinderK0Element", "CylinderK1Element"),
            ("StableElement", "StableHom"),
        ],
    )
    def test_equal_fields_of_different_classes_differ(self, samples, first, second):
        spec = {name: (mod, fields, defaults) for mod, name, fields, defaults in RECORDS}
        x = samples[first][0]
        values = [getattr(x, f) for f in spec[first][1]]
        y = getattr(spec[second][0], second)(*values)
        tx = _twin(first, *spec[first][1:])(*values)
        ty = _twin(second, *spec[second][1:])(*values)
        assert (x == y) is (tx == ty) is False
        assert (x != y) is (tx != ty) is True

    def test_defaults(self, fib):
        k1 = cylinder_ring.K1Decision(cylinder_ring.Verdict.EQUAL)
        assert k1.witness_level is None
        assert k1 == cylinder_ring.K1Decision(cylinder_ring.Verdict.EQUAL, None)
        check = shift_equivalence.EquationCheck("lag", True)
        assert check.residual is None
        assert repr(check) == "EquationCheck(name='lag', ok=True, residual=None)"

    def test_inherited_fields(self):
        @frozen
        class Base:
            a: int
            b: int = 2

        @frozen
        class Sub(Base):
            c: int = 3
            a: int = 1  # a redeclared field keeps its place

        TBase = dataclasses.make_dataclass(
            "Base", [("a", int), ("b", int, dataclasses.field(default=2))], frozen=True
        )
        TSub = dataclasses.make_dataclass(
            "Sub",
            [("c", int, dataclasses.field(default=3)), ("a", int, dataclasses.field(default=1))],
            bases=(TBase,),
            frozen=True,
        )
        assert tuple(Sub._frozen_fields) == tuple(f.name for f in dataclasses.fields(TSub))
        assert repr(Sub()).split(".")[-1] == repr(TSub())
        assert repr(Sub(5, 6, 7)).split(".")[-1] == repr(TSub(5, 6, 7))
        assert repr(Base(0)).split(".")[-1] == repr(TBase(0))
        assert Sub() != Base(1, 2)

    def test_assignment_and_deletion_raise(self, fib):
        m = fib.matrix
        with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
            m.rows = 3
        with pytest.raises(exactlinalg.FrozenInstanceError):
            m.something_new = 3
        with pytest.raises(AttributeError, match="cannot delete field 'entries'"):
            del m.entries
        with pytest.raises(AttributeError):
            fib.matrix = m
        assert m.rows == 2 and m.entries == (1, 1, 1, 0)

    def test_post_init_checks_still_run(self, fib):
        with pytest.raises(DimensionMismatchError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            IntMatrix(-1, 0, ())
        with pytest.raises(cylinder_ring.NotCentralizedError):
            cylinder_ring.CylinderK0Element(fib, IntMatrix.from_rows([[1, 0], [0, 0]]), 0)
        with pytest.raises(ValueError, match="expected 2 coefficients"):
            cylinder_ring.RAElement(fib, (1, 2, 3), 0)
        with pytest.raises(ValueError, match="level must be non-negative"):
            cylinder_ring.RAElement(fib, (1, 2), -1)
        with pytest.raises(ValueError, match="level must be non-negative"):
            dimension_groups.StableElement(fib, (1, 2), -1)
        with pytest.raises(ValueError, match="level must be non-negative"):
            cylinder_ring.CylinderK1Element(fib, IntMatrix.identity(2), -1)
        with pytest.raises(ValueError, match="vector length"):
            dimension_groups.UnstableElement(fib, (1, 2, 3), 0)

    def test_memo_and_cached_property_store_on_the_instance(self):
        a = sft.validate([[1, 1], [1, 1]])
        m = a.matrix
        assert not any(k.startswith("_memo_") for k in vars(m))
        p = matrix_power(m, 3)
        assert matrix_power(m, 3) is p
        assert any(k.startswith("_memo_") for k in vars(m))
        cent = cylinder_ring.centralizer_basis(a)
        assert cylinder_ring.centralizer_basis(a) is cent
        closure = exactlinalg.preimage_closure(lambda: ((1, 0), (0, 1)), lambda v: (2 * v[0], v[1]), ((2, 0),))
        assert "closure_pivots" not in vars(closure)
        pivots = closure.closure_pivots
        assert vars(closure)["closure_pivots"] is pivots and closure.closure_pivots is pivots
