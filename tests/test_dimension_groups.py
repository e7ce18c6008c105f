import random

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sftdim import (
    HomoclinicElement,
    IntMatrix,
    Positivity,
    PositivityResult,
    StableElement,
    UnstableElement,
    add_s,
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
    is_primitive,
    matrix_power,
    normalize_h,
    normalize_s,
    normalize_u,
    validate,
)
from sftdim import dimension_groups, exactlinalg, traces
from sftdim.dimension_groups import AmbientMismatchError, is_zero_s

from conftest import (
    chord_cycle,
    random_matrix,
    random_primitive_adjacency,
    random_valid_adjacency,
    reference_float_positivity,
)


def equal_s_oracle(a, b, k_max=20):
    """Exhaustive merge-depth search straight from the defining relation."""
    x, y = (a, b) if a.level <= b.level else (b, a)
    m = x.ambient.matrix
    for k in range(k_max + 1):
        lhs = matrix_power(m, k + y.level - x.level).row_apply(x.vector)
        rhs = matrix_power(m, k).row_apply(y.vector)
        if lhs == rhs:
            return True
    return False


def equal_u_oracle(a, b, k_max=20):
    x, y = (a, b) if a.level <= b.level else (b, a)
    m = x.ambient.matrix
    for k in range(k_max + 1):
        lhs = matrix_power(m, k + y.level - x.level).col_apply(x.vector)
        rhs = matrix_power(m, k).col_apply(y.vector)
        if lhs == rhs:
            return True
    return False


def equal_h_oracle(a, b, k_max=20):
    x, y = (a, b) if a.level <= b.level else (b, a)
    m = x.ambient.matrix
    for k in range(k_max + 1):
        hi = matrix_power(m, k + y.level - x.level)
        lo = matrix_power(m, k)
        if hi @ x.matrix @ hi == lo @ y.matrix @ lo:
            return True
    return False


class TestEquality:
    def test_full_two_shift(self, two):
        assert equal_s(StableElement(two, (1,), 1), StableElement(two, (2,), 2))

    def test_reflexive(self, fib):
        e = StableElement(fib, (3, -2), 1)
        assert equal_s(e, e)

    def test_invertible_matrix_distinguishes_basis(self, fib):
        # A is unimodular, so classes at level 0 with different payloads differ
        assert not equal_s(StableElement(fib, (1, 0), 0), StableElement(fib, (0, 1), 0))

    def test_homoclinic_defining_relation(self, fib):
        x = IntMatrix.from_rows([[1, 2], [3, 4]])
        a = fib.matrix
        assert equal_h(HomoclinicElement(fib, x, 0), HomoclinicElement(fib, a @ x @ a, 1))

    def test_homoclinic_basis_matrices_differ(self, fib):
        e11 = IntMatrix.from_rows([[1, 0], [0, 0]])
        e22 = IntMatrix.from_rows([[0, 0], [0, 1]])
        assert not equal_h(HomoclinicElement(fib, e11, 0), HomoclinicElement(fib, e22, 0))

    def test_ambient_mismatch(self, two, fib):
        with pytest.raises(AmbientMismatchError):
            equal_s(StableElement(two, (1,), 0), StableElement(fib, (1, 0), 0))

    def test_oracle_agreement(self):
        rng = random.Random(811)
        ambients = [random_valid_adjacency(rng, rng.randint(1, 4)) for _ in range(8)]
        for _ in range(300):
            a = rng.choice(ambients)
            k = a.size
            v = tuple(rng.randint(-5, 5) for _ in range(k))
            w = tuple(rng.randint(-5, 5) for _ in range(k))
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            s1, s2 = StableElement(a, v, n), StableElement(a, w, m)
            assert equal_s(s1, s2) == equal_s_oracle(s1, s2)
            u1, u2 = UnstableElement(a, v, n), UnstableElement(a, w, m)
            assert equal_u(u1, u2) == equal_u_oracle(u1, u2)
            x = random_matrix(rng, k, k, lo=-5, hi=5)
            y = random_matrix(rng, k, k, lo=-5, hi=5)
            h1, h2 = HomoclinicElement(a, x, n), HomoclinicElement(a, y, m)
            assert equal_h(h1, h2) == equal_h_oracle(h1, h2)


class TestGroupStructure:
    def test_add_aligns_levels(self, two):
        total = StableElement(two, (1,), 0) + StableElement(two, (1,), 1)
        assert total == StableElement(two, (3,), 1)

    def test_add_fibonacci(self, fib):
        total = StableElement(fib, (1, 0), 0) + StableElement(fib, (0, 1), 1)
        assert total == StableElement(fib, (1, 2), 1)

    def test_inverse_gives_zero(self, fib):
        e = StableElement(fib, (2, -1), 1)
        assert is_zero_s(e + (-e))

    def test_commutative_associative(self, primitive_pool):
        rng = random.Random(17)
        for _ in range(50):
            a = rng.choice(primitive_pool)
            k = a.size
            xs = [
                StableElement(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 2))
                for _ in range(3)
            ]
            assert equal_s(add_s(xs[0], xs[1]), add_s(xs[1], xs[0]))
            assert equal_s(add_s(add_s(xs[0], xs[1]), xs[2]), add_s(xs[0], add_s(xs[1], xs[2])))


class TestAutomorphisms:
    def test_composition_is_identity(self, primitive_pool):
        rng = random.Random(19)
        for a in primitive_pool:
            k = a.size
            v = tuple(rng.randint(-4, 4) for _ in range(k))
            s = StableElement(a, v, rng.randint(0, 2))
            assert equal_s(alpha_s(alpha_s_inv(s)), s)
            assert equal_s(alpha_s_inv(alpha_s(s)), s)
            u = UnstableElement(a, v, rng.randint(0, 2))
            assert equal_u(alpha_u(alpha_u_inv(u)), u)
            assert equal_u(alpha_u_inv(alpha_u(u)), u)
            x = random_matrix(rng, k, k)
            h = HomoclinicElement(a, x, rng.randint(0, 2))
            assert equal_h(alpha_h(alpha_h_inv(h)), h)
            assert equal_h(alpha_h_inv(alpha_h(h)), h)

    def test_additive(self, primitive_pool):
        rng = random.Random(29)
        for _ in range(50):
            a = rng.choice(primitive_pool)
            k = a.size
            s1 = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            s2 = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            assert equal_s(alpha_s(add_s(s1, s2)), add_s(alpha_s(s1), alpha_s(s2)))

    def test_full_shift_scaling(self, two):
        # alpha multiplies by 2 stably, divides by 2 unstably, fixes homoclinic
        s = StableElement(two, (1,), 0)
        assert equal_s(alpha_s(s), StableElement(two, (2,), 0))
        u = UnstableElement(two, (2,), 0)
        assert equal_u(alpha_u(u), UnstableElement(two, (1,), 0))
        h = HomoclinicElement(two, IntMatrix.from_rows([[1]]), 0)
        assert equal_h(alpha_h(h), h)

    def test_homoclinic_alpha_fixes_identity_class(self, primitive_pool):
        for a in primitive_pool:
            h = HomoclinicElement(a, IntMatrix.identity(a.size), 0)
            assert equal_h(alpha_h(h), h)


class TestNormalize:
    def test_normalized_is_equal_and_stable(self, primitive_pool):
        rng = random.Random(43)
        for a in primitive_pool:
            k = a.size
            v = tuple(rng.randint(-4, 4) for _ in range(k))
            s = StableElement(a, a.matrix.row_apply(v), rng.randint(1, 3))
            norm = normalize_s(s)
            assert equal_s(norm, s)
            assert normalize_s(norm) == norm
            u = UnstableElement(a, a.matrix.col_apply(v), rng.randint(1, 3))
            nu = normalize_u(u)
            assert equal_u(nu, u)
            x = random_matrix(rng, k, k, lo=-2, hi=2)
            h = HomoclinicElement(a, a.matrix @ x @ a.matrix, rng.randint(1, 3))
            nh = normalize_h(h)
            assert equal_h(nh, h)

    def test_strips_exact_divisions(self, two):
        # [4, 2] is the class of 4/2^2 = 1, so it strips to [1, 0]
        assert normalize_s(StableElement(two, (4,), 2)) == StableElement(two, (1,), 0)


class TestPositivity:
    def test_zero(self, two):
        assert is_positive_s(StableElement.zero(two)).kind is Positivity.ZERO

    def test_obviously_positive(self, two):
        assert is_positive_s(StableElement(two, (3,), 5)).kind is Positivity.POSITIVE

    def test_mixed_entries_resolve(self, fib):
        # (1, -1) A = (0, 1) >= 0, so the class is positive
        res = is_positive_s(StableElement(fib, (1, -1), 0))
        assert res.kind is Positivity.POSITIVE

    def test_negative(self, fib):
        res = is_positive_s(StableElement(fib, (-1, -1), 0))
        assert res.kind is Positivity.NEGATIVE_OR_MIXED

    def test_boundary_is_negative_or_mixed(self, sym3):
        # (1, -1, 0) pairs to zero against the right eigenvector and is fixed
        # by the matrix, so no power of A makes it non-negative
        res = is_positive_s(StableElement(sym3, (1, -1, 0), 0))
        assert res == PositivityResult(Positivity.NEGATIVE_OR_MIXED)
        assert list(Positivity) == [
            Positivity.POSITIVE, Positivity.ZERO, Positivity.NEGATIVE_OR_MIXED
        ]

    def test_preserved_by_addition_and_alpha(self, primitive_pool):
        rng = random.Random(47)
        for _ in range(100):
            a = rng.choice(primitive_pool)
            k = a.size
            s1 = StableElement(a, tuple(rng.randint(0, 4) for _ in range(k)), rng.randint(0, 2))
            s2 = StableElement(a, tuple(rng.randint(0, 4) for _ in range(k)), rng.randint(0, 2))
            if is_positive_s(s1).kind is not Positivity.POSITIVE:
                continue
            assert is_positive_s(alpha_s(s1)).kind is Positivity.POSITIVE
            if is_positive_s(s2).kind is Positivity.POSITIVE:
                assert is_positive_s(add_s(s1, s2)).kind is Positivity.POSITIVE


def _perron_factor_matrix(a) -> sympy.Matrix:
    """f(A) for the irreducible factor f of chi_A that has the Perron root.

    Its row space is the sum of the generalised left eigenspaces of the
    other roots, so a row vector v has v . r = 0 exactly when it lies there.
    """
    mat = sympy.Matrix(a.matrix.to_rows())
    chi = mat.charpoly(sympy.symbols("x"))
    factors = [f for f, _ in sympy.factor_list(chi)[1] if f.degree() > 0]
    lam = max(max(f.real_roots()) for f in factors if f.real_roots())
    (f,) = [f for f in factors if f.real_roots() and max(f.real_roots()) == lam]
    out = sympy.zeros(a.size, a.size)
    for c in f.all_coeffs():  # Horner, highest degree first
        out = out * mat + c * sympy.eye(a.size)
    return out


def _sympy_positivity(a, v, f_of_a, cap=100_000):
    """The verdict from its definition: zero if v A^K = 0; on the boundary when v
    lies in the row space of f(A); else the sign of the first one-signed v A^j."""
    mat = sympy.Matrix(a.matrix.to_rows())
    row = sympy.Matrix([list(v)])
    if (row * mat ** a.size).is_zero_matrix:
        return Positivity.ZERO
    if sympy.Matrix.vstack(f_of_a, row).rank() == f_of_a.rank():
        return Positivity.NEGATIVE_OR_MIXED
    w = list(v)
    for _ in range(cap):
        if all(t >= 0 for t in w):
            return Positivity.POSITIVE
        if all(t <= 0 for t in w):
            return Positivity.NEGATIVE_OR_MIXED
        w = list(a.matrix.row_apply(w))
    raise AssertionError("sign search did not end off the boundary")


@st.composite
def _positivity_case(draw):
    """A primitive matrix (random, cJ + dI, or with a repeated row), a level,
    and a stable payload: random, or u f(A) on the boundary of the cone."""
    family = draw(st.sampled_from(("random", "cJ+dI", "repeated row")))
    k = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 1, 1, 2, 3))
    if family == "cJ+dI":
        c, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
        rows = [[c + d * (i == j) for j in range(k)] for i in range(k)]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
        if family == "repeated row":
            rows[-1] = list(rows[0])
    try:
        a = validate(rows)
    except ValueError:
        assume(False)
    assume(is_primitive(a))
    u = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    return a, u, draw(st.booleans()), draw(st.integers(0, 2))


class TestExactPositivity:
    """is_positive_s against the sympy oracle above, the float verdict it
    replaced (where that was not undecided), and the CLI's old failure modes."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(case=_positivity_case())
    def test_matches_sympy_oracle(self, case):
        a, u, on_boundary, level = case
        f_of_a = _perron_factor_matrix(a)
        v = tuple(sympy.Matrix([u]) * f_of_a) if on_boundary else tuple(u)
        x = StableElement(a, tuple(int(t) for t in v), level)
        assert is_positive_s(x).kind is _sympy_positivity(a, x.vector, f_of_a)

    def test_boundary_classes_of_derogatory_matrices(self):
        # cJ + dI has chi = (x - (cK + d)) (x - d)^(K - 1): every u (A - lambda I)
        # lies on the boundary, and is nonzero unless u is a multiple of (1, ..., 1)
        rng = random.Random(61)
        seen = 0
        for k in (2, 3, 4, 5):
            a = validate([[2 + (i == j) for j in range(k)] for i in range(k)])
            f_of_a = _perron_factor_matrix(a)
            for _ in range(20):
                u = sympy.Matrix([[rng.randint(-5, 5) for _ in range(k)]])
                v = tuple(int(t) for t in u * f_of_a)
                want = _sympy_positivity(a, v, f_of_a)
                seen += want is Positivity.NEGATIVE_OR_MIXED and any(v)
                assert is_positive_s(StableElement(a, v, rng.randint(0, 3))).kind is want
        assert seen >= 60

    def test_matches_float_verdict_where_it_decided(self, primitive_pool):
        rng = random.Random(4711)
        decided = 0
        for _ in range(600):
            a = rng.choice(primitive_pool)
            v = tuple(rng.randint(-6, 6) for _ in range(a.size))
            x = StableElement(a, v, rng.randint(0, 3))
            want = reference_float_positivity(x)
            if want is not None:
                decided += 1
                assert is_positive_s(x).kind.value == want
        assert decided >= 500

    def test_payloads_beyond_float_range(self, fib):
        big = 10**400
        assert is_positive_s(StableElement(fib, (big, -1), 0)).kind is Positivity.POSITIVE
        assert is_positive_s(StableElement(fib, (-big, 1), 5)).kind is Positivity.NEGATIVE_OR_MIXED
        # v = (F_n, -F_(n+1)) pairs with r = (lambda, 1) to -(-1/lambda)^n: the
        # sign alternates and the class nears the boundary far below 2^-64
        f = [0, 1]
        while len(f) < 400:
            f.append(f[-1] + f[-2])
        for n in range(1, 399, 37):
            want = Positivity.POSITIVE if n % 2 else Positivity.NEGATIVE_OR_MIXED
            assert is_positive_s(StableElement(fib, (f[n], -f[n + 1]), 0)).kind is want

    def test_never_reads_float_perron_data(self, monkeypatch):
        def refuse(a):
            raise AssertionError("is_positive_s read traces.perron")

        monkeypatch.setattr(traces, "perron", refuse)
        rng = random.Random(7)
        for k in (1, 2, 3, 4, 6):
            a = random_primitive_adjacency(rng, k)
            for _ in range(10):
                v = tuple(rng.randint(-3, 3) for _ in range(k))
                is_positive_s(StableElement(a, v, rng.randint(0, 2)))
        is_positive_s(StableElement(chord_cycle(20), (1,) + (-1,) * 19, 0))
        assert not hasattr(dimension_groups, "traces")
        assert not hasattr(dimension_groups, "_POSITIVE_ITER_CAP")
        assert not hasattr(traces, "_null_vector")

    def test_takes_only_the_element(self, fib):
        with pytest.raises(TypeError):
            is_positive_s(StableElement(fib, (1, 0), 0), 1e-9)
