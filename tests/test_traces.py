import math
import random
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sftdim import (
    CylinderK0Element,
    IntMatrix,
    NotPrimitiveError,
    StableElement,
    UnstableElement,
    characteristic_polynomial,
    is_primitive,
    mul_00,
    perron,
    trace_ch,
    trace_s,
    trace_u,
    validate,
)
from sftdim import traces
from sftdim.cylinder_ring import act_s, act_u, alpha_k0

from conftest import chord_cycle, random_centralizer_element, reference_eigenvector


class TestPerron:
    def test_full_two_shift(self, two):
        data = perron(two)
        assert data.eigenvalue == pytest.approx(2.0, abs=1e-12)
        assert data.left == (1.0,)
        assert data.right == (1.0,)

    def test_symmetric_example(self, sym3):
        data = perron(sym3)
        assert data.eigenvalue == pytest.approx(4.0, abs=1e-9)
        assert all(abs(x - 1 / 3) < 1e-9 for x in data.left)
        assert all(abs(x - 1.0) < 1e-9 for x in data.right)
        assert data.residual < 1e-12

    def test_golden_mean(self, fib):
        data = perron(fib)
        assert abs(data.eigenvalue - (1 + math.sqrt(5)) / 2) < 1e-9

    def test_normalization(self, primitive_pool):
        for a in primitive_pool:
            data = perron(a)
            assert abs(sum(data.left) - 1.0) < 1e-9
            dot = sum(x * y for x, y in zip(data.left, data.right))
            assert abs(dot - 1.0) < 1e-12
            assert all(x > 0 for x in data.left)
            assert all(x > 0 for x in data.right)

    def test_rejects_non_primitive(self):
        with pytest.raises(NotPrimitiveError):
            perron(validate([[0, 1], [1, 0]]))


def _largest_real_root(a) -> float:
    """The largest real root of the characteristic polynomial, by sympy, to 30 digits."""
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(characteristic_polynomial(a.matrix))), x)
    return float(max(poly.real_roots()).evalf(30))


def _numpy_perron(a):
    """numpy.linalg.eig eigenvectors of the dominant eigenvalue, normalised as perron's."""
    mat = np.array(a.matrix.to_rows(), dtype=float)
    vals, vecs = np.linalg.eig(mat)
    right = np.real(vecs[:, np.argmax(np.real(vals))])
    vals, vecs = np.linalg.eig(mat.T)
    left = np.real(vecs[:, np.argmax(np.real(vals))])
    left = left / left.sum()
    return left, right / (left @ right)


@st.composite
def _primitive(draw):
    k = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 1, 1, 2, 3))
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    try:
        a = validate(rows)
    except ValueError:
        assume(False)
    assume(is_primitive(a))
    return a


class TestPerronOracles:
    """The eigenvalue against sympy's exact real roots, the eigenvectors
    against numpy.linalg.eig."""

    def _assert_agrees(self, a):
        data = perron(a)
        lam = _largest_real_root(a)
        assert abs(data.eigenvalue - lam) <= 2 * math.ulp(lam)
        left, right = _numpy_perron(a)
        for mine, ref in ((data.left, left), (data.right, right)):
            assert all(math.isclose(x, float(y), rel_tol=1e-12) for x, y in zip(mine, ref))
        assert data.residual < 1e-12

    def test_pool(self, primitive_pool):
        for a in primitive_pool:
            self._assert_agrees(a)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_primitive())
    def test_generated_primitive_matrices(self, a):
        self._assert_agrees(a)

    @pytest.mark.parametrize("k", [12, 20, 40, 60])
    def test_chord_cycles(self, k):
        # power iteration needed 73k steps at K = 20 and about 2M at K = 60
        a = chord_cycle(k)
        x = sympy.symbols("x")
        lam = float(max(sympy.Poly(x**k - x - 1, x).real_roots()).evalf(30))
        data = perron(a)
        assert abs(data.eigenvalue - lam) <= 2 * math.ulp(lam)
        assert data.residual < 1e-12
        assert all(v > 0 for v in data.left + data.right)
        assert data.iterations < 100


def _perron_vectors_50_digits(a):
    """The Perron vectors from the 50-digit Perron root, normalised as perron's.

    sympy's real root is evaluated to 50 digits; each vector is then the
    null vector of A - lambda I (or its transpose) with its last entry fixed
    at 1, solved by mpmath at 50 digits.
    """
    x = sympy.symbols("x")
    chi = sympy.Matrix(a.matrix.to_rows()).charpoly(x)
    with mpmath.workdps(50):
        lam = mpmath.mpf(str(max(chi.real_roots()).evalf(50)))
        vectors = []
        for rows in (a.matrix.transpose().to_rows(), a.matrix.to_rows()):
            k = len(rows)
            shifted = mpmath.matrix(rows) - lam * mpmath.eye(k)
            if k == 1:
                vectors.append([mpmath.mpf(1)])
                continue
            head = mpmath.lu_solve(shifted[: k - 1, : k - 1], -shifted[: k - 1, k - 1])
            vectors.append([head[i] for i in range(k - 1)] + [mpmath.mpf(1)])
        left, right = vectors
        left = [v / sum(left) for v in left]
        dot = sum(u * v for u, v in zip(left, right))
        return [float(v) for v in left], [float(v / dot) for v in right]


class TestPerronVectorsExactly:
    """Each entry is the adjugate edge at the located root, rounded once, then
    normalised: within a few ulps of the 50-digit vectors."""

    def _assert_close(self, a, rel=1e-14):
        data = perron(a)
        left, right = _perron_vectors_50_digits(a)
        for mine, ref in ((data.left, left), (data.right, right)):
            assert all(abs(p - q) <= rel * abs(q) for p, q in zip(mine, ref))

    def test_pool(self, primitive_pool):
        for a in primitive_pool:
            self._assert_close(a)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_primitive())
    def test_generated_primitive_matrices(self, a):
        self._assert_close(a)

    @pytest.mark.parametrize("k", [12, 30, 45])
    def test_chord_cycles(self, k):
        self._assert_close(chord_cycle(k))


def _reference_at_64_bits(edge, root):
    assert root.bits == 64
    return reference_eigenvector(edge, root.r)


class TestEigenvectorBitIdentity:
    """perron evaluates the adjugate edges with the Horner rule that locates
    lambda: bit for bit the vectors, residuals and root of the loop that
    evaluated them before."""

    def _assert_identical(self, rows):
        got = perron(validate(rows))
        with mock.patch.object(traces, "_eigenvector", _reference_at_64_bits):
            want = perron(validate(rows))
        assert got == want

    def test_pool(self, primitive_pool):
        for a in primitive_pool:
            self._assert_identical(a.matrix.to_rows())

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_primitive())
    def test_generated_primitive_matrices(self, a):
        self._assert_identical(a.matrix.to_rows())

    @pytest.mark.parametrize("k", [12, 16, 20, 40])
    def test_chord_cycles(self, k):
        self._assert_identical(chord_cycle(k).matrix.to_rows())


class TestTraceFormulas:
    def test_identity_class(self, sym3):
        assert trace_ch(CylinderK0Element(sym3, IntMatrix.identity(3), 0)) == pytest.approx(1.0)

    def test_zero_row_sum_classes(self, sym3):
        x1 = IntMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
        assert trace_ch(CylinderK0Element(sym3, x1, 0)) == pytest.approx(0.0, abs=1e-9)

    def test_levels_scale_by_lambda_squared(self, two):
        # [3, 1] over the full 2-shift: 3 / lambda^2 = 3/4
        elem = CylinderK0Element(two, IntMatrix.from_rows([[3]]), 1)
        assert trace_ch(elem) == pytest.approx(3 / 4, abs=1e-12)

    def test_stable_trace(self, two):
        assert trace_s(StableElement(two, (1,), 1)) == pytest.approx(0.5, abs=1e-12)
        assert trace_s(StableElement.zero(two)) == 0.0

    def test_representative_invariance(self, primitive_pool):
        rng = random.Random(31)
        for a in primitive_pool:
            k = a.size
            v = tuple(rng.randint(-4, 4) for _ in range(k))
            s = StableElement(a, v, rng.randint(0, 2))
            shifted = StableElement(a, a.matrix.row_apply(v), s.level + 1)
            assert trace_s(s) == pytest.approx(trace_s(shifted), abs=1e-9)
            w = UnstableElement(a, v, s.level)
            lifted = UnstableElement(a, a.matrix.col_apply(v), s.level + 1)
            assert trace_u(w) == pytest.approx(trace_u(lifted), abs=1e-9)
            x = random_centralizer_element(rng, a)
            h = CylinderK0Element(a, x, rng.randint(0, 2))
            conj = CylinderK0Element(a, a.matrix @ x @ a.matrix, h.level + 1)
            assert trace_ch(h) == pytest.approx(trace_ch(conj), abs=1e-9)
            assert trace_ch(h) == pytest.approx(trace_ch(alpha_k0(h)), abs=1e-9)

    def test_ring_homomorphism(self, primitive_pool):
        rng = random.Random(37)
        trials = 0
        while trials < 200:
            a = rng.choice(primitive_pool)
            x = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
            y = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
            lhs = trace_ch(mul_00(x, y))
            rhs = trace_ch(x) * trace_ch(y)
            assert abs(lhs - rhs) < 1e-9
            trials += 1

    def test_module_compatibility(self, primitive_pool):
        # trace(stable * cylinder) = trace(stable) * trace(cylinder), and the
        # mirrored identity on the unstable side.
        rng = random.Random(41)
        for _ in range(200):
            a = rng.choice(primitive_pool)
            k = a.size
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            h = CylinderK0Element(a, random_centralizer_element(rng, a), rng.randint(0, 2))
            assert abs(trace_s(act_s(v, h)) - trace_s(v) * trace_ch(h)) < 1e-9
            w = UnstableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            assert abs(trace_u(act_u(h, w)) - trace_ch(h) * trace_u(w)) < 1e-9
