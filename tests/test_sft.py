import functools
import math
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sftdim import (
    NegativeEntryError,
    NonSquareError,
    ReducibleError,
    ZeroRowOrColumnError,
    is_irreducible,
    is_primitive,
    matrix_power,
    period,
    spectral_decomposition,
    validate,
)
from sftdim import traces

from conftest import random_valid_adjacency


class TestValidate:
    def test_accepts_scalar(self):
        assert validate([[2]]).size == 1

    def test_zero_column(self):
        with pytest.raises(ZeroRowOrColumnError) as exc:
            validate([[0, 1], [0, 1]])
        assert (exc.value.kind, exc.value.index) == ("column", 0)

    def test_zero_row(self):
        with pytest.raises(ZeroRowOrColumnError) as exc:
            validate([[0, 1], [0, 0]])
        assert exc.value.kind == "row"

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError) as exc:
            validate([[1, -1], [1, 0]])
        assert exc.value.position == (0, 1)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate([[1, 2, 3], [4, 5, 6]])

    def test_nilpotent_is_rejected(self):
        with pytest.raises(ZeroRowOrColumnError):
            validate([[0, 1], [0, 0]])


class TestPrimitivity:
    def test_golden_mean(self, fib):
        assert is_primitive(fib)

    def test_period_two_is_not_primitive(self):
        assert not is_primitive(validate([[0, 1], [1, 0]]))

    def test_symmetric_example(self, sym3):
        assert is_primitive(sym3)

    def test_wielandt_bound_value(self):
        assert wielandt_bound(3) == 5

    def test_primitive_iff_irreducible_aperiodic(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_valid_adjacency(rng, rng.randint(1, 4))
            if is_irreducible(a):
                assert is_primitive(a) == (period(a) == 1)
            else:
                assert not is_primitive(a)


    def test_matches_wielandt_power_oracle(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_valid_adjacency(rng, rng.randint(1, 6), hi=rng.choice((1, 2)))
            assert is_primitive(a) == _wielandt_primitive(a)

    def test_cyclic_permutation_plus_chord(self):
        # a K-cycle with one chord i -> i + 2 has cycle lengths K and K - 1
        k = 20
        rows = [[1 if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
        rows[0][2] = 1
        a = validate(rows)
        assert is_primitive(a) and _wielandt_primitive(a)


def wielandt_bound(k: int) -> int:
    """Smallest exponent that must be entrywise positive for a primitive matrix."""
    return (k - 1) ** 2 + 1


def _wielandt_primitive(a):
    """Some boolean power up to the Wielandt bound is entrywise positive."""
    k = a.size
    b = [[a.matrix.entry(i, j) > 0 for j in range(k)] for i in range(k)]
    p = b
    for _ in range(wielandt_bound(k)):
        if all(all(row) for row in p):
            return True
        p = [[any(p[i][s] and b[s][j] for s in range(k)) for j in range(k)] for i in range(k)]
    return False


class TestIrreducibility:
    def test_swap_is_irreducible_period_two(self):
        a = validate([[0, 1], [1, 0]])
        assert is_irreducible(a)
        assert period(a) == 2

    def test_identity_is_reducible(self):
        a = validate([[1, 0], [0, 1]])
        assert not is_irreducible(a)
        with pytest.raises(ReducibleError):
            period(a)

    def test_weighted_swap(self):
        a = validate([[0, 2], [3, 0]])
        assert is_irreducible(a)
        assert period(a) == 2


class TestSpectralDecomposition:
    def test_primitive_is_its_own_component(self, fib):
        dec = spectral_decomposition(fib)
        assert dec.period == 1
        assert dec.component == fib
        assert dec.vertex_order == (0, 1)

    def test_swap(self):
        dec = spectral_decomposition(validate([[0, 1], [1, 0]]))
        assert dec.period == 2
        assert dec.classes == ((0,), (1,))
        assert dec.component.matrix.to_rows() == [[1]]

    def test_weighted_swap(self):
        dec = spectral_decomposition(validate([[0, 2], [3, 0]]))
        assert dec.period == 2
        assert dec.component.matrix.to_rows() == [[6]]
        assert is_primitive(dec.component)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleError):
            spectral_decomposition(validate([[1, 0], [0, 1]]))

    def test_block_cyclic_structure_and_eigenvalue(self):
        rng = random.Random(23)
        cases = [validate([[0, 1], [1, 0]]), validate([[0, 2], [3, 0]])]
        # a 3-cycle with multiplicities
        cases.append(validate([[0, 2, 0], [0, 0, 1], [3, 0, 0]]))
        for _ in range(20):
            a = random_valid_adjacency(rng, rng.randint(2, 4))
            if is_irreducible(a):
                cases.append(a)
        for a in cases:
            dec = spectral_decomposition(a)
            n = dec.period
            cls_of = {}
            for i, cls in enumerate(dec.classes):
                for v in cls:
                    cls_of[v] = i
            assert sorted(cls_of) == list(range(a.size))
            for u in range(a.size):
                for v in range(a.size):
                    if a.matrix.entry(u, v) > 0:
                        assert cls_of[v] == (cls_of[u] + 1) % n
            assert is_primitive(dec.component)
            lam_comp = traces.perron(dec.component).eigenvalue
            # oracle for the spectral radius of the full matrix: numpy eigvals
            import numpy as np

            lam = max(abs(v) for v in np.linalg.eigvals(np.array(a.matrix.to_rows(), dtype=float)))
            assert abs(lam_comp - lam**n) < 1e-6


@st.composite
def _graphs(draw):
    """Valid adjacency matrices, K = 1..6: unrestricted, block-triangular
    (reducible unless the cut is at an end), or with edges only from class c to
    class c + 1 mod 2 or 3 (every cycle length a multiple of 2 or 3)."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("any", "triangular", 2, 3)))
    cut = draw(st.integers(0, k))
    cls = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))

    def allowed(i, j):
        if shape == "any":
            return True
        if shape == "triangular":  # no edge from the head into the tail
            return not i < cut <= j
        return cls[j] % shape == (cls[i] + 1) % shape

    entry = st.sampled_from((0, 1, 1, 2) if shape in (2, 3) else (0, 0, 1, 1, 2))
    rows = [[draw(entry) if allowed(i, j) else 0 for j in range(k)] for i in range(k)]
    try:
        return validate(rows)
    except ValueError:
        assume(False)


def _bool_powers(a, top):
    """The boolean powers A^0 .. A^top as K x K lists of bools."""
    k = a.size
    b = [[a.matrix.entry(i, j) > 0 for j in range(k)] for i in range(k)]
    powers = [[[i == j for j in range(k)] for i in range(k)]]
    for _ in range(top):
        p = powers[-1]
        powers.append([[any(p[i][s] and b[s][j] for s in range(k)) for j in range(k)] for i in range(k)])
    return powers


def _oracle_irreducible(a):
    """(I + A)^(K - 1) > 0: every vertex reaches every other in fewer than K steps."""
    powers = _bool_powers(a, a.size - 1)
    return all(any(p[i][j] for p in powers) for i in range(a.size) for j in range(a.size))


def _oracle_period(a):
    """gcd{n <= K^2 : tr A^n > 0}."""
    powers = _bool_powers(a, a.size**2)
    return functools.reduce(
        math.gcd, (n for n, p in enumerate(powers) if n and any(p[i][i] for i in range(a.size))), 0
    )


class TestOneGraphSearch:
    """Irreducibility, the period and the cyclic classes, all read off one
    breadth-first search, against boolean matrix powers."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(a=_graphs())
    @example(a=validate([[1]]))
    @example(a=validate([[0, 1], [1, 0]]))
    @example(a=validate([[0, 2, 0], [0, 0, 1], [3, 0, 0]]))
    @example(a=validate([[1, 1], [0, 1]]))
    def test_against_boolean_powers(self, a):
        irreducible = _oracle_irreducible(a)
        assert is_irreducible(a) == irreducible
        if not irreducible:
            for f in (period, spectral_decomposition):
                with pytest.raises(ReducibleError):
                    f(a)
            assert not is_primitive(a)
            return
        n = _oracle_period(a)
        assert period(a) == n and is_primitive(a) == (n == 1)
        dec = spectral_decomposition(a)
        # the class of v is the length mod n of every path from vertex 0 to v
        powers = _bool_powers(a, a.size**2)
        for c, cls in enumerate(dec.classes):
            for v in cls:
                assert {t % n for t, p in enumerate(powers) if p[0][v]} == {c}
        # the component is the return map A^n on the class of vertex 0
        first = dec.classes[0]
        assert dec.component.matrix == matrix_power(a.matrix, n).submatrix(first, first)
