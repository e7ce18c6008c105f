import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sftdim import (
    CylinderK0Element,
    InducedIsomorphism,
    IntMatrix,
    InvalidWitnessError,
    Positivity,
    SearchSpaceTooLargeError,
    ShiftEquivalenceWitness,
    StableElement,
    UnstableElement,
    ZeroRowOrColumnError,
    act_s,
    alpha_s,
    equal_s,
    equal_u,
    is_positive_s,
    k0_equal,
    k0_identity,
    mul_00,
    search,
    spectral_obstructions,
    validate,
    verify,
)
from sftdim import shift_equivalence

from conftest import random_centralizer_element


def trivial_witness(a):
    return ShiftEquivalenceWitness(r=IntMatrix.identity(a.size), s=a.matrix, k=1)


class TestVerify:
    def test_trivial_witness(self, fib):
        assert verify(fib, fib, trivial_witness(fib)).ok

    def test_lag_two_witness(self, fib):
        w = ShiftEquivalenceWitness(r=fib.matrix, s=fib.matrix, k=2)
        assert verify(fib, fib, w).ok

    def test_failing_witness_reports_equations(self, fib, two):
        w = ShiftEquivalenceWitness(r=IntMatrix.identity(2), s=IntMatrix.identity(2), k=1)
        report = verify(fib, fib, w)
        assert not report.ok
        failing = {c.name for c in report.checks if not c.ok}
        assert "RS_equals_A_power_k" in failing

    def test_dimension_mismatch(self, fib, two):
        with pytest.raises(InvalidWitnessError):
            verify(fib, two, trivial_witness(fib))

    def test_negative_entries_rejected(self, fib):
        w = ShiftEquivalenceWitness(
            r=IntMatrix.from_rows([[1, 0], [0, -1]]), s=fib.matrix, k=1
        )
        report = verify(fib, fib, w)
        assert not report.ok
        assert any(c.name == "R_nonnegative" and not c.ok for c in report.checks)


class TestSearch:
    def test_same_matrix_finds_witness_immediately(self, fib):
        report = search(fib, fib)
        assert report.witness is not None
        assert verify(fib, fib, report.witness).ok
        assert report.witness.k == 1

    def test_permutation_conjugate(self, fib):
        b = validate([[0, 1], [1, 1]])
        report = search(fib, b)
        assert report.witness is not None
        assert verify(fib, b, report.witness).ok
        assert report.witness.k == 1

    def test_eigenvalue_obstruction(self, two):
        three = validate([[3]])
        report = search(two, three)
        assert report.witness is None
        assert any("polynomial" in o for o in report.obstructions)
        obs = spectral_obstructions(two, three)
        assert obs  # exact polynomial invariants already differ
        # lambda is the largest root of chi, so no float note is needed
        assert not any("eigenvalue" in o for o in obs)

    @pytest.mark.parametrize("length", range(5))
    @pytest.mark.parametrize("bound", range(4))
    def test_combos_come_by_radius_in_product_order(self, length, bound):
        # every combo with entries in [-bound, bound] once, by increasing
        # largest |entry|, in itertools.product order within a radius
        box = itertools.product(range(-bound, bound + 1), repeat=length)
        want = sorted(box, key=lambda c: max(map(abs, c), default=0))
        assert list(shift_equivalence._combos_by_radius(length, bound)) == want

    def test_search_space_cap(self):
        big = validate([[1] * 9 for _ in range(9)])
        with pytest.raises(SearchSpaceTooLargeError):
            search(big, big)


@st.composite
def _strong_shift_equivalent_pair(draw):
    """A = RS and B = SR for non-negative R (n x m) and S (m x n) with n != m,
    each replaced by a permutation conjugate: shift equivalent with lag 1, of
    different sizes, so I - A and I - B differ in their unit factors."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([x for x in range(1, 5) if x != n]))
    entry = st.sampled_from((0, 1, 1, 2, 3))
    r = IntMatrix(n, m, tuple(draw(st.lists(entry, min_size=n * m, max_size=n * m))))
    s = IntMatrix(m, n, tuple(draw(st.lists(entry, min_size=n * m, max_size=n * m))))

    def conjugate(x):
        perm = draw(st.permutations(range(x.rows)))
        p = IntMatrix.from_rows([[int(j == perm[i]) for j in range(x.rows)] for i in range(x.rows)])
        return p @ x @ p.transpose()

    return conjugate(r @ s), conjugate(s @ r)


class TestBowenFranks:
    """Z^K/(I - A)Z^K is a shift-equivalence invariant (Bowen & Franks 1977)."""

    def test_groups(self):
        for rows, group in [
            ([[2]], "0"),
            ([[3]], "Z/2"),
            ([[1, 4], [1, 1]], "Z/4"),
            ([[1, 2], [2, 1]], "Z/2 + Z/2"),
            ([[1, 1], [0, 1]], "Z"),
            ([[1, 0], [0, 1]], "Z^2"),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 3]], "Z^2 + Z/2"),
        ]:
            assert shift_equivalence._bowen_franks(validate(rows)) == group

    def test_obstructs_a_pair_with_equal_polynomials(self):
        a = validate([[1, 4], [1, 1]])
        b = validate([[1, 2], [2, 1]])
        assert spectral_obstructions(a, b) == ("Bowen-Franks groups differ: Z/4 vs Z/2 + Z/2",)
        report = search(a, b)
        assert report.witness is None and report.candidates_tried == 0

    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(pair=_strong_shift_equivalent_pair())
    def test_no_obstruction_for_equivalent_pairs(self, pair):
        try:
            a, b = validate(pair[0]), validate(pair[1])
        except ZeroRowOrColumnError:
            assume(False)
        assert spectral_obstructions(a, b) == ()


def sample_isomorphisms(fib):
    b = validate([[0, 1], [1, 1]])
    pairs = [(fib, fib, trivial_witness(fib))]
    found = search(fib, b).witness
    assert found is not None
    pairs.append((fib, b, found))
    two = validate([[2]])
    pairs.append((two, two, trivial_witness(two)))
    sym3 = validate([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    pairs.append((sym3, sym3, ShiftEquivalenceWitness(r=sym3.matrix, s=sym3.matrix, k=2)))
    return [(a, b_, InducedIsomorphism(a, b_, w)) for a, b_, w in pairs]


class TestInducedMaps:
    def test_rejects_invalid_witness(self, fib):
        bad = ShiftEquivalenceWitness(r=IntMatrix.identity(2), s=IntMatrix.identity(2), k=1)
        with pytest.raises(InvalidWitnessError):
            InducedIsomorphism(fib, fib, bad)

    def test_trivial_witness_gives_identity_maps(self, fib):
        iso = InducedIsomorphism(fib, fib, trivial_witness(fib))
        v = StableElement(fib, (2, -1), 1)
        assert equal_s(iso.phi_s(v), v)
        x = CylinderK0Element(fib, fib.matrix, 0)
        assert k0_equal(iso.phi_h(x), x)

    def test_identity_maps_to_identity(self, fib):
        for a, b, iso in sample_isomorphisms(fib):
            assert k0_equal(iso.phi_h(k0_identity(a)), k0_identity(b))

    def test_round_trips(self, fib):
        rng = random.Random(173)
        for a, b, iso in sample_isomorphisms(fib):
            k = a.size
            for _ in range(25):
                v = StableElement(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 2))
                assert equal_s(iso.phi_s_inv(iso.phi_s(v)), v)
                w = UnstableElement(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 2))
                assert equal_u(iso.phi_u_inv(iso.phi_u(w)), w)
                x = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 2))
                assert k0_equal(iso.phi_h_inv(iso.phi_h(x)), x)

    def test_intertwines_shift(self, fib):
        rng = random.Random(179)
        for a, b, iso in sample_isomorphisms(fib):
            k = a.size
            for _ in range(25):
                v = StableElement(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 2))
                assert equal_s(iso.phi_s(alpha_s(v)), alpha_s(iso.phi_s(v)))

    def test_ring_homomorphism(self, fib):
        rng = random.Random(181)
        for a, b, iso in sample_isomorphisms(fib):
            for _ in range(25):
                x = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
                y = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
                assert k0_equal(iso.phi_h(mul_00(x, y)), mul_00(iso.phi_h(x), iso.phi_h(y)))

    def test_module_compatibility(self, fib):
        # phi_S(s * h) = phi_S(s) * phi_H(h) and the unstable mirror image
        rng = random.Random(191)
        from sftdim import act_u

        for a, b, iso in sample_isomorphisms(fib):
            k = a.size
            for _ in range(25):
                v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
                h = CylinderK0Element(a, random_centralizer_element(rng, a, 2), rng.randint(0, 1))
                assert equal_s(iso.phi_s(act_s(v, h)), act_s(iso.phi_s(v), iso.phi_h(h)))
                w = UnstableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
                assert equal_u(iso.phi_u(act_u(h, w)), act_u(iso.phi_h(h), iso.phi_u(w)))

    def test_preserves_decided_positivity(self, fib):
        rng = random.Random(193)
        for a, b, iso in sample_isomorphisms(fib):
            k = a.size
            for _ in range(25):
                v = StableElement(a, tuple(rng.randint(0, 4) for _ in range(k)), rng.randint(0, 2))
                if is_positive_s(v).kind is Positivity.POSITIVE:
                    assert is_positive_s(iso.phi_s(v)).kind is Positivity.POSITIVE

    def test_additive(self, fib):
        rng = random.Random(197)
        from sftdim import add_s

        for a, b, iso in sample_isomorphisms(fib):
            k = a.size
            for _ in range(25):
                v1 = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
                v2 = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
                assert equal_s(iso.phi_s(add_s(v1, v2)), add_s(iso.phi_s(v1), iso.phi_s(v2)))
