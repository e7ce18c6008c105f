import random

from conftest import random_valid_adjacency, reference_hom_eval
from sftdim.cylinder_ring import RAElement
from sftdim.exactlinalg import minimal_polynomial, poly_eval_matrix
from sftdim import (
    CylinderK0Element,
    StableElement,
    StableHom,
    UnstableElement,
    act_s,
    equal_u,
    hom_add,
    hom_equal,
    hom_eval,
    hom_scale,
    hom_to_unstable,
    matrix_power,
    ra_add,
    ra_equal,
    ra_generator,
    ra_mul,
    ra_one,
    unstable_to_hom,
)


def hom_equal_oracle(p1, p2, m_max=20):
    x, y = (p1, p2) if p1.level <= p2.level else (p2, p1)
    a = x.ambient.matrix
    for m in range(m_max + 1):
        lhs = matrix_power(a, 2 * (m + y.level - x.level)).col_apply(x.z)
        rhs = matrix_power(a, 2 * m).col_apply(y.z)
        if lhs == rhs:
            return True
    return False


class TestHomEval:
    def test_zero_hom(self, fib):
        phi = StableHom(fib, (0, 0), 1)
        for v in [(1, 0), (0, 1), (2, -3)]:
            assert hom_eval(phi, StableElement(fib, v, 0)).is_zero

    def test_scalar_shift(self, two):
        # k = 1: the evaluation is the scalar v * z * 2^n at level N + n
        phi = StableHom(two, (3,), 1)
        out = hom_eval(phi, StableElement(two, (5,), 2))
        assert out.coeffs == (3 * 5 * 4,)
        assert out.level == 3

    def test_matches_the_tail_matrices(self):
        # singular and derogatory matrices included: small entries make both common
        rng = random.Random(127)
        for _ in range(150):
            a = random_valid_adjacency(rng, rng.randint(3, 8), hi=rng.choice((1, 2, 3)))
            k = a.size
            phi = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 3))
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 3))
            assert hom_eval(phi, v) == reference_hom_eval(phi, v)

    def test_linearity_in_argument(self, primitive_pool):
        rng = random.Random(131)
        for _ in range(60):
            a = rng.choice(primitive_pool)
            k = a.size
            phi = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            v1 = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            v2 = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            from sftdim import add_s

            assert ra_equal(
                hom_eval(phi, add_s(v1, v2)),
                ra_add(hom_eval(phi, v1), hom_eval(phi, v2)),
            )

    def test_module_linearity_over_subring(self, primitive_pool):
        # phi(a * r) = phi(a) * r for the generator [A,0] and its inverse [A,1]
        rng = random.Random(137)
        from sftdim import k0_identity

        for _ in range(100):
            a = rng.choice(primitive_pool)
            k = a.size
            phi = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            pairs = [
                (ra_generator(a, 0), CylinderK0Element(a, a.matrix, 0)),
                (ra_generator(a, 1), CylinderK0Element(a, a.matrix, 1)),
                (ra_one(a), k0_identity(a)),
            ]
            for r, h in pairs:
                lhs = hom_eval(phi, act_s(v, h))
                rhs = ra_mul(hom_eval(phi, v), r)
                assert ra_equal(lhs, rhs)

    def test_hom_module_structure(self, primitive_pool):
        # (r . phi)(a) = r * phi(a)
        rng = random.Random(139)
        for _ in range(60):
            a = rng.choice(primitive_pool)
            k = a.size
            phi = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            v = StableElement(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            r = ra_mul(ra_generator(a, rng.randint(0, 1)), ra_generator(a, rng.randint(0, 1)))
            assert ra_equal(hom_eval(hom_scale(r, phi), v), ra_mul(r, hom_eval(phi, v)))

    def test_scale_matches_the_matrix_polynomial(self):
        # hom_scale runs Horner's rule on z; the reference forms the matrix p(A)
        rng = random.Random(149)
        for _ in range(100):
            a = random_valid_adjacency(rng, rng.randint(1, 8), hi=rng.choice((1, 2, 3)))
            k = a.size
            phi = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 3))
            coeffs = tuple(rng.randint(-3, 3) for _ in range(minimal_polynomial(a.matrix).k))
            r = RAElement(a, coeffs, rng.randint(0, 3))
            want = poly_eval_matrix(coeffs, a.matrix).col_apply(phi.z)
            assert hom_scale(r, phi) == StableHom(a, want, phi.level + r.level)


class TestHomEquality:
    def test_defining_relation(self, fib):
        z = (2, -1)
        a2z = matrix_power(fib.matrix, 2).col_apply(z)
        assert hom_equal(StableHom(fib, z, 0), StableHom(fib, a2z, 1))

    def test_unimodular_distinguishes(self, fib):
        assert not hom_equal(StableHom(fib, (1, 0), 0), StableHom(fib, (0, 1), 0))

    def test_reflexive(self, fib):
        phi = StableHom(fib, (4, 7), 3)
        assert hom_equal(phi, phi)

    def test_oracle_agreement(self, primitive_pool):
        rng = random.Random(149)
        for _ in range(200):
            a = rng.choice(primitive_pool)
            k = a.size
            p1 = StableHom(a, tuple(rng.randint(-5, 5) for _ in range(k)), rng.randint(0, 3))
            p2 = StableHom(a, tuple(rng.randint(-5, 5) for _ in range(k)), rng.randint(0, 3))
            assert hom_equal(p1, p2) == hom_equal_oracle(p1, p2)

    def test_evaluation_faithfulness(self, primitive_pool):
        # homs are equal iff they agree on the standard-basis classes [e_i, 0]
        rng = random.Random(151)
        for _ in range(80):
            a = rng.choice(primitive_pool)
            k = a.size
            p1 = StableHom(a, tuple(rng.randint(-2, 2) for _ in range(k)), rng.randint(0, 2))
            p2 = StableHom(a, tuple(rng.randint(-2, 2) for _ in range(k)), rng.randint(0, 2))
            agree = all(
                ra_equal(
                    hom_eval(p1, StableElement(a, tuple(1 if i == j else 0 for j in range(k)), 0)),
                    hom_eval(p2, StableElement(a, tuple(1 if i == j else 0 for j in range(k)), 0)),
                )
                for i in range(k)
            )
            assert hom_equal(p1, p2) == agree


class TestUnstableCorrespondence:
    def test_level_zero(self, fib):
        phi = StableHom(fib, (1, 2), 0)
        assert hom_to_unstable(phi) == UnstableElement(fib, (1, 2), 0)

    def test_odd_level_round_trip(self, fib):
        w = UnstableElement(fib, (2, 1), 3)
        phi = unstable_to_hom(w)
        assert phi.level == 2
        back = hom_to_unstable(phi)
        assert equal_u(back, w)

    def test_round_trips(self, primitive_pool):
        rng = random.Random(157)
        for _ in range(100):
            a = rng.choice(primitive_pool)
            k = a.size
            w = UnstableElement(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 4))
            assert equal_u(hom_to_unstable(unstable_to_hom(w)), w)
            phi = StableHom(a, tuple(rng.randint(-4, 4) for _ in range(k)), rng.randint(0, 3))
            assert hom_equal(unstable_to_hom(hom_to_unstable(phi)), phi)

    def test_additive(self, primitive_pool):
        rng = random.Random(163)
        from sftdim import add_u

        for _ in range(60):
            a = rng.choice(primitive_pool)
            k = a.size
            p1 = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            p2 = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            lhs = hom_to_unstable(hom_add(p1, p2))
            rhs = add_u(hom_to_unstable(p1), hom_to_unstable(p2))
            assert equal_u(lhs, rhs)

    def test_intertwines_subring_actions(self, primitive_pool):
        # the correspondence carries (r . phi) to r * w for r = [A, 0]
        rng = random.Random(167)
        from sftdim import act_u

        for _ in range(60):
            a = rng.choice(primitive_pool)
            k = a.size
            phi = StableHom(a, tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(0, 2))
            for level in (0, 1):
                r = ra_generator(a, level)
                h = CylinderK0Element(a, a.matrix, level)
                lhs = hom_to_unstable(hom_scale(r, phi))
                rhs = act_u(h, hom_to_unstable(phi))
                assert equal_u(lhs, rhs)
