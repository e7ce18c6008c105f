"""The shared inductive-limit tower: its laws, the per-flavour formulas it
replaced, the per-ambient facts it keeps, and what it frees."""

import gc
import random
import tracemalloc
import weakref

import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sftdim import (
    CylinderK0Element,
    CylinderK1Element,
    HomoclinicElement,
    IntMatrix,
    RAElement,
    StableElement,
    UnstableElement,
    Verdict,
    center_basis,
    centralizer_basis,
    commutator_lattice,
    is_primitive,
    k1_group_structure,
    matrix_power,
    minimal_polynomial,
    perron,
    validate,
)
from sftdim import cylinder_ring, dimension_groups as dg, duality, exactlinalg
from sftdim.duality import StableHom
from sftdim.exactlinalg import kron, poly_mod, poly_mul, solve_integer_linear

from conftest import random_centralizer_element, random_matrix, random_primitive_adjacency

FLAVOURS = ("s", "u", "h", "k0", "k1", "hom", "ra")


def _element(rng, a, flavour, level=None):
    k = a.size
    level = rng.randint(0, 3) if level is None else level
    if flavour in ("s", "u", "hom"):
        cls = {"s": StableElement, "u": UnstableElement, "hom": StableHom}[flavour]
        return cls(a, tuple(rng.randint(-3, 3) for _ in range(k)), level)
    if flavour == "k0":
        return CylinderK0Element(a, random_centralizer_element(rng, a, bound=2), level)
    if flavour == "ra":
        width = minimal_polynomial(a.matrix).k
        return RAElement(a, tuple(rng.randint(-3, 3) for _ in range(width)), level)
    cls = HomoclinicElement if flavour == "h" else CylinderK1Element
    return cls(a, random_matrix(rng, k, k, lo=-3, hi=3), level)


def _push_one(x):
    """The same class written one level higher."""
    return x._make(x.ambient, x._push(1), x.level + 1)


@st.composite
def _primitive(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k))
    try:
        a = validate(rows)
    except ValueError:
        assume(False)
    assume(is_primitive(a))
    return a


_HYPOTHESIS = settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


# ---------------------------------------------------------------------------
# the per-flavour formulas the tower replaced, kept as oracles
# ---------------------------------------------------------------------------


def _old_push(x, j):
    """The payload of x pushed j levels, in its own type, as each flavour wrote it."""
    p = matrix_power(x.ambient.matrix, j)
    if isinstance(x, StableElement):
        return p.row_apply(x.vector)
    if isinstance(x, UnstableElement):
        return p.col_apply(x.vector)
    if isinstance(x, StableHom):
        return matrix_power(x.ambient.matrix, 2 * j).col_apply(x.z)
    return p @ x.matrix @ p


def old_ra_add(x, y):
    """The subring's own level alignment: each level multiplies by x^2 modulo p."""
    mp = minimal_polynomial(x.ambient.matrix)
    level = max(x.level, y.level)

    def pushed(z):
        c = poly_mod(poly_mul(z.coeffs, (0,) * (2 * (level - z.level)) + (1,)), mp.p_coeffs)
        return c + (0,) * (mp.k - len(c))

    return RAElement(x.ambient, tuple(a + b for a, b in zip(pushed(x), pushed(y))), level)


def old_equal(x, y):
    if isinstance(x, RAElement):  # zero difference at the common level
        return not any(old_ra_add(x, old_neg(y)).coeffs)
    if x.level > y.level:
        x, y = y, x
    l = minimal_polynomial(x.ambient.matrix).l
    return _old_push(x, l + y.level - x.level) == _old_push(y, l)


def old_add(x, y):
    if isinstance(x, RAElement):
        return old_ra_add(x, y)
    level = max(x.level, y.level)
    px, py = _old_push(x, level - x.level), _old_push(y, level - y.level)
    if isinstance(px, IntMatrix):
        return type(x)(x.ambient, px + py, level)
    return type(x)(x.ambient, tuple(s + t for s, t in zip(px, py)), level)


def old_neg(x):
    if isinstance(x, (StableElement, UnstableElement)):
        return type(x)(x.ambient, tuple(-s for s in x.vector), x.level)
    if isinstance(x, StableHom):
        return StableHom(x.ambient, tuple(-s for s in x.z), x.level)
    if isinstance(x, RAElement):
        return RAElement(x.ambient, tuple(-c for c in x.coeffs), x.level)
    return type(x)(x.ambient, -x.matrix, x.level)


def old_normalize(x):
    a = x.ambient
    l = minimal_polynomial(a.matrix).l
    hi = matrix_power(a.matrix, l + 1)
    if isinstance(x, StableElement):
        system = hi.transpose()
    elif isinstance(x, UnstableElement):
        system = hi
    else:
        system = kron(hi, hi.transpose())
    cur = type(x)(a, _old_push(x, l), x.level + l)
    while cur.level > 0:
        target = _old_push(cur, l)
        if isinstance(x, HomoclinicElement):
            sol = solve_integer_linear(system, target.vec())
            payload = None if sol is None else IntMatrix.from_vec(sol, a.size, a.size)
        else:
            payload = solve_integer_linear(system, target)
        if payload is None:
            break
        cur = type(x)(a, payload, cur.level - 1)
    return cur


def _assert_matches_old(a, rng):
    for flavour in FLAVOURS:
        for _ in range(4):
            x, y = _element(rng, a, flavour), _element(rng, a, flavour)
            if rng.random() < 0.5:  # an equal pair, written at a different level
                y = _push_one(_push_one(x))
            assert dg.equal(x, y) == old_equal(x, y)
            assert dg.add(x, y) == old_add(x, y)
            assert dg.neg(x) == old_neg(x)
            assert dg.is_zero(dg.add(x, dg.neg(x)))
            if flavour in ("s", "u", "h"):
                assert dg.normalize(x) == old_normalize(x)


class TestMatchesTheOldFormulas:
    def test_pool(self, primitive_pool):
        rng = random.Random(606)
        for a in primitive_pool:
            _assert_matches_old(a, rng)

    @_HYPOTHESIS
    @given(a=_primitive(), seed=st.integers(0, 2**16))
    def test_generated(self, a, seed):
        _assert_matches_old(a, random.Random(seed))

    def test_public_names_are_the_tower(self):
        assert dg.equal_s is dg.equal_u is dg.equal_h is cylinder_ring.k0_equal is duality.hom_equal
        assert dg.add_s is dg.add_h is cylinder_ring.k0_add is cylinder_ring.k1_add is duality.hom_add
        assert dg.normalize_s is dg.normalize_u is dg.normalize_h is dg.normalize
        assert cylinder_ring.ra_add is dg.add and cylinder_ring.ra_equal is dg.equal

    def test_ra_zero_has_one_coefficient_per_degree(self, primitive_pool):
        singular = [validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]]), validate([[1] * 4] * 4)]
        for a in [*primitive_pool, *singular]:
            k = minimal_polynomial(a.matrix).k
            zero = RAElement.zero(a)
            assert zero == RAElement(a, (0,) * k, 0) == cylinder_ring.ra_reduce(a, (), 0)
            assert zero.is_zero and dg.is_zero(zero)
            assert dg._preimage_system(a, RAElement)[1].rows == k
            with pytest.raises(ValueError, match=f"expected {k} coefficients, got {k + 1}"):
                RAElement(a, (0,) * (k + 1), 0)


# ---------------------------------------------------------------------------
# tower laws, every flavour
# ---------------------------------------------------------------------------


class TestTowerLaws:
    @_HYPOTHESIS
    @given(a=_primitive(), seed=st.integers(0, 2**16), flavour=st.sampled_from(FLAVOURS))
    def test_laws(self, a, seed, flavour):
        rng = random.Random(seed)
        x, y, z = (_element(rng, a, flavour) for _ in range(3))
        assert dg.equal(x + y, y + x)
        assert dg.equal((x + y) + z, x + (y + z))
        assert dg.is_zero(x + (-x))
        assert dg.equal(_push_one(x), x)
        assert dg.equal(_push_one(x), y) == dg.equal(x, y)
        normal = dg.normalize(x)
        assert type(normal) is type(x) and dg.equal(normal, x)

    def test_k0_normalize_stays_in_the_centraliser(self):
        # A = J (l = 1): [I, 3] is [2J, 4] in the stable range, and a preimage
        # of 8J under X -> A^2 X A^2 is any X with entry sum 2, such as the
        # non-commuting diag(2, 0); the preimage is taken in C(A) instead
        a = validate([[1, 1], [1, 1]])
        x = CylinderK0Element(a, IntMatrix.identity(2), 3)
        normal = dg.normalize(x)
        assert normal.level == 3 and dg.equal(normal, x)

    def test_k1_laws_hold_in_the_quotient(self, primitive_pool):
        rng = random.Random(77)
        for a in primitive_pool:
            x, y = _element(rng, a, "k1"), _element(rng, a, "k1")
            assert cylinder_ring.k1_equal(x + y, y + x).verdict is Verdict.EQUAL
            assert cylinder_ring.k1_equal(x + (-x), CylinderK1Element.zero(a)).verdict is Verdict.EQUAL


# ---------------------------------------------------------------------------
# per-ambient facts: a warm ambient factors nothing
# ---------------------------------------------------------------------------


class TestWarmAmbientFactorsNothing:
    def test_repeated_queries(self, monkeypatch):
        # l = 1 and det A = 0, so normalisation strips against a real system
        a = validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        rng = random.Random(8)

        def queries():
            k = a.size
            for flavour, normalize, equal in (
                ("s", dg.normalize_s, dg.equal_s),
                ("u", dg.normalize_u, dg.equal_u),
                ("h", dg.normalize_h, dg.equal_h),
            ):
                x = _element(rng, a, flavour, level=rng.randint(1, 3))
                normalize(x)
                equal(x, _element(rng, a, flavour))
            dg.normalize_s(StableElement(a, (2, 0, 2), 2))
            cylinder_ring.ra_membership(CylinderK0Element(a, a.matrix @ a.matrix, rng.randint(0, 3)))
            x1 = CylinderK1Element(a, random_matrix(rng, k, k, -2, 2), rng.randint(0, 3))
            cylinder_ring.k1_equal(x1, CylinderK1Element(a, random_matrix(rng, k, k, -2, 2), 1))
            duality.hom_equal(_element(rng, a, "hom"), _element(rng, a, "hom"))

        queries()
        factored = []
        original = exactlinalg.row_hermite_with_transform

        def counted(m):
            factored.append(m)
            return original(m)

        monkeypatch.setattr(exactlinalg, "row_hermite_with_transform", counted)
        for _ in range(5):
            queries()
        assert factored == []


# ---------------------------------------------------------------------------
# a zero-step push is the payload: what is already level multiplies nothing
# ---------------------------------------------------------------------------


def _record_products(monkeypatch):
    """The operand pairs of every IntMatrix product from now on."""
    calls = []
    original = IntMatrix.__matmul__

    def spy(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", spy)
    return calls


def _record_powers(monkeypatch):
    """The exponents of every matrix_power call, under each module's own name for it."""
    exponents = []
    original = exactlinalg.matrix_power

    def spy(m, e):
        exponents.append(e)
        return original(m, e)

    for module in (exactlinalg, dg, cylinder_ring, duality):
        monkeypatch.setattr(module, "matrix_power", spy)
    return exponents


class TestZeroStepPush:
    def test_is_the_payload_in_every_tower(self, monkeypatch, sym3):
        rng = random.Random(15)
        singular = validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        elements = [_element(rng, a, f) for a in (sym3, singular) for f in FLAVOURS]
        assert {type(x) for x in elements} == {
            StableElement, UnstableElement, HomoclinicElement, CylinderK0Element, CylinderK1Element, StableHom,
            RAElement,
        }
        products = _record_products(monkeypatch)
        for name in ("row_apply", "col_apply"):
            monkeypatch.setattr(IntMatrix, name, lambda *args: pytest.fail("a vector was multiplied"))
        for x in elements:
            pushed = x._push(0)
            assert type(pushed) is tuple and pushed == tuple(x._flat)
        assert products == []

    def test_equal_levels_on_a_nonsingular_ambient_multiply_nothing(self, monkeypatch, sym3):
        rng = random.Random(16)
        assert minimal_polynomial(sym3.matrix).l == 0
        pairs = []
        for flavour, equal in (("h", dg.equal_h), ("k0", cylinder_ring.k0_equal)):
            x = _element(rng, sym3, flavour, level=2)
            pairs.append((equal, x, _element(rng, sym3, flavour, level=2), False))
            pairs.append((equal, x, x._make(sym3, x._flat, 2), True))
        k1_equal = lambda x, y: cylinder_ring.k1_equal(x, y).verdict is Verdict.EQUAL
        x = _element(rng, sym3, "k1", level=3)
        w = random_matrix(rng, 3, 3, -2, 2)
        pairs.append((k1_equal, x, CylinderK1Element(sym3, x.matrix + sym3.matrix @ w - w @ sym3.matrix, 3), True))
        pairs.append((k1_equal, x, CylinderK1Element(sym3, x.matrix + IntMatrix.identity(3), 3), False))
        for equal, x, y, want in pairs:  # warm: closures and minimal polynomials
            assert equal(x, y) == want
        products = _record_products(monkeypatch)
        for equal, x, y, want in pairs:
            assert equal(x, y) == want
            assert dg.align(x, y)[2] == x.level
        assert products == []
        # the spy sees the products that different levels do need
        assert dg.equal_h(pairs[0][1], _push_one(pairs[0][1]))
        assert products

    def test_l0_ra_membership_and_hom_eval_compute_no_zeroth_power(self, monkeypatch, sym3):
        rng = random.Random(17)
        member = CylinderK0Element(sym3, sym3.matrix @ sym3.matrix + IntMatrix.identity(3), 4)
        outsider = CylinderK0Element(sym3, IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 1)
        phi, v = _element(rng, sym3, "hom", level=2), _element(rng, sym3, "s", level=0)
        want = (cylinder_ring.ra_membership(member), cylinder_ring.ra_membership(outsider), duality.hom_eval(phi, v))
        assert want[0] is not None and want[0].level == 4 and want[1] is None
        exponents, products = _record_powers(monkeypatch), _record_products(monkeypatch)
        assert cylinder_ring.ra_membership(member) == want[0]
        assert cylinder_ring.ra_membership(outsider) is None
        assert duality.hom_eval(phi, v) == want[2]
        assert 0 not in exponents and products == []

    def test_normalize_takes_the_solution_as_the_payload(self, monkeypatch):
        # Z^width towers read the preimage off directly; C(A) still combines its basis
        a = validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        rng = random.Random(18)
        elements = [_element(rng, a, f, level=3) for f in ("s", "u", "h", "k0")]
        want = [old_normalize(x) for x in elements[:3]] + [dg.normalize(elements[3])]
        combined = []
        original = dg.hermite_combine
        monkeypatch.setattr(dg, "hermite_combine", lambda *args: combined.append(args) or original(*args))
        assert [dg.normalize(x) for x in elements[:3]] == want[:3] and combined == []
        assert dg.normalize(elements[3]) == want[3] and want[3].level < 3 and combined

    def test_list_payload_compares_as_before(self, sym3):
        singular = validate([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        for a in (sym3, singular):
            listed, tupled = StableElement(a, [1, -1, 2], 1), StableElement(a, (1, -1, 2), 1)
            assert dg.equal_s(listed, tupled) and dg.equal_s(tupled, listed)
            assert old_equal(listed, tupled)
            assert dg.align(listed, tupled)[:2] == ((1, -1, 2), (1, -1, 2))
            assert dg.add_s(listed, tupled) == StableElement(a, (2, -2, 4), 1)
            assert dg.is_zero_s(dg.add_s(listed, dg.neg_s(tupled)))
            assert not dg.is_zero_s(listed)
            assert dg.normalize_s(listed) == dg.normalize_s(tupled)
            assert not dg.equal_s(listed, StableElement(a, [1, -1, 3], 1))


# ---------------------------------------------------------------------------
# facts are freed with their matrix
# ---------------------------------------------------------------------------


def _every_stage(a):
    k = a.size
    centralizer_basis(a)
    commutator_lattice(a)
    k1_group_structure(a)
    center_basis(a)
    perron(a)
    cylinder_ring.k1_equal(
        CylinderK1Element(a, IntMatrix.identity(k), 0), CylinderK1Element(a, IntMatrix.zeros(k, k), 1)
    )
    cylinder_ring.ra_membership(CylinderK0Element(a, a.matrix, 1))


def test_facts_are_freed_with_their_matrix():
    rng = random.Random(2026)
    matrices = [random_primitive_adjacency(rng, 2 + i % 4, hi=1) for i in range(201)]
    _every_stage(matrices.pop())  # first use of each code path allocates once
    refs = [weakref.ref(a) for a in matrices]
    gc.collect()
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in matrices:
            _every_stage(a)
        del a, matrices
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(r() is None for r in refs)
    assert grown < 1 << 20
