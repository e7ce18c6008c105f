import random

import pytest

from sftdim import IntMatrix, exactlinalg, is_primitive, validate
from sftdim.cylinder_ring import centralizer_basis
from sftdim.exactlinalg import RowHermiteForm


FULL_TWO_SHIFT = [[2]]
GOLDEN_MEAN = [[1, 1], [1, 0]]
SYMMETRIC_3 = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
ABELIAN_2 = [[1, 2], [2, 1]]
SPARSE_3 = [[0, 1, 5], [1, 0, 1], [1, 1, 0]]
DOUBLED = [[4, 2], [2, 4]]
NILPOTENT_PART = [[1, 1], [1, 1]]


@pytest.fixture(scope="session")
def two():
    return validate(FULL_TWO_SHIFT)


@pytest.fixture(scope="session")
def fib():
    return validate(GOLDEN_MEAN)


@pytest.fixture(scope="session")
def sym3():
    return validate(SYMMETRIC_3)


@pytest.fixture(scope="session")
def abelian2():
    return validate(ABELIAN_2)


@pytest.fixture(scope="session")
def sparse3():
    return validate(SPARSE_3)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_valid_adjacency(rng, size, hi=3):
    while True:
        rows = [[max(0, rng.randint(-1, hi)) for _ in range(size)] for _ in range(size)]
        try:
            return validate(rows)
        except ValueError:
            continue


def random_primitive_adjacency(rng, size, hi=3):
    while True:
        a = random_valid_adjacency(rng, size, hi)
        if is_primitive(a):
            return a


@pytest.fixture(scope="session")
def primitive_pool():
    """A deterministic pool of small primitive matrices, sizes 1 through 4."""
    rng = random.Random(20240811)
    pool = [validate(FULL_TWO_SHIFT), validate(GOLDEN_MEAN), validate(SYMMETRIC_3),
            validate(ABELIAN_2), validate(DOUBLED)]
    for size in (2, 3, 4):
        for _ in range(2):
            pool.append(random_primitive_adjacency(rng, size))
    return pool


def random_centralizer_element(rng, ambient, bound=3):
    basis = centralizer_basis(ambient).basis
    k = ambient.size
    acc = IntMatrix.zeros(k, k)
    for b in basis:
        acc = acc + b.scale(rng.randint(-bound, bound))
    return acc


def chord_cycle(k, shift=0):
    """A k-cycle plus the chord shift -> shift + 2: primitive, with characteristic
    polynomial x^k - x - 1 (cycle lengths k and k - 1)."""
    rows = [[1 if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
    rows[shift % k][(shift + 2) % k] = 1
    return validate(rows)


def top_down_row_hermite(m):
    """Oracle for row_hermite_with_transform: the augmented rows [m_i | e_i]
    inserted from the first row down."""
    builder = exactlinalg._HnfBuilder(m.cols + m.rows)
    for i in range(m.rows):
        builder.insert(list(m.row(i)) + [1 if t == i else 0 for t in range(m.rows)])
    rows = builder.basis()
    h = tuple(r[: m.cols] for r in rows)
    w = tuple(r[m.cols :] for r in rows)
    pivots = tuple(next(j for j, x in enumerate(r) if x) for r in h if any(r))
    return RowHermiteForm(h=h, w=w, pivots=pivots)
