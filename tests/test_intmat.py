import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mti.intmat import (
    AbelianGroup,
    IntMatrix,
    _diagonalize,
    is_prime,
    is_symplectic,
    mapping_torus_homology,
    smith_normal_form,
)
from mti.sl2 import dw_invariant_genus_g
from oracles import det, is_symplectic_by_j, matmul, random_symplectic, rank_mod_p, snf_via_minor_gcds

GENUS2_A = [[-116, -1463, 39, -2926], [0, 1, 0, 1], [-3, -38, 1, -76], [0, -13, 0, -12]]
GENUS2_B = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -2, 0, 1]]


def minus_id(rows):
    m = IntMatrix.from_rows(rows)
    return m - IntMatrix.identity(m.rows)


def diag_matrix(diag, n):
    return IntMatrix.from_rows([[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(n)])


def test_snf_genus2_examples():
    assert smith_normal_form(minus_id(GENUS2_A)).diag == [1, 1, 3, 507]
    assert smith_normal_form(minus_id(GENUS2_B)).diag == [1, 2, 0, 0]


def test_snf_zero_matrix():
    res = smith_normal_form(IntMatrix(2, 2, [0] * 4))
    assert res.diag == [0, 0]
    assert res.left == IntMatrix.identity(2)
    assert res.right == IntMatrix.identity(2)


def test_snf_2x2_example():
    assert smith_normal_form(minus_id([[10, 3], [3, 1]])).diag == [3, 3]


def test_snf_certificates():
    m = minus_id(GENUS2_A)
    res = smith_normal_form(m)
    assert matmul(matmul(res.left, m), res.right) == diag_matrix(res.diag, 4)
    assert abs(det(res.left)) == 1
    assert abs(det(res.right)) == 1


def _check_snf(m: IntMatrix):
    res = smith_normal_form(m)
    n = min(m.rows, m.cols)
    d = res.diag
    assert len(d) == n
    assert all(x >= 0 for x in d)
    # zeros trail, nonzero entries chain
    nz = [x for x in d if x != 0]
    assert d == nz + [0] * (n - len(nz))
    for i in range(1, len(nz)):
        assert nz[i] % nz[i - 1] == 0
    assert abs(det(res.left)) == 1
    assert abs(det(res.right)) == 1
    full = IntMatrix.from_rows(
        [[d[i] if i == j and i < n else 0 for j in range(m.cols)] for i in range(m.rows)]
    )
    assert matmul(matmul(res.left, m), res.right) == full
    return res


@st.composite
def int_matrices(draw, max_dim=6, lo=-50, hi=50):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(lo, hi), min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, entries)


@settings(max_examples=500, deadline=None)
@given(int_matrices())
def test_snf_random_properties(m):
    res = _check_snf(m)
    if max(m.rows, m.cols) <= 4:
        assert snf_via_minor_gcds(m, max_dim=4) == res.diag
    # the elimination on the bare rows, which H1 runs, finds the same diagonal
    assert _diagonalize(m.to_rows(), m.rows, m.cols) == res.diag


def test_minor_gcd_examples():
    assert snf_via_minor_gcds(IntMatrix.from_rows([[3, 0], [0, 3]])) == [3, 3]
    assert snf_via_minor_gcds(minus_id(GENUS2_A)) == [1, 1, 3, 507]
    assert snf_via_minor_gcds(minus_id([[4, 3], [5, 4]])) == [1, 6]


def test_minor_gcd_dimension_limit():
    with pytest.raises(ValueError):
        snf_via_minor_gcds(IntMatrix(7, 7, [0] * 49))


def _random_unimodular(n, rng, steps=8):
    u = IntMatrix.identity(n)
    uinv = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.choice([-2, -1, 1, 2])
        e = IntMatrix.identity(n)
        e.entries[i * n + j] = f
        einv = IntMatrix.identity(n)
        einv.entries[i * n + j] = -f
        u = matmul(u, e)
        uinv = matmul(einv, uinv)
    return u, uinv


def test_snf_conjugation_invariance():
    rng = random.Random(20240811)
    m = minus_id(GENUS2_A)
    base = smith_normal_form(m).diag
    for _ in range(25):
        u, uinv = _random_unimodular(4, rng)
        assert matmul(u, uinv) == IntMatrix.identity(4)
        assert smith_normal_form(matmul(matmul(u, m), uinv)).diag == base


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_dim=5), st.sampled_from([2, 3, 5, 7]))
def test_rank_vs_snf_divisibility(m, p):
    # the elimination oracle against the SNF, and against the genus-g Z read
    # off it, for 2g x 2g matrices taken as fhat
    if m.rows != m.cols:
        return
    diag = smith_normal_form(m).diag
    divisible = sum(1 for d in diag if d % p == 0)  # zeros count as divisible
    assert rank_mod_p(m, p) == m.rows - divisible
    if m.rows % 2 == 0:
        fixed = m.rows - rank_mod_p(m - IntMatrix.identity(m.rows), p)
        assert dw_invariant_genus_g(m, p, check_symplectic=False).exponent == fixed


def test_rank_mod_p_examples():
    assert rank_mod_p(IntMatrix.identity(4), 5) == 4
    assert rank_mod_p(minus_id([[10, 3], [3, 1]]), 3) == 0
    assert rank_mod_p(minus_id([[4, 3], [5, 4]]), 3) == 1


def test_rank_mod_p_rejects_composite():
    with pytest.raises(ValueError, match="6 is not prime"):
        dw_invariant_genus_g(IntMatrix.identity(2), 6)


def test_mapping_torus_homology():
    # the first matrix reproduces the published homology but fails the
    # symplectic test (it preserves no unimodular skew form)
    assert mapping_torus_homology(IntMatrix.from_rows(GENUS2_A), check_symplectic=False) == AbelianGroup(1, [3, 507])
    with pytest.raises(ValueError):
        mapping_torus_homology(IntMatrix.from_rows(GENUS2_A))
    assert mapping_torus_homology(IntMatrix.from_rows(GENUS2_B)) == AbelianGroup(3, [2])
    assert mapping_torus_homology(IntMatrix.identity(2)) == AbelianGroup(3, [])


def test_is_symplectic():
    assert is_symplectic(IntMatrix.identity(4), 2)
    assert is_symplectic(IntMatrix.from_rows([[4, 3], [5, 4]]), 1)
    assert not is_symplectic(IntMatrix.from_rows([[1, 0], [0, 2]]), 1)
    assert is_symplectic(IntMatrix.from_rows(GENUS2_B), 2)
    assert not is_symplectic(IntMatrix.from_rows(GENUS2_A), 2)
    with pytest.raises(ValueError):
        is_symplectic(IntMatrix(2, 3, [0] * 6), 1)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_is_symplectic_agrees_with_the_j_product_oracle(g):
    # the column-pair test against the products M^T J M on seeded products
    # of transvections, copies of them with one entry moved, and matrices
    # of small random entries
    rng = random.Random(g)
    n = 2 * g
    verdicts = []
    for _ in range(150):
        m = random_symplectic(rng, g, rng.randint(1, 6))
        bent = list(m.entries)
        bent[rng.randrange(n * n)] += rng.choice([-2, -1, 1, 2])
        small = [rng.randint(-1, 1) for _ in range(n * n)]
        for entries in (m.entries, bent, small):
            case = IntMatrix(n, n, entries)
            verdicts.append(is_symplectic(case, g))
            assert verdicts[-1] == is_symplectic_by_j(case, g), case
    assert 0 < sum(verdicts) < len(verdicts)


def test_int_matrix_is_unhashable():
    # its entries are a public list that callers may write in place, so a
    # hash taken over them would go stale
    with pytest.raises(TypeError, match="unhashable"):
        hash(IntMatrix.identity(2))


def test_repr_shows_the_rows():
    assert repr(IntMatrix.from_rows([[1, 2], [3, 4]])) == "IntMatrix([[1, 2], [3, 4]])"


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 10**9 + 7]
    composites = [1, 0, -3, 4, 9, 561, 10**9 + 11]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_refuses_psi12():
    # psi_12 is a strong pseudoprime to all twelve bases 2..37, so the test
    # cannot tell it from a prime; it used to answer True
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(psi12)
    with pytest.raises(ValueError, match="cannot decide"):
        dw_invariant_genus_g(IntMatrix.identity(2), psi12)
    assert is_prime(2**61 - 1)
    assert not is_prime(3825123056546413051)  # psi_11: only the base 37 catches it
