import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from mti.intmat import IntMatrix, is_prime, mapping_torus_homology, smith_normal_form
from mti.sl2 import (
    KINDS_ODD,
    KINDS_P2,
    Sl2Matrix,
    _classify_residues,
    class_table,
    classify_mod_p,
    dw_invariant_genus_g,
    dw_exponent_of_kind,
    dw_invariant_sl2,
    genus1_homology,
    geodesic_pullback_splitting,
    jacobi,
    sl2_snf_entries,
    slp_class_census,
)
from oracles import (
    fixed_point_count_bruteforce,
    fixed_point_count_genus_g,
    legendre_by_euler,
    prime_powers,
    random_sl2,
    random_symplectic,
    sl2_fp_elements,
    sp4_fp_elements,
)


def test_sl2_snf_entries_examples():
    assert sl2_snf_entries(Sl2Matrix(10, 3, 3, 1)) == (3, 3)
    assert sl2_snf_entries(Sl2Matrix(4, 3, 5, 4)) == (1, 6)
    assert sl2_snf_entries(Sl2Matrix(27, 1, -1, 0)) == (1, 25)
    assert sl2_snf_entries(Sl2Matrix(1189, 360, 360, 109)) == (36, 36)
    assert sl2_snf_entries(Sl2Matrix(109, 33, 33, 10)) == (3, 39)
    assert sl2_snf_entries(Sl2Matrix(1, 0, 0, 1)) == (0, 0)
    assert sl2_snf_entries(Sl2Matrix(1, 5, 0, 1)) == (5, 0)


def test_sl2_snf_matches_full_snf():
    rng = random.Random(7)
    for _ in range(100):
        a = random_sl2(rng, 8)
        a1, a2 = sl2_snf_entries(a)
        diag = smith_normal_form(IntMatrix.from_rows([[a.a, a.b], [a.c, a.d]]) - IntMatrix.identity(2)).diag
        expect = [a1, a2]
        # full SNF lists zeros last; the closed form puts A1 first
        if a1 == 0:
            expect = [0, 0]
        elif a2 == 0:
            expect = [a1, 0]
        assert diag == expect


def test_genus_one_route_equals_the_2g_route():
    # H1 and Z off the closed-form diagonal of A - Id equal those off the
    # full SNF of A as a 2x2 IntMatrix: on +-Id, parabolics of both signs
    # (with entries that p divides and that it does not), the elliptic
    # traces 0 and +-1, and seeded words of up to eight letters
    fixed = [
        Sl2Matrix(1, 0, 0, 1),
        Sl2Matrix(-1, 0, 0, -1),
        Sl2Matrix(1, 5, 0, 1),
        Sl2Matrix(1, 0, -6, 1),
        Sl2Matrix(-1, 0, 3, -1),
        Sl2Matrix(-1, 2310, 0, -1),
        Sl2Matrix(0, 1, -1, 0),
        Sl2Matrix(1, -1, 1, 0),
        Sl2Matrix(0, 1, -1, -1),
        Sl2Matrix(2, 1, 1, 1),
        Sl2Matrix(-3, 1, -1, 0),
    ]
    rng = random.Random(38)
    words = fixed + [random_sl2(rng, 8) for _ in range(300)]
    assert {-2, -1, 0, 1, 2} < {a.trace for a in words}
    assert any(a.trace > 2 for a in words) and any(a.trace < -2 for a in words)
    for a in words:
        m = IntMatrix.from_rows([[a.a, a.b], [a.c, a.d]])
        assert genus1_homology(a) == mapping_torus_homology(m), a
        for p in (2, 3, 5, 7, 11):
            assert dw_invariant_sl2(a, p) == dw_invariant_genus_g(m, p), (a, p)


def test_genus1_homology_trichotomy():
    assert str(genus1_homology(Sl2Matrix(4, 3, 5, 4))) == "Z + Z/6"
    assert str(genus1_homology(Sl2Matrix(1, 5, 0, 1))) == "Z^2 + Z/5"
    assert str(genus1_homology(Sl2Matrix(1, 0, 0, 1))) == "Z^3"


def test_dw_invariant_examples():
    assert dw_invariant_sl2(Sl2Matrix(10, 3, 3, 1), 3).value == 9
    assert dw_invariant_sl2(Sl2Matrix(4, 3, 5, 4), 3).value == 3
    assert dw_invariant_sl2(Sl2Matrix(27, 1, -1, 0), 3).value == 1
    for p in (2, 3, 5, 13):
        assert dw_invariant_sl2(Sl2Matrix(1, 0, 0, 1), p).value == p * p
    with pytest.raises(ValueError):
        dw_invariant_sl2(Sl2Matrix(1, 0, 0, 1), 6)


def test_fixed_point_bruteforce_examples():
    assert fixed_point_count_bruteforce((1, 0, 0, 1), 3) == 9
    assert fixed_point_count_bruteforce((1, 1, 0, 1), 3) == 3
    assert fixed_point_count_bruteforce((0, 1, -1, 0), 3) == 1
    with pytest.raises(ValueError):
        fixed_point_count_bruteforce((1, 1, 1, 1), 3)


def _lift(a, b, c, d, p):
    # lift a residue matrix to SL(2,Z): adjust one entry by a multiple of p
    for da, db, dc, dd in itertools.product(range(-p, p + 1), repeat=4):
        m = (a + da * p, b + db * p, c + dc * p, d + dd * p)
        if m[0] * m[3] - m[1] * m[2] == 1:
            return Sl2Matrix(*m)
    raise AssertionError("no lift found")


@pytest.mark.parametrize("p", [2, 3])
def test_formula_equals_bruteforce_exhaustive_small(p):
    for a, b, c, d in sl2_fp_elements(p):
        lift = _lift(a, b, c, d, p)
        assert dw_invariant_sl2(lift, p).value == fixed_point_count_bruteforce((a, b, c, d), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dw_exponent_of_kind_equals_bruteforce_on_every_element(p):
    # Z(A, p) read from the class kind, against the fixed-point count of
    # every element of SL(2,F_p); every kind occurs
    kinds = set()
    for a, b, c, d in sl2_fp_elements(p):
        label = _classify_residues(a, b, c, d, p)
        assert p ** dw_exponent_of_kind(label.kind, p) == fixed_point_count_bruteforce((a, b, c, d), p), label
        kinds.add(label.kind)
    assert kinds == set(KINDS_P2 if p == 2 else KINDS_ODD) - ({"C7"} if p == 3 else set())


def test_classify_examples():
    assert classify_mod_p(Sl2Matrix(1, 1, 0, 1), 5).kind == "C3"
    assert classify_mod_p(Sl2Matrix(1, 2, 0, 1), 5).kind == "C4"
    # trace 0 mod 5, disc -4 = 1 mod 5 a residue: split semisimple
    assert _classify_residues(2, 0, 0, 3, 5).kind == "C7"
    assert classify_mod_p(Sl2Matrix(0, 1, -1, 0), 3).kind == "C8"
    assert classify_mod_p(Sl2Matrix(1, 0, 0, 1), 7).kind == "C1"
    assert classify_mod_p(Sl2Matrix(-1, 0, 0, -1), 7).kind == "C2"
    with pytest.raises(ValueError, match="9 is not prime"):
        classify_mod_p(Sl2Matrix(1, 0, 0, 1), 9)


def test_classify_tests_its_prime_once():
    # the Miller-Rabin test is memoized: a per-class loop at one large prime
    # pays for it on the first class only
    p = 2**63 - 25
    is_prime.cache_clear()
    kinds = [classify_mod_p(Sl2Matrix(1 + t, 1, t, 1), p).kind for t in range(1, 50)]
    assert kinds == ["C7" if jacobi(t * t + 4 * t, p) == 1 else "C8" for t in range(1, 50)]
    assert (is_prime.cache_info().misses, is_prime.cache_info().hits) == (1, 48)


def test_classify_c7_by_exhaustive_conjugation():
    # every conjugate of diag(2, 3) in SL(2,F5) must classify as C7
    p = 5
    reps = set()
    for a, b, c, d in sl2_fp_elements(p):
        # g * diag(2,3) * g^-1 with g = [[a,b],[c,d]], det 1 mod p
        ga, gb, gc, gd = a, b, c, d
        inv = (gd % p, (-gb) % p, (-gc) % p, ga % p)
        m00 = (ga * 2 * inv[0] + gb * 3 * inv[2]) % p
        m01 = (ga * 2 * inv[1] + gb * 3 * inv[3]) % p
        m10 = (gc * 2 * inv[0] + gd * 3 * inv[2]) % p
        m11 = (gc * 2 * inv[1] + gd * 3 * inv[3]) % p
        reps.add((m00, m01, m10, m11))
    assert all(_classify_residues(*m, p).kind == "C7" for m in reps)


def test_classify_mod_2():
    assert classify_mod_p(Sl2Matrix(1, 1, 0, 1), 2).kind == "C2"
    assert classify_mod_p(Sl2Matrix(1, -1, 1, 0), 2).kind == "C3"
    assert classify_mod_p(Sl2Matrix(3, 2, 4, 3), 2).kind == "C1"
    assert classify_mod_p(Sl2Matrix(0, 1, -1, 0), 2).kind == "C2"
    assert classify_mod_p(Sl2Matrix(0, 1, -1, 1), 2).kind == "C3"


def test_dw_p2():
    assert dw_invariant_sl2(Sl2Matrix(1, 1, 0, 1), 2).value == 2
    assert dw_invariant_sl2(Sl2Matrix(1, -1, 1, 0), 2).value == 1
    assert dw_invariant_sl2(Sl2Matrix(1, 0, 0, 1), 2).value == 4
    # agrees with the brute-force count mod 2
    rng = random.Random(11)
    for _ in range(50):
        a = random_sl2(rng, 8)
        assert dw_invariant_sl2(a, 2).value == fixed_point_count_bruteforce(a.mod(2), 2)


def test_geodesic_pullback_splitting():
    assert geodesic_pullback_splitting(Sl2Matrix(3, 2, 4, 3)) == 6
    # [[1,2],[1,3]] reduces to [[1,0],[1,1]], an order-2 element mod 2
    assert classify_mod_p(Sl2Matrix(1, 2, 1, 3), 2).kind == "C2"
    assert geodesic_pullback_splitting(Sl2Matrix(1, 2, 1, 3)) == 3
    # [[2,1],[1,1]] reduces to [[0,1],[1,1]], which has order 3
    assert geodesic_pullback_splitting(Sl2Matrix(2, 1, 1, 1)) == 2
    # a hyperbolic matrix in the order-3 class mod 2
    m = Sl2Matrix(1, -1, 1, 0) * Sl2Matrix(1, 4, 0, 1)
    found = None
    for k in range(1, 6):
        cand = Sl2Matrix(1, -1, 1, 0) * Sl2Matrix(1, 2 * k, 0, 1)
        if abs(cand.trace) > 2 and classify_mod_p(cand, 2).kind == "C3":
            found = cand
            break
    assert found is not None, "no hyperbolic order-3 instance in search range"
    assert geodesic_pullback_splitting(found) == 2
    with pytest.raises(ValueError):
        geodesic_pullback_splitting(Sl2Matrix(1, 1, 0, 1))


def test_jacobi_is_the_product_of_legendre_symbols():
    # (a/m) for odd m is the product of Euler's criterion over the prime
    # factors of m with multiplicity, so at a prime it is the Legendre
    # symbol; at m = 2 it is a mod 2
    for m in range(1, 200, 2):
        for a in range(-30, m + 30):
            want = math.prod(legendre_by_euler(a, p) ** e for p, e in prime_powers(m))
            assert jacobi(a, m) == want, (a, m)
    rng = random.Random(47)
    for p in (2**61 - 1, 2**63 - 25, 2**127 - 1):
        for a in [0, 1, 2, p - 1, -1] + [rng.randrange(-(p**2), p**2) for _ in range(200)]:
            assert jacobi(a, p) == legendre_by_euler(a, p), (a, p)
    assert [jacobi(a, 2) for a in range(-3, 4)] == [1, 0, 1, 0, 1, 0, 1]


def test_unipotent_invariant_well_defined():
    for p in (3, 5, 7, 11):
        for u in range(1, p):
            kind = classify_mod_p(_lift(1, u, 0, 1, p), p).kind
            assert kind == ("C3" if jacobi(u, p) == 1 else "C4")


def test_classify_conjugation_invariance():
    rng = random.Random(3)
    hyp = [m for m in (random_sl2(rng, 8) for _ in range(400)) if abs(m.trace) > 2][:40]
    for p in (3, 5, 7):
        for a in hyp[:20]:
            base = classify_mod_p(a, p).kind
            zbase = dw_invariant_sl2(a, p).value
            for _ in range(10):
                g = random_sl2(rng, 8)
                conj = a.conjugate_by(g)
                assert classify_mod_p(conj, p).kind == base
                assert dw_invariant_sl2(conj, p).value == zbase


def test_dw_depends_only_on_residue():
    # right-multiplying by level-p congruence elements fixes A mod p
    rng = random.Random(5)
    for p in (3, 5):
        gens = [Sl2Matrix(1, p, 0, 1), Sl2Matrix(1, 0, p, 1)]
        for _ in range(20):
            a = random_sl2(rng, 8)
            gamma = Sl2Matrix(1, 0, 0, 1)
            for _ in range(rng.randint(1, 4)):
                gamma = gamma * rng.choice(gens)
            b = a * gamma
            assert b.mod(p) == a.mod(p)
            assert dw_invariant_sl2(b, p).value == dw_invariant_sl2(a, p).value


def test_slp_class_census_p3():
    rows = {r.kind: r for r in slp_class_census(3)}
    assert (rows["C1"].class_count, rows["C1"].class_size) == (1, 1)
    assert (rows["C2"].class_count, rows["C2"].class_size) == (1, 1)
    for k in ("C3", "C4", "C5", "C6"):
        assert (rows[k].class_count, rows[k].class_size) == (1, 4)
    assert rows["C7"].class_count == 0
    assert (rows["C8"].class_count, rows["C8"].class_size) == (1, 6)
    assert sum(r.class_count * r.class_size for r in rows.values()) == 24


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 1_000_003, 2**61 - 1, 2**63 - 25])
def test_class_table_fills_the_group_and_averages_z_to_two(p):
    # in Python ints: the classes cover |SL(2, F_p)| = p^3 - p, and by
    # Burnside the mean of Z = p^e over the group is its number of orbits
    # on F_p^2, the zero vector and the nonzero ones; for odd p <= 13 the
    # table agrees with the census of every element, and for p = 2 with
    # the kinds of the six elements
    table = class_table(p)
    assert tuple(table) == (KINDS_P2 if p == 2 else KINDS_ODD)
    assert sum(n * size for n, size in table.values()) == p**3 - p
    assert sum(p ** dw_exponent_of_kind(kind, p) * n * size for kind, (n, size) in table.items()) == 2 * (p**3 - p)
    if p == 2:
        kinds = Counter(_classify_residues(*m, 2).kind for m in sl2_fp_elements(2))
        assert kinds == {kind: n * size for kind, (n, size) in table.items()}
    elif p <= 13:
        for row in slp_class_census(p):
            n, size = table[row.kind]
            assert row.class_count == n and (n == 0 or row.class_size == size), row


def test_slp_class_census_p5_p7():
    rows5 = {r.kind: r for r in slp_class_census(5)}
    assert sum(r.class_count * r.class_size for r in rows5.values()) == 120
    assert (rows5["C7"].class_count, rows5["C7"].class_size) == (1, 30)
    assert (rows5["C8"].class_count, rows5["C8"].class_size) == (2, 20)
    rows7 = {r.kind: r for r in slp_class_census(7)}
    assert sum(r.class_count * r.class_size for r in rows7.values()) == 336
    with pytest.raises(ValueError):
        slp_class_census(4)


# --- genus g ---

GENUS2_A = IntMatrix.from_rows(
    [[-116, -1463, 39, -2926], [0, 1, 0, 1], [-3, -38, 1, -76], [0, -13, 0, -12]]
)
GENUS2_B = IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -2, 0, 1]])


def test_dw_genus_g_examples():
    assert dw_invariant_genus_g(GENUS2_A, 3, check_symplectic=False).value == 9
    assert dw_invariant_genus_g(GENUS2_A, 13, check_symplectic=False).value == 13
    assert dw_invariant_genus_g(GENUS2_A, 7, check_symplectic=False).value == 1
    assert dw_invariant_genus_g(GENUS2_B, 2).value == 8
    assert dw_invariant_genus_g(GENUS2_B, 5).value == 25
    assert dw_invariant_genus_g(IntMatrix.identity(4), 3).value == 81


def test_fixed_point_count_genus_g():
    assert fixed_point_count_genus_g([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2, 3) == 81
    assert fixed_point_count_genus_g(GENUS2_A.to_rows(), 2, 3) == 9
    assert fixed_point_count_genus_g(GENUS2_B.to_rows(), 2, 2) == 8
    with pytest.raises(ValueError):
        fixed_point_count_genus_g(GENUS2_B.to_rows(), 2, 37)


@pytest.mark.parametrize(
    "p, histogram, checked",
    [
        (2, {1: 304, 2: 300, 4: 100, 8: 15, 16: 1}, 720),
        (3, {1: 33129, 3: 16560, 9: 2070, 27: 80, 81: 1}, 300),
    ],
)
def test_genus2_mean_z_over_sp4_fp_is_two(p, histogram, checked):
    # by Burnside the mean of Z = |ker(f - Id) mod p| over Sp(4, F_p) is its
    # number of orbits on F_p^4: 2, the zero vector and the nonzero ones, on
    # which Sp(4, F_p) is transitive; every element of Sp(4, F_2), and a
    # seeded sample of Sp(4, F_3), is checked against the fixed-point count
    elements = sp4_fp_elements(p)
    size = p**4 * (p * p - 1) * (p**4 - 1)
    j = np.block([[np.zeros((2, 2), int), np.eye(2, dtype=int)], [-np.eye(2, dtype=int), np.zeros((2, 2), int)]])
    assert len(elements) == size
    assert ((elements.transpose(0, 2, 1) @ j @ elements - j) % p == 0).all()
    rows = elements.tolist()
    z = [dw_invariant_genus_g(IntMatrix.from_rows(m), p, check_symplectic=False).value for m in rows]
    assert sum(z) == 2 * size and Counter(z) == histogram
    for i in random.Random(p).sample(range(size), checked):
        assert z[i] == fixed_point_count_genus_g(rows[i], 2, p)


def test_random_symplectic_are_symplectic():
    from mti.intmat import is_symplectic

    rng = random.Random(99)
    for _ in range(30):
        assert is_symplectic(random_symplectic(rng), 2)


def test_genus_g_threefold_identity_sample():
    rng = random.Random(42)
    for _ in range(30):
        fhat = random_symplectic(rng)
        diff = fhat - IntMatrix.identity(4)
        for p in (2, 3, 5):
            zval = dw_invariant_genus_g(fhat, p)
            diag = smith_normal_form(diff).diag
            snf_exp = sum(1 for d in diag if d % p == 0)  # zeros divisible
            assert zval.exponent == snf_exp
            assert p**zval.exponent == fixed_point_count_genus_g(fhat.to_rows(), 2, p)
