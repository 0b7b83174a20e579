"""End-to-end acceptance suite: one test per criterion, each printing a
PASS line with its elapsed time.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time
from dataclasses import astuple

import pytest

from mti.bqf import _form_matrix, classes_with_trace
from mti.census import census, density_report, group_fractions, theorem_constants
from mti.csw import compare_with_rep_trace, congruence_level, csw_invariant, rep_trace
from mti.intmat import IntMatrix, is_symplectic, mapping_torus_homology, smith_normal_form
from mti.modular import (
    COSET_REPRESENTATIVES,
    ZETA3,
    anharmonic_orbit,
    lambda_function,
    lemma_cool_report,
    mobius,
)
from mti.sl2 import (
    Sl2Matrix,
    dw_invariant_genus_g,
    dw_invariant_sl2,
    sl2_snf_entries,
    slp_class_census,
)
from mti.weight1 import qexpansion_check
from oracles import (
    QuadForm,
    all_sl2_with_trace,
    fixed_point_count_bruteforce,
    fixed_point_count_genus_g,
    matrix_to_bqf,
    random_sl2,
    rank_mod_p,
    reduce_indefinite,
    reduction_cycle,
    sl2_fp_elements,
    symplectic_transvection,
)

GENUS2_A = IntMatrix.from_rows(
    [[-116, -1463, 39, -2926], [0, 1, 0, 1], [-3, -38, 1, -76], [0, -13, 0, -12]]
)
GENUS2_B = IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -2, 0, 1]])


def _report(n, elapsed, detail):
    print(f"\nACCEPTANCE {n} PASS ({elapsed:.2f}s): {detail}")


@pytest.fixture(scope="module")
def census_2000():
    start = time.time()
    reports = {p: census(p, 2000) for p in (3, 5)}
    return reports, time.time() - start


def test_criterion_01_paper_example_regression():
    start = time.time()
    # genus-2 worked examples
    assert smith_normal_form(GENUS2_A - IntMatrix.identity(4)).diag == [1, 1, 3, 507]
    assert smith_normal_form(GENUS2_B - IntMatrix.identity(4)).diag == [1, 2, 0, 0]
    # the first matrix preserves no unimodular skew form, so the symplectic
    # validation is skipped for it (see the decisions notes)
    hom_a = mapping_torus_homology(GENUS2_A, check_symplectic=False)
    assert (hom_a.free_rank, hom_a.torsion) == (1, [3, 507])
    hom_b = mapping_torus_homology(GENUS2_B)
    assert (hom_b.free_rank, hom_b.torsion) == (3, [2])
    assert dw_invariant_genus_g(GENUS2_A, 3, check_symplectic=False).value == 9
    assert dw_invariant_genus_g(GENUS2_A, 13, check_symplectic=False).value == 13
    assert dw_invariant_genus_g(GENUS2_A, 7, check_symplectic=False).value == 1
    assert dw_invariant_genus_g(GENUS2_B, 2).value == 8
    assert dw_invariant_genus_g(GENUS2_B, 5).value == 25
    # five genus-one SNF examples
    cases = [
        (Sl2Matrix(10, 3, 3, 1), (3, 3)),
        (Sl2Matrix(109, 33, 33, 10), (3, 39)),
        (Sl2Matrix(1189, 360, 360, 109), (36, 36)),
        (Sl2Matrix(4, 3, 5, 4), (1, 6)),
        (Sl2Matrix(27, 1, -1, 0), (1, 25)),
    ]
    for m, expect in cases:
        assert sl2_snf_entries(m) == expect
        a = IntMatrix.from_rows([[m.a, m.b], [m.c, m.d]])
        assert smith_normal_form(a - IntMatrix.identity(2)).diag == list(expect)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, elapsed, "genus-2 and genus-1 published values reproduce exactly")


def _lift_to_sl2z(a, b, c, d, p):
    # lift residues with det = 1 mod p to an exact SL(2,Z) matrix
    aa, bb = a, b
    while math.gcd(aa, bb) != 1:
        aa += p
        if math.gcd(aa, bb) == 1:
            break
        bb += p
    g, x, y = _egcd(aa, bb)
    assert g == 1
    # base solution of aa*d0 - bb*c0 = 1
    d0, c0 = x, -y
    # adjust along (c, d) -> (c0 + aa*u, d0 + bb*u) to hit the residues
    if aa % p != 0:
        u = ((c - c0) * pow(aa % p, p - 2, p)) % p
    else:
        u = ((d - d0) * pow(bb % p, p - 2, p)) % p
    cc, dd = c0 + aa * u, d0 + bb * u
    m = Sl2Matrix(aa, bb, cc, dd)
    assert m.mod(p) == (a % p, b % p, c % p, d % p)
    return m


def _egcd(a, b):
    if b == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_criterion_02_exhaustive_oracle_equivalence():
    start = time.time()
    checked = 0
    for p in (2, 3, 5, 7):
        for a, b, c, d in sl2_fp_elements(p):
            lift = _lift_to_sl2z(a, b, c, d, p)
            assert (
                dw_invariant_sl2(lift, p).value
                == fixed_point_count_bruteforce((a, b, c, d), p)
            )
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(2, elapsed, f"formula = brute-force count on all {checked} elements, p in 2,3,5,7")


def test_criterion_03_class_table_census():
    start = time.time()
    for p in (3, 5, 7, 11):
        rows = {r.kind: r for r in slp_class_census(p)}
        assert (rows["C1"].class_count, rows["C1"].class_size) == (1, 1)
        assert (rows["C2"].class_count, rows["C2"].class_size) == (1, 1)
        for k in ("C3", "C4", "C5", "C6"):
            assert (rows[k].class_count, rows[k].class_size) == (1, (p * p - 1) // 2)
        assert rows["C7"].class_count == (p - 3) // 2
        if rows["C7"].class_count:
            assert rows["C7"].class_size == p * (p + 1)
        assert rows["C8"].class_count == (p - 1) // 2
        assert rows["C8"].class_size == p * (p - 1)
        assert sum(r.class_count * r.class_size for r in rows.values()) == p**3 - p
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, elapsed, "class counts and sizes match the size formulas for p=3,5,7,11")


def test_criterion_04_enumeration_completeness():
    start = time.time()
    matrices = 0
    for t in range(3, 21):
        cycles = [
            {astuple(f) for f in reduction_cycle(QuadForm(*form))}
            for form in zip(*(col.tolist() for col in classes_with_trace(t)))
        ]
        for m in all_sl2_with_trace(t, 30):
            red = astuple(reduce_indefinite(matrix_to_bqf(m)))
            assert sum(1 for c in cycles if red in c) == 1
            matrices += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(4, elapsed, f"{matrices} bounded matrices each land in exactly one cycle")


def test_criterion_05_density_convergence(census_2000):
    reports, census_time = census_2000
    start = time.time()
    for p in (3, 5):
        rep = reports[p]
        fractions = group_fractions(p)
        c1 = rep.per_label["C1"]
        unip = rep.per_label["C3"] + rep.per_label["C4"]
        rest = rep.total_classes - c1 - unip
        for count, frac in zip((c1, unip, rest), fractions):
            emp = count / rep.total_classes
            assert abs(emp - frac) / frac < 0.10, (p, count, frac)
        devs = {cp[0]: cp[1:] for cp in density_report(rep).checkpoint_deviations}
        # convergence: each group deviation strictly shrinks from T=250 to T=2000
        for d2000, d250 in zip(devs[2000], devs[250]):
            assert d2000 < d250
    elapsed = time.time() - start + census_time
    assert elapsed < 300.0
    _report(5, elapsed, "group frequencies within 10% and strictly closer at T=2000 than T=250")


def test_criterion_06_theorem_constant_report(census_2000):
    reports, _census_time = census_2000
    start = time.time()
    lines = []
    for p in (3, 5):
        consts = theorem_constants(reports[p])
        lines.append(
            f"p={p}: dw positive-trace={consts.dw_pos:.4f} all-classes={consts.dw_all:.4f} "
            f"printed={consts.dw_printed:.4f} class-size-derived={consts.dw_derived:.4f}"
        )
        lines.append(
            f"p={p}: snf positive-trace=({', '.join(f'{v:.5f}' for v in consts.snf_pos)}) "
            f"printed=({', '.join(f'{v:.5f}' for v in consts.snf_printed)}) "
            f"derived=({', '.join(f'{v:.5f}' for v in consts.snf_derived)})"
        )
        # the one-class-per-(+-)-pair normalization matches the derived
        # constants; the all-classes normalization runs at exactly twice
        assert abs(consts.dw_pos - consts.dw_derived) / consts.dw_derived < 0.10
        assert abs(consts.dw_all - 2 * consts.dw_derived) / (2 * consts.dw_derived) < 0.10
        for emp, pred in zip(consts.snf_pos, consts.snf_derived):
            assert abs(emp - pred) / pred < 0.10
        for emp, pred in zip(consts.snf_all, consts.snf_derived):
            assert abs(emp - 2 * pred) / (2 * pred) < 0.10
    elapsed = time.time() - start
    for line in lines:
        print(line)
    _report(6, elapsed, "constants within 10% of class-size-derived values (factor-2 reported)")


def test_criterion_07_lambda_numerics():
    start = time.time()
    expected = {
        "Id": complex(0.5, -0.866025),
        "T": complex(0.5, 0.866025),
        "S": complex(0.5, 0.866025),
        "T.S": complex(0.5, -0.866025),
        "T.S.T": complex(0.5, 0.866025),
        "-S.T^-1": complex(0.5, -0.866025),
    }
    for name, want in expected.items():
        got = lambda_function(mobius(COSET_REPRESENTATIVES[name], ZETA3))
        assert abs(got - want) < 1e-5, name
    # level-2 invariance suite at 1e-8
    rng = random.Random(2025)
    gens = [Sl2Matrix(1, 2, 0, 1), Sl2Matrix(1, 0, 2, 1), Sl2Matrix(1, -2, 0, 1), Sl2Matrix(1, 0, -2, 1)]
    checked = 0
    while checked < 60:
        g = Sl2Matrix(1, 0, 0, 1)
        for _ in range(rng.randint(1, 4)):
            g = g * rng.choice(gens)
        if max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) > 50:
            continue
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.9, 2.2))
        image = mobius(g, tau)
        if image.imag < 0.06:
            continue
        assert abs(lambda_function(image) - lambda_function(tau)) < 1e-8
        checked += 1
    # anharmonic compatibility at 1e-8
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.8))
        orbit = anharmonic_orbit(lambda_function(tau))
        for name, g in COSET_REPRESENTATIVES.items():
            image = mobius(g, tau)
            if image.imag < 0.06:
                continue
            assert abs(lambda_function(image) - orbit[name]) < 1e-8
    # log-formula agreement asserted for the order-two class only; the
    # order-three discrepancy is reported
    rows = {r.name: r for r in lemma_cool_report()}
    for name in ("T", "S", "T.S.T"):
        assert abs(rows[name].formula_principal - 2.0) < 1e-6
        assert rows[name].z_value == 2
    flagged = [r for r in rows.values() if not r.agrees]
    assert {r.mod2_class for r in flagged} == {"C3"}
    print(
        "order-three discrepancy (reported, not asserted): "
        + "; ".join(
            f"{r.name}: formula {r.formula_principal:.1f} or {r.formula_positive:.1f}, true Z = {r.z_value}"
            for r in flagged
        )
    )
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(7, elapsed, "six published values at 1e-5; invariance suites at 1e-8")


def test_criterion_08_weight_one_coefficients():
    start = time.time()
    report = qexpansion_check(100)
    assert report.mismatches == []
    assert len(report.rows) == 23
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(8, elapsed, "all d=2 reference coefficients below 100 match exactly")


def _random_hyperbolic(rng, tmax=50):
    # spread traces across the whole window: pick a class representative of
    # a uniform trace, then conjugate to vary the matrix entries
    t = rng.randint(3, tmax) * rng.choice([1, -1])
    forms = classes_with_trace(t)
    i = rng.randrange(len(forms[0]))
    m = _form_matrix(t, *(int(col[i]) for col in forms))
    return m.conjugate_by(random_sl2(rng, 4))


def test_criterion_09_csw_property_suite():
    start = time.time()
    rng = random.Random(20250811)

    # representative independence, exact in integers: shifting any point of
    # the phase box by a lattice vector of n Z^2 leaves its phase unchanged
    for _ in range(50):
        a = _random_hyperbolic(rng)
        k = rng.randint(1, 8)
        for n in (a.trace - 2, a.trace + 2):
            nn = abs(n)
            for _ in range(20):
                x, y = rng.randrange(nn), rng.randrange(nn)
                z1, z2 = rng.randint(-3, 3), rng.randint(-3, 3)
                q0 = (k + 2) * (a.b * x * x + (a.a - a.d) * x * y - a.c * y * y)
                xs, ys = x + nn * z1, y + nn * z2
                q1 = (k + 2) * (a.b * xs * xs + (a.a - a.d) * xs * ys - a.c * ys * ys)
                assert (q1 - q0) % nn == 0

    # conjugation invariance at 1e-9, 100 pairs
    for _ in range(100):
        a = _random_hyperbolic(rng)
        g = random_sl2(rng, 7)
        k = rng.randint(1, 8)
        assert abs(csw_invariant(a, k) - csw_invariant(a.conjugate_by(g), k)) < 1e-9

    # congruent-mod-8(k+2) pairs: modulus equality of the Gauss sum at 1e-8
    # and exact trace equality of the representation oracle
    pairs = 0
    attempts = 0
    while pairs < 20 and attempts < 400:
        attempts += 1
        a = _random_hyperbolic(rng, tmax=30)
        k = rng.randint(1, 8)
        n = congruence_level(k)
        partner = None
        for e in itertools.product(range(-1, 2), repeat=4):
            if e == (0, 0, 0, 0):
                continue
            m = (a.a + n * e[0], a.b + n * e[1], a.c + n * e[2], a.d + n * e[3])
            if m[0] * m[3] - m[1] * m[2] == 1 and abs(m[0] + m[3]) > 2:
                partner = Sl2Matrix(*m)
                break
        if partner is None:
            continue
        assert abs(abs(csw_invariant(a, k)) - abs(csw_invariant(partner, k))) < 1e-8
        assert abs(rep_trace(a, k) - rep_trace(partner, k)) < 1e-8
        pairs += 1
    assert pairs == 20

    # modulus agreement |gauss sum| = |representation trace| at 1e-8
    agreements = 0
    for _ in range(60):
        a = _random_hyperbolic(rng)
        k = rng.randint(1, 8)
        cmp_ = compare_with_rep_trace(a, k)
        assert cmp_.modulus_difference < 1e-8
        agreements += 1

    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(
        9,
        elapsed,
        f"rep independence exact; conjugation 100 pairs; mod-level {pairs} pairs; modulus {agreements} checks",
    )


def test_criterion_10_genus_g_threefold_identity():
    start = time.time()
    rng = random.Random(4242)
    for _ in range(200):
        fhat = IntMatrix.identity(4)
        for _ in range(rng.randint(2, 7)):
            v = [rng.randint(-1, 1) for _ in range(4)]
            if all(x == 0 for x in v):
                v[rng.randrange(4)] = 1
            fhat = fhat * symplectic_transvection(v, rng.choice([-1, 1]), 2)
        assert is_symplectic(fhat, 2)
        diff = fhat - IntMatrix.identity(4)
        diag = smith_normal_form(diff).diag
        for p in (2, 3, 5):
            # the library reads Z off the SNF; the oracle eliminates mod p
            rank_exp = 4 - rank_mod_p(diff, p)
            snf_exp = sum(1 for d in diag if d % p == 0)
            brute = fixed_point_count_genus_g(fhat.to_rows(), 2, p)
            assert rank_exp == snf_exp == dw_invariant_genus_g(fhat, p).exponent
            assert p**rank_exp == brute
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(10, elapsed, "rank, SNF, and brute-force exponents agree on 200 random symplectic maps")
