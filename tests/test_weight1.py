import inspect

import pytest

from mti import weight1
from mti.intmat import is_prime
from mti.weight1 import (
    eta_product_coefficients,
    frobenius_trace,
    is_cube_mod_p,
    qexpansion_check,
    splitting_pattern,
)

#: nonzero prime coefficients of the d = 2 form below 100 (all other primes
#: except the ramified 2, 3 have coefficient 0); from the LMFDB expansion
#: q - q^7 - q^13 - q^19 + 2q^31 - q^37 + 2q^43 - q^61 - q^67 - q^73 - q^79 - q^97
LMFDB_D2_PRIME_COEFFS = {
    7: -1,
    13: -1,
    19: -1,
    31: 2,
    37: -1,
    43: 2,
    61: -1,
    67: -1,
    73: -1,
    79: -1,
    97: -1,
}


def test_cube_table_mod_7():
    cubes = {pow(x, 3, 7) for x in range(1, 7)}
    assert cubes == {1, 6}
    assert not is_cube_mod_p(2, 7)
    assert is_cube_mod_p(6, 7)


def test_cube_examples():
    assert is_cube_mod_p(2, 31)
    assert is_cube_mod_p(2, 5)  # p = 2 mod 3: cubing is a bijection
    with pytest.raises(ValueError, match="p = 3 is ramified for d = 2"):
        is_cube_mod_p(2, 3)
    with pytest.raises(ValueError, match="p = 5 is ramified for d = 10"):
        is_cube_mod_p(10, 5)


def test_frobenius_trace_examples():
    assert frobenius_trace(2, 7) == -1
    assert frobenius_trace(2, 31) == 2
    assert frobenius_trace(2, 5) == 0
    assert frobenius_trace(2, 13) == -1
    assert frobenius_trace(2, 43) == 2
    assert frobenius_trace(2, 97) == -1
    with pytest.raises(ValueError):
        frobenius_trace(2, 2)


def _primes_below(n):
    return [p for p in range(2, n) if is_prime(p)]


def test_trace_values_and_zero_pattern():
    for d in (2, 3, 5, 6, 7, 10):
        for p in _primes_below(500):
            if p == 3 or d % p == 0:
                continue
            t = frobenius_trace(d, p)
            assert t in (2, -1, 0)
            assert (t == 0) == (p % 3 == 2)


def test_pattern_bijection():
    # a_p + 1 in {3, 0, 1} <-> the three splitting patterns
    seen = {}
    for p in _primes_below(200):
        if p in (2, 3):
            continue
        key = frobenius_trace(2, p) + 1
        seen.setdefault(key, set()).add(splitting_pattern(2, p))
    assert seen == {3: {"split6"}, 0: {"split2"}, 1: {"split3"}}


def test_qexpansion_matches_lmfdb():
    report = qexpansion_check(100)
    assert report.mismatches == []
    assert {r.p for r in report.rows} == set(_primes_below(100)) - {2, 3}
    # spot check the nonzero references
    by_p = {r.p: r for r in report.rows}
    for p, coeff in LMFDB_D2_PRIME_COEFFS.items():
        assert by_p[p].computed == coeff


def test_eta_product_is_the_lmfdb_expansion_below_100():
    coeffs = eta_product_coefficients(100)
    assert {p: coeffs[p] for p in _primes_below(100) if coeffs[p]} == LMFDB_D2_PRIME_COEFFS
    assert coeffs[:2] == [0, 1]


def test_eta_product_equals_the_direct_product():
    # q prod (1 - q^6m)(1 - q^18m), multiplied out one factor at a time
    n = 3000
    direct = [0] * n
    direct[1] = 1
    for step in (6, 18):
        for m in range(step, n, step):
            for i in range(n - 1, m - 1, -1):
                direct[i] -= direct[i - m]
    for size in (0, 1, 2, 7, 8, 25, n):
        assert eta_product_coefficients(size) == direct[:size], size


def test_qexpansion_small_window():
    report = qexpansion_check(8)
    assert [r.p for r in report.rows] == [5, 7]


def test_qexpansion_mismatch_injection(monkeypatch):
    def corrupted(n):
        coeffs = eta_product_coefficients(n)
        coeffs[7] = 2  # wrong on purpose
        return coeffs

    monkeypatch.setattr(weight1, "eta_product_coefficients", corrupted)
    report = qexpansion_check(100)
    assert report.mismatches == [7]


def test_qexpansion_requires_d2_for_stored_reference():
    # the stored reference is the d = 2 form, so d is not a parameter
    assert list(inspect.signature(qexpansion_check).parameters) == ["pmax"]
    with pytest.raises(TypeError):
        qexpansion_check(3, 100)
    report = qexpansion_check(100)
    assert [r.computed for r in report.rows] == [frobenius_trace(2, r.p) for r in report.rows]


def test_order_matched_dictionary():
    # the element-order pairing satisfies a_p = Z - 2 for every row
    report = qexpansion_check(100)
    for row in report.rows:
        assert row.computed == row.z_value - 2


def test_chebotarev_density_sanity():
    # among p = 1 mod 3 below 10^4, about 1/3 of the d=2 traces equal 2
    ps = [p for p in _primes_below(10**4) if p % 3 == 1]
    frac = sum(1 for p in ps if frobenius_trace(2, p) == 2) / len(ps)
    assert abs(frac - 1 / 3) < 0.05
