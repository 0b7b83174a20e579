import pytest

from mti import weight1
from mti.intmat import is_prime
from mti.weight1 import (
    LMFDB_D2_PRIME_COEFFS,
    ap_coefficient,
    frobenius_trace,
    is_cube_mod_p,
    qexpansion_check,
    splitting_pattern,
)


def test_cube_table_mod_7():
    cubes = {pow(x, 3, 7) for x in range(1, 7)}
    assert cubes == {1, 6}
    assert not is_cube_mod_p(2, 7)
    assert is_cube_mod_p(6, 7)


def test_cube_examples():
    assert is_cube_mod_p(2, 31)
    assert is_cube_mod_p(2, 5)  # p = 2 mod 3: cubing is a bijection
    with pytest.raises(ValueError):
        is_cube_mod_p(2, 3)
    with pytest.raises(ValueError):
        is_cube_mod_p(10, 5)


def test_frobenius_trace_examples():
    assert frobenius_trace(2, 7) == -1
    assert frobenius_trace(2, 31) == 2
    assert frobenius_trace(2, 5) == 0
    assert ap_coefficient(2, 13) == -1
    assert ap_coefficient(2, 43) == 2
    assert ap_coefficient(2, 97) == -1
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
        key = ap_coefficient(2, p) + 1
        seen.setdefault(key, set()).add(splitting_pattern(2, p))
    assert seen == {3: {"split6"}, 0: {"split2"}, 1: {"split3"}}


def test_qexpansion_matches_lmfdb():
    report = qexpansion_check(2, 100)
    assert report.mismatches == []
    assert {r.p for r in report.rows} == set(_primes_below(100)) - {2, 3}
    # spot check the nonzero references
    by_p = {r.p: r for r in report.rows}
    for p, coeff in LMFDB_D2_PRIME_COEFFS.items():
        assert by_p[p].computed == coeff


def test_qexpansion_small_window():
    report = qexpansion_check(2, 8)
    assert [r.p for r in report.rows] == [5, 7]


def test_qexpansion_mismatch_injection(monkeypatch):
    corrupted = dict(LMFDB_D2_PRIME_COEFFS)
    corrupted[7] = 2  # wrong on purpose
    monkeypatch.setattr(weight1, "LMFDB_D2_PRIME_COEFFS", corrupted)
    report = qexpansion_check(2, 100)
    assert report.mismatches == [7]


def test_qexpansion_requires_d2_for_stored_reference():
    with pytest.raises(ValueError):
        qexpansion_check(3, 100)


def test_order_matched_dictionary():
    # the element-order pairing satisfies a_p = Z - 2 for every row
    report = qexpansion_check(2, 100)
    for row in report.rows:
        assert row.computed == row.z_value - 2


def test_chebotarev_density_sanity():
    # among p = 1 mod 3 below 10^4, about 1/3 of the d=2 traces equal 2
    ps = [p for p in _primes_below(10**4) if p % 3 == 1]
    frac = sum(1 for p in ps if frobenius_trace(2, p) == 2) / len(ps)
    assert abs(frac - 1 / 3) < 0.05
