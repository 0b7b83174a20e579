import itertools
import random
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mti import bqf
from mti.bqf import (
    QuadForm,
    apply_transform,
    bqf_to_matrix,
    class_count_with_trace,
    classes_with_trace,
    hyperbolic_classes_below,
    is_reduced,
    matrix_to_bqf,
    reduce_indefinite,
    reduce_with_transform,
    reduced_forms_of_disc,
    reduction_cycle,
)
from mti.sl2 import SL2_S, SL2_T, Sl2Matrix


def test_matrix_to_bqf_examples():
    assert matrix_to_bqf(Sl2Matrix(2, 1, 1, 1)) == QuadForm(1, 1, -1)
    q = matrix_to_bqf(Sl2Matrix(10, 3, 3, 1))
    assert q == QuadForm(3, 9, -3) and q.discriminant == 117 == 11 * 11 - 4
    assert matrix_to_bqf(Sl2Matrix(27, 1, -1, 0)) == QuadForm(1, 27, 1)
    with pytest.raises(ValueError):
        matrix_to_bqf(Sl2Matrix(1, 1, 0, 1))


def test_bqf_to_matrix_examples():
    assert bqf_to_matrix(QuadForm(1, 1, -1), 3) == Sl2Matrix(1, -1, -1, 2)
    assert bqf_to_matrix(QuadForm(1, 1, -1), -3) == Sl2Matrix(-2, -1, -1, -1)
    m = bqf_to_matrix(QuadForm(3, 9, -3), 11)
    assert m == Sl2Matrix(1, -3, -3, 10)
    # round trip lands in the same reduction cycle
    cyc = {f.as_tuple() for f in reduction_cycle(reduce_indefinite(QuadForm(3, 9, -3)))}
    assert reduce_indefinite(matrix_to_bqf(m)).as_tuple() in cyc
    with pytest.raises(ValueError):
        bqf_to_matrix(QuadForm(1, 1, -1), 4)


def test_reduce_examples():
    assert is_reduced(QuadForm(1, 1, -1))
    assert reduce_indefinite(QuadForm(1, 1, -1)) == QuadForm(1, 1, -1)
    red, g = reduce_with_transform(QuadForm(1, 27, 1))
    assert is_reduced(red)
    assert apply_transform(QuadForm(1, 27, 1), g) == red
    assert is_reduced(QuadForm(-1, 1, 1))
    with pytest.raises(ValueError):
        reduce_indefinite(QuadForm(1, 0, -1))  # square discriminant
    with pytest.raises(ValueError):
        reduce_indefinite(QuadForm(1, 1, 1))  # negative discriminant


def test_reduction_cycle_disc5():
    cyc = reduction_cycle(QuadForm(1, 1, -1))
    assert {f.as_tuple() for f in cyc} == {(1, 1, -1), (-1, 1, 1)}
    assert len(cyc) == 2
    # there are exactly two reduced forms of disc 5, forming one cycle
    assert sorted(f.as_tuple() for f in reduced_forms_of_disc(5)) == [(-1, 1, 1), (1, 1, -1)]
    with pytest.raises(ValueError):
        reduction_cycle(QuadForm(1, 27, 1))


def _reduced_forms_bruteforce(D):
    # every (m, l) with 0 < l < sqrt(D) and |m| < sqrt(D), kept when k is
    # integral and the form is reduced
    r = isqrt(D)
    out = set()
    for l in range(1, r + 1):
        for m in range(-r, r + 1):
            if m and (l * l - D) % (4 * m) == 0:
                f = QuadForm(m, l, (l * l - D) // (4 * m))
                if is_reduced(f):
                    out.add(f.as_tuple())
    return out


@pytest.mark.parametrize(
    "setting",
    [{}, {"_SCAN_WIDTH": 0}, {"_SIEVE_CAP": 64, "_spf": [0, 1]}],
    ids=["default", "divisors-only", "scan-past-small-cap"],
)
def test_positive_reduced_forms_against_bruteforce(setting, monkeypatch):
    # the m > 0 forms, doubled by sign, are every reduced form; the settings
    # force each window through the divisor path, or, with a fresh sieve
    # under a tiny cap, every window past the cap through the scan
    for name, value in setting.items():
        monkeypatch.setattr(bqf, name, value)
    for D in [5, 8, 12, 13, 17, 21] + [t * t - 4 for t in range(3, 61)]:
        pos = bqf._positive_reduced_forms(D)
        assert all(m > 0 for m, _, _ in pos)
        both = {f for m, l, k in pos for f in ((m, l, k), (-m, l, -k))}
        assert len(both) == 2 * len(pos)
        assert both == _reduced_forms_bruteforce(D), D


def _plain_sieve(n):
    spf = list(range(n))
    for i in range(2, isqrt(n - 1) + 1):
        if spf[i] == i:
            for j in range(i * i, n, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


@pytest.mark.parametrize("first", [None, 1000], ids=["fresh", "grown"])
def test_sieve_matches_plain_sieve(first, monkeypatch):
    # the numpy-built table, from scratch or grown from a shorter one, is
    # the plain smallest-prime-factor sieve, and indexes as Python ints
    n = 10**5
    monkeypatch.setattr(bqf, "_spf", [0, 1])
    if first:
        bqf._grow_sieve(first)
        assert list(bqf._spf) == _plain_sieve(len(bqf._spf))
    bqf._grow_sieve(n - 1)
    assert len(bqf._spf) == n
    assert list(bqf._spf) == _plain_sieve(n)
    assert type(bqf._spf[n - 1]) is int


def test_class_columns_enumerate_each_trace_once(monkeypatch):
    # the store appends only the traces it lacks and serves smaller bounds
    # from a prefix; its rows are the canonical representatives in order
    calls = []
    reps = bqf._canonical_cycle_reps

    def counted(t):
        calls.append(t)
        return reps(t)

    monkeypatch.setattr(bqf, "_class_store", (3, *(np.empty(0, np.int64) for _ in range(4))))
    monkeypatch.setattr(bqf, "_canonical_cycle_reps", counted)
    for T in (60, 100, 40, 100, 101):
        t, m, l, k = bqf._class_columns(T)
        rows = [(s, *f) for s in range(3, T) for f in reps(s)]
        assert list(zip(t.tolist(), m.tolist(), l.tolist(), k.tolist())) == rows, T
        assert all(col.dtype == np.int64 and not col.flags.writeable for col in (t, m, l, k))
    assert calls == list(range(3, 101))


def test_sieve_stops_at_the_cap(monkeypatch):
    # a discriminant past the cap grows the sieve to the cap once; the next
    # one reuses it instead of sieving again
    monkeypatch.setattr(bqf, "_SIEVE_CAP", 64)
    monkeypatch.setattr(bqf, "_spf", [0, 1])
    bqf._positive_reduced_forms(40 * 40 - 4)
    sieve = bqf._spf
    assert len(sieve) == 64
    bqf._positive_reduced_forms(41 * 41 - 4)
    assert bqf._spf is sieve


def test_canonical_reps_are_cycle_minima():
    # windows at t = 120 reach width isqrt(D) - 1 = 118, past the scan width
    assert isqrt(120 * 120 - 4) - 1 > bqf._SCAN_WIDTH
    for t in range(3, 121):
        minima = {
            min(f.as_tuple() for f in reduction_cycle(g))
            for g in reduced_forms_of_disc(t * t - 4)
        }
        assert bqf._canonical_cycle_reps(t) == sorted(minima), t


def test_disc12_two_cycles():
    # four reduced forms; the exhaustive scan shows they form TWO cycles
    # ((1,2,-2) represents 1 while (-1,2,2) does not, so the classes differ)
    forms = sorted(f.as_tuple() for f in reduced_forms_of_disc(12))
    assert forms == [(-2, 2, 1), (-1, 2, 2), (1, 2, -2), (2, 2, -1)]
    assert class_count_with_trace(4) == 2
    assert class_count_with_trace(3) == 1
    assert class_count_with_trace(-3) == 1


def test_cycle_properties_small_traces():
    for t in range(3, 21):
        members_seen = set()
        for rep in classes_with_trace(t):
            cyc = reduction_cycle(rep.form)
            assert len(cyc) % 2 == 0
            # leading coefficients alternate in sign around the cycle
            signs = [1 if f.m > 0 else -1 for f in cyc]
            assert all(signs[i] != signs[(i + 1) % len(cyc)] for i in range(len(cyc)))
            assert all(is_reduced(f) for f in cyc)
            tuples = {f.as_tuple() for f in cyc}
            assert not (tuples & members_seen), "cycles must be disjoint"
            members_seen |= tuples
        # every reduced form of the discriminant is accounted for
        assert members_seen == {f.as_tuple() for f in reduced_forms_of_disc(t * t - 4)}


def test_rho_returns_to_start():
    for t in (3, 4, 11, 17):
        for rep in classes_with_trace(t):
            cyc = reduction_cycle(rep.form)
            assert cyc[0] == rep.form


def test_class_rep_round_trip():
    for t in (3, -3, 4, -4, 11, -11, 20):
        for rep in classes_with_trace(t):
            assert rep.matrix.trace == t
            assert rep.form.discriminant == t * t - 4
            cyc = {f.as_tuple() for f in reduction_cycle(rep.form)}
            assert reduce_indefinite(matrix_to_bqf(rep.matrix)).as_tuple() in cyc
            assert rep.primitive_content == rep.form.content


def test_trace11_contains_imprimitive_class():
    reps = classes_with_trace(11)
    q = reduce_indefinite(matrix_to_bqf(Sl2Matrix(10, 3, 3, 1)))
    hits = [
        r
        for r in reps
        if q.as_tuple() in {f.as_tuple() for f in reduction_cycle(r.form)}
    ]
    assert len(hits) == 1
    assert hits[0].primitive_content == 3


def test_counts_symmetric_in_sign():
    for t in range(3, 30):
        assert len(classes_with_trace(t)) == len(classes_with_trace(-t))


def test_hyperbolic_classes_below():
    reps = list(hyperbolic_classes_below(5))
    assert len(reps) == 6  # one cycle at disc 5, two at disc 12, both signs
    assert [r.trace for r in reps] == [3, -3, 4, 4, -4, -4]
    small = list(hyperbolic_classes_below(4))
    assert len(small) == 2
    assert all(abs(r.trace) == 3 and r.matrix.a * r.matrix.d - r.matrix.b * r.matrix.c == 1 for r in small)
    with pytest.raises(ValueError):
        list(hyperbolic_classes_below(3))


def _all_sl2_with_trace(t, bound):
    out = []
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        n = a * d - 1  # = b*c
        if n == 0:
            continue  # bc = 0 with ad = 1 forces trace +-2, excluded here
        for b in range(-bound, bound + 1):
            if b != 0 and n % b == 0 and abs(n // b) <= bound:
                out.append(Sl2Matrix(a, b, n // b, d))
    return out


def test_completeness_small_trace():
    for t in range(3, 21):
        cycles = [
            {f.as_tuple() for f in reduction_cycle(rep.form)}
            for rep in classes_with_trace(t)
        ]
        for m in _all_sl2_with_trace(t, 30):
            red = reduce_indefinite(matrix_to_bqf(m)).as_tuple()
            hits = sum(1 for c in cycles if red in c)
            assert hits == 1, f"{m} landed in {hits} cycles"


def _random_sl2(rng, length=6):
    m = Sl2Matrix(1, 0, 0, 1)
    for _ in range(rng.randint(1, length)):
        m = m * rng.choice([SL2_T, SL2_T.inverse(), SL2_S])
    return m


def test_equivariance_shared_cycle():
    rng = random.Random(2024)
    done = 0
    while done < 100:
        a = _random_sl2(rng)
        if abs(a.trace) <= 2:
            continue
        g = _random_sl2(rng)
        b = a.conjugate_by(g)
        ca = {f.as_tuple() for f in reduction_cycle(reduce_indefinite(matrix_to_bqf(a)))}
        cb = reduce_indefinite(matrix_to_bqf(b)).as_tuple()
        assert cb in ca
        done += 1


@st.composite
def indefinite_forms(draw):
    m = draw(st.integers(-40, 40))
    l = draw(st.integers(-40, 40))
    k = draw(st.integers(-40, 40))
    assume(m != 0 and k != 0)
    d = l * l - 4 * m * k
    assume(d > 0)
    r = isqrt(d)
    assume(r * r != d)
    return QuadForm(m, l, k)


@settings(max_examples=300, deadline=None)
@given(indefinite_forms())
def test_reduce_random_forms(f):
    red, g = reduce_with_transform(f)
    assert is_reduced(red)
    assert red.discriminant == f.discriminant
    assert apply_transform(f, g) == red
    assert g.a * g.d - g.b * g.c == 1
    # content is an equivalence invariant
    assert red.content == f.content


def test_content_constant_on_cycles():
    for t in (11, 18):
        for rep in classes_with_trace(t):
            contents = {f.content for f in reduction_cycle(rep.form)}
            assert contents == {rep.primitive_content}


def test_large_disc_cycles_close_and_stay_reduced():
    for t in (1499, 1500):
        reps = classes_with_trace(t)
        assert reps, t
        total = 0
        for rep in reps:
            cyc = reduction_cycle(rep.form)
            assert all(is_reduced(f) for f in cyc)
            total += len(cyc)
        assert total == len(reduced_forms_of_disc(t * t - 4))
