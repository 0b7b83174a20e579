import cmath
import itertools
import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.fft import fft

from mti import csw
from mti.csw import (
    MAX_TRACE,
    _box_term,
    _form_gauss_sum,
    compare_with_rep_trace,
    congruence_level,
    csw_invariant,
    evaluate_word,
    rep_trace,
    su2_modular_data,
    word_in_generators,
)
from mti.sl2 import SL2_S, SL2_T, Sl2Matrix
from oracles import form_gauss_sum_by_factoring, random_sl2, rep_trace_per_letter


def _csw_histogram_oracle(a: Sl2Matrix, k: int) -> complex:
    # independent path: histogram the exact phase residues, then one
    # exponential per residue class
    t = a.trace
    total = 0j
    for sign, n in ((1, t - 2), (-1, t + 2)):
        nn = abs(n)
        counts = [0] * nn
        for x in range(nn):
            for y in range(nn):
                q = (k + 2) * (a.b * x * x + (a.a - a.d) * x * y - a.c * y * y)
                counts[(q if n > 0 else -q) % nn] += 1
        s = sum(c * cmath.exp(2j * cmath.pi * r / nn) for r, c in enumerate(counts))
        total += sign * s / (nn * math.sqrt(nn))
    return (1 if t > 0 else -1) / 2 * total


def _box_term_loop(A: Sl2Matrix, k: int, n: int) -> complex:
    # the direct O(n^2) double loop over the box, one root per exact residue
    nn = abs(n)
    roots = [cmath.exp(2j * cmath.pi * r / nn) for r in range(nn)]
    shift = k + 2
    b, ad, c = A.b, A.a - A.d, A.c
    total = 0j
    for x in range(nn):
        qx = b * x * x
        adx = ad * x
        for y in range(nn):
            q = shift * (qx + adx * y - c * y * y)
            total += roots[(q if n > 0 else -q) % nn]
    return total / (nn * math.sqrt(nn))


def _box_term_fft(A: Sl2Matrix, k: int, n: int) -> complex:
    # an independent O(n log n) evaluation: the y-sum is one FFT, the x-sum a dot product
    nn = abs(n)
    shift = k + 2 if n > 0 else -(k + 2)
    # exact Python-int residues first, so the int64 work below never overflows
    b, ad, c = (shift * A.b) % nn, (-shift * (A.a - A.d)) % nn, (shift * A.c) % nn
    roots = np.exp(2j * np.pi * np.arange(nn) / nn)
    x = np.arange(nn, dtype=np.int64)
    sq = x * x % nn
    # inner[s] = sum_y e((-c y^2 - s y) / nn); ad is negated above, so the
    # y-sum at x is inner[ad x]
    inner = fft(roots[(nn - c) * sq % nn])
    total = np.dot(roots[b * sq % nn], inner[ad * x % nn])
    return complex(total) / (nn * math.sqrt(nn))


def _sl2_with_trace(rng, t):
    while True:
        a = rng.randint(-abs(t), abs(t))
        m = a * (t - a) - 1
        if m == 0:
            continue
        b = rng.choice([e for e in range(1, math.isqrt(abs(m)) + 1) if m % e == 0])
        b *= rng.choice((1, -1))
        return Sl2Matrix(a, b, m // b, t - a)


def test_fft_box_term_matches_loop():
    rng = random.Random(41)
    cases = [(a, k) for a in (Sl2Matrix(2, 1, 1, 1), Sl2Matrix(-2, 1, 1, -1)) for k in range(1, 9)]
    for i in range(20):
        t = (-1) ** i * rng.randint(3, 150)
        cases.append((_sl2_with_trace(rng, t), 1 + i % 8))
    signs = set()
    for a, k in cases:
        for n in (a.trace - 2, a.trace + 2):
            signs.add((n > 0, abs(n) == 1))
            assert abs(_box_term_fft(a, k, n) - _box_term_loop(a, k, n)) < 1e-10
    assert signs == {(True, True), (True, False), (False, True), (False, False)}


def test_closed_form_matches_fft_on_every_form():
    # every (u, v, w) mod n for n <= 16: p^j dividing all three with j >= e,
    # a unit only in v at odd p, and v odd with uw odd or even at p = 2.
    # _box_term_fft reads only A.b, A.a - A.d and A.c, so at k + 2 = 1 a
    # stand-in with those entries carries any form, determinant or not
    for n in range(1, 17):
        norm = n * math.sqrt(n)
        for u, v, w in itertools.product(range(n), repeat=3):
            form = types.SimpleNamespace(a=v, b=u, c=-w, d=0)
            assert abs(_form_gauss_sum(u, v, w, n) / norm - _box_term_fft(form, -1, n)) < 1e-12


@pytest.mark.parametrize("p, e", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_closed_form_matches_fft_at_prime_powers(p, e):
    # |n| = p^e for both box terms and both trace signs, with k + 2 a
    # multiple of p, so that the form's coefficients share a power of p with n
    rng = random.Random(p)
    q = p**e
    for i in range(4):
        k = p ** (1 + i % 3) * (i + 2) - 2
        for n, t in ((q, q + 2), (q, q - 2), (-q, 2 - q), (-q, -2 - q)):
            a = _sl2_with_trace(rng, t)
            assert abs(_box_term(a, k, n) - _box_term_fft(a, k, n)) < 1e-12


def test_closed_form_matches_trial_division_oracle():
    # seeded forms with coefficients up to 2^64 over n < 2^36, the form and n
    # sharing a power of 2, 3, 4, 8, 9 or 25, against the closed form that
    # factors n by trial division.  Both vanish exactly or not at all
    rng = random.Random(37)
    for _ in range(400):
        f = rng.choice((2, 3, 4, 8, 9, 25))
        power = f ** rng.randint(0, 4)
        n = power * rng.randrange(1, 2**36 // power)
        u, v, w = (f ** rng.randint(0, 3) * rng.randrange(-(2**64), 2**64) for _ in range(3))
        want = form_gauss_sum_by_factoring(u, v, w, n)
        assert abs(_form_gauss_sum(u, v, w, n) - want) <= 1e-12 * abs(want), (u, v, w, n)


def test_csw_large_entries_reduced_exactly():
    # entries whose unreduced products wrap in int64 (2^56) or that do not
    # fit in it at all (2^70): the coefficients must be reduced mod n as
    # exact integers before any fixed-width arithmetic
    for a, bound in itertools.product(
        (Sl2Matrix(2, 1, 1, 1), Sl2Matrix(5, 3, 3, 2), Sl2Matrix(-7, 2, 3, -1)), (2**56, 2**70)
    ):
        while min(abs(a.b), abs(a.c)) <= bound:
            a = a.conjugate_by(SL2_T).conjugate_by(Sl2Matrix(1, 0, 1, 1))
        for k in (1, 4):
            assert abs(csw_invariant(a, k) - _csw_histogram_oracle(a, k)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_csw_against_histogram_oracle(k):
    for a in (Sl2Matrix(2, 1, 1, 1), Sl2Matrix(3, 1, 2, 1), Sl2Matrix(-4, -1, -3, -1)):
        assert abs(csw_invariant(a, k) - _csw_histogram_oracle(a, k)) < 1e-10


def test_csw_rejects_bad_input():
    with pytest.raises(ValueError):
        csw_invariant(Sl2Matrix(1, 1, 0, 1), 1)
    with pytest.raises(ValueError):
        csw_invariant(Sl2Matrix(2, 1, 1, 1), 0)
    with pytest.raises(ValueError, match=r"^level must be a positive integer, got 1\.5$"):
        csw_invariant(Sl2Matrix(2, 1, 1, 1), 1.5)
    with pytest.raises(ValueError, match=r"^level must be a positive integer, got True$"):
        rep_trace(Sl2Matrix(2, 1, 1, 1), True)
    for t in (MAX_TRACE, -MAX_TRACE, 2**700):
        with pytest.raises(ValueError, match=r"requires \|trace\| < 2\^500"):
            csw_invariant(Sl2Matrix(t, 1, -1, 0), 1)


def test_csw_largest_trace():
    # the closed form's floats stay finite at the bound, |Tr| = 2^500 - 1.
    # The representation factors through SL(2, Z/8(k+2)), so the modulus is
    # checked against the trace of a small congruent matrix
    for t in (MAX_TRACE - 1, 1 - MAX_TRACE):
        for k in (1, 2):
            level = congruence_level(k)
            small = Sl2Matrix(t % level + level, 1, -1, 0)
            z = csw_invariant(Sl2Matrix(t, 1, -1, 0), k)
            assert abs(abs(z) - abs(rep_trace(small, k))) < 1e-10


def test_phase_well_defined_on_box_lattice():
    # exact integer statement: Q(v + n z) = Q(v) mod n for both denominators
    for a in (Sl2Matrix(2, 1, 1, 1), Sl2Matrix(3, 1, 2, 1), Sl2Matrix(5, 3, 3, 2)):
        q = lambda x, y: a.b * x * x + (a.a - a.d) * x * y - a.c * y * y
        for n in (a.trace - 2, a.trace + 2):
            nn = abs(n)
            for x, y, z1, z2 in itertools.product(range(-2, 3), repeat=4):
                assert (q(x + nn * z1, y + nn * z2) - q(x, y)) % nn == 0


def test_csw_shifted_fundamental_domain():
    # replacing each box point by a shifted representative leaves every
    # phase term literally unchanged
    rng = random.Random(3)
    a = Sl2Matrix(3, 1, 2, 1)
    k = 2
    t = a.trace
    total = 0j
    for sign, n in ((1, t - 2), (-1, t + 2)):
        nn = abs(n)
        s = 0j
        for x in range(nn):
            for y in range(nn):
                xs = x + nn * rng.randint(-3, 3)
                ys = y + nn * rng.randint(-3, 3)
                q = (k + 2) * (a.b * xs * xs + (a.a - a.d) * xs * ys - a.c * ys * ys)
                s += cmath.exp(2j * cmath.pi * ((q if n > 0 else -q) % nn) / nn)
        total += sign * s / (nn * math.sqrt(nn))
    total *= (1 if t > 0 else -1) / 2
    assert abs(total - csw_invariant(a, k)) < 1e-12


def test_csw_conjugation_invariance():
    rng = random.Random(17)
    done = 0
    while done < 30:
        a = random_sl2(rng, 6)
        if not 2 < abs(a.trace) <= 30:
            continue
        g = random_sl2(rng, 6)
        k = rng.randint(1, 6)
        assert abs(csw_invariant(a, k) - csw_invariant(a.conjugate_by(g), k)) < 1e-9
        done += 1


def test_modular_data_relations():
    for k in range(1, 13):
        data = su2_modular_data(k)
        s = data.S
        assert s.shape == (k + 1, k + 1) and data.T.shape == (k + 1,)
        assert np.abs(s - s.T).max() < 1e-12  # symmetric
        assert np.abs(s @ s.conj().T - np.eye(k + 1)).max() < 1e-10  # unitary
        s2 = s @ s
        assert np.abs(s2 - np.eye(k + 1)).max() < 1e-10  # charge conjugation = id
        st_cubed = np.linalg.matrix_power(s @ np.diag(data.T), 3)
        assert np.abs(st_cubed - s2).max() < 1e-10
        assert np.abs(np.linalg.matrix_power(s, 4) - np.eye(k + 1)).max() < 1e-10


def test_modular_data_k1_shape():
    s = su2_modular_data(1).S
    assert abs(abs(s[0, 0]) - abs(s[0, 1])) < 1e-12


def test_word_examples():
    assert word_in_generators(SL2_T) == [("T", 1)]
    assert word_in_generators(SL2_S) in ([("S", 1)], [("S", 3), ("S", 2)])
    assert evaluate_word(word_in_generators(SL2_S)) == SL2_S
    w = word_in_generators(Sl2Matrix(2, 1, 1, 1))
    assert evaluate_word(w) == Sl2Matrix(2, 1, 1, 1)


def test_rep_trace_refuses_a_word_that_is_not_its_matrix(monkeypatch):
    # the word's product is checked before any representation is built
    monkeypatch.setattr(csw, "word_in_generators", lambda A: [("T", 1)])
    monkeypatch.setattr(csw, "su2_modular_data", None)
    with pytest.raises(AssertionError, match=r"^word decomposition failed for Sl2Matrix\(a=2, b=1, c=1, d=1\)$"):
        rep_trace(Sl2Matrix(2, 1, 1, 1), 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["T", "t", "S"]), min_size=0, max_size=12))
def test_word_round_trip(moves):
    m = Sl2Matrix(1, 0, 0, 1)
    for mv in moves:
        m = m * {"T": SL2_T, "t": SL2_T.inverse(), "S": SL2_S}[mv]
    assert evaluate_word(word_in_generators(m)) == m


def test_word_length_logarithmic():
    big = Sl2Matrix(1, 10**12, 0, 1) * Sl2Matrix(1, 0, 7, 1)
    w = word_in_generators(big)
    assert len(w) <= 12
    assert evaluate_word(w) == big


def test_rep_trace_conjugation_invariance():
    rng = random.Random(23)
    done = 0
    while done < 15:
        a = random_sl2(rng, 6)
        if not 2 < abs(a.trace) <= 40:
            continue
        g = random_sl2(rng, 6)
        k = rng.randint(1, 6)
        assert abs(rep_trace(a, k) - rep_trace(a.conjugate_by(g), k)) < 1e-9
        done += 1


def test_rep_trace_on_negated_matrix():
    # the honest normalization represents -Id trivially
    a = Sl2Matrix(2, 1, 1, 1)
    for k in (1, 2, 3):
        assert abs(rep_trace(a, k) - rep_trace(-a, k)) < 1e-12


def test_rep_trace_reduces_large_exponents():
    # T^(2^40 - 1) enters as one exponent; its phase has period 8(k + 2) = 24
    # and 2^40 - 1 = 39 mod 24, so the trace is that of [[39, 1], [-1, 0]]
    big = rep_trace(Sl2Matrix(2**40 - 1, 1, -1, 0), 1)
    assert abs(abs(big) - 1) < 1e-9
    assert abs(big - rep_trace(Sl2Matrix(39, 1, -1, 0), 1)) < 1e-9


def test_rep_trace_equals_per_letter_powers(monkeypatch):
    # each power of S once gives the bits of one matrix power per S letter,
    # with at most four matrix powers per call; the words run from no S
    # letter through the 9 of [[1189, 360], [360, 109]] to the 41 of
    # [[2, 1], [1, 1]]^40, whose first column is two Fibonacci numbers
    rng = random.Random(31)
    fib = Sl2Matrix(1, 0, 0, 1)
    for _ in range(40):
        fib = fib * Sl2Matrix(2, 1, 1, 1)
    cases = [(Sl2Matrix(2, 1, 1, 1), 1), (Sl2Matrix(1189, 360, 360, 109), 60), (-Sl2Matrix(5, 2, 2, 1), 17)]
    cases += [(fib, 30), (-fib, 7)] + [(random_sl2(rng, 40), rng.randint(1, 40)) for _ in range(30)]
    power, calls = np.linalg.matrix_power, []

    def counted(*args):
        calls.append(args[1])
        return power(*args)

    for a, k in cases:
        want = rep_trace_per_letter(a, k)
        calls.clear()
        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        got = rep_trace(a, k)
        monkeypatch.setattr(np.linalg, "matrix_power", power)
        assert got == want, (a, k)
        assert len(calls) <= 4 and len(set(calls)) == len(calls), (a, k)
    assert max(sum(g == "S" for g, _ in word_in_generators(a)) for a, _ in cases) >= 40


def test_modulus_agreement_small_sweep():
    rng = random.Random(29)
    done = 0
    while done < 25:
        a = random_sl2(rng, 6)
        if not 2 < abs(a.trace) <= 30:
            continue
        k = rng.randint(1, 5)
        cmp_ = compare_with_rep_trace(a, k)
        assert cmp_.modulus_difference < 1e-10
        done += 1


def _congruent_partner(a: Sl2Matrix, n: int):
    for e in itertools.product(range(-1, 2), repeat=4):
        if e == (0, 0, 0, 0):
            continue
        m = (a.a + n * e[0], a.b + n * e[1], a.c + n * e[2], a.d + n * e[3])
        if m[0] * m[3] - m[1] * m[2] == 1 and abs(m[0] + m[3]) > 2:
            return Sl2Matrix(*m)
    return None


def test_mod_level_dependence():
    # congruent-mod-8(k+2) hyperbolic pairs: rep traces agree on the nose,
    # Gauss sums agree in modulus (the leftover is the framing eighth root)
    cases = 0
    for a in (Sl2Matrix(2, 1, 1, 1), Sl2Matrix(3, 1, 2, 1), Sl2Matrix(5, 2, 2, 1)):
        for k in (1, 2):
            n = congruence_level(k)
            b = _congruent_partner(a, n)
            if b is None:
                continue
            assert abs(rep_trace(a, k) - rep_trace(b, k)) < 1e-8
            assert abs(abs(csw_invariant(a, k)) - abs(csw_invariant(b, k))) < 1e-8
            cases += 1
    assert cases >= 4


def test_rep_trace_is_gauss_sum_times_block_word_phase():
    """On a block word W = R^x1 L^y1 ... R^xr L^yr with R = [[1, 1], [0, 1]],
    L = [[1, 0], [1, 1]] and every x, y >= 1, Rademacher's invariant is
    Psi(W) = Psi(-W) = sum x - sum y, and for either sign

        rep_trace(+-W, k) = e^(-2 pi i Psi / 8) csw_invariant(+-W, k)

    as complex numbers, vanishing values included: the phase carries the
    minus sign, and -W takes the same phase as W."""
    rng = random.Random(43)
    vanishing = 0
    for i in range(400):
        w, psi = Sl2Matrix(1, 0, 0, 1), 0
        for _ in range(rng.randint(1, 3)):
            x, y = rng.randint(1, 6), rng.randint(1, 6)
            w, psi = w * Sl2Matrix(1, x, 0, 1) * Sl2Matrix(1, 0, y, 1), psi + x - y
        a = w if i % 2 else -w
        k = 1 + i % 8
        tr = rep_trace(a, k)
        assert abs(tr - cmath.exp(-2j * math.pi * psi / 8) * csw_invariant(a, k)) < 1e-9, (a, k)
        vanishing += abs(tr) < 1e-9
    assert vanishing >= 50


def test_framing_phase_is_eighth_root():
    rng = random.Random(31)
    done = 0
    while done < 12:
        a = random_sl2(rng, 6)
        if not 2 < abs(a.trace) <= 20:
            continue
        k = rng.randint(1, 4)
        cmp_ = compare_with_rep_trace(a, k)
        if cmp_.phase_difference is None:
            continue
        eighths = cmp_.phase_difference * 8
        assert abs(eighths - round(eighths)) < 1e-6
        done += 1
