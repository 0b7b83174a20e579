import dataclasses
import functools
import hashlib
import math
import operator
import random
import sys
import tracemalloc

import numpy as np
import pytest

from mti import bqf
from mti.bqf import classes_with_trace
from mti.census import (
    _BINS,
    _TALLY_ODD,
    _TALLY_P2,
    CSV_HEADER,
    Checkpoint,
    CensusReport,
    _bin_tables,
    _legendre_table,
    _snapshots,
    census,
    density_report,
    group_fractions,
    log_integral,
    predicted_class_fractions,
    theorem_constants,
)
from mti.intmat import is_prime
from mti.sl2 import (
    KINDS_ODD,
    KINDS_P2,
    classify_mod_p,
    dw_exponent_of_kind,
    dw_invariant_sl2,
    jacobi,
    sl2_snf_entries,
)


def _li_simpson(x, steps=20000):
    # independent oracle: composite Simpson on [2, x]
    if x == 2:
        return 0.0
    h = (x - 2.0) / steps
    total = 1.0 / math.log(2.0) + 1.0 / math.log(x)
    for i in range(1, steps):
        t = 2.0 + i * h
        total += (4.0 if i % 2 else 2.0) / math.log(t)
    return total * h / 3.0


def test_log_integral_against_simpson():
    assert log_integral(2) == 0.0
    assert abs(log_integral(100) - _li_simpson(100)) < 1e-6
    x = 1e6
    assert abs(log_integral(x) - _li_simpson(x, 200000)) / _li_simpson(x, 200000) < 1e-4
    with pytest.raises(ValueError):
        log_integral(1.5)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_log_integral_refuses_non_finite(x):
    with pytest.raises(ValueError, match="finite"):
        log_integral(x)


def test_log_integral_is_quad_bit_for_bit():
    # scipy's QUADPACK is the oracle of the in-repo port: equal bits, no
    # tolerance, on every T^2 the census can ask for up to T = 1024, the
    # checkpoint bounds of four larger censuses and seeded random x up to
    # (2^21 - 1)^2
    from scipy.integrate import quad

    xs = [float(T) * T for T in range(4, 1025)]
    xs += [float(T >> j) * (T >> j) for T in (2000, 4000, 10_000, 30_000) for j in range(T.bit_length()) if T >> j >= 4]
    # and both sides of the lower end of the band QAGS's path holds on
    xs += [3.0, math.nextafter(3.0, 4.0)]
    rng = random.Random(0)
    xs += [rng.uniform(2.0, 1e12) for _ in range(200)]
    # and up to the largest T^2 below the trace bound 2^21
    top = float(2**21 - 1) ** 2
    rng = random.Random(1)
    xs += [rng.uniform(1e12, top) for _ in range(100)] + [top]
    for x in xs:
        assert log_integral.__wrapped__(x) == quad(lambda u: 1.0 / math.log(u), 2.0, x, limit=200)[0], x


def test_log_integral_once_per_bound(monkeypatch):
    # the checkpoint bounds 500 >> j of two censuses share their quadratures,
    # and the cached values are the quadrature's own bits
    module = sys.modules["mti.census"]
    qags_inv_log, calls = module.qags_inv_log, []

    def counted(*args, **kwargs):
        calls.append(args)
        return qags_inv_log(*args, **kwargs)

    monkeypatch.setattr(module, "qags_inv_log", counted)
    log_integral.cache_clear()
    reports = [census(2, 500), census(3, 500)]
    assert len(calls) == 7
    for cp in reports[0].checkpoints + reports[1].checkpoints:
        assert repr(cp.li_T2) == repr(log_integral.__wrapped__(float(cp.T) * cp.T))
    for _ in range(2):
        with pytest.raises(ValueError):
            log_integral(1.5)


def test_census_small_hand_check():
    # T = 5: six classes (traces +-3 with one class each, +-4 with two);
    # hand classification mod 3 of the canonical representatives:
    #   t=+3  [[1,1],[1,2]]   trace 0, disc -4 = 2: non-residue -> C8
    #   t=-3  [[-2,1],[1,-1]] trace 1 = -2: negated form has invariant in
    #         the anchor class -> C5 ... (computed below by hand tables)
    rep = census(3, 5)
    assert rep.total_classes == 6
    assert rep.total_pos == 3
    # per-kind counts derived by hand from the six representatives
    assert rep.per_label == {"C1": 0, "C2": 0, "C3": 1, "C4": 1, "C5": 1, "C6": 1, "C7": 0, "C8": 2}
    # Z values: C3/C4 give 3, the others 1
    assert rep.dw_sum == 3 + 3 + 1 + 1 + 1 + 1
    # divisibility categories: only the trace -4 classes have 3 | A2
    assert rep.snf_triple == (0, 2, 4)


def _classes_below(T):
    # a matrix of every class of trace 3 <= |t| < T, those of trace s and
    # then of -s for each s, lazily from the single-trace scan, which shares
    # no code with the word walk that the census tallies
    for s in range(3, T):
        forms = list(zip(*(col.tolist() for col in classes_with_trace(s))))
        for sign in (s, -s):
            yield from (bqf._form_matrix(sign, *form) for form in forms)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 1_000_003, 2**31 - 1, 2**32 + 15, 2**63 - 25])
def test_census_matches_direct_classification(p):
    # oracle: classify every class of the scan one by one, then compare
    # each checkpoint's tallies over both signs and over positive traces;
    # T = 120 meets every residue of the trace mod p; past every trace, each
    # kind comes from the Legendre symbol of t^2 - 4, and above 3.04e9 the
    # square of a residue p - t would overflow int64; 2^63 - 25 is the
    # largest prime census accepts, and m mod p of the negative leading
    # coefficients m lies just below it
    T = 120 if p < 120 else 60
    rep = census(p, T)
    rows = []
    for a in _classes_below(T):
        kind = classify_mod_p(a, p).kind
        a1, a2 = sl2_snf_entries(a)
        if a1 % p == 0 and a2 % p == 0:
            cat = 0
        elif a2 % p == 0:
            cat = 1
        else:
            assert a1 % p != 0  # p | A1 would force p | A2
            cat = 2
        rows.append((abs(a.trace), a.trace > 0, kind, dw_invariant_sl2(a, p).value, cat))
    for cp in rep.checkpoints:
        for pos_only in (False, True):
            labels = {}
            dw = 0
            snf = [0, 0, 0]
            total = 0
            for t, pos, kind, z, cat in rows:
                if t >= cp.T or (pos_only and not pos):
                    continue
                labels[kind] = labels.get(kind, 0) + 1
                dw += z
                snf[cat] += 1
                total += 1
            if pos_only:
                assert (cp.total_pos, cp.dw_sum_pos, cp.snf_triple_pos) == (total, dw, tuple(snf))
            else:
                assert (cp.total, cp.dw_sum, cp.snf_triple) == (total, dw, tuple(snf))
                assert {k: v for k, v in cp.per_label.items() if v} == labels
    final = rep.checkpoints[-1]
    assert final.T == T
    assert (rep.total_classes, rep.per_label, rep.dw_sum, rep.snf_triple) == (
        final.total,
        final.per_label,
        final.dw_sum,
        final.snf_triple,
    )
    assert (rep.total_pos, rep.dw_sum_pos, rep.snf_triple_pos) == (
        final.total_pos,
        final.dw_sum_pos,
        final.snf_triple_pos,
    )


# the tally census ran before the one-bincount tally: per-class label indices
# from a residue pass and one Legendre call per distinct residue, then one
# prefix bincount per checkpoint; kept as the oracle of `_bin_tables` and the
# block tally


def _class_codes(p: int, T: int, t, m, k) -> tuple[np.ndarray, np.ndarray]:
    traces = np.arange(3, T, dtype=np.int64)
    # s^2 - 4 from s itself, never from a residue, so it fits int64; p
    # divides it exactly when s = +-2 mod p
    disc = (traces * traces - 4) % p
    # the label of each trace, and whether s = +-2 mod p, indexed by |t|
    per_trace = np.zeros(T, np.int8)
    special = np.zeros(T, bool)
    special[3:] = disc == 0
    # the labels on s = +-2 mod p by the symbol 0 (central), 1 or -1 of w, on
    # s = 2 (first row) and s = -2
    if p == 2:
        per_trace[3:] = KINDS_P2.index("C3")
        table = np.array([[KINDS_P2.index(kind) for kind in ("C1", "C2")]], np.int8)
    else:
        per_trace[3:] = np.where(_legendre_symbols(disc, p) == 1, KINDS_ODD.index("C7"), KINDS_ODD.index("C8"))
        kinds = (("C1", "C3", "C4"), ("C2", "C5", "C6"))
        table = np.array([[KINDS_ODD.index(kind) for kind in row] for row in kinds], np.int8)
    pos = per_trace[t]
    neg = pos.copy()
    rows = np.flatnonzero(special[t])
    s, b, w = t[rows], k[rows] % p, m[rows] % p
    w = np.where(w != 0, w, b)  # -c, or b where c = 0: 0 just when central
    symbol = w if p == 2 else _legendre_symbols(w, p)  # mod 2, w is its symbol
    pos[rows] = table[((s - 2) % p != 0).astype(np.intp), symbol]
    neg[rows] = table[((s + 2) % p != 0).astype(np.intp), symbol]
    return pos, neg


def _legendre_symbols(residues: np.ndarray, p: int) -> np.ndarray:
    distinct, where = np.unique(residues, return_inverse=True)
    return np.array([jacobi(v, p) for v in distinct.tolist()], np.int8)[where]


def _snapshot(T: int, pos: np.ndarray, neg: np.ndarray, labels, p: int) -> Checkpoint:
    # the per-checkpoint builder census ran before `_snapshots`, kept as its
    # oracle; pos, neg: counts by label of the positive and the negative
    # traces below T, summed into the SNF categories 2 - e by the exponent e
    # of each label's Z = p^e, one label at a time; the Z values stay Python
    # ints, since p^2 overflows int64 for p near 2^63
    per_label = dict(zip(labels, (pos + neg).tolist()))
    pos_label = dict(zip(labels, pos.tolist()))
    snf, snf_pos = [0, 0, 0], [0, 0, 0]
    for kind in labels:
        category = 2 - dw_exponent_of_kind(kind, p)
        snf[category] += per_label[kind]
        snf_pos[category] += pos_label[kind]
    z = [p ** dw_exponent_of_kind(kind, p) for kind in labels]
    return Checkpoint(
        T=T,
        p=p,
        total=sum(per_label.values()),
        per_label=per_label,
        dw_sum=sum(map(operator.mul, z, per_label.values())),
        snf_triple=tuple(snf),
        li_T2=log_integral(float(T) * T),
        total_pos=sum(pos_label.values()),
        dw_sum_pos=sum(map(operator.mul, z, pos_label.values())),
        snf_triple_pos=tuple(snf_pos),
    )


@pytest.mark.parametrize("p", [2, 3, 2**63 - 25])
def test_snapshots_match_per_checkpoint_oracle(p):
    # seeded counts, some past 2^32, at the checkpoint bounds of T = 500;
    # for 2^63 - 25 the Z value p^2 overflows int64
    labels = KINDS_P2 if p == 2 else KINDS_ODD
    bounds = [7, 15, 31, 62, 125, 250, 500]
    rng = np.random.default_rng(p % 1000)
    for high in (5, 2**40):
        pos = rng.integers(0, high, (len(bounds), len(labels)))
        neg = rng.integers(0, high, (len(bounds), len(labels)))
        got = _snapshots(p, bounds, np.concatenate([pos, pos + neg], axis=1).reshape(len(bounds), -1))
        want = [_snapshot(T, pos[j], neg[j], labels, p) for j, T in enumerate(bounds)]
        assert repr(got) == repr(want)


def _oracle_census(p: int, T: int) -> CensusReport:
    labels = KINDS_P2 if p == 2 else KINDS_ODD
    nl = len(labels)
    t, m, _, k = bqf._class_columns(T)
    pos, neg = _class_codes(p, T, t, m, k)
    # checkpoint bounds T/2^k below T, all >= 4, then T itself
    bounds = sorted({T >> j for j in range(1, T.bit_length()) if T >> j >= 4}) + [T]
    checkpoints = [
        _snapshot(
            bound,
            np.bincount(pos[:end], minlength=nl),
            np.bincount(neg[:end], minlength=nl),
            labels,
            p,
        )
        for bound, end in zip(bounds, np.searchsorted(t, bounds).tolist())
    ]
    return CensusReport(**vars(checkpoints[-1]), checkpoints=checkpoints)


@pytest.mark.parametrize("T", [*range(4, 21), 37, 200, 500])
def test_census_matches_oracle_tally(T):
    # full reports and CSV bytes; the primes around T put p = T, T + 1
    # (for small T) and T + 2 on both sides of the squares/scalar table switch
    below = max(q for q in range(2, T) if is_prime(q))
    above = next(q for q in range(T + 2, 2 * T + 4) if is_prime(q))
    for p in sorted({2, 3, 5, 7, 11, 13, below, above, 2**63 - 25}):
        rep, want = census(p, T), _oracle_census(p, T)
        assert repr(rep) == repr(want), p
        assert rep.to_csv().encode() == want.to_csv().encode(), p


# the children per piece of the walks the census is checked on at each
# bound: the default, 4096 and 64 everywhere, 7 and 1 up to T = 500 (at
# T = 2010 pieces of 64 already split the walk into 7,427 chunks, and take
# about 1 s to walk)
_PIECE_SIZES = {
    T: (bqf._PIECE_NODES, 4096, 64, 7, 1) if T <= 500 else (bqf._PIECE_NODES, 4096, 64) for T in (4, 5, 37, 500, 2010)
}


@functools.cache
def _kept_rows_in_pieces(size: int, T: int):
    # the kept rows of one walk below T in pieces of size children, walked
    # once and read by the census of every prime
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bqf, "_PIECE_NODES", size)
        bqf._walked_rows.cache_clear()
        chunks = bqf._class_rows(T)
    bqf._walked_rows.cache_clear()
    return chunks


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 2**61 - 1])
def test_census_equals_tally_over_canonical_rows(p, monkeypatch):
    # the store's rows are some reduced form of each class, the listing's the
    # canonical one: both tally to the same report and CSV bytes, whatever
    # chunks the walk yields them in (smaller pieces give more chunks from
    # T = 500 on)
    module = sys.modules["mti.census"]
    for T, sizes in _PIECE_SIZES.items():
        want = _oracle_census(p, T)
        if T >= 500:
            assert len(_kept_rows_in_pieces(64, T)) > len(_kept_rows_in_pieces(bqf._PIECE_NODES, T)), T
        for size in sizes:
            monkeypatch.setattr(module, "_class_rows", functools.partial(_kept_rows_in_pieces, size))
            rep = census(p, T)
            assert repr(rep) == repr(want), (T, size)
            assert rep.to_csv().encode() == want.to_csv().encode(), (T, size)


def test_tally_transients_stay_within_its_largest_chunk(monkeypatch):
    # the tally gathers chunk by chunk out of the kept rows: with the store
    # walked before tracing starts, its tracemalloc peak is at most four
    # intp arrays of the largest chunk (its bins, one gathered column and
    # np.take's intp copy of the int16 indices) and the tables, five intp
    # arrays of about T entries; at T = 2010 it read 1.62 MB for chunks of up
    # to 65,534 rows and 0.15 MB for 4,096, where one intp column of all
    # 285,629 rows takes 2.29 MB
    T = 2010
    for size in (bqf._PIECE_NODES, 4096):
        monkeypatch.setattr(bqf, "_PIECE_NODES", size)
        bqf._walked_rows.cache_clear()
        largest = max(len(t) for t, _, _ in bqf._class_rows(T))
        tracemalloc.start()
        try:
            census(5, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (4 * largest + 5 * T), (size, peak, largest)
    bqf._walked_rows.cache_clear()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 2**63 - 25])
def test_class_codes_match_per_class_oracle(p):
    # each row's label, for both signs, against the one-class classifier, and
    # the minor-gcd SNF category of each against 2 - the exponent of Z = p^e
    # that the census reads off the label, so that no two errors can cancel
    # in a tally; and its checkpoint segment against its |t|
    T = 200
    t, m, l, k = bqf._class_columns(T)
    rep = census(p, T)
    bounds = [cp.T for cp in rep.checkpoints]
    base, of_m, of_k = _bin_tables(p, bounds)
    bins = base[t] + of_m[m] + of_k[k]
    assert (bins // _BINS).tolist() == np.searchsorted(bounds, t, "right").tolist()
    # the tally matrix is one-hot in the labels on s = t and on both signs
    labels = ("C1", "C2", "C3") if p == 2 else tuple(f"C{i}" for i in range(1, 9))
    tally = _TALLY_P2 if p == 2 else _TALLY_ODD
    assert tally.shape == (_BINS, 2 * len(labels))
    on_pos, on_both = tally[:, : len(labels)], tally[:, len(labels) :]
    assert sorted(np.unique(on_pos).tolist()) == [0, 1] and on_pos.sum(1).tolist() == [1] * _BINS
    assert ((on_both - on_pos) >= 0).all() and (on_both - on_pos).sum(1).tolist() == [1] * _BINS
    pos, neg = on_pos.argmax(1)[bins % _BINS], (on_both - on_pos).argmax(1)[bins % _BINS]
    category = {(True, True): 0, (False, True): 1, (False, False): 2}
    rows = zip(t.tolist(), m.tolist(), l.tolist(), k.tolist(), pos.tolist(), neg.tolist())
    for abs_t, mi, li, ki, *codes in rows:
        for s, code in zip((abs_t, -abs_t), codes):
            A = bqf._form_matrix(s, mi, li, ki)
            kind = classify_mod_p(A, p).kind
            a1, a2 = sl2_snf_entries(A)
            assert code == labels.index(kind), (p, s, mi, li, ki)
            assert category[a1 % p == 0, a2 % p == 0] == 2 - dw_exponent_of_kind(kind, p), (p, s, mi, li, ki)
    assert len(pos) == rep.total_pos


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 1009, 10007, 2**61 - 1, 2**63 - 25])
def test_legendre_table_past_the_bound_matches_scalar_legendre(p):
    # for p > n the table holds the symbol of every v < n, and for p <= n
    # repeats the first p mod p (mod 2, the residues): short tables, and
    # long ones below and past p
    for n in (1, 2, 3, 4, 100, 2**11, 3001):
        table = _legendre_table(p, n)
        assert table.dtype == np.int8
        assert table.tolist() == [jacobi(v, p) for v in range(n)], n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**61 - 1])
def test_legendre_symbols_match_scalar_legendre(p):
    # the census table of 0 .. n - 1 on both sides of n = p (mod 2, the
    # residues, as `jacobi` gives them), and the oracle's one scalar call
    # per distinct residue spread back to every residue: seeded residues over
    # all of [0, p), repeats of a few small ones, zero and p - 1
    for n in (1, 2, p - 1, p, p + 1, 3 * p + 2, 500):
        if n <= 10**4:
            table = _legendre_table(p, n)
            assert table.dtype == np.int8
            assert table.tolist() == [jacobi(v, p) for v in range(n)], n
    rng = np.random.default_rng(2024)
    residues = np.concatenate(
        [rng.integers(0, p, 600, dtype=np.int64), rng.integers(0, min(p, 40), 600, dtype=np.int64), [0, p - 1, 0]]
    )
    rng.shuffle(residues)
    symbols = _legendre_symbols(residues, p)
    assert symbols.dtype == np.int8
    assert symbols.tolist() == [jacobi(v, p) for v in residues.tolist()]


def test_census_dw_sum_recomputable_from_labels():
    rep = census(3, 60)
    z = {"C1": 9, "C3": 3, "C4": 3}
    recomputed = sum(z.get(k, 1) * v for k, v in rep.per_label.items())
    assert recomputed == rep.dw_sum


def test_census_snf_routing_matches_labels():
    # the divisibility categories coincide with the label groups
    for p in (3, 5):
        rep = census(p, 60)
        c1 = rep.per_label["C1"]
        unip = rep.per_label["C3"] + rep.per_label["C4"]
        rest = rep.total_classes - c1 - unip
        assert rep.snf_triple == (c1, unip, rest)


def test_census_checkpoints():
    rep = census(3, 40)
    ts = [cp.T for cp in rep.checkpoints]
    assert ts == sorted(ts)
    assert ts[-1] == 40
    assert ts[0] >= 4
    totals = [cp.total for cp in rep.checkpoints]
    assert totals == sorted(totals)
    # cumulative consistency: totals count classes under each bound
    for cp in rep.checkpoints:
        expect = sum(1 for _ in _classes_below(cp.T))
        assert cp.total == expect


def _inversion_gaps(p, T):
    # (C3 - C4, C5 - C6) at every checkpoint of census(p, T)
    return [
        (cp.per_label["C3"] - cp.per_label["C4"], cp.per_label["C5"] - cp.per_label["C6"])
        for cp in census(p, T).checkpoints
    ]


@pytest.mark.parametrize("T, gap5, gap13", [(500, 42, 18), (2010, 95, 140)])
def test_census_inversion_swaps_c3_c4_and_c5_c6_for_p_3_mod_4(T, gap5, gap13):
    # A -> A^-1 keeps the trace and maps each trace's classes onto
    # themselves, sending the unipotent symbol w to -w; for p = 3 mod 4,
    # -1 is not a square mod p, so it swaps C3 <-> C4 and C5 <-> C6 and
    # their counts agree at every checkpoint.  A and A^-1 have reversed
    # words, far apart in the walk, so a dropped or doubled chunk or a
    # wrapped dtype breaks it.  2^61 - 1 is left out: for T < p it has no
    # C3 to C6 class, so the identity would hold vacuously.
    for p in (3, 7, 11, 19, 23, 43):
        assert set(_inversion_gaps(p, T)) == {(0, 0)}, p
        assert census(p, T).per_label["C3"] > 0, p
    # for p = 1 mod 4 nothing forces it, and it fails
    assert _inversion_gaps(5, T)[-1] == (gap5, gap5)
    assert _inversion_gaps(13, T)[-1] == (gap13, gap13)


def test_census_p2():
    rep = census(2, 30)
    assert set(rep.per_label) == {"C1", "C2", "C3"}
    assert rep.total_classes == sum(rep.per_label.values())
    z = {"C1": 4, "C2": 2, "C3": 1}
    assert rep.dw_sum == sum(z[k] * v for k, v in rep.per_label.items())
    assert rep.snf_triple == (rep.per_label["C1"], rep.per_label["C2"], rep.per_label["C3"])


def test_census_csv_schema():
    rep = census(3, 40)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rep.checkpoints) + 1
    last = lines[-1].split(",")
    assert int(last[0]) == 40
    assert int(last[1]) == rep.total_classes
    # columns: c1 + c2 + unipotent + rest = total
    assert int(last[2]) + int(last[3]) + int(last[4]) + int(last[5]) == rep.total_classes
    assert int(last[6]) == rep.dw_sum
    assert (int(last[7]), int(last[8]), int(last[9])) == rep.snf_triple
    assert abs(float(last[10]) - rep.li_T2) < 1e-12


# the census CSV is a stable output: SHA-256 of census(p, T).to_csv(); the
# T = 500 values are the ones the benchmark checks (perfbench/golden.json)
CSV_SHA256 = {
    2: {
        200: "6b125de25fb18053c071d5fc99ab701304f716a38e6d4af540d1b408ce72f0af",
        500: "cd12fcc045e218186778e6a3fe31f54c92c5004178fbe523833308773b29db4c",
    },
    3: {
        200: "e40850b1ac956b35e4521a2ec2ed267245d78ee330d1084da28e04a05a01eb59",
        500: "5b74ae11d2048b6d4f61c9cb2ae8444e6786ae2d291b38709b42ae8005238f6f",
    },
    5: {
        200: "f95728b7d4517a39a090d32c6b4aae5a90614477b06db8f6bd85c22369d2c254",
        500: "f82ccfcf96674e2c9da7e0b67773dda965093940f3dcdf3111447ab8f9a4979f",
    },
    7: {
        200: "9bb691a998291cb505a1a6afe35458797dead8dd7202d75b8886a3488534a7d3",
        500: "d0b01b5185b3585e4b5b3a90223707d6dde8cacfcd9a134f0f9d7a670e2c8176",
    },
}


@pytest.mark.parametrize("p", sorted(CSV_SHA256))
def test_census_csv_bytes_pinned(p):
    for T, want in CSV_SHA256[p].items():
        assert hashlib.sha256(census(p, T).to_csv().encode()).hexdigest() == want, T


@pytest.mark.parametrize("p", [2, 3])
def test_census_checkpoints_equal_smaller_censuses(p):
    # each checkpoint row at bound T' is the final row of census(p, T')
    rows = census(p, 200).to_csv().strip().split("\n")[1:]
    for row in rows:
        t = int(row.split(",")[0])
        assert census(p, t).to_csv().strip().split("\n")[-1] == row


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_census_independent_of_store_history(p):
    # a census reads the same bytes after a fresh start, and after the rows
    # of a larger or a smaller bound were kept
    def outputs(T, stored=None):
        bqf._walked_rows.cache_clear()
        if stored:
            bqf._class_rows(stored)
        rep = census(p, T)
        return rep.to_csv(), repr(rep)

    for smaller, T in ((20, 37), (37, 200), (200, 500)):
        fresh = outputs(T)
        assert outputs(T, stored=T + 40) == fresh, T
        assert outputs(T, stored=smaller) == fresh, T


def test_non_integer_bound_leaves_the_store_intact():
    # a float bound is refused before it reaches the kept rows (no hit, no
    # miss), so a later census still reads int16 columns; any integer type
    # gives the same report
    bqf._walked_rows.cache_clear()
    fresh = repr(census(3, 100))
    calls = (
        lambda: census(3, 60.0),
        lambda: bqf._class_columns(60.0),
        lambda: bqf._class_rows(60.0),
    )
    for call in calls:
        bqf._walked_rows.cache_clear()
        before = bqf._walked_rows.cache_info()
        with pytest.raises(ValueError, match="T must be an integer, got 60.0"):
            call()
        assert bqf._walked_rows.cache_info() == before
        assert repr(census(3, 100)) == fresh
        assert all(col.dtype == np.int16 and not col.flags.writeable for cols in bqf._class_rows(100) for col in cols)
    assert repr(census(3, np.int64(100))) == fresh
    assert type(census(3, np.int64(100)).T) is int


def test_census_normalizes_the_prime():
    # any integer type gives the report of the int; a float is refused
    # before the kept rows are reached
    assert repr(census(np.int64(3), 10)) == repr(census(3, 10))
    before = bqf._walked_rows.cache_info()
    with pytest.raises(ValueError, match="p must be an integer, got 3.0"):
        census(3.0, 10**4)
    assert bqf._walked_rows.cache_info() == before


def test_bounds_past_max_rows_t_and_max_listing_t_leave_the_store_intact(monkeypatch):
    # T = 2^21, the bound of single traces, is past every entry point's
    # bound: each refuses it before a walk starts or the kept rows are
    # reached
    def no_walk(*args):
        raise AssertionError("walked the word tree")

    monkeypatch.setattr(bqf, "_word_pieces", no_walk)
    before = bqf._walked_rows.cache_info()
    calls = (
        lambda: census(3, 2**21),
        lambda: bqf._class_columns(2**21),
        lambda: bqf._class_rows(2**21),
    )
    for call in calls:
        with pytest.raises(ValueError, match="T must be at most"):
            call()
        assert bqf._walked_rows.cache_info() == before


def test_census_rejects_primes_past_int64():
    with pytest.raises(ValueError, match="below 2"):
        census(2**64 + 13, 10)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_census_snf_triple_pos_direct_count(p):
    snf = [0, 0, 0]
    for s in range(3, 200):
        for form in zip(*(col.tolist() for col in classes_with_trace(s))):
            a1, a2 = sl2_snf_entries(bqf._form_matrix(s, *form))
            snf[0 if a1 % p == 0 else 1 if a2 % p == 0 else 2] += 1
    assert census(p, 200).snf_triple_pos == tuple(snf)


def test_predicted_fractions():
    f3 = predicted_class_fractions(3)
    assert f3["C1"] == 1 / 24
    assert f3["C3"] + f3["C4"] == 8 / 24
    assert abs(sum(f3.values()) - 1) < 1e-12
    f5 = predicted_class_fractions(5)
    assert f5["C1"] == 1 / 120
    assert abs(sum(f5.values()) - 1) < 1e-12
    g3 = group_fractions(3)
    assert g3 == (1 / 24, 8 / 24, 15 / 24)
    assert abs(sum(group_fractions(7)) - 1) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 13, 2**31 - 1, 2**63 - 25])
def test_class_sizes_by_snf_category_once_per_prime(p, monkeypatch):
    # group_fractions and theorem_constants read the class sizes by SNF
    # category from one class_table per prime, and the Z mean keeps its
    # integer numerator, the sum of p^e |C| over the kinds, and so its bits
    module, calls = sys.modules["mti.census"], []
    table = module.class_table
    monkeypatch.setattr(module, "class_table", lambda q: calls.append(q) or table(q))
    module._category_sizes.cache_clear()
    report = dataclasses.replace(census(3, 60), p=p)
    consts = [theorem_constants(report) for _ in range(2)]
    assert group_fractions(p) == consts[0].snf_derived == consts[1].snf_derived
    assert calls == [p]
    z_sum = sum(p ** dw_exponent_of_kind(kind, p) * n * size for kind, (n, size) in table(p).items())
    assert consts[0].dw_derived == z_sum / (p**3 - p)


def test_density_report():
    rep = census(3, 80)
    dens = density_report(rep)
    kinds = [r.kind for r in dens.rows]
    assert kinds == ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"]
    for row in dens.rows:
        assert abs(row.empirical - row.count / rep.total_classes) < 1e-12
    assert dens.checkpoint_deviations[-1][0] == 80
    empty = dataclasses.replace(rep, total=0)
    with pytest.raises(ValueError):
        density_report(empty)


def test_snf_routing_first_ten_thousand_classes():
    # divisibility category <-> label-group routing, re-checked per class
    seen = 0
    for a in _classes_below(400):
        a1, a2 = sl2_snf_entries(a)
        for p in (2, 3, 5, 7):
            kind = classify_mod_p(a, p).kind
            if kind == "C1":
                assert a1 % p == 0 and a2 % p == 0
            elif kind in (("C2",) if p == 2 else ("C3", "C4")):
                assert a1 % p != 0 and a2 % p == 0
            else:
                assert a1 % p != 0 and a2 % p != 0
        seen += 1
        if seen >= 10**4:
            break
    assert seen == 10**4


def test_checkpoint_deviations_shrink_on_average():
    dens = density_report(census(3, 500))
    cps = dens.checkpoint_deviations
    first = sum(cps[0][1:]) / 3
    last = sum(cps[-1][1:]) / 3
    assert last < first


def test_theorem_constants_fields():
    rep = census(3, 100)
    consts = theorem_constants(rep)
    assert consts.dw_printed == pytest.approx(49 / 24)
    assert consts.dw_derived == pytest.approx(2.0)
    assert consts.snf_printed[0] == pytest.approx(1 / 24)
    assert consts.snf_derived == pytest.approx((1 / 24, 8 / 24, 15 / 24))
    # at small T the ratios are noisy; just check they carry sane magnitudes
    assert 2.0 < consts.dw_all < 6.0
    assert 1.0 < consts.dw_pos < 3.5
    assert consts.dw_all == pytest.approx(rep.dw_sum / rep.li_T2)
