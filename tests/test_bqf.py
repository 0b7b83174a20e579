import gc
import itertools
import random
import weakref
from dataclasses import astuple
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mti import bqf
from mti.bqf import _form_matrix, class_count_with_trace, classes_with_trace
from mti.census import census
from mti.sl2 import Sl2Matrix
from oracles import (
    QuadForm,
    _rho,
    all_sl2_with_trace,
    apply_transform,
    is_reduced,
    matrix_to_bqf,
    random_sl2,
    reduce_indefinite,
    reduce_with_transform,
    reduction_cycle,
)


def test_matrix_to_bqf_examples():
    assert matrix_to_bqf(Sl2Matrix(2, 1, 1, 1)) == QuadForm(1, 1, -1)
    q = matrix_to_bqf(Sl2Matrix(10, 3, 3, 1))
    assert q == QuadForm(3, 9, -3) and q.discriminant == 117 == 11 * 11 - 4
    assert matrix_to_bqf(Sl2Matrix(27, 1, -1, 0)) == QuadForm(1, 27, 1)
    with pytest.raises(ValueError):
        matrix_to_bqf(Sl2Matrix(1, 1, 0, 1))


def test_bqf_to_matrix_examples():
    assert _form_matrix(3, 1, 1, -1) == Sl2Matrix(1, -1, -1, 2)
    assert _form_matrix(-3, 1, 1, -1) == Sl2Matrix(-2, -1, -1, -1)
    m = _form_matrix(11, 3, 9, -3)
    assert m == Sl2Matrix(1, -3, -3, 10)
    # round trip lands in the same reduction cycle
    cyc = {astuple(f) for f in reduction_cycle(reduce_indefinite(QuadForm(3, 9, -3)))}
    assert astuple(reduce_indefinite(matrix_to_bqf(m))) in cyc


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
    assert {astuple(f) for f in cyc} == {(1, 1, -1), (-1, 1, 1)}
    assert len(cyc) == 2
    # there are exactly two reduced forms of disc 5, forming one cycle
    assert sorted(_reduced_forms_bruteforce(5)) == [(-1, 1, 1), (1, 1, -1)]
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
                    out.add(astuple(f))
    return out


# The enumeration the lattice replaced, kept as the oracle: a scan-only
# producer of the m > 0 reduced forms and the double-rho walk of each cycle
# to its minimal form.


def _positive_reduced_forms(D):
    # for each l, the m in the window (sqrt(D) - l)/2 < m < (sqrt(D) + l)/2
    # that divide (D - l^2)/4 = -m*k
    isq = isqrt(D)
    out = []
    for l in range(2 - D % 2, isq + 1, 2):
        n = (D - l * l) // 4
        out += [(m, l, -(n // m)) for m in range((isq - l) // 2 + 1, (isq + l) // 2 + 1) if n % m == 0]
    return out


def _canonical_cycle_reps(abs_t: int) -> list[tuple[int, int, int]]:
    """One lexicographically-minimal reduced form per rho-cycle of
    discriminant t^2 - 4, sorted.

    The leading coefficients alternate in sign around a cycle, so the walk
    steps rho twice from one m > 0 form to the next, and the minimum, which
    has m < 0, is among the forms it steps over.
    """
    D = abs_t * abs_t - 4
    isq = isqrt(D)
    remaining = set(_positive_reduced_forms(D))
    reps = []
    while remaining:
        start = remaining.pop()
        best = None
        m, l, k = start
        while True:
            # rho(m, l, k) = (k, l1, k1) with k < 0, then rho again
            two = -2 * k
            l1 = (-l) % two
            l1 += (isq - l1) // two * two
            k1 = (l1 * l1 - D) // (4 * k)
            if best is None or (k, l1, k1) < best:
                best = (k, l1, k1)
            two = 2 * k1
            l2 = (-l1) % two
            l2 += (isq - l2) // two * two
            m, l, k = k1, l2, (l2 * l2 - D) // (4 * k1)
            if (m, l, k) == start:
                break
            remaining.remove((m, l, k))
        reps.append(best)
    reps.sort()
    return reps


def _both_signs(forms):
    return {f for m, l, k in forms for f in ((m, l, k), (-m, l, -k))}


def _decode(keys, S):
    # (t, m, l, k) of the forms behind the keys (t*S + m)*S + l
    out = []
    for key in keys.tolist():
        t, m, l = key // (S * S), key // S % S, key % S
        out.append((t, m, l, (l * l - t * t + 4) // (4 * m)))
    return out


# The one-trace scan and min-doubling the rho walk of `_trace_reps`
# replaced, kept verbatim as its oracle and the lattice oracle's cycle step,
# with the oracles' rho step, which also works elementwise on int64 arrays.


def _trace_keys(t: int) -> np.ndarray:
    """Sorted int64 keys (t*(t + 1) + m)*(t + 1) + l of the m > 0 reduced
    forms (m, l, k) of trace t: the lattice points a <= m < d = t - a with
    l = d - a, found by testing m | a(t - a) - 1 for each m over all
    a <= min(m, t - 1 - m)."""
    a = np.arange(1, t // 2 + 1, dtype=np.int64)
    v = a * (t - a) - 1
    hits = [np.flatnonzero(v[: min(m, t - 1 - m)] % m == 0) for m in range(1, t - 1)]
    m = np.repeat(np.arange(1, t - 1, dtype=np.int64), [len(h) for h in hits])
    return np.sort((t * (t + 1) + m) * (t + 1) + t - 2 * (np.concatenate(hits) + 1))


def _cycle_minima(keys: np.ndarray, S: int) -> tuple[np.ndarray, ...]:
    """int64 columns (t, m, l, k) of one form per rho-cycle, sorted by t
    and then by form, given the sorted keys (t*S + m)*S + l of every m > 0
    reduced form of each trace t.

    The leading coefficients alternate in sign around a cycle, so rho^2 is
    a permutation of the m > 0 forms, and each cycle's form is the smallest
    m < 0 form that rho steps over.  That minimum is taken by doubling: best
    <- min(best, best[ptr]), ptr <- ptr[ptr] until best stops changing,
    which happens only once best is constant on every cycle.
    """
    t, m, l = keys // (S * S), keys // S % S, keys % S
    disc, isq = t * t - 4, t - 1
    k = (l * l - disc) // (4 * m)
    # rho(m, l, k) = (k, l1, k1) with k < 0, and rho(k, l1, k1) = (k1, l2, .)
    _, l1, k1 = _rho(m, l, k, disc, isq)
    _, l2, _ = _rho(k, l1, k1, disc, isq)
    # the index of each rho^2 image: the inverse of the order that sorts the
    # images, since they are the keys again
    target = (t * S + k1) * S + l2
    order = np.argsort(target)
    if not np.array_equal(target[order], keys):
        raise AssertionError("rho^2 does not permute the forms")
    ptr = np.empty_like(order)
    ptr[order] = np.arange(len(order))
    # m < 0 forms keyed by (m, l), in sorted order
    val = (k + S) * S + l1
    best = val
    while not np.array_equal(best, nxt := np.minimum(best, best[ptr])):
        best, ptr = nxt, ptr[ptr]
    # the m < 0 forms of a cycle are distinct, so one row per cycle is left
    rows = np.flatnonzero(val == best)
    rows = rows[np.argsort(t[rows] * S * S + val[rows])]
    return t[rows], k[rows], l1[rows], k1[rows]


# The listing the run walk replaced, kept verbatim as its oracle: one numpy
# round per trace step down the tree M -> M R, M R^-1 L R.


def _lattice_keys_tree(t0: int, t1: int) -> np.ndarray:
    a, m, n, d = (np.array([x], np.int64) for x in (1, 1, 1, 2))
    out = []
    while len(a):
        keep = a + d < t1
        a, m, n, d = a[keep], m[keep], n[keep], d[keep]
        new = a + d >= t0
        out.append(((a[new] + d[new]) * t1 + m[new]) * t1 + d[new] - a[new])
        # the children M R = [[a, a + m], [n, n + d]] and M R^-1 L R = [[m, 2m - a], [d, 2d - n]]
        a, m, n, d = (np.concatenate(p) for p in ((a, m), (a + m, 2 * m - a), (n, d), (n + d, 2 * d - n)))
    keys = np.concatenate(out)
    keys.sort()
    return keys


# The listing and min-doubling the word tree replaced, kept verbatim as its
# oracle, the piece size made a parameter: the m > 0 reduced forms listed by
# parabolic runs down the L X R tree, reduced to cycles in blocks of whole
# traces.

_BLOCK_FORMS = 1 << 13


def _lattice_keys(t0: int, t1: int, block: int = _BLOCK_FORMS) -> np.ndarray:
    """Sorted int64 keys (t*t1 + m)*t1 + l of every m > 0 reduced form
    (m, l, k) of discriminant t^2 - 4 for 3 <= t0 <= t < t1.

    Since isqrt(t^2 - 4) = t - 1, the reduced window of such a form is
    a <= m < d with a = (t - l)/2, d = (t + l)/2 and n = -k = (ad - 1)/m:
    the forms are the lattice points 1 <= a <= m < d with m | ad - 1.  The
    matrices [[a, m], [n, d]] of those points are exactly L X R for X in
    the monoid of L = [[1, 0], [1, 1]] and R = [[1, 1], [0, 1]], so they are
    the tree below LR of M -> M R, M U with U = R^-1 L R = [[0, -1], [1, 2]].
    R and U are parabolic, so each node's run M X^j below t1 is listed in one
    pass, and the nodes of an R-run go on to their U-runs and the reverse,
    depth-first in pieces of at most `block` new nodes (or one run),
    starting from the R-run of L.
    """
    a, n, d = (np.ones(1, np.int64) for _ in range(3))
    out, stack = [], [(a, 0 * a, n, d, False)]
    while stack:
        a, m, n, d, u = stack.pop()
        runs = (t1 - 1 - a - d) // (m - a + d - n if u else n)
        ends = np.cumsum(runs)
        i = max(1, int(np.searchsorted(ends, block, "right")))
        if i < len(a):
            stack.append((a[i:], m[i:], n[i:], d[i:], u))
        node = np.repeat(np.arange(i), runs[:i])
        if not len(node):
            continue
        j = np.arange(1, len(node) + 1) - (ends - runs)[node]
        a, m, n, d = a[node], m[node], n[node], d[node]
        if u:  # M U^j adds j (second column - first) to both columns
            top, bottom = j * (m - a), j * (d - n)
            a, m, n, d = a + top, m + top, n + bottom, d + bottom
        else:  # M R^j adds j times the first column to the second
            m, d = m + j * a, d + j * n
        out.append((((a + d) * t1 + m) * t1 + d - a)[a + d >= t0])
        stack.append((a, m, n, d, not u))
    keys = np.concatenate(out)
    keys.sort()
    return keys


def _lattice_class_columns(T: int) -> tuple[np.ndarray, ...]:
    # the store columns below T, listed as lattice points and reduced to
    # cycles in blocks of whole traces, of about _BLOCK_FORMS forms each
    keys = _lattice_keys(3, T)
    blocks = []
    lo = 0
    while lo < len(keys):
        # the traces before the one at row lo + _BLOCK_FORMS, and at least one
        end = lo + _BLOCK_FORMS
        cut = max(keys[end] // (T * T) if end < len(keys) else T, keys[lo] // (T * T) + 1)
        hi = int(np.searchsorted(keys, cut * T * T))
        blocks.append(_cycle_minima(keys[lo:hi], T))
        lo = hi
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


# The walk the run-wise walk replaced, kept verbatim as its oracle, the
# piece size made a constant: every node below T materialized with its
# matrix, period and blocks (`bqf._word_pairs` lists their runs), and the
# rows of rotation 0 read node by node.

_NODE_PIECE = 1 << 13


def _word_children(a, b, c, d, per, xs, ys, T):
    n = len(xs)
    node, x, y0, same, a, c, u, v, ny = bqf._word_pairs(a, b, c, d, per, xs, ys, T)
    ends = np.cumsum(ny)
    y_off = y0 - ends + ny
    lo = 0
    while lo < len(ny):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _NODE_PIECE, "right")))
        pair = np.repeat(np.arange(lo, hi), ny[lo:hi])
        lo = hi
        if not len(pair):
            continue
        y = np.arange(done, done + len(pair)) + y_off[pair]
        parent, up, vp = node[pair], u[pair], v[pair]
        per_child = np.where(y == y0[pair], same[pair], n + 1)
        xs_child = np.empty((n + 1, len(pair)), np.int32)
        ys_child = np.empty((n + 1, len(pair)), np.int32)
        xs_child[:n], xs_child[n] = xs[:, parent], x[pair]
        ys_child[:n], ys_child[n] = ys[:, parent], y
        yield a[pair] + y * up, up, c[pair] + y * vp, vp, per_child, xs_child, ys_child


def _node_rows(a, b, c, d, per, xs, ys):
    t = a + d
    e = np.flatnonzero(len(xs) % per == 0)
    c, x = c[e], xs[0, e]
    k = b[e] - x * (d[e] - a[e] + x * c)
    return t[e].astype(np.int32), (-c).astype(np.int32), k.astype(np.int32)


def _node_pieces(T):
    one = np.ones(1, np.int64)
    no_blocks = np.empty((0, 1), np.int32)
    stack = [_word_children(one, 0 * one, 0 * one, one, one, no_blocks, no_blocks, T)]
    while stack:
        piece = next(stack[-1], None)
        if piece is None:
            stack.pop()
            continue
        yield piece
        stack.append(_word_children(*piece, T))


# The listing's keys as they were read before they became cycle minima of
# the census's rows, kept verbatim as their oracle: every child of a chunk
# built as a node with its blocks (`bqf._run_children`), and its rotations
# stepped node by node.


def _node_necklace_keys(a, b, c, d, per, xs, ys, T):
    """int64 keys (t*T + m + T)*T + l of the canonical form (m, l, k) of
    each necklace among the nodes of one piece, t being its trace.

    A word B_0 ... B_(n-1) of blocks B_i = R^(x_i) L^(y_i) is a necklace when
    n % per == 0.  The m < 0 reduced forms of its class are those of its n
    rotations L^(y_i) B_(i+1) ... B_(i-1) R^(x_i) that start at an L-run,
    the form of [[al, be], [ga, de]] being (-ga, de - al, be), and the
    canonical form is the smallest of them.  Rotation 0 is the word's own
    form (-c, d - a, b) conjugated by R^(x_0), and rotation i is rotation
    i - 1 conjugated by L^(y_(i-1)) and then by R^(x_i); on forms these are
    (m, l, k) -> (m - y(l - yk), l - 2yk, k) and
    (m, l, k) -> (m, l - 2xm, k - x(l - xm)).  It computes in int64 whatever
    dtype the walk hands it, so its keys do not wrap with the walk's.
    """
    a, b, c, d, per, xs, ys = (col.astype(np.int64) for col in (a, b, c, d, per, xs, ys))
    n = len(xs)
    t = a + d
    e = np.flatnonzero(n % per == 0)
    m, l, k = -c[e], d[e] - a[e], b[e]
    best = None
    for i in range(n):
        if i:
            y = ys[i - 1, e]
            yk = y * k
            l = l - yk
            m = m - y * l
            l = l - yk
        x = xs[i, e]
        xm = x * m
        l = l - xm
        k = k - x * l
        l = l - xm
        key = m * T + l
        best = key if best is None else np.minimum(best, key)
    return best + (t[e] + 1) * T * T


def _row_multiset(cols):
    # the rows (t, m, k) in one canonical order, as one int64 array
    rows = np.stack(cols).astype(np.int64)
    return rows[:, np.lexsort(rows[::-1])]


def _rows(cols):
    return list(zip(*(col.tolist() for col in cols)))


def _store_forms(t, m, k):
    # int64 (t, m, l, k) of the stored rows, l > 0 from the discriminant
    # t^2 - 4 = l^2 - 4mk, which must be a square; each form must be reduced
    # (`is_reduced` with isqrt(t^2 - 4) = t - 1), so that rho cycles it
    t, m, k = (col.astype(np.int64) for col in (t, m, k))
    square = t * t - 4 + 4 * m * k
    l = np.sqrt(square).round().astype(np.int64)
    assert np.array_equal(l * l, square)
    x = 2 * np.abs(m)
    assert ((0 < l) & (l < t) & (x + l >= t) & (x - l < t)).all()
    return t, m, l, k


def _cycle_minima_of_rows(T, t, m, k):
    # int64 columns (t, m, l, k) of the smallest m < 0 form of each stored
    # row's rho-cycle, row by row: the rho step of every row at once until
    # each is back at its start
    t, m, l, k = _store_forms(t, m, k)
    disc, isq = t * t - 4, t - 1
    best = np.where(m < 0, m * T + l, T * T)
    cur, idx = (m, l, k), np.arange(len(t))
    while len(idx):
        cur = _rho(*cur, disc[idx], isq[idx])
        key = np.where(cur[0] < 0, cur[0] * T + cur[1], T * T)
        best[idx] = np.minimum(best[idx], key)
        more = (cur[0] != m[idx]) | (cur[1] != l[idx])
        cur, idx = tuple(c[more] for c in cur), idx[more]
    bm, bl = np.divmod(best, T)
    return t, bm, bl, ((bl - t) * (bl + t) + 4) // (4 * bm)


def _canonical_of_rows(T, t, m, k):
    # the same, sorted by t and then by form like the listing
    cols = _cycle_minima_of_rows(T, t, m, k)
    order = np.lexsort(cols[2::-1])
    return tuple(col[order] for col in cols)


def _sorted_rows(cols):
    return sorted(_rows(cols))


def test_scan_oracle_against_bruteforce():
    # the m > 0 forms, doubled by sign, are every reduced form
    for D in [5, 8, 12, 13, 17, 21] + [t * t - 4 for t in range(3, 61)]:
        pos = _positive_reduced_forms(D)
        assert all(m > 0 for m, _, _ in pos)
        assert len(_both_signs(pos)) == 2 * len(pos)
        assert _both_signs(pos) == _reduced_forms_bruteforce(D), D


@pytest.mark.parametrize("t0", [3, 20, 59])
def test_lattice_forms_against_bruteforce(t0):
    # the lattice points of a block of traces, and those found at one fixed
    # trace, are the m > 0 reduced forms of each trace in it
    forms = _decode(_lattice_keys(t0, 61), 61)
    assert [f[0] for f in forms] == sorted(f[0] for f in forms)
    for t in range(t0, 61):
        pos = [f[1:] for f in forms if f[0] == t]
        assert _both_signs(pos) == _reduced_forms_bruteforce(t * t - 4), t
        assert [f[1:] for f in _decode(_trace_keys(t), t + 1)] == sorted(pos), t


@pytest.mark.parametrize(
    "size, bounds", [(1 << 13, (4, 5, 61, 500, 2001)), (64, (4, 5, 61, 500))], ids=["default", "small-blocks"]
)
def test_lattice_runs_equal_tree_walk(size, bounds):
    # the run listing gives the tree walk's keys in its order, also when
    # small pieces make the depth-first walk split its frontier (64-node
    # pieces list t1 = 500 in 2146 rounds, some of them one run longer than
    # a piece)
    for t1 in bounds:
        for t0 in sorted({t0 for t0 in (3, t1 // 2, t1 - 1) if t0 >= 3}):
            keys = _lattice_keys(t0, t1, size)
            assert keys.dtype == np.int64 and np.array_equal(keys, _lattice_keys_tree(t0, t1)), (t0, t1)


def test_class_columns_match_oracle():
    # the listing's rows are the canonical representatives of the old walk
    t, m, l, k = bqf._class_columns(2010)
    assert all(col.dtype == np.int64 for col in (t, m, l, k))
    rows = _rows((t, m, l, k))
    n = int(np.searchsorted(t, 400))
    assert rows[:n] == [(s, *f) for s in range(3, 400) for f in _canonical_cycle_reps(s)]
    n = int(np.searchsorted(t, 2000))
    assert rows[n:] == [(s, *f) for s in range(2000, 2010) for f in _canonical_cycle_reps(s)]


def test_trace_path_equals_store_rows_past_old_sieve_cap():
    # (t^2 - 4)/4 passed the old 8M sieve cap at t = 5657; the one-trace scan,
    # the listing and the census's rows agree on both sides of it
    cols = bqf._class_columns(5665)
    start = int(np.searchsorted(cols[0], 5650))
    rows = _rows(col[start:] for col in cols)
    assert rows == [(t, *f) for t in range(5650, 5665) for f in _rows(classes_with_trace(t))]
    assert _rows(classes_with_trace(5657)) == [r[1:] for r in rows if r[0] == 5657]
    t, m, k = bqf._class_rows(5665)
    above = t >= 5650
    assert _rows(_canonical_of_rows(5665, t[above], m[above], k[above])) == rows


@pytest.mark.parametrize("size", [bqf._PIECE_NODES, 64], ids=["default", "small-blocks"])
def test_class_columns_independent_of_block_splits(size, monkeypatch):
    # rows walked after other bounds, or in pieces of other sizes, are the
    # same rows as those of one fresh walk, and the listing the same columns
    bqf._walked_rows.cache_clear()
    whole = _sorted_rows(bqf._class_rows(101))
    listing = _rows(bqf._class_columns(101))
    monkeypatch.setattr(bqf, "_PIECE_NODES", size)
    bqf._walked_rows.cache_clear()
    for T in (60, 100, 101):
        bqf._class_rows(T)
    assert _sorted_rows(bqf._class_rows(101)) == whole
    assert _rows(bqf._class_columns(101)) == listing


def test_class_columns_enumerate_each_trace_once(monkeypatch):
    # the census of four primes at one bound walks the word tree once; a
    # repeated bound reads the kept rows, and every other bound walks once
    # and replaces them; each |t| is listed once, and the rows are one form
    # of each canonical representative's class
    calls = []
    pieces = bqf._word_pieces

    def counted(T):
        calls.append(T)
        return pieces(T)

    bqf._walked_rows.cache_clear()
    monkeypatch.setattr(bqf, "_word_pieces", counted)
    for p in (2, 3, 5, 7):
        census(p, 500)
    assert calls == [500]
    calls.clear()
    for T in (60, 60, 100, 40, 40, 100, 101):
        rows = _rows(_canonical_of_rows(T, *bqf._class_rows(T)))
        assert rows == [(s, *f) for s in range(3, T) for f in _canonical_cycle_reps(s)], T
    assert calls == [60, 100, 40, 100, 101]
    bqf._class_rows(101)
    assert calls == [60, 100, 40, 100, 101]
    assert bqf._walked_rows.cache_info().currsize == 1


def test_rows_of_a_larger_bound_are_dropped_for_a_smaller_one():
    # only the rows of the last bound are kept: once a smaller bound is
    # asked for, nothing holds the larger bound's rows for the process
    bqf._walked_rows.cache_clear()
    t = bqf._class_rows(2010)[0]
    ref = weakref.ref(t)
    del t
    bqf._class_rows(60)
    gc.collect()
    assert ref() is None


def test_rows_of_the_last_bound_are_dropped_before_a_new_walk(monkeypatch):
    # the kept rows are released when a new bound misses, before its walk
    # starts, so the two bounds' rows never coexist
    bqf._walked_rows.cache_clear()
    ref = weakref.ref(bqf._class_rows(2010)[0])
    alive = []
    pieces = bqf._word_pieces

    def checked(T):
        gc.collect()
        alive.append(ref() is not None)
        return pieces(T)

    monkeypatch.setattr(bqf, "_word_pieces", checked)
    bqf._class_rows(2011)
    assert alive == [False]
    assert bqf._walked_rows.cache_info().currsize == 1


def _assert_store_equals_lattice_oracle(T):
    # the listing's columns, and the canonical forms of the store's rows,
    # are the oracle's columns
    oracle = _lattice_class_columns(T)
    cols = bqf._class_columns(T)
    assert all(col.dtype == np.int64 for col in cols), T
    assert all(np.array_equal(col, want) for col, want in zip(cols, oracle, strict=True)), T
    rows = bqf._class_rows(T)
    assert all(col.dtype == np.int16 and not col.flags.writeable for col in rows), T
    canonical = _canonical_of_rows(T, *rows)
    assert all(np.array_equal(col, want) for col, want in zip(canonical, oracle, strict=True)), T


def test_word_store_equals_lattice_oracle():
    # the word tree's columns are those of the lattice listing and
    # min-doubling, for a fresh walk at every bound
    for T in [*range(4, 121), 500, 2010]:
        bqf._walked_rows.cache_clear()
        _assert_store_equals_lattice_oracle(T)


@pytest.mark.parametrize("size", [bqf._PIECE_NODES, 64], ids=["default", "small-pieces"])
def test_word_store_grown_in_steps_equals_lattice_oracle(size, monkeypatch):
    # bounds asked for up and down in steps, walked in pieces of either
    # size, get the oracle's classes
    monkeypatch.setattr(bqf, "_PIECE_NODES", size)
    bqf._walked_rows.cache_clear()
    for T in (60, 100, 40, 100, 101, 500):
        _assert_store_equals_lattice_oracle(T)


@pytest.mark.parametrize("T", [101, 500])
def test_rotation_zero_is_in_the_cycle_of_its_necklace(T):
    # chunk by chunk, the row of each necklace (rotation 0, read off its run)
    # is a form of the class whose canonical form the listing takes from the
    # same child, not only of some class of the listing: a row of the word's
    # own form (-c, d - a, b), read with l > 0, would be a form of the
    # reversed word's class
    for chunk in bqf._word_pieces(T):
        t, rest = np.divmod(bqf._necklace_keys(*chunk, T), T * T)
        m, l = np.divmod(rest, T)
        got = _cycle_minima_of_rows(T, *bqf._necklace_rows(*chunk))
        assert all(np.array_equal(g, w) for g, w in zip(got[:3], (t, m - T, l), strict=True))


@pytest.mark.parametrize("T", [101, 2010])
def test_listing_builds_only_the_nodes_of_the_walk(T, monkeypatch):
    # the listing reads its keys off the runs as the census's rows do, so it
    # builds as nodes only the prefixes the walk itself builds (it used to
    # build every child of every run a second time for its keys)
    built = []
    children = bqf._run_children

    def counted(*chunk):
        built.append(int(chunk[-1].sum()))
        return children(*chunk)

    monkeypatch.setattr(bqf, "_run_children", counted)
    bqf._walked_rows.cache_clear()
    bqf._class_rows(T)
    walk = built.copy()
    built.clear()
    bqf._class_columns(T)
    assert built == walk


@pytest.mark.parametrize("size", [bqf._PIECE_NODES, 64], ids=["default", "small-pieces"])
def test_run_keys_equal_node_keys(size, monkeypatch):
    # chunk by chunk, the listing's keys are those of the same chunk's
    # children built as nodes, in the same order
    monkeypatch.setattr(bqf, "_PIECE_NODES", size)
    for T in [*range(4, 121), 500, 2010]:
        for chunk in bqf._word_pieces(T):
            want = _node_necklace_keys(*bqf._run_children(*chunk), T)
            assert np.array_equal(bqf._necklace_keys(*chunk, T), want), T


@pytest.mark.parametrize("size", [bqf._PIECE_NODES, 64], ids=["default", "small-pieces"])
def test_run_rows_equal_node_walk(size, monkeypatch):
    # the rows read off the runs are the node walk's rows, as multisets, at
    # every bound and in chunks of either size
    monkeypatch.setattr(bqf, "_PIECE_NODES", size)
    for T in [*range(4, 121), 500, 2010]:
        bqf._walked_rows.cache_clear()
        parts = zip(*(_node_rows(*piece) for piece in _node_pieces(T)))
        want = _row_multiset([np.concatenate(part) for part in parts])
        assert np.array_equal(_row_multiset(bqf._class_rows(T)), want), T


def test_walk_materializes_only_nodes_that_can_have_children(monkeypatch):
    # a node's smallest child has trace 2a + b + c + d, so the walk builds
    # no node that reaches T there: at T = 500 it builds 4118 of the 23468
    # children, where the node walk built all of them (1959 have a child)
    nodes = []
    pairs = bqf._word_pairs

    def counted(a, b, c, d, per, xs, ys, T):
        nodes.append((len(xs), 2 * a + b + c + d))
        return pairs(a, b, c, d, per, xs, ys, T)

    monkeypatch.setattr(bqf, "_word_pairs", counted)
    for T in [*range(4, 121), 500, 2010]:
        nodes.clear()
        children = sum(int(chunk[-1].sum()) for chunk in bqf._word_pieces(T))
        assert all((low < T).all() for _, low in nodes), T
        if T == 500:
            assert children == 23468
            assert sum(len(low) for n, low in nodes if n) <= 4118


def test_store_rows_are_reduced_forms_below_their_trace():
    # every row is a reduced form with m < 0 < k and |m|, k < |t| (the
    # census's coefficient tables rely on it), and each |t| holds as many
    # rows as the listing has classes
    bqf._walked_rows.cache_clear()
    t, m, k = bqf._class_rows(2010)
    assert ((m < 0) & (0 < k)).all()
    assert ((-m < t) & (k < t)).all()
    assert np.array_equal(np.bincount(t, minlength=2010), np.bincount(bqf._class_columns(2010)[0], minlength=2010))
    below = t < 500
    forms = _store_forms(t[below], m[below], k[below])[1:]
    assert all(is_reduced(QuadForm(*f)) for f in _rows(forms))


def test_word_walk_keeps_larger_blocks_past_an_overshooting_reference():
    # a node whose reference block (rx, ry) already reaches T can still take
    # (rx + 1, 1): a walk that stopped at x' = rx there lost 196 of the 4177
    # classes below T = 200
    bqf._walked_rows.cache_clear()
    for t in (bqf._class_columns(200)[0], bqf._class_rows(200)[0]):
        assert len(t) == 4177
        assert np.bincount(t, minlength=200)[3:].tolist() == [class_count_with_trace(s) for s in range(3, 200)]


def test_periodic_word_is_one_imprimitive_class():
    # (RL)^2 = [[5, 3], [3, 2]] is a periodic word: its class, of trace 7 and
    # form content 3, is stored exactly once
    rows = [r[1:] for r in _rows(bqf._class_columns(8)) if r[0] == 7]
    assert len(set(rows)) == len(rows) == class_count_with_trace(7)
    q = astuple(reduce_indefinite(matrix_to_bqf(Sl2Matrix(5, 3, 3, 2))))
    hits = [r for r in rows if q in {astuple(f) for f in reduction_cycle(QuadForm(*r))}]
    assert len(hits) == 1 and QuadForm(*hits[0]).content == 3


def test_canonical_reps_are_cycle_minima():
    # the minimum of each reduction cycle, by the definition, for traces
    # whose windows reach width isqrt(D) - 1 = 118
    for t in range(3, 121):
        minima = {
            min(astuple(f) for f in reduction_cycle(QuadForm(*g)))
            for g in _both_signs(_positive_reduced_forms(t * t - 4))
        }
        assert _rows(classes_with_trace(t)) == _canonical_cycle_reps(t) == sorted(minima), t
    # and the rows of the one-trace scan and min-doubling the walk replaced
    for t in range(3, 400):
        assert _rows(classes_with_trace(t)) == _rows(_cycle_minima(_trace_keys(t), t + 1)[1:]), t


def test_cycle_minima_refuse_a_form_whose_orbit_never_closes():
    # (-29, 1, 1) has discriminant 11^2 - 4 but is not reduced: rho^2 takes
    # it into a cycle of trace 11 and never back, so the bounded steps end
    # with the self-check instead of a wrong minimum or an endless loop
    assert not is_reduced(QuadForm(-29, 1, 1))
    t, m, l, k = (np.array([x, y], np.int64) for x, y in ((11, 11), (-1, -29), (9, 1), (9, 1)))
    with pytest.raises(AssertionError, match="does not close"):
        bqf._cycle_minima(t, m, l, k)
    # alone, the reduced (-1, 9, 9) gives its own key: it is its cycle's minimum
    assert bqf._cycle_minima(t[:1], m[:1], l[:1], k[:1]).tolist() == [-1 * 11 + 9]


def test_disc12_two_cycles():
    # four reduced forms; the exhaustive scan shows they form TWO cycles
    # ((1,2,-2) represents 1 while (-1,2,2) does not, so the classes differ)
    forms = sorted(_reduced_forms_bruteforce(12))
    assert forms == [(-2, 2, 1), (-1, 2, 2), (1, 2, -2), (2, 2, -1)]
    assert class_count_with_trace(4) == 2
    assert class_count_with_trace(3) == 1
    assert class_count_with_trace(-3) == 1


def test_cycle_properties_small_traces():
    for t in range(3, 21):
        members_seen = set()
        for form in _rows(classes_with_trace(t)):
            cyc = reduction_cycle(QuadForm(*form))
            assert len(cyc) % 2 == 0
            # leading coefficients alternate in sign around the cycle
            signs = [1 if f.m > 0 else -1 for f in cyc]
            assert all(signs[i] != signs[(i + 1) % len(cyc)] for i in range(len(cyc)))
            assert all(is_reduced(f) for f in cyc)
            tuples = {astuple(f) for f in cyc}
            assert not (tuples & members_seen), "cycles must be disjoint"
            members_seen |= tuples
        # every reduced form of the discriminant is accounted for
        assert members_seen == _reduced_forms_bruteforce(t * t - 4)


def test_rho_returns_to_start():
    for t in (3, 4, 11, 17):
        for form in _rows(classes_with_trace(t)):
            cyc = reduction_cycle(QuadForm(*form))
            assert astuple(cyc[0]) == form


def test_class_rep_round_trip():
    # each form's matrix of either sign has trace t (and determinant 1, which
    # Sl2Matrix checks) and lies in the form's class; the content the CLI
    # lists, the gcd of the columns, is the form's
    for t in (3, -3, 4, -4, 11, -11, 20):
        forms = classes_with_trace(t)
        assert all(col.dtype == np.int64 for col in forms)
        for *form, content in _rows((*forms, np.gcd.reduce(forms))):
            f, a = QuadForm(*form), _form_matrix(t, *form)
            assert a.trace == t
            assert f.discriminant == t * t - 4
            cyc = {astuple(g) for g in reduction_cycle(f)}
            assert astuple(reduce_indefinite(matrix_to_bqf(a))) in cyc
            assert content == f.content


def test_trace11_contains_imprimitive_class():
    forms = [QuadForm(*f) for f in _rows(classes_with_trace(11))]
    q = reduce_indefinite(matrix_to_bqf(Sl2Matrix(10, 3, 3, 1)))
    hits = [f for f in forms if astuple(q) in {astuple(g) for g in reduction_cycle(f)}]
    assert len(hits) == 1
    assert hits[0].content == 3


def test_counts_symmetric_in_sign():
    for t in range(3, 30):
        assert all(map(np.array_equal, classes_with_trace(t), classes_with_trace(-t)))
        assert class_count_with_trace(t) == class_count_with_trace(-t)


def test_single_trace_refuses_traces_past_max_t():
    # |t| >= 2^21 is refused before the scan, which would otherwise try to
    # allocate t/2 int64 per m (10^12 asked for terabytes) or, nearer the
    # bound, run silently for minutes
    for t in (10**12, -(10**12), 2**21, -(2**21)):
        for call in (classes_with_trace, class_count_with_trace):
            with pytest.raises(ValueError, match=r"\|t\| must be below 2\^21"):
                call(t)


def test_row_bounds_stay_below_int16():
    # the rows are int16 and every |t|, |m| and k in them is below T: a
    # bound raised to int16's largest value fails here before a row wraps;
    # the walk's floor-division numerators stay above -(T^2/4 + 4T), which
    # must fit its dtype (`bqf._WALK`) at either bound
    for T in (bqf._MAX_ROWS_T, bqf._MAX_LISTING_T):
        assert T < np.iinfo(np.int16).max
        assert T * T // 4 + 4 * T < np.iinfo(bqf._WALK).max


def _wide(cols):
    return tuple(col.astype(np.int64) for col in cols)


def test_walk_dtype_replays_equal_in_int64():
    # the first chunks of the largest walk run, and the children and runs
    # they lead to, equal their replay on int64 copies; the chunks carry the
    # walk's dtype, int16 block rows and an index column, and every node
    # entry and in-range u, v is below T, the premise of the dtype's bound
    T = bqf._MAX_ROWS_T
    for chunk in itertools.islice(bqf._word_pieces(T), 16):
        xs, ys, node, *cols = chunk
        assert xs.dtype == ys.dtype == np.int16 and node.dtype == np.intp
        assert all(col.dtype == bqf._WALK for col in cols)
        wide = (xs, ys, node, *_wide(cols))
        assert np.max(_wide(cols[4:8])) < T
        rows = bqf._necklace_rows(*chunk)
        assert all(r.dtype == np.int16 for r in rows)
        assert all(map(np.array_equal, rows, bqf._necklace_rows(*wide)))
        piece = bqf._run_children(*chunk)
        assert all(col.dtype == bqf._WALK for col in piece[:5])
        wide_piece = bqf._run_children(*wide)
        assert all(map(np.array_equal, piece, wide_piece))
        assert np.max(_wide(piece[:4])) < T
        pairs = bqf._word_pairs(*piece, T)
        assert all(col.dtype == bqf._WALK for col in pairs[1:])
        assert all(map(np.array_equal, pairs, bqf._word_pairs(*_wide(piece[:5]), *piece[5:], T)))


def test_class_listing_refuses_bad_bounds_at_the_call():
    # one check owns the bounds: T < 4, a float, T past the largest bound
    # run for the listing or the rows, and T = 2^21 are refused when the
    # listing or the rows are asked for, not at the first class, and the
    # kept rows are left as they were: no hit, no miss
    bqf._class_rows(60)
    before = bqf._walked_rows.cache_info()
    for call, largest in ((bqf._class_columns, bqf._MAX_LISTING_T), (bqf._class_rows, bqf._MAX_ROWS_T)):
        for T, error in ((3, ValueError), (60.0, TypeError), (2**21, ValueError)):
            with pytest.raises(error):
                call(T)
            assert bqf._walked_rows.cache_info() == before, T
        with pytest.raises(ValueError, match=f"T must be at most {largest}: "):
            call(largest + 1)
        assert bqf._walked_rows.cache_info() == before
    for call in (bqf._class_columns, bqf._class_rows):
        with pytest.raises(ValueError, match="T must be at least 4"):
            call(3)
    assert bqf._walked_rows.cache_info() == before


def test_completeness_small_trace():
    for t in range(3, 21):
        cycles = [
            {astuple(f) for f in reduction_cycle(QuadForm(*form))}
            for form in _rows(classes_with_trace(t))
        ]
        for m in all_sl2_with_trace(t, 30):
            red = astuple(reduce_indefinite(matrix_to_bqf(m)))
            hits = sum(1 for c in cycles if red in c)
            assert hits == 1, f"{m} landed in {hits} cycles"


def test_equivariance_shared_cycle():
    rng = random.Random(2024)
    done = 0
    while done < 100:
        a = random_sl2(rng, 6)
        if abs(a.trace) <= 2:
            continue
        g = random_sl2(rng, 6)
        b = a.conjugate_by(g)
        ca = {astuple(f) for f in reduction_cycle(reduce_indefinite(matrix_to_bqf(a)))}
        cb = astuple(reduce_indefinite(matrix_to_bqf(b)))
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
        forms = classes_with_trace(t)
        for *form, content in _rows((*forms, np.gcd.reduce(forms))):
            assert {f.content for f in reduction_cycle(QuadForm(*form))} == {content}


def test_large_disc_cycles_close_and_stay_reduced():
    for t in (1499, 1500):
        forms = _rows(classes_with_trace(t))
        assert forms, t
        total = 0
        for form in forms:
            cyc = reduction_cycle(QuadForm(*form))
            assert all(is_reduced(f) for f in cyc)
            total += len(cyc)
        assert total == 2 * len(_positive_reduced_forms(t * t - 4))
