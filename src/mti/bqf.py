"""Hyperbolic SL(2,Z) conjugacy classes by trace, via indefinite binary
quadratic forms.

A hyperbolic matrix A maps to the form Q_A = (b, a-d, -c) of discriminant
Tr(A)^2 - 4; conjugacy classes of trace t correspond to proper equivalence
classes of forms of that discriminant, realized here as rho-cycles of
Gauss-reduced forms.  The m > 0 reduced forms of discriminant t^2 - 4 are
the lattice points 1 <= a <= m < d with a + d = t and m | ad - 1; the
imprimitive ones are among them, so proper-power classes are included.
A class's canonical form is the smallest m < 0 form of its cycle
(Buchmann-Vollmer, Binary Quadratic Forms, 2007); `_cycle_minima` alone
picks it.

The classes of positive trace are also the cyclic words in the blocks
R^x L^y (x, y >= 1) of R = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]]
(Series, J. London Math. Soc. 31, 1985), periodic words being the
imprimitive classes; one such word per class is walked as a necklace of
the Fredricksen-Kessler-Maiorana prenecklace tree (Ruskey-Savage-Wang,
J. Algorithms 13, 1992), pruned by trace.  The tree is walked by runs:
the children appending (x', y') for one x' are linear in y', and only
those that can have children are built as nodes.  The census's rows are
read off the runs as one reduced m < 0 form of each class, unsorted, and
kept for the census at the last bound asked for only; the counts per trace
sum a bincount of each chunk's traces, and the listing sorts the chunks'
cycle minima into columns, which `mti classes --tmax` prints as they are.
A single trace is listed on its own: its m > 0 reduced forms are scanned,
and the cycle minima of their negatives are its classes.

The walk computes in int32 (`_WALK`), its rows and block rows being int16:
a node has a + d < T and b >= 1, so c <= bc < T^2/4, and every value it
compares, clips or divides stays above -(T^2/4 + 4T), within int32 for T up
to about 92,000.

All square-root comparisons are exact (squares are compared, never floats).
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

import numpy as np

from .sl2 import Sl2Matrix

# single traces at or past this bound are refused: _CYCLE_STEPS rho^2 steps
# close every cycle below it, since a word of 16 blocks has trace at least
# the Lucas number L_32 > 2^21 (`_cycle_minima`)
_MAX_T = 1 << 21
# the largest bounds run, each refused past: on a 2-core x86-64 machine with
# 8 GB, the census of five primes at T = 30000 took 4.6 s and 587 MB, and
# the text listing at T = 20000 took 35 s and 1.50 GB; both grow like T^2.
# The rows are int16 (`_necklace_rows`), which holds every |t|, |m| and k
# below these bounds, and the walk computes in _WALK, which holds T^2/4 + 4T
# (below); a test fails once either bound reaches 2^15 - 1 or passes that
_MAX_ROWS_T = 30_000
_MAX_LISTING_T = 20_000
# the walk's arithmetic dtype: node matrices, x' and y', periods, run
# offsets and per-run lines (rows and block rows are int16).  A node is a
# positive word with a + d < T and b >= 1, so c <= bc = ad - 1 < T^2/4, and
# each of its entries and each in-range u, v is below T; the numerators of
# the walk's floor divisions stay above -(T^2/4 + 4T), within int32 for T up
# to about 92,000.  Only the ring-only products of `_necklace_rows` (w and
# the k line) may wrap, which the int16 cast makes exact, every row fitting
# in it.  Index columns (node, pair, run) stay intp: int32 ones cost a cast
# at every gather
_WALK = np.int32
# children per chunk of runs of the word-tree walk: bounds the working set
# of one step of the walk
_PIECE_NODES = 1 << 16
# rho^2 steps that close every cycle of a trace below _MAX_T (`_cycle_minima`)
_CYCLE_STEPS = 15


def _word_pairs(a, b, c, d, per, xs, ys, T):
    """The (node, x') pairs of one piece of prenecklace nodes that have a
    child below trace T, with the y' of each pair's children: y' runs from
    y0 for ny steps.

    A node of n blocks R^x L^y carries its matrix [[a, b], [c, d]], its FKM
    period per and its blocks as int16 rows xs, ys, one column per node
    (x, y < T).  Its children append a block (x', y') no smaller than the
    reference block (rx, ry) = block n - per: x' >= rx, and y' >= ry when
    x' = rx.  The child's matrix is M [[1 + x'y', x'], [y', 1]] =
    [[a + y'u, u], [c + y'v, v]] with u = ax' + b and v = cx' + d, so for
    each x' the y' of trace a + v + y'u < T form one run.  The x' do not
    stop at rx when (rx, ry) is already too large: (rx + 1, 1) may still
    fit.
    """
    n = len(xs)
    if n:
        col = np.arange(len(a))
        rx, ry = xs[n - per, col].astype(_WALK), ys[n - per, col].astype(_WALK)
    else:  # the empty word, whose reference is the smallest block (1, 1)
        rx = ry = np.ones(1, _WALK)
    # the x' whose y' = 1 child, of trace a + d + b + x'(a + c), is below T
    nx = np.maximum((T - 1 - a - d - b) // (a + c) - rx + 1, 0)
    node = np.repeat(np.arange(len(a)), nx)
    x = np.arange(len(node), dtype=_WALK) - (np.cumsum(nx, dtype=_WALK) - nx)[node] + rx[node]
    first = x == rx[node]
    y0 = np.where(first, ry[node], 1)
    # only the child equal to the reference block keeps the node's period
    same = np.where(first, per[node], n + 1)
    a, c = a[node], c[node]
    u, v = a * x + b[node], c * x + d[node]
    ny = np.maximum((T - 1 - a - v) // u - y0 + 1, 0)
    return node, x, y0, same, a, c, u, v, ny


def _word_runs(a, b, c, d, per, xs, ys, T):
    """Yield the (node, x') runs below trace T of one piece of nodes (see
    `_word_pairs`) in chunks of at most _PIECE_NODES children (or one run):
    the nodes' blocks xs, ys and the runs' node, x, y0, same, a, c, u, v, ny."""
    pairs = _word_pairs(a, b, c, d, per, xs, ys, T)
    ends = np.cumsum(pairs[-1])
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _PIECE_NODES, "right")))
        yield xs, ys, *(col[lo:hi] for col in pairs)
        lo = hi


def _run_children(xs, ys, node, x, y0, same, a, c, u, v, ny):
    """The children y' = y0 .. y0 + ny - 1 of each run of a chunk as a piece
    of nodes (a, b, c, d, per, xs, ys): [[a + y'u, u], [c + y'v, v]], period
    same at y0 and n + 1 past it, blocks (x', y') appended."""
    n = len(xs)
    pair = np.repeat(np.arange(len(ny)), ny)
    y = np.arange(len(pair), dtype=_WALK) - (np.cumsum(ny, dtype=_WALK) - ny - y0)[pair]
    parent, up, vp = node[pair], u[pair], v[pair]
    per = np.where(y == y0[pair], same[pair], n + 1)
    xs_child = np.empty((n + 1, len(pair)), np.int16)
    ys_child = np.empty((n + 1, len(pair)), np.int16)
    xs_child[:n], xs_child[n] = xs[:, parent], x[pair]
    ys_child[:n], ys_child[n] = ys[:, parent], y
    return a[pair] + y * up, up, c[pair] + y * vp, vp, per, xs_child, ys_child


def _necklace_rows(xs, ys, node, x, y0, same, a, c, u, v, ny):
    """int16 columns (t, m, k) of rotation 0 of each necklace among the
    children of one chunk of runs, t being its trace; no child's blocks are
    built.

    A word B_0 ... B_(n-1) of blocks B_i = R^(x_i) L^(y_i) is a necklace when
    n % per == 0, so only a y0 child of period same can fail.  Rotation 0,
    the word's own form (-c, d - a, b) conjugated by R^(x_0), is a reduced
    m < 0 form of the class, so |m| and k are below t; for the child
    [[a + y'u, u], [c + y'v, v]] its m and k are -c and u - x0 w plus y'
    times -v and x0(u - x0 v), with w = v - a + x0 c: lines in y' per run.
    """
    x0 = xs[0, node] if len(xs) else x
    skip = (ny > 0) & ((len(xs) + 1) % same != 0)
    y0, ny = y0 + skip, ny - skip
    run = np.repeat(np.arange(len(ny)), ny)
    y = np.arange(len(run), dtype=_WALK) - (np.cumsum(ny, dtype=_WALK) - ny - y0)[run]
    w = v - a + x0 * c
    lines = ((a + v, u), (-c, -v), (u - x0 * w, x0 * (u - x0 * v)))
    del x0, skip, y0, w  # per-run temporaries, dropped before the per-child expansion
    return tuple((c0[run] + y * c1[run]).astype(np.int16) for c0, c1 in lines)


def _cycle_minima(t, m, l, k):
    """int64 key m*t + l (0 < l < t, so ordered by (m, l)) of the canonical
    form of the cycle of each reduced m < 0 form (m, l, k) of trace t, column
    by column (t may be one trace for all).

    The leading coefficients alternate in sign around a cycle, so rho^2
    steps from each m < 0 form to the next; every column steps until each
    has been back at its start, past which it only repeats its cycle.  A
    cycle has one m < 0 form per block of its word, and a word of n blocks
    has trace at least that of (RL)^n, the Lucas number L_2n, which passes
    2^21 at n = 16: no cycle below 2^21 takes more than _CYCLE_STEPS steps,
    and a form not back by then is not reduced (AssertionError).
    """
    isq = t - 1
    best = start = m * t + l
    back = np.zeros(np.shape(start), bool)
    for _ in range(_CYCLE_STEPS):
        # rho twice, (m, l, k) -> (k, l1, k1) -> (k1, l2, k2) with k > 0 > k1:
        # rho is (m, l, k) -> (k, -l, m) shifted by q sgn(k), q = (isq + l) // 2|k|
        q, r = np.divmod(isq + l, 2 * k)
        l1, k1 = isq - r, m + q * (k * q - l)
        q, r = np.divmod(isq + l1, -2 * k1)
        m, l, k = k1, isq - r, k + q * (l1 + k1 * q)
        key = m * t + l
        best = np.minimum(best, key)
        back |= key == start
        if back.all():
            return best
    raise AssertionError("a rho-cycle does not close within its step bound")


def _necklace_keys(xs, ys, node, x, y0, same, a, c, u, v, ny, T):
    """int64 keys (t*T + m + T)*T + l of the canonical form (m, l, k) of
    each necklace among the children of one chunk of runs, t being its
    trace: the cycle minima of the census's rows (`_necklace_rows`), whose
    l^2 = t^2 - 4 + 4mk is an exact square below 2^53, so its float root is
    exact."""
    rows = _necklace_rows(xs, ys, node, x, y0, same, a, c, u, v, ny)
    t, m, k = (col.astype(np.int64) for col in rows)
    l = np.sqrt(t * t - 4 + 4 * m * k).astype(np.int64)
    m, l = np.divmod(_cycle_minima(t, m, l, k), t)
    return (t * T + m + T) * T + l


def _word_pieces(T: int):
    """Yield every chunk of runs below trace T of the prenecklace tree of
    block words (see `_word_runs`), depth-first from the empty word.

    The trace grows with every block appended and with x and y, so the
    subtrees cut off at T hold no class below it.  A node's smallest child
    M RL has trace 2a + b + c + d, so of each run only the prefix with
    y'(2u + v) < T - 2a - u - c - v, which can have children, becomes nodes.
    """
    one = np.ones(1, _WALK)
    no_blocks = np.empty((0, 1), np.int16)
    stack = [_word_runs(one, 0 * one, 0 * one, one, one, no_blocks, no_blocks, T)]
    while stack:
        chunk = next(stack[-1], None)
        if chunk is None:
            stack.pop()
            continue
        yield chunk
        y0, _, a, c, u, v, ny = chunk[4:]
        fit = np.clip((T - 1 - 2 * a - u - c - v) // (2 * u + v) - y0 + 1, 0, ny)
        if fit.any():
            stack.append(_word_runs(*_run_children(*chunk[:-1], fit), T))


def _checked_bound(T, largest: int) -> int:
    T = index(T)
    if T < 4:
        raise ValueError("T must be at least 4")
    if T > largest:
        raise ValueError(f"T must be at most {largest}: larger bounds were not run")
    return T


def _class_rows(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int16 columns (|t|, m, k) of one reduced m < 0 form
    (m, l, k) of every class of trace 3 <= |t| < T, in no particular order:
    the census's rows.

    The rows of the last bound asked for are kept, so the census of several
    primes at one T walks the word tree once; any other bound drops them and
    walks once, so a process that alternates between bounds re-walks at each
    switch, and two bounds' rows are never held at once.  T < 4, a
    non-integer T and T > _MAX_ROWS_T are refused before the kept rows or
    the walk.
    """
    return _walked_rows(_checked_bound(T, _MAX_ROWS_T))


@lru_cache(maxsize=1)
def _walked_rows(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the rotation-0 rows (`_necklace_rows`) of one walk, the last bound's rows dropped first
    _walked_rows.cache_clear()
    parts = [[], [], []]
    for chunk in _word_pieces(T):
        for part, col in zip(parts, _necklace_rows(*chunk)):
            part.append(col)
    # one column at a time, each dropping its pieces once joined
    cols = tuple(np.concatenate(parts.pop(0)) for _ in range(3))
    for col in cols:
        col.flags.writeable = False
    return cols


def _trace_counts(T: int) -> np.ndarray:
    """Classes of each trace t < T per sign, indexed by t: a bincount of the
    traces of each chunk's rows (`_necklace_rows`), summed over one walk and
    keeping no rows.  T < 4 and T > _MAX_ROWS_T are refused before the walk."""
    T = _checked_bound(T, _MAX_ROWS_T)
    return sum(np.bincount(_necklace_rows(*chunk)[0], minlength=T) for chunk in _word_pieces(T))


def _class_columns(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """int64 columns (|t|, m, l, k) of the canonical cycle representatives
    of every trace 3 <= |t| < T, sorted by |t| and then by form: the
    listing's rows.

    Each call walks the word tree once, sorts the keys of its necklaces
    (`_necklace_keys`) and decodes them; nothing is kept.  T < 4 and
    T > _MAX_LISTING_T are refused before the walk.
    """
    T = _checked_bound(T, _MAX_LISTING_T)
    keys = np.concatenate([_necklace_keys(*chunk, T) for chunk in _word_pieces(T)])
    keys.sort()
    t, rest = np.divmod(keys, T * T)
    m, l = np.divmod(rest, T)
    m -= T
    # k = (l^2 - t^2 + 4) / 4m, the form having discriminant t^2 - 4
    k = ((l - t) * (l + t) + 4) // (4 * m)
    return t, m, l, k


def _checked_trace(t) -> int:
    t = abs(index(t))
    if t <= 2:
        raise ValueError("requires |t| > 2")
    if t >= _MAX_T:
        raise ValueError("|t| must be below 2^21")
    return t


def classes_with_trace(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted int64 columns (m, l, k) of the canonical forms of the
    conjugacy classes of hyperbolic SL(2,Z) matrices of trace t, one per
    rho-cycle of discriminant t^2 - 4, imprimitive forms included: the
    listing's rows of trace |t| (`_class_columns`).  t and -t have the same
    forms; `_form_matrix` gives each its matrix of either sign.

    The m > 0 reduced forms are the lattice points a <= m < d = |t| - a
    with l = d - a and k = -(ad - 1)/m, found by testing m | a(|t| - a) - 1
    for each m over all a <= min(m, |t| - 1 - m).  Reducedness does not
    depend on the sign of m, so their negatives are the m < 0 reduced forms,
    and each cycle's canonical form is their common cycle minimum
    (`_cycle_minima`).  |t| <= 2 and |t| >= 2^21 are refused.
    """
    t = _checked_trace(t)
    a = np.arange(1, t // 2 + 1, dtype=np.int64)
    v = a * (t - a) - 1
    hits = [np.flatnonzero(v[: min(m, t - 1 - m)] % m == 0) for m in range(1, t - 1)]
    m = np.repeat(np.arange(1, t - 1, dtype=np.int64), [len(h) for h in hits])
    i = np.concatenate(hits)
    m, l = np.divmod(np.unique(_cycle_minima(t, -m, t - 2 - 2 * i, v[i] // m)), t)
    return m, l, (l * l - t * t + 4) // (4 * m)


def _form_matrix(t: int, m: int, l: int, k: int) -> Sl2Matrix:
    """The trace-t matrix [[(t - l)/2, k], [-m, (t + l)/2]] of a form (m, l, k)
    of discriminant t^2 - 4, either sign of t: a representative of the
    form's class, its own form (k, -l, m) being the form rotated by
    (x, y) -> (y, -x), hence in the same reduction cycle."""
    return Sl2Matrix((t - l) // 2, k, -m, (t + l) // 2)


def class_count_with_trace(t: int) -> int:
    """Number of hyperbolic classes of trace t (= rho-cycles of disc t^2-4)."""
    return len(classes_with_trace(t)[0])
