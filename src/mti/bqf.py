"""Hyperbolic SL(2,Z) conjugacy classes by trace, via indefinite binary
quadratic forms.

A hyperbolic matrix A maps to the form Q_A = (b, a-d, -c) of discriminant
Tr(A)^2 - 4; conjugacy classes of trace t correspond to proper equivalence
classes of forms of that discriminant, realized here as rho-cycles of
Gauss-reduced forms.  The m > 0 reduced forms of discriminant t^2 - 4 are
the lattice points 1 <= a <= m < d with a + d = t and m | ad - 1; the
imprimitive ones are among them, so proper-power classes are included.

All square-root comparisons are exact (squares are compared, never floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import index
from typing import Iterator

import numpy as np

from .sl2 import Sl2Matrix

# forms per block of store growth, and new nodes per piece of the lattice
# walk: bounds the working set that growing the store adds to its columns
_BLOCK_FORMS = 1 << 13
# the class store: the bound T and the int64 columns (|t|, m, l, k) of the
# canonical cycle representatives of every trace 3 <= |t| < T, sorted by |t|
# and then by form; only _class_columns changes it, and only to add traces
_class_store = (3, *(np.empty(0, np.int64) for _ in range(4)))


@dataclass(frozen=True)
class QuadForm:
    """Integer binary quadratic form m*x^2 + l*x*y + k*y^2."""

    m: int
    l: int
    k: int

    @property
    def discriminant(self) -> int:
        return self.l * self.l - 4 * self.m * self.k

    @property
    def content(self) -> int:
        return gcd(gcd(self.m, self.l), self.k)

    def __call__(self, x: int, y: int) -> int:
        return self.m * x * x + self.l * x * y + self.k * y * y

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m, self.l, self.k)


@dataclass(frozen=True)
class ClassRep:
    """One hyperbolic conjugacy class: matrix representative plus the
    canonical reduced form (lexicographically smallest in its cycle)."""

    matrix: Sl2Matrix
    trace: int
    form: QuadForm
    primitive_content: int


def matrix_to_bqf(A: Sl2Matrix) -> QuadForm:
    """Form (b, a-d, -c) attached to a hyperbolic matrix."""
    if abs(A.trace) <= 2:
        raise ValueError("requires |trace| > 2")
    return QuadForm(A.b, A.a - A.d, -A.c)


def bqf_to_matrix(f: QuadForm, t: int) -> Sl2Matrix:
    """Trace-t matrix [[(t-l)/2, k], [-m, (t+l)/2]] attached to a form.

    Requires disc(f) = t^2 - 4, which forces l = t mod 2.  The image is a
    class representative: its own form is f composed with the rotation
    (x,y) -> (y,-x), hence in the same reduction cycle.
    """
    if f.discriminant != t * t - 4:
        raise ValueError(f"discriminant {f.discriminant} != t^2-4 = {t * t - 4}")
    if (t - f.l) % 2 != 0:
        raise ValueError("parity violation: l must equal t mod 2")
    return Sl2Matrix((t - f.l) // 2, f.k, -f.m, (t + f.l) // 2)


def _check_disc(D: int) -> int:
    if D <= 0:
        raise ValueError("discriminant must be positive")
    r = isqrt(D)
    if r * r == D:
        raise ValueError("discriminant must not be a perfect square")
    return r


def is_reduced(f: QuadForm) -> bool:
    """Gauss-reduced: 0 < l < sqrt(D) and sqrt(D) - l < 2|m| < sqrt(D) + l."""
    D = f.discriminant
    _check_disc(D)
    l, x = f.l, 2 * abs(f.m)
    if l <= 0 or l * l >= D:
        return False
    if D >= (x + l) * (x + l):  # sqrt(D) >= 2|m| + l
        return False
    return x <= l or (x - l) * (x - l) < D  # 2|m| - l < sqrt(D)


def _rho(m: int, l: int, k: int, D: int, isq: int) -> tuple[int, int, int]:
    # neighbor of a reduced form: leading coefficient k, companion l' the
    # unique residue of -l mod 2|k| in (sqrt(D) - 2|k|, sqrt(D)); also
    # elementwise on int64 arrays
    two_k = 2 * abs(k)
    l2 = (-l) % two_k
    l2 += ((isq - l2) // two_k) * two_k
    return (k, l2, (l2 * l2 - D) // (4 * k))


def reduction_cycle(f: QuadForm) -> list[QuadForm]:
    """The rho-orbit of a reduced form: the full cycle of its class."""
    if not is_reduced(f):
        raise ValueError(f"{f} is not reduced")
    D = f.discriminant
    isq = isqrt(D)
    start = f.as_tuple()
    cycle = [start]
    cur = _rho(*start, D, isq)
    while cur != start:
        cycle.append(cur)
        cur = _rho(*cur, D, isq)
    return [QuadForm(*c) for c in cycle]


def _normalize(a: int, b: int, c: int, D: int, isq: int) -> tuple[int, int, int, int]:
    # translate b into the normalization window; returns (a, b', c', shift)
    two_a = 2 * abs(a)
    if abs(a) > isq:
        r = b % two_a
        b2 = r - two_a if r > abs(a) else r
    else:
        b2 = isq - ((isq - b) % two_a)
    shift = (b2 - b) // (2 * a)
    return a, b2, (b2 * b2 - D) // (4 * a), shift


def reduce_with_transform(f: QuadForm) -> tuple[QuadForm, Sl2Matrix]:
    """Reduce an indefinite form; also return g with f(g*(x,y)) = reduced."""
    D = f.discriminant
    isq = _check_disc(D)
    a, b, c = f.as_tuple()
    # transform accumulated as column substitution (x,y) -> g.(x,y)
    g = (1, 0, 0, 1)
    while True:
        a, b, c, shift = _normalize(a, b, c, D, isq)
        # right-multiply by [[1, shift], [0, 1]] acting on the variables
        g = (g[0], g[1] + g[0] * shift, g[2], g[3] + g[2] * shift)
        if 0 < b and b * b < D and D < (2 * abs(a) + b) ** 2 and (
            2 * abs(a) <= b or (2 * abs(a) - b) ** 2 < D
        ):
            break
        a, b, c = c, -b, a
        # right-multiply by [[0, -1], [1, 0]]
        g = (g[1], -g[0], g[3], -g[2])
    return QuadForm(a, b, c), Sl2Matrix(*g)


def reduce_indefinite(f: QuadForm) -> QuadForm:
    """A reduced form properly equivalent to f (Gauss reduction)."""
    return reduce_with_transform(f)[0]


def apply_transform(f: QuadForm, g: Sl2Matrix) -> QuadForm:
    """Variable substitution (x, y) -> (g.a*x + g.b*y, g.c*x + g.d*y)."""
    m = f(g.a, g.c)
    k = f(g.b, g.d)
    l = 2 * f.m * g.a * g.b + f.l * (g.a * g.d + g.b * g.c) + 2 * f.k * g.c * g.d
    return QuadForm(m, l, k)


def _lattice_keys(t0: int, t1: int) -> np.ndarray:
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
    depth-first in pieces of at most _BLOCK_FORMS new nodes (or one run),
    starting from the R-run of L.
    """
    a, n, d = (np.ones(1, np.int64) for _ in range(3))
    out, stack = [], [(a, 0 * a, n, d, False)]
    while stack:
        a, m, n, d, u = stack.pop()
        runs = (t1 - 1 - a - d) // (m - a + d - n if u else n)
        ends = np.cumsum(runs)
        i = max(1, int(np.searchsorted(ends, _BLOCK_FORMS, "right")))
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


def _trace_keys(t: int) -> np.ndarray:
    """The keys of `_lattice_keys(t, t + 1)`, found instead by testing
    m | a(t - a) - 1 for each m over all a <= min(m, t - 1 - m)."""
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


def _class_columns(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """int64 columns (|t|, m, l, k) of the canonical cycle representatives
    of every trace 3 <= |t| < T, sorted by |t| and then by form.

    The columns come from one store per process: a larger T appends only the
    traces it lacks, so no |t| is enumerated twice, and a smaller T reads a
    prefix of what is stored.  The new traces are listed as lattice points
    and reduced to cycles in blocks of whole traces, of about _BLOCK_FORMS
    forms each.
    """
    global _class_store
    T = index(T)
    top, *cols = _class_store
    if T > top:
        keys = _lattice_keys(top, T)
        blocks = []
        lo = 0
        while lo < len(keys):
            # the traces before the one at row lo + _BLOCK_FORMS, and at least one
            end = lo + _BLOCK_FORMS
            cut = max(keys[end] // (T * T) if end < len(keys) else T, keys[lo] // (T * T) + 1)
            hi = int(np.searchsorted(keys, cut * T * T))
            blocks.append(_cycle_minima(keys[lo:hi], T))
            lo = hi
        del keys
        cols = [np.concatenate(parts) for parts in zip(cols, *blocks)]
        for col in cols:
            col.flags.writeable = False
        _class_store = (T, *cols)
    n = int(np.searchsorted(cols[0], T))
    return tuple(c[:n] for c in cols)


def _class_reps(reps: list[tuple[int, int, int]], t: int) -> list[ClassRep]:
    forms = [QuadForm(*rep) for rep in reps]
    return [ClassRep(bqf_to_matrix(f, t), t, f, f.content) for f in forms]


def _trace_reps(abs_t: int) -> list[tuple[int, int, int]]:
    _, *cols = _cycle_minima(_trace_keys(abs_t), abs_t + 1)
    return list(zip(*(col.tolist() for col in cols)))


def classes_with_trace(t: int) -> list[ClassRep]:
    """All conjugacy classes of hyperbolic SL(2,Z) matrices of trace t.

    One ClassRep per reduction cycle of discriminant t^2 - 4, imprimitive
    forms included; deterministic order (sorted canonical forms).
    """
    if abs(t) <= 2:
        raise ValueError("requires |t| > 2")
    return _class_reps(_trace_reps(abs(t)), t)


def class_count_with_trace(t: int) -> int:
    """Number of hyperbolic classes of trace t (= rho-cycles of disc t^2-4)."""
    if abs(t) <= 2:
        raise ValueError("requires |t| > 2")
    return len(_trace_reps(abs(t)))


def hyperbolic_classes_below(T: int) -> Iterator[ClassRep]:
    """Stream every hyperbolic class with |trace| < T, in increasing |trace|.

    For each 3 <= t <= T-1 yields the trace-t classes then the trace-(-t)
    classes, read from the class store.
    """
    if T < 4:
        raise ValueError("T must be at least 4")
    t, *cols = _class_columns(T)
    ends = np.searchsorted(t, np.arange(3, T + 1)).tolist()
    for s, lo, hi in zip(range(3, T), ends, ends[1:]):
        reps = list(zip(*(col[lo:hi].tolist() for col in cols)))
        yield from _class_reps(reps, s)
        yield from _class_reps(reps, -s)
