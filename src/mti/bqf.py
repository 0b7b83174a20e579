"""Hyperbolic SL(2,Z) conjugacy classes by trace, via indefinite binary
quadratic forms.

A hyperbolic matrix A maps to the form Q_A = (b, a-d, -c) of discriminant
Tr(A)^2 - 4; conjugacy classes of trace t correspond to proper equivalence
classes of forms of that discriminant, realized here as rho-cycles of
Gauss-reduced forms.  Imprimitive forms are enumerated directly by a
divisor-pair scan, so proper-power classes are included.

All square-root comparisons are exact (squares are compared, never floats).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

import numpy as np

from .sl2 import Sl2Matrix

_SIEVE_CAP = 8_000_000
# a divisor window narrower than this is scanned directly: below about 40
# candidates the scan is cheaper than factoring over the sieve
_SCAN_WIDTH = 40
# smallest prime factors, as array('i') so that entries index as Python ints
_spf = array("i", [0, 1])
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
    # unique residue of -l mod 2|k| in (sqrt(D) - 2|k|, sqrt(D))
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


def _grow_sieve(limit: int) -> None:
    # smallest prime factors up to limit, or up to the cap
    global _spf
    limit = min(limit, _SIEVE_CAP - 1)
    if len(_spf) > limit:
        return
    n = min(max(limit + 1, 2 * len(_spf)), _SIEVE_CAP)
    r = isqrt(n - 1)
    prime = np.ones(r + 1, bool)
    prime[:2] = False
    for i in range(2, isqrt(r) + 1):
        if prime[i]:
            prime[i * i :: i] = False
    spf = np.arange(n, dtype=np.intc)
    # largest prime first, so that the smallest one marks each entry last
    for q in np.flatnonzero(prime)[::-1].tolist():
        spf[q * q :: q] = q
    _spf = array("i")
    _spf.frombytes(memoryview(spf).cast("B"))


def _divisors_upto(n: int, hi: int) -> list[int]:
    # positive divisors of n up to hi, from the smallest-prime-factor sieve
    # (the caller grows it past n)
    spf = _spf
    divs = [1]
    while n > 1:
        p = spf[n]
        step = divs
        while n % p == 0:
            n //= p
            step = [q for d in step if (q := d * p) <= hi]
            divs = divs + step
    return divs


def _positive_reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Every reduced form (m, l, k) of discriminant D with m > 0.

    The m < 0 reduced forms are exactly the (-m, l, -k), so these are half
    of them.  For each l, m runs over the divisors of (D - l^2)/4 inside the
    window (sqrt(D) - l)/2 < m < (sqrt(D) + l)/2, whose width is about l:
    narrow windows, and every window past the sieve cap, are scanned
    directly; wide ones are read off the divisors.
    """
    isq = _check_disc(D)
    l0 = 2 - (D % 2)
    _grow_sieve((D - l0 * l0) // 4)
    out = []
    for l in range(l0, isq + 1, 2):
        n = (D - l * l) // 4  # = -m*k
        # 2m + l > sqrt(D) and 2m - l < sqrt(D), exact since D is no square
        lo = (isq - l) // 2 + 1
        hi = (isq + l) // 2
        if hi - lo < _SCAN_WIDTH or n >= _SIEVE_CAP:
            out += [(m, l, -(n // m)) for m in range(lo, hi + 1) if n % m == 0]
        else:
            out += [(m, l, -(n // m)) for m in _divisors_upto(n, hi) if m >= lo]
    return out


def reduced_forms_of_disc(D: int) -> list[QuadForm]:
    """Every reduced form of positive non-square discriminant D."""
    out = []
    for m, l, k in _positive_reduced_forms(D):
        out.append(QuadForm(m, l, k))
        out.append(QuadForm(-m, l, -k))
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


def _class_columns(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """int64 columns (|t|, m, l, k) of the canonical cycle representatives
    of every trace 3 <= |t| < T, sorted by |t| and then by form.

    The columns come from one store per process: a larger T appends only the
    traces it lacks, so no |t| is enumerated twice, and a smaller T reads a
    prefix of what is stored.
    """
    global _class_store
    top, *cols = _class_store
    if T > top:
        counts = array("q")
        forms = [array("q") for _ in range(3)]
        for t in range(top, T):
            reps = _canonical_cycle_reps(t)
            counts.append(len(reps))
            for col, values in zip(forms, zip(*reps)):
                col.extend(values)
        t_new = np.repeat(np.arange(top, T, dtype=np.int64), np.frombuffer(counts, np.int64))
        new = [t_new, *(np.frombuffer(col, np.int64) for col in forms)]
        cols = [np.concatenate(pair) for pair in zip(cols, new)] if len(cols[0]) else new
        for col in cols:
            col.flags.writeable = False
        _class_store = (T, *cols)
    n = int(np.searchsorted(cols[0], T))
    return tuple(c[:n] for c in cols)


def _class_reps(reps: list[tuple[int, int, int]], t: int) -> list[ClassRep]:
    out = []
    for rep in reps:
        form = QuadForm(*rep)
        out.append(
            ClassRep(
                matrix=bqf_to_matrix(form, t),
                trace=t,
                form=form,
                primitive_content=form.content,
            )
        )
    return out


def classes_with_trace(t: int) -> list[ClassRep]:
    """All conjugacy classes of hyperbolic SL(2,Z) matrices of trace t.

    One ClassRep per reduction cycle of discriminant t^2 - 4, imprimitive
    forms included; deterministic order (sorted canonical forms).
    """
    if abs(t) <= 2:
        raise ValueError("requires |t| > 2")
    return _class_reps(_canonical_cycle_reps(abs(t)), t)


def class_count_with_trace(t: int) -> int:
    """Number of hyperbolic classes of trace t (= rho-cycles of disc t^2-4)."""
    if abs(t) <= 2:
        raise ValueError("requires |t| > 2")
    return len(_canonical_cycle_reps(abs(t)))


def hyperbolic_classes_below(T: int) -> Iterator[ClassRep]:
    """Stream every hyperbolic class with |trace| < T, in increasing |trace|.

    For each 3 <= t <= T-1 yields the trace-t classes then the trace-(-t)
    classes; the two share one form enumeration per discriminant.
    """
    if T < 4:
        raise ValueError("T must be at least 4")
    for t in range(3, T):
        reps = _canonical_cycle_reps(t)
        yield from _class_reps(reps, t)
        yield from _class_reps(reps, -t)
