"""SU(2) quantum invariants of genus-one mapping tori at level k: a Gauss-sum
evaluation and an independent modular-data trace oracle.

The Gauss sum attached to a hyperbolic A is

    Z(A, k) = sign(Tr)/2 * [ F(Tr - 2) - F(Tr + 2) ],
    F(n)    = |n|^(-3/2) * sum over (x, y) in (Z/|n|)^2 of
              e^{2 pi i (k+2) Q_A(x, y) / n},

with Q_A = (b, a-d, -c).  Summing over the full box (Z/n)^2 with the extra
1/|n| factor is forced: the phase is generally NOT constant on cosets of
(A -+ Id)Z^2, but n Z^2 is contained in (A -+ Id)Z^2, so the box sum is the
canonical well-defined average and collapses to one term per coset whenever
the phase does descend.  With the level shift k+2 and the relative minus
sign this matches |Trace(rep)| of the level-k modular data exactly; the
residual phase is an A-dependent eighth root of unity (framing correction),
reported by compare_with_rep_trace.

Each box term is a two-variable quadratic Gauss sum, evaluated in closed
form in plain Python, with no array of length n.  The sum S(q, N) of the
form q = (u, v, w) = (k+2) sign(n) (b, a-d, -c) over N = |n| is split over
the prime powers p^e of N by the CRT, S(q, N) = prod S((N/p^e) q, p^e), with
N factored by trial division; hence |Tr| < MAX_TRACE.  At each prime power
the common power of p is stripped from the coefficients, and the form is
diagonalized by completing the square (after making u a unit) or, at p = 2
with v odd, recognized as the 2-adic block xy or x^2 + xy + y^2; the sum is
then a product of one-variable Gauss sums G(a, p^f) (Berndt, Evans and
Williams, Gauss and Jacobi Sums, 1998, ch. 1; Cassels, Rational Quadratic
Forms, 1978, ch. 8 for p = 2).  Coefficients of any size are reduced mod
p^e as exact integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .sl2 import SL2_S, Sl2Matrix, legendre

# below this bound, trial division of |Tr| +- 2 takes at most about 2^20 steps
MAX_TRACE = 2**40
# the largest level of the modular data: (k + 1)^2 complex entries per matrix,
# and a product of them per S in a word; at k = 1000 `rep_trace` took up to
# 2.0 s and 94 MB on a 2-core x86-64 machine, at k = 2000 13.6 s and 279 MB
MAX_LEVEL = 1000


def congruence_level(k: int) -> int:
    """The level through which the rank-(k+1) representation factors."""
    return 8 * (k + 2)


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _gauss1(a: int, p: int, f: int) -> complex:
    """G(a, p^f) = sum over x mod p^f of e(a x^2 / p^f), p prime."""
    a %= p**f
    j = 0
    while j < f and a % p == 0:
        a //= p
        j += 1
    if j == f:
        return p**f
    f -= j  # G(p^j a, p^(j+f)) = p^j G(a, p^f), a now a unit
    if p == 2:
        if f == 1:
            return 0
        jacobi2 = 1 if a % 8 in (1, 7) else -1
        return p**j * (1 + (1j if a % 4 == 1 else -1j)) * jacobi2**f * 2 ** (f / 2)
    g = p ** (j + f // 2)
    if f % 2 == 0:
        return g
    return g * legendre(a, p) * (1 if p % 4 == 1 else 1j) * math.sqrt(p)


def _prime_power_sum(u: int, v: int, w: int, p: int, e: int) -> complex:
    """S(q, p^e) for q = u x^2 + v xy + w y^2."""
    pe = p**e
    u, v, w = u % pe, v % pe, w % pe
    j = 0
    while j < e and u % p == 0 and v % p == 0 and w % p == 0:
        u, v, w = u // p, v // p, w // p
        j += 1
    if j == e:
        return p ** (2 * e)
    scale = p ** (2 * j)  # S(p^j q, p^(j+f)) = p^(2j) S(q, p^f)
    e -= j
    pe = p**e
    if p == 2 and v % 2:
        # Z_2-equivalent to xy (uw even) or to x^2 + xy + y^2 (uw odd)
        return scale * (-1) ** (e * (u * w % 2)) * pe
    if u % p == 0:
        if w % p:
            u, w = w, u
        else:  # odd p, only v a unit: q(x, x + y) has x^2-coefficient u + v + w
            u, v = u + v + w, v + 2 * w
    # complete the square: q = u (x + (v/2u) y)^2 + (w - v^2/4u) y^2 mod p^e
    if p == 2:
        h = v // 2
        a = (u * w - h * h) * pow(u, -1, pe)
    else:
        a = (4 * u * w - v * v) * pow(4 * u, -1, pe)
    return scale * _gauss1(u, p, e) * _gauss1(a, p, e)


def _form_gauss_sum(u: int, v: int, w: int, n: int) -> complex:
    """S(q, n) = sum over (x, y) in (Z/n)^2 of e((u x^2 + v xy + w y^2) / n)."""
    total = 1 + 0j
    for p, e in _prime_powers(n):
        m = n // p**e
        total *= _prime_power_sum(m * u, m * v, m * w, p, e)
    return total


def _box_term(A: Sl2Matrix, k: int, n: int) -> complex:
    nn = abs(n)
    shift = k + 2 if n > 0 else -(k + 2)
    s = _form_gauss_sum(shift * A.b, shift * (A.a - A.d), -shift * A.c, nn)
    return s / (nn * math.sqrt(nn))


def csw_invariant(A: Sl2Matrix, k: int) -> complex:
    """Level-k Gauss-sum invariant of the mapping torus of hyperbolic A."""
    t = A.trace
    if abs(t) <= 2:
        raise ValueError("requires |trace| > 2")
    if abs(t) >= MAX_TRACE:
        raise ValueError("requires |trace| < 2^40")
    if k < 1:
        raise ValueError("level must be a positive integer")
    sign = 1 if t > 0 else -1
    return sign / 2 * (_box_term(A, k, t - 2) - _box_term(A, k, t + 2))


@dataclass
class ModularData:
    """Level-k S and T matrices, dimension k+1."""

    k: int
    S: np.ndarray
    T: np.ndarray  # diagonal, stored as a 1-d array of unit complexes


def su2_modular_data(k: int) -> ModularData:
    """Standard level-k data: S[a,b] = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2)),
    T[a] = exp(2 pi i ((a+1)^2 / (4(k+2)) - 1/8)).

    With this normalization (S T)^3 = S^2 = Id holds exactly, so words in S
    and T evaluate to an honest representation (trivial on -Id).  Levels
    above MAX_LEVEL are refused.
    """
    if k < 1:
        raise ValueError("level must be a positive integer")
    if k > MAX_LEVEL:
        raise ValueError(f"level must be at most {MAX_LEVEL} for the modular data")
    r = k + 2
    idx = np.arange(1, k + 2)
    s = np.sqrt(2.0 / r) * np.sin(np.pi * np.outer(idx, idx) / r)
    t = np.exp(2j * np.pi * (idx * idx / (4.0 * r) - 0.125))
    return ModularData(k=k, S=s.astype(complex), T=t)


def word_in_generators(A: Sl2Matrix) -> list[tuple[str, int]]:
    """A word [(gen, power), ...] in S = [[0,1],[-1,0]] and T = [[1,1],[0,1]]
    whose exact integer product is A.

    Euclidean reduction on the first column; length O(log max entry).  The
    sign ambiguity is resolved through S^2 = -Id.
    """
    a, b, c, d = A.a, A.b, A.c, A.d
    ops: list[tuple[str, int]] = []
    while c != 0:
        q = a // c
        a, b = a - q * c, b - q * d
        ops.append(("T", q))  # applied T^{-q} on the left
        a, b, c, d = c, d, -a, -b
        ops.append(("S", 1))  # applied S on the left
    # undo the applied operations in order, then the triangular remainder
    word = [("T", e) if g == "T" else ("S", 3) for g, e in ops]
    if a == 1:
        word.append(("T", b))
    else:  # a == -1: remainder is -T^{-b} = S^2 T^{-b}
        word.append(("S", 2))
        word.append(("T", -b))
    return [(g, e) for g, e in word if not (g == "T" and e == 0)]


def evaluate_word(word: list[tuple[str, int]]) -> Sl2Matrix:
    """Exact integer product of a word (round-trip check for decomposition)."""
    m = Sl2Matrix(1, 0, 0, 1)
    for g, e in word:
        if g == "T":
            m = m * Sl2Matrix(1, e, 0, 1)
        else:
            for _ in range(e % 4):
                m = m * SL2_S
    return m


def rep_trace(A: Sl2Matrix, k: int) -> complex:
    """Trace of the level-k representation at A, via a word in S and T."""
    word = word_in_generators(A)
    if evaluate_word(word) != A:
        raise AssertionError(f"word decomposition failed for {A}")
    data = su2_modular_data(k)
    r = k + 2
    idx = np.arange(1, k + 2)
    # S^4 = Id: each power of S that the word uses, once
    powers = {e: np.linalg.matrix_power(data.S, e) for e in {e % 4 for g, e in word if g == "S"}}
    m = np.eye(k + 1, dtype=complex)
    for g, e in word:
        if g == "T":
            # the phase has period 8(k + 2) in e: reduce before the floats
            m = m * np.exp(2j * np.pi * (e % (8 * r)) * (idx * idx / (4.0 * r) - 0.125))[None, :]
        else:
            m = m @ powers[e % 4]
    return complex(np.trace(m))


@dataclass
class CswComparison:
    gauss_sum: complex
    trace: complex
    modulus_difference: float
    phase_difference: float | None  # None when the values vanish


def compare_with_rep_trace(A: Sl2Matrix, k: int) -> CswComparison:
    """Gauss sum vs representation trace: modulus agreement plus the
    residual framing phase (in turns) when both are nonzero."""
    z = csw_invariant(A, k)
    tr = rep_trace(A, k)
    phase = None
    if abs(z) > 1e-9 and abs(tr) > 1e-9:
        phase = cmath.phase(tr / z) / (2 * math.pi)
    return CswComparison(z, tr, abs(abs(z) - abs(tr)), phase)
