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
form in plain Python, with no array of length n and no factoring.  The sum
S(q, N) of the form q = (u, v, w) = (k+2) sign(n) (b, a-d, -c) over N = |n|
loses its content g = gcd(u, v, w, N), as S(gq, gN) = g^2 S(q, N).  Repeated
gcds split N into coprime parts, S(q, N) = prod S((N/m) q, m) by the CRT: its
power of 2, and the odd parts where u is a unit, where only w is, and where
neither is, so that v and u + v + w are after (x, y) -> (x, x + y).  There
the form is diagonalized by completing the square or, on the power of 2 with
v odd, recognized as the 2-adic block xy or x^2 + xy + y^2.  The sum is then
a product of one-variable Gauss sums G(a, m) = d G(a/d, m/d), d = gcd(a, m),
and (a/m) eps_m sqrt(m) for odd m and a prime to m, eps_m = 1 or i as m = 1
or 3 mod 4 (Jacobi symbol; Berndt, Evans and Williams, Gauss and Jacobi Sums,
1998, ch. 1; Cassels, Rational Quadratic Forms, 1978, ch. 8 at 2).  Exact
integers carry coefficients of any size; the floats bound |Tr| < MAX_TRACE.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .intmat import _checked_integer
from .sl2 import SL2_S, Sl2Matrix, jacobi

# every float of the closed form stays finite below about 2^511: the content
# squared and the normalization n sqrt(n) of each box term
MAX_TRACE = 2**500
# the largest level of the modular data: (k + 1)^2 complex entries per matrix,
# and a product of them per S in a word; at k = 1000 `rep_trace` took up to
# 2.0 s and 94 MB on a 2-core x86-64 machine, at k = 2000 13.6 s and 279 MB
MAX_LEVEL = 1000


def congruence_level(k: int) -> int:
    """The level through which the rank-(k+1) representation factors."""
    return 8 * (k + 2)


def _checked_level(k) -> int:
    k = _checked_integer(k, "level must be a positive integer")
    if k < 1:
        raise ValueError("level must be a positive integer")
    return k


def _coprime_part(n: int, a: int) -> int:
    """The largest divisor of n >= 1 prime to a, by repeated gcds."""
    g = math.gcd(n, a)
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n


def _gauss1(a: int, m: int) -> complex:
    """G(a, m) = sum over x mod m of e(a x^2 / m), m odd or a power of 2."""
    a %= m
    d = math.gcd(a, m)
    a, m = a // d, m // d  # G(a, m) = d G(a/d, m/d), a/d now prime to m/d
    if m % 2:
        return d * jacobi(a, m) * (1 if m % 4 == 1 else 1j) * math.sqrt(m)
    if m == 2:
        return 0
    return d * (1 + (1j if a % 4 == 1 else -1j)) * jacobi(m, a) * math.sqrt(m)  # (m/a) = (2/a)^f, m = 2^f


def _part_sum(u: int, v: int, w: int, m: int) -> complex:
    """S(q, m) for q = u x^2 + v xy + w y^2 with content prime to m, where
    m is a power of 2, or m is odd and u a unit mod m."""
    if m % 2 == 0:
        if v % 2:
            # Z_2-equivalent to xy (uw even) or to x^2 + xy + y^2 (uw odd)
            return -m if u * w % 2 and m.bit_length() % 2 == 0 else m
        if u % 2 == 0:
            u, w = w, u
    # complete the square: q = u (x + (h/u) y)^2 + (w - h^2/u) y^2 mod m
    h = (v if v % 2 == 0 else v + m) // 2  # 2h = v mod m
    a = (u * w - h * h) * pow(u, -1, m)
    return _gauss1(u, m) * _gauss1(a, m)


def _form_gauss_sum(u: int, v: int, w: int, n: int) -> complex:
    """S(q, n) = sum over (x, y) in (Z/n)^2 of e((u x^2 + v xy + w y^2) / n)."""
    g = math.gcd(u, v, w, n)
    u, v, w, n = u // g, v // g, w // g, n // g  # S(gq, gn) = g^2 S(q, n)
    two = n & -n
    odd_u = _coprime_part(n // two, u)  # u a unit
    odd_w = _coprime_part(n // two // odd_u, w)  # only w a unit
    odd_v = n // two // odd_u // odd_w  # v and u + v + w units: take q(x, x + y)
    total = g * g + 0j
    for m, a, b, c in ((two, u, v, w), (odd_u, u, v, w), (odd_w, w, v, u), (odd_v, u + v + w, v + 2 * w, w)):
        if m > 1:
            r = n // m
            total *= _part_sum(r * a % m, r * b % m, r * c % m, m)
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
        raise ValueError("requires |trace| < 2^500")
    k = _checked_level(k)
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
    k = _checked_level(k)
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
    k = _checked_level(k)
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
