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

Each box term is evaluated in O(n log n).  The coefficients (k+2) (b, a-d, c)
of Q_A are reduced mod |n| exactly as Python integers, so the int64 residues
built from them never overflow, and every phase is read from one table of
|n| roots of unity.  The y-sum depends on x only through (k+2)(a-d) x mod |n|,
so it is one length-|n| FFT of y -> e(-(k+2) c y^2 / n); the x-sum is then a
single dot product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# numpy loads np.fft on first use; load it with the module, so that the
# first Gauss sum of a process does not pay for the import
from numpy.fft import fft

from .intmat import IntMatrix, smith_normal_form
from .sl2 import SL2_S, Sl2Matrix


def congruence_level(k: int) -> int:
    """The level through which the rank-(k+1) representation factors."""
    return 8 * (k + 2)


def coset_reps(M: IntMatrix) -> list[tuple[int, int]]:
    """Representatives of Z^2 / M Z^2 for a nonsingular integer 2x2 M.

    From P M Q = diag(d1, d2): the vectors P^{-1} (i, j), 0 <= i < d1,
    0 <= j < d2, hit every coset exactly once; there are |det M| of them.
    """
    if M.rows != 2 or M.cols != 2:
        raise ValueError("expected a 2x2 matrix")
    if M.det() == 0:
        raise ValueError("matrix is singular")
    snf = smith_normal_form(M)
    d1, d2 = snf.diag
    p = snf.left
    pdet = p.det()  # +-1
    pinv = [[p[1, 1] * pdet, -p[0, 1] * pdet], [-p[1, 0] * pdet, p[0, 0] * pdet]]
    return [
        (pinv[0][0] * i + pinv[0][1] * j, pinv[1][0] * i + pinv[1][1] * j)
        for i in range(abs(d1))
        for j in range(abs(d2))
    ]


def _box_term(A: Sl2Matrix, k: int, n: int) -> complex:
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


def csw_invariant(A: Sl2Matrix, k: int) -> complex:
    """Level-k Gauss-sum invariant of the mapping torus of hyperbolic A."""
    t = A.trace
    if abs(t) <= 2:
        raise ValueError("requires |trace| > 2")
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

    @property
    def dimension(self) -> int:
        return self.k + 1


def su2_modular_data(k: int) -> ModularData:
    """Standard level-k data: S[a,b] = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2)),
    T[a] = exp(2 pi i ((a+1)^2 / (4(k+2)) - 1/8)).

    With this normalization (S T)^3 = S^2 = Id holds exactly, so words in S
    and T evaluate to an honest representation (trivial on -Id).
    """
    if k < 1:
        raise ValueError("level must be a positive integer")
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
    m = np.eye(k + 1, dtype=complex)
    for g, e in word:
        if g == "T":
            m = m * np.exp(2j * np.pi * e * (idx * idx / (4.0 * r) - 0.125))[None, :]
        else:
            m = m @ np.linalg.matrix_power(data.S, e % 4)
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
