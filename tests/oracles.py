"""Slow reference implementations that the tests compare the library with,
and the seeded matrix draws the tests share.

Nothing in `mti` calls these.  Binary quadratic forms as objects, Gauss
reduction with equivalence witnesses and the rho-cycle of a reduced form
(Buchmann-Vollmer, Binary Quadratic Forms, 2007) check the class listing;
the gcds of minors check the Smith normal form; Gaussian elimination mod p
checks the genus-g Z read off it; exhaustive fixed-point counts check
Z(A, p); M^T J M, by two matrix products, checks the symplectic test on
column pairs; the level-k rep trace with one matrix power per S
letter checks `csw.rep_trace`; the Gauss sum of a binary form by trial
division checks `csw._form_gauss_sum`.  The module is not a test file, so pytest
does not collect it; the test files import it from their own directory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from math import gcd, isqrt

import numpy as np

from mti import bqf
from mti.csw import su2_modular_data, word_in_generators
from mti.intmat import IntMatrix
from mti.sl2 import SL2_S, SL2_T, Sl2Matrix


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


def random_sl2(rng, length):
    """A product of 1 to length factors drawn from T, T^-1 and S."""
    m = Sl2Matrix(1, 0, 0, 1)
    for _ in range(rng.randint(1, length)):
        m = m * rng.choice([SL2_T, SL2_T.inverse(), SL2_S])
    return m


def all_sl2_with_trace(t, bound):
    """Every matrix of trace t with entries in [-bound, bound] and bc != 0."""
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        n = a * d - 1  # = b*c
        if n == 0:
            continue  # bc = 0 with ad = 1 forces trace +-2, excluded here
        for b in range(-bound, bound + 1):
            if b != 0 and n % b == 0 and abs(n // b) <= bound:
                yield Sl2Matrix(a, b, n // b, d)


def sl2_fp_elements(p):
    """Every element (a, b, c, d) of SL(2, F_p), as residues."""
    for a, b, c in itertools.product(range(p), repeat=3):
        if a != 0:
            yield a, b, c, (1 + b * c) * pow(a, p - 2, p) % p
        elif b * c % p == p - 1:
            for d in range(p):
                yield a, b, c, d


def symplectic_transvection(v, lam, g):
    """I + lam * v * (v^T J) for the block form J; exactly symplectic."""
    n = 2 * g
    jv = [0] * n  # J v with J = [[0, I], [-I, 0]]
    for i in range(g):
        jv[i] = v[g + i]
        jv[g + i] = -v[i]
    rows = [[(1 if i == j else 0) + lam * v[i] * jv[j] for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(rows)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a * b, each entry the sum over a row of a and a column of b."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.to_rows()))
    return IntMatrix.from_rows([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.to_rows()])


def is_symplectic_by_j(M: IntMatrix, g: int) -> bool:
    """M^T * J * M == J for the block form J = [[0, I_g], [-I_g, 0]], by two
    full matrix products; checks `intmat.is_symplectic`."""
    n = 2 * g
    j = IntMatrix.from_rows([[(c == r + g) - (r == c + g) for c in range(n)] for r in range(n)])
    return matmul(matmul(IntMatrix.from_rows(zip(*M.to_rows())), j), M) == j


def random_symplectic(rng, g=2, steps=6):
    """A product of steps transvections of seeded vectors in {-1, 0, 1}^2g
    (none zero), each with lam = +-1: an element of Sp(2g, Z)."""
    n = 2 * g
    m = IntMatrix.identity(n)
    for _ in range(steps):
        v = [rng.randint(-1, 1) for _ in range(n)]
        if all(x == 0 for x in v):
            v[rng.randrange(n)] = 1
        m = matmul(m, symplectic_transvection(v, rng.choice([-1, 1]), g))
    return m


def sp4_fp_elements(p):
    """Every element of Sp(4, F_p) as an (N, 4, 4) array of residues, N =
    p^4 (p^2 - 1)(p^4 - 1): the closure of the identity under the
    transvections of the nonzero 0/1 vectors, breadth first."""
    gens = [symplectic_transvection(v, 1, 2).to_rows() for v in itertools.product((0, 1), repeat=4) if any(v)]
    gens = np.array(gens, np.int64) % p
    weights = p ** np.arange(16, dtype=np.int64)
    frontier = np.eye(4, dtype=np.int64)[None]
    found, seen = [frontier], frontier.reshape(1, 16) @ weights
    while len(frontier):
        products = (frontier[:, None] @ gens[None]).reshape(-1, 4, 4) % p
        keys, first = np.unique(products.reshape(-1, 16) @ weights, return_index=True)
        new = ~np.isin(keys, seen)
        frontier, seen = products[first[new]], np.concatenate([seen, keys[new]])
        found.append(frontier)
    return np.concatenate(found)


def matrix_to_bqf(A: Sl2Matrix) -> QuadForm:
    """Form (b, a-d, -c) attached to a hyperbolic matrix."""
    if abs(A.trace) <= 2:
        raise ValueError("requires |trace| > 2")
    return QuadForm(A.b, A.a - A.d, -A.c)


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
    start = astuple(f)
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
    a, b, c = astuple(f)
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


def det(M: IntMatrix) -> int:
    """Determinant of a square matrix by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    m = [M.row(i) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor_det(M: IntMatrix, rows, cols) -> int:
    return det(IntMatrix.from_rows([[M[i, j] for j in cols] for i in rows]))


def snf_via_minor_gcds(M: IntMatrix, max_dim: int = 6) -> list[int]:
    """Diagonal SNF entries from gcds of i x i minor determinants.

    D(i) = gcd of all i x i minors, A(i) = D(i)/D(i-1) with D(0) := 1
    (the quotient must be defined for i = 1).  Cost is combinatorial in
    the number of minors, hence the dimension cap.
    """
    if max(M.rows, M.cols) > max_dim:
        raise ValueError(f"matrix exceeds {max_dim}x{max_dim} minor-gcd limit")
    n = min(M.rows, M.cols)
    out = []
    d_prev = 1
    for i in range(1, n + 1):
        g = 0
        for rsel in itertools.combinations(range(M.rows), i):
            for csel in itertools.combinations(range(M.cols), i):
                g = gcd(g, _minor_det(M, rsel, csel))
            if g == 1:
                break
        if g == 0:
            out.extend([0] * (n - i + 1))
            break
        out.append(g // d_prev)
        d_prev = g
    return out


def rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank of M over F_p, p prime, by Gaussian elimination on reduced
    entries: the library reads Z = p^(2g - rank) off the Smith normal form
    instead."""
    rows = [[x % p for x in M.row(i)] for i in range(M.rows)]
    rank = 0
    col = 0
    while rank < M.rows and col < M.cols:
        piv = next((i for i in range(rank, M.rows) if rows[i][col] % p != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(M.rows):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def fixed_point_count_bruteforce(abar: tuple[int, int, int, int], p: int) -> int:
    """Exhaustively count covectors phi with phi o Abar = phi over F_p.

    abar is (a, b, c, d) of residues; maps phi(x, y) = u*x + v*y are
    enumerated over all p^2 pairs (u, v).
    """
    a, b, c, d = (x % p for x in abar)
    if (a * d - b * c) % p != 1 % p:
        raise ValueError("determinant is not 1 mod p")
    count = 0
    for u in range(p):
        for v in range(p):
            if (u * a + v * c) % p == u and (u * b + v * d) % p == v:
                count += 1
    return count


def fixed_point_count_genus_g(fhat_mod_p, g: int, p: int, bound: int = 10**6) -> int:
    """Count covectors on (Z/p)^{2g} fixed by precomposition with the matrix.

    Realizes the character of the induced permutation action without
    building the p^{2g}-dimensional representation; exhaustive, so p^{2g}
    is capped.
    """
    n = 2 * g
    if p**n > bound:
        raise ValueError(f"p^(2g) = {p**n} exceeds bound {bound}")
    rows = [[x % p for x in row] for row in fhat_mod_p]
    count = 0
    for phi in itertools.product(range(p), repeat=n):
        # condition: phi(M e_j) = phi(e_j) for all basis vectors
        if all(sum(phi[i] * rows[i][j] for i in range(n)) % p == phi[j] for j in range(n)):
            count += 1
    return count


def rep_trace_per_letter(A: Sl2Matrix, k: int) -> complex:
    """The level-k rep trace of A as `csw.rep_trace` took it before each
    power of S was computed once: np.linalg.matrix_power(S, e % 4) afresh
    for every S letter of the word."""
    data = su2_modular_data(k)
    r = k + 2
    idx = np.arange(1, k + 2)
    m = np.eye(k + 1, dtype=complex)
    for g, e in word_in_generators(A):
        if g == "T":
            m = m * np.exp(2j * np.pi * (e % (8 * r)) * (idx * idx / (4.0 * r) - 0.125))[None, :]
        else:
            m = m @ np.linalg.matrix_power(data.S, e % 4)
    return complex(np.trace(m))


def legendre_by_euler(a: int, p: int) -> int:
    """The Legendre symbol (a/p), p an odd prime, as a^((p-1)/2) mod p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def prime_powers(n: int) -> list[tuple[int, int]]:
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


def _gauss1_prime_power(a: int, p: int, f: int) -> complex:
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
    return g * legendre_by_euler(a, p) * (1 if p % 4 == 1 else 1j) * math.sqrt(p)


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
    return scale * _gauss1_prime_power(u, p, e) * _gauss1_prime_power(a, p, e)


def form_gauss_sum_by_factoring(u: int, v: int, w: int, n: int) -> complex:
    """S(q, n) = sum over (x, y) in (Z/n)^2 of e((u x^2 + v xy + w y^2) / n)
    as `csw._form_gauss_sum` took it before its gcd splits: n factored by
    trial division, the sum split over the prime powers of n by the CRT,
    and each prime power's sum diagonalized on its own, Legendre symbols by
    Euler's criterion."""
    total = 1 + 0j
    for p, e in prime_powers(n):
        m = n // p**e
        total *= _prime_power_sum(m * u, m * v, m * w, p, e)
    return total


def store_columns(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The census's rows at bound T, which `bqf._class_rows` keeps as the
    walk's chunks, joined into three columns (|t|, m, k)."""
    return tuple(np.concatenate(cols) for cols in zip(*bqf._class_rows(T)))
