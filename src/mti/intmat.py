"""Exact integer linear algebra: Smith normal form with transformation
certificates, the symplectic test, and mapping-torus homology.  One
elimination (`_diagonalize`) does the Smith form: `smith_normal_form` runs
it with identity blocks beside and below the matrix, which end as the
certificates, and `mapping_torus_homology` on the bare rows, building none.
A group is read off a Smith diagonal by one rule (`_snf_group`), here and
for the closed-form genus-one diagonal of `sl2`.

All arithmetic is over Python ints (arbitrary precision); nothing here is
performance-critical, so clarity and exactness win over speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index


def _checked_integer(x, message: str = "entries must be integers") -> int:
    """x as an int: numpy integers are taken, a bool or anything that
    `operator.index` refuses (a float, a string) is a ValueError."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise ValueError(f"{message}, got {x!r}")


class IntMatrix:
    """Rectangular integer matrix, row-major, exact arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1:
            raise ValueError("empty matrix")
        entries = [x if type(x) is int else _checked_integer(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, [x - y for x, y in zip(self.entries, other.entries)])


@dataclass
class SnfResult:
    """Diagonalization certificate: left * M * right == diag(diag)."""

    diag: list[int]
    left: IntMatrix
    right: IntMatrix


@dataclass
class AbelianGroup:
    """Z^free_rank plus cyclic factors in a divisibility chain."""

    free_rank: int
    torsion: list[int] = field(default_factory=list)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _diagonalize(a: list[list[int]], nr: int, nc: int) -> list[int]:
    """Bring the nr x nc matrix in the first nr rows and nc columns of the
    rows a to Smith normal form in place, and return its diagonal.

    Alternating row/column Euclidean elimination with minimum-absolute-value
    pivoting, then a divisibility fixup pass; the diagonal is positive
    entries forming a divisibility chain followed by zeros.  A row
    operation acts on a whole row and a column operation on a whole
    column, so rows and columns beyond the matrix record the operations.
    """

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, f):
        # row_i += f * row_j, in place: a new list per update was slower
        ai, aj = a[i], a[j]
        for t in range(len(ai)):
            ai[t] += f * aj[t]

    def add_col(i, j, f):
        # col_i += f * col_j
        for r in a:
            r[i] += f * r[j]

    n = min(nr, nc)

    for t in range(n):
        while True:
            piv = None
            for i in range(t, nr):
                for j in range(t, nc):
                    v = a[i][j]
                    if v != 0 and (piv is None or abs(v) < abs(piv[0])):
                        piv = (v, i, j)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            for i in range(t + 1, nr):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, nc):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            # leftover remainders are smaller than the pivot; re-pivot
            if all(a[i][t] == 0 for i in range(t + 1, nr)) and all(
                a[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        if piv is None:
            break

    # divisibility fixup: replace a violating (d_i, d_{i+1}) by (gcd, lcm),
    # a strictly decreasing rearrangement, so this terminates
    while True:
        bad = next(
            (i for i in range(n - 1) if a[i][i] != 0 and a[i + 1][i + 1] % a[i][i] != 0),
            None,
        )
        if bad is None:
            break
        i = bad
        add_col(i, i + 1, 1)  # block becomes [[d_i, 0], [d_{i+1}, d_{i+1}]]
        while a[i + 1][i] != 0:
            add_row(i, i + 1, -(a[i][i] // a[i + 1][i]))
            swap_rows(i, i + 1)
        # pivot is now gcd(d_i, d_{i+1}); it divides the whole block
        add_col(i + 1, i, -(a[i][i + 1] // a[i][i]))

    for i in range(n):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    return [a[i][i] for i in range(n)]


def smith_normal_form(M: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular certificates P, Q: P*M*Q =
    diag(diag) and det(P), det(Q) = +-1.

    `_diagonalize` runs on the rows of [[M, Id], [Id, 0]] and leaves
    [[diag, P], [Q, 0]]; the zero block is left out, as no operation
    reads it.
    """
    nr, nc = M.rows, M.cols
    a = [r + e for r, e in zip(M.to_rows(), IntMatrix.identity(nr).to_rows())]
    a += IntMatrix.identity(nc).to_rows()
    diag = _diagonalize(a, nr, nc)
    left = IntMatrix(nr, nr, [x for r in a[:nr] for x in r[nc:]])
    right = IntMatrix(nc, nc, [x for r in a[nr:] for x in r])
    return SnfResult(diag, left, right)


def _snf_group(diag, free_rank: int) -> AbelianGroup:
    """Z^free_rank plus the cokernel of a Smith normal form diag: its zeros
    are free, its entries above 1 torsion."""
    return AbelianGroup(free_rank=free_rank + diag.count(0), torsion=[d for d in diag if d > 1])


def is_symplectic(M: IntMatrix, g: int) -> bool:
    """M^T * J * M == J for the block form J = [[0, I_g], [-I_g, 0]], tested
    as omega(M e_i, M e_j) == omega(e_i, e_j) on pairs of columns, where
    omega(x, y) = sum_k<g (x_k * y_{g+k} - x_{g+k} * y_k).  M^T * J * M - J
    is antisymmetric, so the pairs i < j decide it; omega(e_i, e_j) is 1 at
    j = i + g and 0 at every other i < j."""
    if g < 1 or M.rows != 2 * g or M.cols != 2 * g:
        raise ValueError(f"expected a {2 * g}x{2 * g} matrix")
    n = 2 * g
    cols = [M.entries[j::n] for j in range(n)]
    return all(
        sum(x[k] * y[g + k] - x[g + k] * y[k] for k in range(g)) == (j == i + g)
        for i, x in enumerate(cols)
        for j, y in enumerate(cols[i + 1 :], i + 1)
    )


def mapping_torus_homology(fhat: IntMatrix, check_symplectic: bool = True) -> AbelianGroup:
    """H1 of the mapping torus of a surface map acting as fhat on H1(S):
    Z + coker(fhat - Id), read off the Smith diagonal of fhat - Id, which
    `_diagonalize` takes on the bare rows, building no certificates.

    check_symplectic=False admits any 2g x 2g matrix, in Sp(2g,Z) or not;
    the cokernel formula is applied as-is.
    """
    n = fhat.rows
    if n != fhat.cols or n % 2 != 0:
        raise ValueError("expected a 2g x 2g matrix")
    if check_symplectic and not is_symplectic(fhat, n // 2):
        raise ValueError("matrix is not symplectic")
    return _snf_group(_diagonalize((fhat - IntMatrix.identity(n)).to_rows(), n, n), free_rank=1)


# psi_12 = 399165290221 * 798330580441, the smallest strong pseudoprime to
# all twelve bases 2..37 (Sorenson-Webster, Math. Comp. 2017)
_PSI_12 = 318665857834031151167461


def _checked_prime(p) -> int:
    """p as an int (`_checked_integer`), refused with ValueError unless
    prime.  The integer check comes before `is_prime`, whose cache would
    answer 3.0 with the entry of 3."""
    p = _checked_integer(p, "p must be an integer")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2..37, exact below psi_12;
    larger n raise ValueError.  Memoized, since the per-class functions of
    `sl2` test their prime on every call (through `_checked_prime`)."""
    if n < 2:
        return False
    if n >= _PSI_12:
        raise ValueError(f"cannot decide whether {n} is prime: the test is exact below {_PSI_12}")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
