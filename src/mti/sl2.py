"""Finite-gauge partition functions of genus-one (and genus-g) mapping tori
and mod-p conjugacy classification of SL(2,Z) elements.

The partition function with gauge group Z/p of the mapping torus M of A is
written Z(A, p) throughout.  For an abelian gauge group it is
|Hom(H1(M), Z/p)| / p (Dijkgraaf-Witten, Comm. Math. Phys. 129, 1990), and
both `dw_invariant_*` functions read it off H1 by one rule
(`_dw_of_homology`): H1 = Z + coker(A - Id) from the Smith normal form, in
closed form at genus one.  It equals the number of fixed covectors of the
induced action on Hom(H1(S), Z/p).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .intmat import AbelianGroup, IntMatrix, _checked_integer, _checked_prime, _snf_group, mapping_torus_homology


@dataclass(frozen=True)
class Sl2Matrix:
    """Element of SL(2,Z); the entries are taken as ints (`_checked_integer`)
    and the determinant is validated at construction."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in "abcd":
            value = getattr(self, name)
            if type(value) is not int:  # a bool is refused, a numpy integer stored as an int
                object.__setattr__(self, name, _checked_integer(value))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self}")

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return Sl2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Sl2Matrix":
        return Sl2Matrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Sl2Matrix":
        return Sl2Matrix(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, g: "Sl2Matrix") -> "Sl2Matrix":
        return g * self * g.inverse()

    def mod(self, p: int) -> tuple[int, int, int, int]:
        return (self.a % p, self.b % p, self.c % p, self.d % p)


SL2_T = Sl2Matrix(1, 1, 0, 1)
SL2_S = Sl2Matrix(0, 1, -1, 0)

#: the mod-p class kinds, for odd p and for p = 2
KINDS_ODD = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")
KINDS_P2 = ("C1", "C2", "C3")


@dataclass(frozen=True)
class ClassLabel:
    """Mod-p conjugacy class tag: C1..C8 for odd p, C1..C3 for p = 2.

    qr_flag records the quadratic-residue test that separates C3/C4 and
    C5/C6 (odd p); None where no such test applies.
    """

    kind: str
    p: int
    trace_mod_p: int
    qr_flag: bool | None = None


@dataclass(frozen=True)
class DwValue:
    """A power of p: the partition function value."""

    value: int
    exponent: int

    @classmethod
    def of(cls, p: int, exponent: int) -> "DwValue":
        return cls(p**exponent, exponent)


def dw_exponent_of_kind(kind: str, p: int) -> int:
    """The exponent e of Z(A, p) = p^e for A of the mod-p class kind: Z is
    p^2 on C1, p on the unipotent kinds (C3, C4 for odd p; C2 for p = 2) and
    1 elsewhere."""
    if kind == "C1":
        return 2
    return 1 if kind in (("C2",) if p == 2 else ("C3", "C4")) else 0


def class_table(p: int) -> dict[str, tuple[int, int]]:
    """The number of classes and the common class size of each kind of
    SL(2, F_p), in the order of KINDS_ODD or KINDS_P2. For odd p: the two
    central classes of size 1, the four classes C3 .. C6 of +-unipotent
    elements of size (p^2 - 1)/2, (p - 3)/2 split classes of size p(p + 1)
    and (p - 1)/2 nonsplit ones of size p(p - 1). For p = 2: the identity,
    3 elements of order two and 2 of order three."""
    if p == 2:
        return {"C1": (1, 1), "C2": (1, 3), "C3": (1, 2)}
    half = (p * p - 1) // 2
    return {
        "C1": (1, 1),
        "C2": (1, 1),
        **dict.fromkeys(("C3", "C4", "C5", "C6"), (1, half)),
        "C7": ((p - 3) // 2, p * (p + 1)),
        "C8": ((p - 1) // 2, p * (p - 1)),
    }


def sl2_snf_entries(A: Sl2Matrix) -> tuple[int, int]:
    """Diagonal SNF entries (A1, A2) of A - Id in closed form.

    A1 = gcd(a-1, b, c, d-1) and A1 * A2 = |det(A - Id)| = |Tr - 2|, so A2
    is 0 at Tr = 2, where A - Id has rank 1.  At A = Id both are 0.
    """
    a1 = gcd(A.a - 1, A.b, A.c, A.d - 1)
    return (a1, abs(A.trace - 2) // a1) if a1 else (0, 0)


def genus1_homology(A: Sl2Matrix) -> AbelianGroup:
    """H1 of the mapping torus of the torus map A: Z + coker(A - Id), read
    off `sl2_snf_entries`."""
    return _snf_group(sl2_snf_entries(A), free_rank=1)


def _dw_of_homology(h1: AbelianGroup, p: int) -> DwValue:
    """Z = |Hom(H1, Z/p)| / p for the H1 of a mapping torus: p^e with
    e = free_rank - 1 + the number of torsion orders divisible by p."""
    return DwValue.of(p, h1.free_rank - 1 + sum(1 for t in h1.torsion if t % p == 0))


def dw_invariant_sl2(A: Sl2Matrix, p: int) -> DwValue:
    """Z(A, p) off `genus1_homology`: p^2 if A = Id mod p, p if Tr = 2 mod p
    (A != Id mod p), else 1."""
    p = _checked_prime(p)
    return _dw_of_homology(genus1_homology(A), p)


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m > 0, by quadratic reciprocity: the
    Legendre symbol when m is prime, and a mod 2 at m = 2."""
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        if a % 4 == m % 4 == 3:
            sign = -sign
        a, m = m % a, a
    return sign if m == 1 else 0


def _unipotent_invariant(am, bm, cm, dm, p) -> int:
    """Square-class invariant of a unipotent residue matrix.

    N = A - Id has rank 1 and N^2 = 0; pick a basis vector e with Ne != 0
    and return det[Ne | e], well-defined up to squares.
    """
    if (am - 1) % p or cm:  # e = (1, 0), Ne = (am - 1, cm)
        return -cm % p
    return bm % p  # e = (0, 1), Ne = (bm, dm - 1)


def classify_mod_p(A: Sl2Matrix, p: int) -> ClassLabel:
    """Conjugacy class of A mod p in SL(2,F_p), for every prime p.

    Odd p: central classes C1/C2; unipotent C3/C4 split by the
    quadratic-residue class of the unipotent invariant; negative-unipotent
    C5/C6 split by anchoring to the class of the representative
    [[-1,1],[0,-1]]; split semisimple C7 and nonsplit C8 by the residue
    class of Tr^2 - 4.  p = 2: C1 = identity, C2 = order two, C3 = order
    three.
    """
    p = _checked_prime(p)
    return _classify_residues(*A.mod(p), p)


def geodesic_pullback_splitting(A: Sl2Matrix) -> int:
    """Number of closed geodesics over the one for [A] in the level-2 cover.

    6 / 3 / 2 for mod-2 classes C1 / C2 / C3; defined for hyperbolic A.
    """
    if abs(A.trace) <= 2:
        raise ValueError("requires |trace| > 2")
    kind = classify_mod_p(A, 2).kind
    return {"C1": 6, "C2": 3, "C3": 2}[kind]


def dw_invariant_genus_g(fhat: IntMatrix, p: int, check_symplectic: bool = True) -> DwValue:
    """Z of the genus-g mapping torus, off `mapping_torus_homology`: p to the
    number of SNF entries of fhat - Id divisible by p, zeros included."""
    p = _checked_prime(p)
    return _dw_of_homology(mapping_torus_homology(fhat, check_symplectic), p)


@dataclass
class ClassCensusRow:
    kind: str
    class_count: int
    class_size: int


def slp_class_census(p: int) -> list[ClassCensusRow]:
    """Classify every element of SL(2,F_p), odd p <= 13.

    Returns one row per class kind with the number of distinct classes and
    the common class size.  Distinct C7/C8 classes are told apart by trace.
    """
    if p not in (3, 5, 7, 11, 13):
        raise ValueError("p must be an odd prime <= 13")
    totals: dict[str, int] = {}
    traces: dict[str, set[int]] = {"C7": set(), "C8": set()}
    for a, b, c in itertools.product(range(p), repeat=3):
        # solve a*d - b*c = 1 for d when possible
        if a != 0:
            d = (1 + b * c) * pow(a, p - 2, p) % p
            dvals = [d]
        elif b * c % p == p - 1:
            dvals = list(range(p))
        else:
            continue
        for d in dvals:
            label = _classify_residues(a, b, c, d, p)
            totals[label.kind] = totals.get(label.kind, 0) + 1
            if label.kind in traces:
                traces[label.kind].add(label.trace_mod_p)
    rows = []
    for kind in KINDS_ODD:
        total = totals.get(kind, 0)
        if kind in ("C7", "C8"):
            ncls = len(traces[kind])
        else:
            ncls = 1 if total else 0
        rows.append(ClassCensusRow(kind, ncls, total // ncls if ncls else 0))
    return rows


def _classify_residues(a: int, b: int, c: int, d: int, p: int) -> ClassLabel:
    """classify_mod_p on residues, avoiding an SL(2,Z) lift."""
    t = (a + d) % p
    if b == 0 and c == 0 and a == d:
        if a == 1:
            return ClassLabel("C1", p, t)
        if a == p - 1:
            return ClassLabel("C2", p, t)
    if p == 2:
        # SL(2,F_2) is S3: its other elements of even trace have order two, of odd trace three
        return ClassLabel("C2" if t == 0 else "C3", p, t)
    if t == 2 % p:
        u = _unipotent_invariant(a, b, c, d, p)
        is_qr = jacobi(u, p) == 1
        return ClassLabel("C3" if is_qr else "C4", p, t, qr_flag=is_qr)
    if t == (p - 2) % p:
        u = _unipotent_invariant((-a) % p, (-b) % p, (-c) % p, (-d) % p, p)
        # anchor: the printed representative [[-1,1],[0,-1]] defines the C5
        # square class; its negative's invariant is -1
        same = jacobi(u, p) == jacobi(-1, p)
        return ClassLabel("C5" if same else "C6", p, t, qr_flag=same)
    disc = (t * t - 4) % p
    is_qr = jacobi(disc, p) == 1
    return ClassLabel("C7" if is_qr else "C8", p, t, qr_flag=is_qr)
