"""Prime Fourier coefficients of the weight-one form attached to the cubic
field Q(d^(1/3), zeta3), realized through the splitting pattern of p in its
ring of integers (equivalently the cubic-residue character of d mod p).

The coefficient at p is the trace of Frobenius of the standard 2-dimensional
representation of S3: 2 / -1 / 0 according as p splits completely / stays in
two primes / splits in three.  For d = 2 the expansion is pinned against the
LMFDB-listed coefficients below 100.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import is_prime
from .sl2 import dw_exponent_of_kind

#: nonzero prime coefficients of the d = 2 form below 100 (all other primes
#: except the ramified 2, 3 have coefficient 0); from the LMFDB expansion
#: q - q^7 - q^13 - q^19 + 2q^31 - q^37 + 2q^43 - q^61 - q^67 - q^73 - q^79 - q^97
LMFDB_D2_PRIME_COEFFS = {
    7: -1,
    13: -1,
    19: -1,
    31: 2,
    37: -1,
    43: 2,
    61: -1,
    67: -1,
    73: -1,
    79: -1,
    97: -1,
}

SPLIT6 = "split6"  # six primes above p
SPLIT2 = "split2"  # two primes above p
SPLIT3 = "split3"  # three primes above p


def _check_unramified(d: int, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3 or d % p == 0:
        raise ValueError(f"p = {p} is ramified for d = {d}")


def is_cube_mod_p(d: int, p: int) -> bool:
    """Whether d is a cube modulo p (p unramified, p != 3).

    For p = 2 mod 3 cubing is a bijection, so everything is a cube; for
    p = 1 mod 3 Euler's criterion applies with exponent (p-1)/3.
    """
    _check_unramified(d, p)
    if p % 3 == 2:
        return True
    return pow(d, (p - 1) // 3, p) == 1


def splitting_pattern(d: int, p: int) -> str:
    _check_unramified(d, p)
    if p % 3 == 2:
        return SPLIT3
    return SPLIT6 if is_cube_mod_p(d, p) else SPLIT2


def frobenius_trace(d: int, p: int) -> int:
    """Trace of Frobenius at p: 2 / -1 / 0 for split6 / split2 / split3."""
    return {SPLIT6: 2, SPLIT2: -1, SPLIT3: 0}[splitting_pattern(d, p)]


def ap_coefficient(d: int, p: int) -> int:
    """The p-th Fourier coefficient; equals the Frobenius trace."""
    return frobenius_trace(d, p)


@dataclass
class QExpansionRow:
    p: int
    computed: int
    reference: int
    pattern: str
    mod2_class: str
    z_value: int


@dataclass
class QExpansionReport:
    d: int
    pmax: int
    rows: list[QExpansionRow]
    mismatches: list[int]


#: mod-2 class with the same element order as Frobenius for each splitting
#: pattern; the identity a_p = Z - 2 holds under this matching (the printed
#: "+2" dictionary does not reproduce the expansion; see the CLI table)
_PATTERN_TO_MOD2_CLASS = {SPLIT6: "C1", SPLIT2: "C3", SPLIT3: "C2"}


def qexpansion_check(d: int = 2, pmax: int = 100) -> QExpansionReport:
    """Compare computed prime coefficients against the stored reference list.

    Only d = 2 has a stored reference.
    """
    if d != 2:
        raise ValueError("stored reference coefficients exist only for d = 2")
    rows = []
    mismatches = []
    p = 5
    while p < pmax:
        if is_prime(p) and p % 3 != 0 and d % p != 0:
            computed = ap_coefficient(d, p)
            ref = LMFDB_D2_PRIME_COEFFS.get(p, 0)
            pattern = splitting_pattern(d, p)
            cls = _PATTERN_TO_MOD2_CLASS[pattern]
            rows.append(
                QExpansionRow(
                    p=p,
                    computed=computed,
                    reference=ref,
                    pattern=pattern,
                    mod2_class=cls,
                    z_value=2 ** dw_exponent_of_kind(cls, 2),
                )
            )
            if computed != ref:
                mismatches.append(p)
        p += 2
    return QExpansionReport(d=d, pmax=pmax, rows=rows, mismatches=mismatches)
