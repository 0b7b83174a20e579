"""Numerical modular lambda function via Jacobi theta constants, the
Moebius action on the upper half plane, the six-element cross-ratio orbit,
and the log-formula harness relating lambda values at the order-3 point to
the Z/2 partition function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .sl2 import SL2_S, SL2_T, Sl2Matrix, classify_mod_p, dw_invariant_sl2

MIN_IM = 0.05
SERIES_TOL = 1e-30

#: the order-3 point exp(2*pi*i/3) = (-1 + i*sqrt(3))/2
ZETA3 = complex(-0.5, math.sqrt(3) / 2)


def theta_constants(tau: complex) -> tuple[complex, complex, complex]:
    """Jacobi theta constants (theta2, theta3, theta4) at nome q = e^{i pi tau}.

    Series summed until terms drop below 1e-30; requires Im(tau) >= 0.05
    so the nome is bounded away from the unit circle.
    """
    if tau.imag < MIN_IM:
        raise ValueError(f"Im(tau) = {tau.imag} below {MIN_IM}")
    q = cmath.exp(1j * cmath.pi * tau)
    th2 = 0j
    n = 0
    while True:
        # exp(i pi tau (n + 1/2)^2), not q ** (...): the principal log of q
        # would lose a factor i^m whenever Re(tau) is outside (-1, 1]
        term = cmath.exp(1j * cmath.pi * tau * ((n + 0.5) * (n + 0.5)))
        th2 += 2 * term
        if abs(term) < SERIES_TOL and n > 2:
            break
        n += 1
    th3 = 1 + 0j
    th4 = 1 + 0j
    n = 1
    while True:
        term = q ** (n * n)
        th3 += 2 * term
        th4 += 2 * (-term if n % 2 else term)
        if abs(term) < SERIES_TOL and n > 2:
            break
        n += 1
    return th2, th3, th4


def lambda_function(tau: complex) -> complex:
    """The level-2 hauptmodul as the theta quotient theta2^4 / theta3^4."""
    th2, th3, _ = theta_constants(tau)
    return (th2 / th3) ** 4


def mobius(A: Sl2Matrix, tau: complex) -> complex:
    """(a tau + b) / (c tau + d); preserves the upper half plane."""
    return (A.a * tau + A.b) / (A.c * tau + A.d)


#: coset labels and their cross-ratio transformations, in the order
#: (identity, T, S, T.S, T.S.T, -S.T^{-1})
ANHARMONIC_LABELS = ("Id", "T", "S", "T.S", "T.S.T", "-S.T^-1")

COSET_REPRESENTATIVES: dict[str, Sl2Matrix] = {
    "Id": Sl2Matrix(1, 0, 0, 1),
    "T": SL2_T,
    "S": SL2_S,
    "T.S": SL2_T * SL2_S,
    "T.S.T": SL2_T * SL2_S * SL2_T,
    "-S.T^-1": -(SL2_S * SL2_T.inverse()),
}


def anharmonic_orbit(z: complex) -> dict[str, complex]:
    """The six cross-ratio values of the lambda value z, keyed by the coset
    representative that realizes each one on the base point."""
    if z == 0 or z == 1:
        raise ValueError("degenerate lambda value")
    return {
        "Id": z,
        "T": z / (z - 1),
        "S": 1 - z,
        "T.S": (z - 1) / z,
        "T.S.T": 1 / z,
        "-S.T^-1": 1 / (1 - z),
    }


def lemma_cool_value(A: Sl2Matrix) -> tuple[float, float]:
    """|3/(2 pi i) * log lambda(A(zeta3))|^{-1} under the principal log
    branch, arg in (-pi, pi], and the positive one, arg in [0, 2 pi).

    Excluded for A = Id mod 2, where the formula does not apply and the
    invariant is the constant 4.
    """
    if classify_mod_p(A, 2).kind == "C1":
        raise ValueError("identity class mod 2 is excluded; the value is 4")
    log = cmath.log(lambda_function(mobius(A, ZETA3)))
    positive = log + 2j * cmath.pi if log.imag < 0 else log
    return 1.0 / abs(3 / (2 * cmath.pi * 1j) * log), 1.0 / abs(3 / (2 * cmath.pi * 1j) * positive)


@dataclass
class LemmaCoolRow:
    name: str
    mod2_class: str
    formula_principal: float
    formula_positive: float
    z_value: int
    agrees: bool


def lemma_cool_report() -> list[LemmaCoolRow]:
    """Formula value under both log branches next to the true invariant,
    for one representative of each non-identity mod-2 class coset."""
    rows = []
    for name in ("T", "S", "T.S", "T.S.T", "-S.T^-1"):
        A = COSET_REPRESENTATIVES[name]
        z = dw_invariant_sl2(A, 2).value
        fp, fq = lemma_cool_value(A)
        rows.append(
            LemmaCoolRow(
                name=name,
                mod2_class=classify_mod_p(A, 2).kind,
                formula_principal=fp,
                formula_positive=fq,
                z_value=z,
                agrees=abs(fp - z) < 1e-6 or abs(fq - z) < 1e-6,
            )
        )
    return rows
