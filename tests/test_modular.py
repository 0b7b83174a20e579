import cmath
import random

import pytest

from mti.modular import (
    COSET_REPRESENTATIVES,
    ZETA3,
    anharmonic_orbit,
    lambda_function,
    lemma_cool_report,
    lemma_cool_value,
    mobius,
    theta_constants,
)
from mti.sl2 import SL2_S, SL2_T, Sl2Matrix

PAPER_VALUES = {
    "Id": complex(0.5, -0.866025),
    "T": complex(0.5, 0.866025),
    "S": complex(0.5, 0.866025),
    "T.S": complex(0.5, -0.866025),
    "T.S.T": complex(0.5, 0.866025),
    "-S.T^-1": complex(0.5, -0.866025),
}


def _theta_direct(tau, nmax=260):
    # independent oracle: fixed-length direct summation
    q = cmath.exp(1j * cmath.pi * tau)
    th2 = sum(2 * q ** ((n + 0.5) ** 2) for n in range(nmax))
    th3 = 1 + sum(2 * q ** (n * n) for n in range(1, nmax))
    th4 = 1 + sum(2 * (-1) ** n * q ** (n * n) for n in range(1, nmax))
    return th2, th3, th4


def test_theta_at_i():
    th2, th3, _ = theta_constants(1j)
    assert abs((th2 / th3) ** 4 - 0.5) < 1e-10


def test_theta_jacobi_identity():
    # double precision floors the relative residual around 1e-16
    for tau in (ZETA3, 1j, 0.3 + 0.7j, -0.4 + 0.2j):
        th2, th3, th4 = theta_constants(tau)
        assert abs(th2**4 + th4**4 - th3**4) / abs(th3**4) < 1e-14


def test_theta_against_direct_sum():
    for tau in (2j, 0.5 + 1j, ZETA3):
        got = theta_constants(tau)
        want = _theta_direct(tau)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


def test_theta2_off_principal_strip():
    # two-sided series sum over n in Z of exp(i pi tau (n + 1/2)^2), which
    # depends on tau itself and not only on the nome
    for re in (-3, -1.7, -0.5, 0.3, 1.3, 2.5, 3):
        tau = complex(re, 0.8)
        want = sum(cmath.exp(1j * cmath.pi * tau * (n + 0.5) ** 2) for n in range(-40, 40))
        assert abs(theta_constants(tau)[0] - want) < 1e-12


def test_theta_rejects_small_imaginary_part():
    with pytest.raises(ValueError, match=r"Im\(tau\) = 0.01 below 0.05"):
        theta_constants(0.5 + 0.01j)


def test_lambda_paper_values():
    for name, want in PAPER_VALUES.items():
        got = lambda_function(mobius(COSET_REPRESENTATIVES[name], ZETA3))
        assert abs(got - want) < 1e-5, name


def test_lambda_at_i():
    assert abs(lambda_function(1j) - 0.5) < 1e-10


def test_mobius():
    tau = 0.3 + 1.2j
    assert mobius(Sl2Matrix(1, 0, 0, 1), tau) == tau
    assert abs(mobius(SL2_S, 1j) - 1j) < 1e-15
    assert abs(mobius(SL2_T, ZETA3) - (ZETA3 + 1)) < 1e-15
    assert abs((ZETA3 + 1) - cmath.exp(1j * cmath.pi / 3)) < 1e-15


def test_anharmonic_orbit_at_half():
    orbit = anharmonic_orbit(0.5 + 0j)
    assert [orbit[k] for k in COSET_REPRESENTATIVES] == [0.5, -1, 0.5, -1, 2, 2]
    with pytest.raises(ValueError, match="degenerate lambda value"):
        anharmonic_orbit(1.0 + 0j)


def test_anharmonic_fixed_point_of_order_three():
    lv = lambda_function(ZETA3)
    orbit = anharmonic_orbit(lv)
    assert abs(orbit["T.S"] - lv) < 1e-8
    assert abs(orbit["T"] - cmath.exp(1j * cmath.pi / 3)) < 1e-5


def test_cover_compatibility():
    # lambda(g tau) equals the orbit entry labeled g, for each coset rep
    rng = random.Random(13)
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        lv = lambda_function(tau)
        orbit = anharmonic_orbit(lv)
        for name, g in COSET_REPRESENTATIVES.items():
            image = mobius(g, tau)
            if image.imag < 0.06:
                continue
            assert abs(lambda_function(image) - orbit[name]) < 1e-8, name


def _random_gamma2(rng, max_entry=50):
    gens = [Sl2Matrix(1, 2, 0, 1), Sl2Matrix(1, 0, 2, 1), Sl2Matrix(1, -2, 0, 1), Sl2Matrix(1, 0, -2, 1)]
    while True:
        g = Sl2Matrix(1, 0, 0, 1)
        for _ in range(rng.randint(1, 4)):
            g = g * rng.choice(gens)
        if max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= max_entry:
            return g


def test_level2_invariance():
    rng = random.Random(77)
    gammas = [_random_gamma2(rng) for _ in range(20)]
    taus = [complex(rng.uniform(-1, 1), rng.uniform(0.9, 2.5)) for _ in range(10)]
    checked = 0
    for g in gammas:
        assert g.mod(2) == (1, 0, 0, 1)
        for tau in taus:
            image = mobius(g, tau)
            if image.imag < 0.06:
                continue
            assert abs(lambda_function(image) - lambda_function(tau)) < 1e-8
            checked += 1
    assert checked >= 100


def test_lemma_formula_values():
    # order-two classes: formula gives 2 under both branches, matching Z
    for name in ("T", "S", "T.S.T"):
        principal, positive = lemma_cool_value(COSET_REPRESENTATIVES[name])
        assert abs(principal - 2) < 1e-6
        assert abs(positive - 2) < 1e-6
    # order-three class: formula gives 2 or 2/5, never the true value 1
    principal, positive = lemma_cool_value(COSET_REPRESENTATIVES["T.S"])
    assert abs(principal - 2) < 1e-6
    assert abs(positive - 0.4) < 1e-6
    with pytest.raises(ValueError):
        lemma_cool_value(Sl2Matrix(1, 0, 0, 1))


def test_lemma_report():
    rows = {r.coset: r for r in lemma_cool_report()}
    assert all(rows[n].agrees for n in ("T", "S", "T.S.T"))
    assert not rows["T.S"].agrees
    assert not rows["-S.T^-1"].agrees
    assert rows["T.S"].z == 1
    assert rows["T"].z == 2
