import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest

import mti
from mti._quadpack import _EPMACH, _UFLOW, _WG, _WGK, _XGK, dqk21_inv_log, qags

# QUADPACK's dqk21 for any integrand f, as the port had it before li(T^2)
# got its own written-out rule: the oracle of that rule, and the rule that
# drives qags through the HARD integrands


def _dqk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """(result, abserr, resabs, resasc) of the 21-point rule for f on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for j in (1, 2, 3, 4, 5):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in (1, 2, 3, 4, 5):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


# integrands on which QAGS leaves the smooth path that 1/log u takes: end
# point singularities (extrapolation, reordering of the error list), a kink,
# a jump, a staircase and a NaN half (round-off flags), oscillation that
# exhausts the 200 subintervals, divergent integrals (the bad-integrand
# flag), a zero integrand and a reversed interval; a first approximation
# whose error is round-off alone (ier = 2 before any bisection) and an
# extrapolation that stalls (ier = 5)
HARD = {
    "inv_sqrt": (lambda u: 1.0 / math.sqrt(u), 0.0, 1.0),
    "log": (lambda u: math.log(u), 0.0, 1.0),
    "sin_inv": (lambda u: math.sin(1.0 / u), 0.01, 1.0),
    "cos_log": (lambda u: math.cos(math.log(u) / u) / u, 0.0, 1.0),
    "kink": (lambda u: abs(u - 1.0 / 3.0), 0.0, 1.0),
    "sqrt_abs": (lambda u: math.sqrt(abs(u)), -1.0, 1.0),
    "jump": (lambda u: 1.0 if u > 0.3 else 0.0, 0.0, 1.0),
    "staircase": (lambda u: math.floor(u * 1e6) / 1e6, 0.0, 1.0),
    "flat_start": (lambda u: math.exp(-1.0 / u) / (u * u), 0.0, 1.0),
    "oscillating": (lambda u: math.cos(1000.0 * u), 0.0, 3.0),
    "divergent": (lambda u: 1.0 / u, 0.0, 1.0),
    "slow_divergent": (lambda u: 1.0 / (u * math.log(u) ** 2), 0.0, 0.5),
    "interior_log_pole": (lambda u: 1.0 / abs(u - 0.3), 0.0, 1.0),
    "nan_half": (lambda u: math.nan if u > 0.5 else 1.0, 0.0, 1.0),
    "zero": (lambda u: 0.0, 0.0, 1.0),
    "reversed": (lambda u: 1.0 / math.sqrt(u), 1.0, 0.0),
    "huge_sine": (lambda u: 1e10 * math.sin(2.0 * math.pi * u), 0.0, 1.0),
    "sin_inv_pole": (lambda u: math.sin(1.0 / u) / (u * u) if u else 0.0, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_qags_is_quad_bit_for_bit(name):
    from scipy.integrate import IntegrationWarning, quad

    f, a, b = HARD[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        expected = quad(f, a, b, limit=200)[:2]
    # repr: equal bits, with NaN equal to NaN and -0.0 apart from 0.0
    assert list(map(repr, qags(lambda a, b: _dqk21(f, a, b), a, b))) == list(map(repr, expected))


def test_inv_log_rule_is_the_generic_rule_bit_for_bit():
    # on every interval that qags bisects for li(T^2), T over the small
    # bounds and seeded bounds up to the census's trace range
    intervals = []

    def recorded(a, b):
        intervals.append((a, b))
        return dqk21_inv_log(a, b)

    rng = random.Random(0)
    for T in [*range(4, 3000), *(rng.randrange(3000, 2**21) for _ in range(200))]:
        qags(recorded, 2.0, float(T) * T)
    assert len(intervals) > 3200
    for a, b in intervals:
        want = _dqk21(lambda u: 1.0 / math.log(u), a, b)
        assert list(map(repr, dqk21_inv_log(a, b))) == list(map(repr, want)), (a, b)


def test_import_loads_no_scipy_and_no_fft():
    # li(T^2) no longer needs scipy, and the Gauss sum, evaluated in closed
    # form, no longer needs numpy.fft
    code = (
        "import sys, mti, mti.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print('numpy.fft' in sys.modules)"
    )
    src = pathlib.Path(mti.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}
    ).stdout
    assert out.split("\n")[:2] == ["[]", "False"]


def test_import_mti_loads_no_json():
    # matrices are parsed by the CLI alone; the library has no JSON format
    src = pathlib.Path(mti.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mti; print('json' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "False\n"
