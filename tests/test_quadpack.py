import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import mti
from mti import _quadpack
from mti._quadpack import _EPMACH, _UFLOW, _WG, _WGK, _XGK, dqk21_inv_log, qags_inv_log

# QUADPACK's dqk21 for any integrand f, as the port had it before li(T^2)
# got its own written-out rule: the oracle of that rule


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


def test_inv_log_rule_is_the_generic_rule_bit_for_bit(monkeypatch):
    # on every interval that QAGS bisects for li(T^2), T over the small
    # bounds and seeded bounds up to the census's trace range
    intervals = []

    def recorded(a, b):
        intervals.append((a, b))
        return dqk21_inv_log(a, b)

    monkeypatch.setattr(_quadpack, "dqk21_inv_log", recorded)
    rng = random.Random(0)
    for T in [*range(4, 3000), *(rng.randrange(3000, 2**21) for _ in range(200))]:
        qags_inv_log(float(T) * T)
    assert len(intervals) > 3200
    for a, b in intervals:
        want = _dqk21(lambda u: 1.0 / math.log(u), a, b)
        assert list(map(repr, dqk21_inv_log(a, b))) == list(map(repr, want)), (a, b)


def test_a_right_half_with_the_larger_error_stops_li(monkeypatch):
    # QAGS would bisect that half next: li has no interval ordering to follow
    # it, so it raises instead of returning
    def right_heavy(a, b):
        # each right half, the one interval not starting at 2, claims an
        # error as large as its width
        result, abserr, resabs, resasc = dqk21_inv_log(a, b)
        return result, abserr if a == 2.0 else b - a, resabs, resasc

    monkeypatch.setattr(_quadpack, "dqk21_inv_log", right_heavy)
    with pytest.raises(AssertionError, match="a right half carries the largest error"):
        qags_inv_log(1e6)


def test_an_error_that_does_not_fall_stops_li(monkeypatch):
    # a rule exact on linear areas whose error stays 1 on every interval,
    # with resasc != abserr: the halves' areas sum to the whole and their
    # errors do not fall, so QAGS would count round-off
    def flat_error(a, b):
        return b - a, 1.0, b - a, 2.0

    monkeypatch.setattr(_quadpack, "dqk21_inv_log", flat_error)
    with pytest.raises(AssertionError, match="QAGS leaves li's path: a round-off counter counts"):
        qags_inv_log(1e6)


def test_right_halves_above_the_error_bound_stop_li(monkeypatch):
    # each right half claims half its width as error, less than the left
    # interval's full width but together above errbnd; with resasc ==
    # abserr no round-off is counted, so at the first extrapolation QAGS
    # would turn to the larger intervals
    def wide_right_halves(a, b):
        result = dqk21_inv_log(a, b)[0]
        error = b - a if a == 2.0 else 0.5 * (b - a)
        return result, error, result, error

    monkeypatch.setattr(_quadpack, "dqk21_inv_log", wide_right_halves)
    with pytest.raises(AssertionError, match="QAGS leaves li's path: the loop over larger intervals"):
        qags_inv_log(1e6)


@pytest.mark.parametrize(("x", "branch"), [(2.0 + 1e-13, "a right half carries"), (2.0 + 6.4e-14, "ier = 4")])
def test_li_off_its_path_raises_below_the_refused_band(x, branch):
    # just above 2, inside the band log_integral refuses, QAGS takes a
    # branch li leaves out
    with pytest.raises(AssertionError, match=f"QAGS leaves li's path: {branch}"):
        qags_inv_log(x)


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
