import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import mti
from mti._quadpack import qags

# integrands on which QAGS leaves the smooth path that 1/log u takes: end
# point singularities (extrapolation, reordering of the error list), a kink,
# a jump, a staircase and a NaN half (round-off flags), oscillation that
# exhausts the 200 subintervals, divergent integrals (the bad-integrand
# flag), a zero integrand and a reversed interval
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
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_qags_is_quad_bit_for_bit(name):
    from scipy.integrate import IntegrationWarning, quad

    f, a, b = HARD[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        expected = quad(f, a, b, limit=200)[:2]
    # repr: equal bits, with NaN equal to NaN and -0.0 apart from 0.0
    assert list(map(repr, qags(f, a, b))) == list(map(repr, expected))


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
