"""Fixed work that measures the machine's current speed.

A shared machine can change speed by 1.6x for minutes at a time, as other
tenants come and go; raw seconds then differ more between runs than any
change worth detecting.  So the benchmark reports times relative to fixed
work timed around them:

- the worker times `reference_loop` before the first operation and after
  every operation of a job, and reports the job's time in units of it;
- run.py times `REFERENCE_IMPORT` in a fresh interpreter before the first
  job and after every job, and reports each job's `import mti` relative to
  it, scaled to seconds at REFERENCE_IMPORT_S.

Nothing here imports mti, so no change to the library can move a reference.
"""

from __future__ import annotations

import cmath
import time

# mti's third-party imports, timed inside a fresh interpreter; python -c
# prints the seconds
REFERENCE_IMPORT = (
    "import time; t0 = time.perf_counter(); import numpy, scipy.integrate; print(time.perf_counter() - t0)"
)
# the reference import's median time on the machine baseline.json describes:
# setup_s is `import mti` in seconds at this speed of the machine
REFERENCE_IMPORT_S = 0.8


def reference_loop() -> complex:
    """A box sum of roots of unity over a fixed quadratic form: multi-digit
    integer products, a modulus, a list lookup and a complex add per term."""
    n = 479
    roots = [cmath.exp(2j * cmath.pi * r / n) for r in range(n)]
    total = 0j
    for x in range(n):
        qx = 1931 * x * x
        adx = 1237 * x
        for y in range(n):
            total += roots[(7 * (qx + adx * y - 1693 * y * y)) % n]
    return total


def reference_seconds() -> float:
    """Wall time of one call of `reference_loop`."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
