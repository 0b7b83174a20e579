"""Seeded inputs for the benchmark workloads, in plain Python.

Nothing here imports mti, so a change to the library cannot change the
inputs a seed produces.  `make_job(workload, seed)` returns a JSON-ready
dict that the worker runs; the same (workload, seed) always gives the same
dict.
"""

from __future__ import annotations

import random
from math import isqrt

WORKLOADS = ("census-multi", "gauss-sum")

# census(p, T) for every prime in one interpreter: the enumeration does not
# depend on p, yet reruns for each prime.
CENSUS_MULTI_PRIMES = (2, 3, 5, 7)
CENSUS_MULTI_T = 500
# hyperbolic matrices for the Gauss sum: one trace per stratum of
# [200, 1200), signs alternating, each level k in [1, 8] twice in a seeded
# order.  A larger k costs more per term, and the strata and the fixed mix
# of levels keep the work of a job within a few percent across seeds.
GAUSS_TRACE_RANGE = (200, 1200)
GAUSS_LEVELS = (1, 8)
GAUSS_STRATA = 2 * (GAUSS_LEVELS[1] - GAUSS_LEVELS[0] + 1)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def sl2_with_trace(rng: random.Random, trace: int) -> tuple[int, int, int, int]:
    """A random integer matrix (a, b, c, d) with a + d = trace, ad - bc = 1
    and every entry at most 2|trace| in absolute value.

    Picks a, then splits a(trace - a) - 1 = bc with |b| its largest divisor
    up to the square root, and picks again while |c| is too large.  The
    Gauss sum costs more per term on large entries; bounded ones keep that
    cost the same across seeds.
    """
    while True:
        a = rng.randint(-abs(trace), abs(trace))
        n = a * (trace - a) - 1
        if n == 0:
            continue
        b = max(d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0)
        if abs(n) // b <= 2 * abs(trace):
            b *= rng.choice((1, -1))
            return (a, b, n // b, trace - a)


def gauss_matrices(rng: random.Random) -> list[list[int]]:
    """[a, b, c, d, k] rows, one per trace stratum, signs alternating."""
    lo, hi = GAUSS_TRACE_RANGE
    width = (hi - lo) // GAUSS_STRATA
    levels = list(range(GAUSS_LEVELS[0], GAUSS_LEVELS[1] + 1)) * 2
    rng.shuffle(levels)
    sign = rng.choice((1, -1))
    rows = []
    for i, k in enumerate(levels):
        t = sign * (lo + i * width + rng.randrange(width))
        sign = -sign
        rows.append([*sl2_with_trace(rng, t), k])
    return rows


def make_job(workload: str, seed: int) -> dict:
    """The inputs of one job of `workload` for `seed`."""
    rng = _rng(workload, seed)
    if workload == "census-multi":
        primes = list(CENSUS_MULTI_PRIMES)
        rng.shuffle(primes)
        return {"census": [[p, CENSUS_MULTI_T] for p in primes]}
    if workload == "gauss-sum":
        return {"matrices": gauss_matrices(rng)}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
