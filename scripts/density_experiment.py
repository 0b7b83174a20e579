#!/usr/bin/env python3
"""Run the trace-ordered class census for a set of primes and report how the
empirical label densities and sum constants converge.

Writes one CSV per prime (checkpoint rows) and prints the comparison of the
empirical constants against the two candidate predictions, in both the
all-classes and the positive-trace normalizations.

Usage: python scripts/density_experiment.py [--tmax 2000] [--primes 3,5] [--outdir .]
"""

import argparse
import pathlib
import time

from mti.census import census, census_text


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=int, default=2000)
    ap.add_argument("--primes", default="3,5")
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for p in (int(x) for x in args.primes.split(",")):
        t0 = time.time()
        rep = census(p, args.tmax)
        took = time.time() - t0
        path = outdir / f"census_p{p}_T{args.tmax}.csv"
        path.write_text(rep.to_csv())
        print(f"p={p} T={args.tmax}: {rep.total_classes} classes in {took:.1f}s -> {path}")

        print(census_text(rep))


if __name__ == "__main__":
    main()
