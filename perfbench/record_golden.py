"""Write golden.json: the census CSV digests the benchmark checks against.

The digests are the reference output, so they are recorded once, from the
commit the benchmark was defined at, and not re-recorded by a change that
touches the census.  Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/record_golden.py
"""

import hashlib
import json
import pathlib

from inputs import CENSUS_MULTI_PRIMES, CENSUS_MULTI_T
from mti import census


def main() -> None:
    golden = {}
    T = CENSUS_MULTI_T
    for p in CENSUS_MULTI_PRIMES:
        rep = census(p, T)
        digest = hashlib.sha256(rep.to_csv().encode()).hexdigest()
        golden[f"{p},{T}"] = {"sha256": digest, "total_classes": rep.total_classes}
        print(f"p={p} T={T}: {rep.total_classes} classes, sha256 {digest}")
    path = pathlib.Path(__file__).with_name("golden.json")
    path.write_text(json.dumps({"census": golden}, indent=2) + "\n")


if __name__ == "__main__":
    main()
