"""Measure every workload on seeds 1-10, twice, and write baseline.json: the
machine facts, the commit measured (when in a git checkout) and, per
workload, end-to-end metric and set of ten runs, the median, the quartiles
and their spread (interquartile range over median), with the change of the
second set's median from the first.  The first set runs every workload,
then the second set does.  Run from the root of a checkout:

    python3 perfbench/baseline.py

It takes about 2 x (number of workloads) x 10 x (run_seconds + 5) seconds.
"""

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SEEDS = range(1, 11)
SETS = 2


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import {mod}; print({mod}.__version__)"], capture_output=True, text=True
        )
        facts[mod] = proc.stdout.strip()
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines() if ln.startswith("model name")]
        facts["cpu"] = names[0] if names else ""
    return facts


def run_set(spec, workload) -> dict:
    """Each end-to-end metric's ten values over SEEDS, summarised."""
    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return summary


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [{workload: run_set(spec, workload) for workload in workloads} for _ in range(SETS)]
    out = {
        "machine": machine(),
        "commit": commit or None,
        "run_seconds": spec["run_seconds"],
        "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}",
        "workloads": {},
    }
    for workload in workloads:
        out["workloads"][workload] = {
            name: {
                "sets": [s[workload][name] for s in sets],
                "median_change": sets[-1][workload][name]["median"] / sets[0][workload][name]["median"] - 1,
            }
            for name in sets[0][workload]
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
