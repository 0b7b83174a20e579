#!/usr/bin/env python3
"""The mti benchmark: one workload per invocation, measured end to end or
layer by layer.

    python3 perfbench/run.py --workload census-multi --seed 1 --seconds 20 --trace 0

Run it from the root of an mti checkout; it imports mti from ./src and
fails without it.  Every job runs in a fresh interpreter, one after the
other (a closed loop with one caller, no threads), so each pays `import mti`
and the library's first-use set-up the way a CLI or script user does.  Jobs
repeat until the next one would not finish inside --seconds; each metric is
the median over jobs.  Every operation's output is checked outside the
timed region.

Job times are reported in units of a fixed reference loop (reference.py)
timed in the same process between operations, and each job's `import mti`
relative to a reference import timed in fresh interpreters before and after
the job, because a shared machine can change speed by 1.6x for minutes at a
time.  The raw seconds are printed too.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced jobs and reports the per-layer metrics, plus import times from
`python -X importtime`, and writes the spans to .perfbench/.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS, make_job
from reference import REFERENCE_IMPORT, REFERENCE_IMPORT_S

HERE = pathlib.Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RUN_DEADLINE_S = 165  # hard cap on one invocation, under its 180 s limit
MIN_JOBS = 3
MIN_TRACED_JOBS = 2  # each of untraced and traced, with --trace 1
IMPORTTIME_RUNS = 3
MODULES = ("intmat", "sl2", "bqf", "census", "modular", "weight1", "csw", "cli")

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "items_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "bqf.enumerate_s": "s",
    "bqf.forms": "count",
    "bqf.cycle_s": "s",
    "bqf.classes": "count",
    "bqf.forms_per_class": "ratio",
    "sl2.classify_s": "s",
    "sl2.classify_calls": "count",
    "sl2.snf_s": "s",
    "sl2.snf_calls": "count",
    "census.self_s": "s",
    "census.li_s": "s",
    "census.li_calls": "count",
    "census.report_s": "s",
    "import.mti_s": "s",
    **{f"import.{m}_s": "s" for m in MODULES},
    "csw.gauss_s": "s",
    "csw.terms": "count",
    "csw.oracle_s": "s",
    "trace.overhead_frac": "ratio",
}
# what items_per_ref counts on each workload, and the name of its rate in seconds
ITEMS = {
    "census-multi": ("classes classified", "classes_per_s"),
    "gauss-sum": ("Gauss box terms summed", "gauss_terms_per_s"),
}


class BenchError(Exception):
    pass


def child_env(src: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_job(job, traced, src, deadline) -> dict:
    req = json.dumps({"job": job, "traced": traced, "src": str(src)})
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=req,
        capture_output=True,
        text=True,
        env=child_env(src),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_import(src, deadline) -> float:
    """Seconds of the reference import in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_IMPORT],
        capture_output=True,
        text=True,
        env=child_env(src),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"reference import failed:\n{proc.stderr}")
    return float(proc.stdout)


def import_times(src, deadline) -> dict:
    """Cumulative import time of mti and each submodule, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mti, mti.cli"],
        capture_output=True,
        text=True,
        env=child_env(src),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"import mti failed:\n{proc.stderr}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    out = {"import.mti_s": cumulative.get("mti", 0.0)}
    out.update({f"import.{m}_s": cumulative.get(f"mti.{m}", 0.0) for m in MODULES})
    return out


def measure(job, traced_too, seconds, src, deadline) -> list[tuple[bool, dict]]:
    """Jobs in fresh interpreters until the next would overrun `seconds`;
    with `traced_too`, untraced and traced jobs alternate.  Each job's
    setup_s is its `import mti` over the mean of the reference imports just
    before and after the job, in seconds at REFERENCE_IMPORT_S."""
    start = time.monotonic()
    need = 2 * MIN_TRACED_JOBS if traced_too else MIN_JOBS
    results, durations = [], []
    ref_before = reference_import(src, deadline)
    while True:
        traced = traced_too and len(results) % 2 == 1
        t0 = time.monotonic()
        result = run_job(job, traced, src, deadline)
        ref_after = reference_import(src, deadline)
        result["setup_s"] = result["import_s"] * 2 / (ref_before + ref_after) * REFERENCE_IMPORT_S
        result["ref_import_s"] = ref_after
        ref_before = ref_after
        results.append((traced, result))
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        if now + max(durations) > deadline:
            break
        if len(results) >= need and now - start + statistics.median(durations) > seconds:
            break
    return results


def tail(values) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    n = len(values)
    med = statistics.median(values)
    p = math.floor(100 - 1000 / n) if n > 10 else 0
    if p <= 50:
        return f"median {med:.6g} (n={n}; no percentile above the median has 10 samples beyond it)"
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"median {med:.6g}, p{p} {q:.6g} (n={n})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "mti" / "__init__.py").is_file():
        print(f"perfbench: no mti package at {src / 'mti'}; run from the root of an mti checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    job = make_job(args.workload, args.seed)
    try:
        # unmeasured: writes bytecode and warms the file cache
        import_times(src, deadline)
        imports = [import_times(src, deadline) for _ in range(IMPORTTIME_RUNS)] if args.trace else []
        results = measure(job, bool(args.trace), args.seconds, src, deadline)
        if args.trace and len(results) < 2:  # jobs alternate, untraced first
            raise BenchError("the run ended before its first traced job")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    plain = [r for is_traced, r in results if not is_traced]
    traced = [r for is_traced, r in results if is_traced]
    attempted = sum(r["ops"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    med = statistics.median

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(results)} jobs "
        f"({len(traced)} traced), {attempted} operations, {failed} failed, fail_frac {failed / attempted:.6g}"
    )
    print(f"  job: {json.dumps(job)}")
    if args.trace:
        # median_low keeps the counts whole: it returns one of the samples
        metrics = {name: statistics.median_low(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics.update({name: med(t[name] for t in imports) for name in imports[0]})
        metrics["trace.overhead_frac"] = (
            med(r["wall_ref"] for r in traced) / med(r["wall_ref"] for r in plain) - 1
        )
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans = {
            "workload": args.workload,
            "seed": args.seed,
            "columns": ["id", "parent", "op", "name", "start_s", "end_s", "child_s"],
            "jobs": [r["spans"] for r in traced],
        }
        spans_path.write_text(json.dumps(spans))
        print(f"  spans: {spans_path.relative_to(root)}")
        print(f"  boundaries traced: {', '.join(traced[0]['patched'])}")
        print(f"  per-layer metrics: medians over {len(traced)} traced jobs, import times over {len(imports)} runs")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": med(r["setup_s"] for r in plain),
            "wall_ref": med(r["wall_ref"] for r in plain),
            "items_per_ref": med(r["items"] / r["wall_ref"] for r in plain),
            "peak_rss_mb": med(r["rss_mb"] for r in plain),
        }
        print(f"  setup_s [s]: {tail([r['setup_s'] for r in plain])}")
        print(f"  wall_ref [ref]: {tail([r['wall_ref'] for r in plain])}")
        print(
            f"  items_per_ref [1/ref], {ITEMS[args.workload][0]}: "
            f"{tail([r['items'] / r['wall_ref'] for r in plain])}"
        )
        print(f"  peak_rss_mb [MB]: {tail([r['rss_mb'] for r in plain])}")
        print("  in seconds, as measured on this machine at its current speed:")
        print(f"    import mti [s]: {tail([r['import_s'] for r in plain])}")
        print(f"    reference import [s]: {tail([r['ref_import_s'] for r in plain])}")
        print(f"    wall_s [s]: {tail([r['wall_s'] for r in plain])}")
        print(f"    operation latency [s]: {tail([dt for r in plain for dt in r['op_s']])}")
        print(f"    {ITEMS[args.workload][1]} [1/s]: {tail([r['items'] / r['wall_s'] for r in plain])}")
        print(f"    reference loop, ref [s]: {tail([r['ref_s'] for r in plain])}")
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
