"""Run one benchmark job in a fresh interpreter and print one JSON line.

Reads {"job": ..., "traced": bool, "src": dir} on stdin (see inputs.py for
jobs).  Times `import mti` (set-up), then each operation of the job (wall,
including set-up the library does on first use), with the reference loop
timed before the first operation and after each one; then checks every
operation's output outside the timed region.  run.py starts it with the
checkout's src/ first on PYTHONPATH; it refuses an mti found anywhere else.
"""

import time

_T0 = time.perf_counter()
import mti  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from mti import Sl2Matrix, census, csw_invariant, density_report, rep_trace, theorem_constants  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden.json").read_text())
GAUSS_TOLERANCE = 1e-8


def _untraced_span(name, op=None):
    return nullcontext()


# Each *_ops function yields one zero-argument callable per operation; the
# callable returns {"items": work done, "out": what its check needs}.  Only
# the callables are timed.


def census_ops(job, span, tracer):
    """One operation per prime: census(p, T), then its reports and CSV."""
    for p, T in job["census"]:

        def op(p=p, T=T):
            with span("census", f"census p={p} T={T}"):
                rep = census(p, T)
            with span("census.report", f"census p={p} T={T}"):
                density_report(rep)
                theorem_constants(rep)
                csv = rep.to_csv()
            return {"items": rep.total_classes, "out": (p, T, rep, csv)}

        yield op


def check_census(out, span):
    # the CSV is byte-identical to the recorded one, and total = sum of the
    # per-label counts = sum of the SNF triple, at the end and at every
    # checkpoint
    p, T, rep, csv = out
    want = GOLDEN["census"].get(f"{p},{T}")
    if want is None or hashlib.sha256(csv.encode()).hexdigest() != want["sha256"]:
        return False
    rows = [(rep.total_classes, rep.per_label, rep.snf_triple)]
    rows += [(cp.total, cp.per_label, cp.snf_triple) for cp in rep.checkpoints]
    return all(total == sum(labels.values()) == sum(snf) for total, labels, snf in rows)


def gauss_ops(job, span, tracer):
    """One operation per matrix: the level-k Gauss sum."""
    for i, (a, b, c, d, k) in enumerate(job["matrices"]):
        A = Sl2Matrix(a, b, c, d)
        terms = (A.trace - 2) ** 2 + (A.trace + 2) ** 2

        def op(i=i, A=A, k=k, terms=terms):
            with span("csw.gauss", f"matrix {i}"):
                z = csw_invariant(A, k)
            if tracer:
                tracer.count("csw.terms", terms)
            return {"items": terms, "out": (i, A, k, z)}

        yield op


def check_gauss(out, span):
    i, A, k, z = out
    with span("csw.oracle", f"matrix {i}"):
        tr = rep_trace(A, k)
    return abs(abs(z) - abs(tr)) <= GAUSS_TOLERANCE


# job key -> (operations, check)
KINDS = {
    "census": (census_ops, check_census),
    "matrices": (gauss_ops, check_gauss),
}


def layer_metrics(tracer: Tracer) -> dict:
    forms = tracer.counts.get("bqf.forms", 0)
    classes = tracer.counts.get("bqf.classes", 0)
    calls = {name: tracer.counters.get(name, [0, 0.0]) for name in ("sl2.classify", "sl2.snf", "census.li")}
    return {
        "bqf.enumerate_s": tracer.self_time("bqf.enumerate"),
        "bqf.forms": forms,
        "bqf.cycle_s": tracer.self_time("bqf.classes"),
        "bqf.classes": classes,
        "bqf.forms_per_class": forms / classes if classes else 0.0,
        "sl2.classify_s": calls["sl2.classify"][1],
        "sl2.classify_calls": calls["sl2.classify"][0],
        "sl2.snf_s": calls["sl2.snf"][1],
        "sl2.snf_calls": calls["sl2.snf"][0],
        "census.self_s": tracer.self_time("census"),
        "census.li_s": calls["census.li"][1],
        "census.li_calls": calls["census.li"][0],
        "census.report_s": tracer.total_time("census.report"),
        "csw.gauss_s": tracer.total_time("csw.gauss"),
        "csw.terms": tracer.counts.get("csw.terms", 0),
        "csw.oracle_s": tracer.total_time("csw.oracle"),
    }


def main() -> int:
    req = json.load(sys.stdin)
    src = pathlib.Path(req["src"]).resolve()
    if pathlib.Path(mti.__file__).resolve().parent.parent != src:
        print(f"worker: imported mti from {mti.__file__}, not from {src}", file=sys.stderr)
        return 2
    job = req["job"]
    (kind,) = (k for k in KINDS if k in job)
    make_ops, check = KINDS[kind]

    tracer = Tracer() if req["traced"] else None
    span = tracer.span if tracer else _untraced_span
    if tracer:
        patched = tracer.install()
        tracer.active = True
    refs = [reference_seconds()]
    t_job = time.perf_counter()
    ops = []
    for op in make_ops(job, span, tracer):
        t0 = time.perf_counter()
        res = op()
        res["dt"] = time.perf_counter() - t0
        ops.append(res)
        refs.append(reference_seconds())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False

    failed = sum(not check(op["out"], span) for op in ops)
    # each operation in units of the reference loops just before and after it
    wall_ref = sum(op["dt"] * 2 / (before + after) for op, before, after in zip(ops, refs, refs[1:]))
    result = {
        "import_s": IMPORT_S,
        "wall_s": sum(op["dt"] for op in ops),
        "wall_ref": wall_ref,
        "ref_s": statistics.median(refs),
        "rss_mb": rss_mb,
        "items": sum(op["items"] for op in ops),
        "op_s": [op["dt"] for op in ops],
        "ops": len(ops),
        "failed": failed,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer)
        result["patched"] = patched
        result["spans"] = [[*s[:4], s[4] - t_job, s[5] - t_job, s[6]] for s in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
