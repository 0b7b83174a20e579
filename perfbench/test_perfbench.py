"""Tests of the benchmark's own parts.  Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import ast
import json
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = range(12)


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            job = inputs.make_job(workload, seed)
            assert job == inputs.make_job(workload, seed)
            assert json.loads(json.dumps(job)) == job


def test_seeds_change_inputs():
    for workload in inputs.WORKLOADS:
        jobs = {json.dumps(inputs.make_job(workload, seed)) for seed in SEEDS}
        assert len(jobs) > 1


def test_gauss_matrices_are_hyperbolic_sl2():
    lo, hi = inputs.GAUSS_TRACE_RANGE
    for seed in SEEDS:
        rows = inputs.make_job("gauss-sum", seed)["matrices"]
        assert len(rows) == inputs.GAUSS_STRATA
        traces = [a + d for a, b, c, d, k in rows]
        for a, b, c, d, k in rows:
            assert a * d - b * c == 1
            assert lo <= abs(a + d) < hi
            assert max(abs(a), abs(b), abs(c), abs(d)) <= 2 * abs(a + d)
        assert any(t > 0 for t in traces) and any(t < 0 for t in traces)
        assert sorted(k for *_, k in rows) == sorted(list(range(1, 9)) * 2)


def test_census_jobs_cover_every_prime_once():
    for seed in SEEDS:
        job = inputs.make_job("census-multi", seed)["census"]
        assert sorted(p for p, _ in job) == list(inputs.CENSUS_MULTI_PRIMES)
        assert {T for _, T in job} == {inputs.CENSUS_MULTI_T}


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        inputs.make_job("census", 1)


@pytest.mark.parametrize("module", ["inputs.py", "reference.py"])
def test_module_imports_nothing_from_mti(module):
    tree = ast.parse((HERE / module).read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert names and not any(name.split(".")[0] == "mti" for name in names)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_golden_covers_every_census_job():
    golden = json.loads((HERE / "golden.json").read_text())["census"]
    for p, T in inputs.make_job("census-multi", 0)["census"]:
        assert f"{p},{T}" in golden


def test_self_time_subtracts_child_spans_and_counters():
    tracer = Tracer()
    tracer.active = True
    # outer opens at 0, inner runs 1..3, the counted call 4..8, outer closes at 10
    clock = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    import tracing

    real_pc, tracing._pc = tracing._pc, lambda: next(clock)
    try:
        work = tracer._counter_wrapper(lambda: 7, "leaf")
        with tracer.span("outer", "op1"):
            with tracer.span("inner"):
                pass
            assert work() == 7
    finally:
        tracing._pc = real_pc
    assert tracer.total_time("outer") == 10.0
    assert tracer.self_time("outer") == 10.0 - 2.0 - 4.0
    assert tracer.self_time("inner") == 2.0
    assert tracer.counters["leaf"] == [1, 4.0]
    inner = [s for s in tracer.spans if s[3] == "inner"][0]
    outer = [s for s in tracer.spans if s[3] == "outer"][0]
    assert inner[1] == outer[0] and inner[2] == "op1"


def test_missing_boundary_names_are_skipped(monkeypatch):
    monkeypatch.setitem(sys.modules, "mti.bqf", types.ModuleType("mti.bqf"))
    monkeypatch.setitem(sys.modules, "mti.census", types.ModuleType("mti.census"))
    tracer = Tracer()
    assert tracer.install() == []
    assert tracer.self_time("bqf.enumerate") == 0
    assert tracer.counters == {}
