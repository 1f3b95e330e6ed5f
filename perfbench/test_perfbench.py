"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import part  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer = tracer.begin("outer")          # 0 .. 10
    clock.now = 1.0
    child = tracer.begin("child")          # 1 .. 6
    clock.now = 2.0
    grandchild = tracer.begin("leaf")      # 2 .. 5
    clock.now = 5.0
    tracer.end(grandchild)
    clock.now = 6.0
    tracer.end(child)
    clock.now = 7.0
    second = tracer.begin("leaf")          # 7 .. 8
    clock.now = 8.0
    tracer.end(second)
    clock.now = 10.0
    tracer.end(outer)

    assert tracer.self_times() == [10 - 5 - 1, 5 - 3, 3, 1]
    assert tracer.self_by_name() == {"outer": (4.0, 1), "child": (2.0, 1), "leaf": (4.0, 2)}
    # Self times partition the root span: nothing is counted twice.
    assert sum(tracer.self_times()) == 10.0
    assert tracer.parents == [-1, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    assert spans.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert spans.self_time((0.0, 10.0), [(8.0, 12.0)]) == 8.0
    assert spans.self_time((0.0, 10.0), []) == 10.0


def test_spans_must_close_in_order():
    tracer = spans.Tracer(FakeClock())
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    one = workloads.generate(workload, 7, 2)
    assert json.dumps(one, sort_keys=True) == json.dumps(
        workloads.generate(workload, 7, 2), sort_keys=True
    )
    assert one != workloads.generate(workload, 8, 2)
    assert one != workloads.generate(workload, 7, 3)


def test_op_jobs_cover_every_stratum_once():
    jobs = workloads.generate("op-search", 0, 0)["jobs"]
    strata = {(job["operator"], job["device"]) for job in jobs}
    assert len(jobs) == len(strata) == 12 * 3
    screened = workloads.generate("op-screened", 0, 0)["jobs"]
    assert {job["operator"] for job in screened} == {"GMM", "C2D"}


def test_mobilenet_dedups_the_repeated_blocks():
    layers = workloads.mobilenet_layers()
    assert len(layers) == 27
    distinct = {json.dumps(layer["params"], sort_keys=True) + layer["operator"]
                for layer in layers}
    assert len(distinct) == 19


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.generate("no-such-workload", 0, 0)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(run.END_TO_END) + list(spans.LAYER_METRICS):
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.PART_SECONDS) == set(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    metrics = spans.layer_metrics({}, {}, 1.0)
    assert set(metrics) | {"trace_overhead_frac"} == set(spans.LAYER_METRICS)
    assert metrics["untracked_s"] == 1.0


def test_useful_slices_counts_improvements_per_task():
    trace = [
        {"task": 0, "best_gflops": 10.0},
        {"task": 1, "best_gflops": 5.0},
        {"task": 0, "best_gflops": 10.0},
        {"task": 0, "best_gflops": 12.0},
        {"task": 1, "best_gflops": 0.0},
    ]
    assert spans.useful_slices(trace) == 3


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.5) == 500
    assert run.percentile(values, 0.99) == 990
    assert run.percentile([3.0], 0.99) == 3.0


def test_lookup_stream_times_from_due_time():
    clock = FakeClock()
    answers = {"a": 1.0}
    stream = part.LookupStream(["a", "b"], answers.get, {"a": 1.0}.get, rate=10.0, clock=clock)
    stream.start()
    clock.now = 0.25            # lookups due at 0.0, 0.1 and 0.2
    stream.serve_due()
    assert stream.issued == 3
    assert stream.latencies_ms == pytest.approx([250.0, 150.0, 50.0])
    assert stream.failed == 0
    answers["b"] = 2.0          # the program answers a key no job tuned
    clock.now = 0.3
    stream.serve_due()
    assert stream.failed == 1


def test_hooks_restore_the_originals():
    tracer = spans.Tracer()
    before = []
    for module_name, path, _, _ in spans.HOOKS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        before.append(owner)
    restore = spans.install(tracer)
    restore()
    for (module_name, path, _, _), original in zip(spans.HOOKS, before):
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert owner is original


def test_tracing_changes_no_trajectory():
    from repro.model import V100
    from repro.ops.workloads import SUITES

    optimize = importlib.import_module("repro.optimize")

    def digest():
        result = optimize.optimize(SUITES["GMM"][1].build(), V100, trials=3, seed=5)
        return (result.tuning.num_measurements, result.tuning.exploration_seconds,
                result.gflops, list(result.tuning.best_point))

    plain = digest()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = digest()
    finally:
        restore()
    assert traced == plain
    by_name = tracer.self_by_name()
    assert by_name["optimize"][1] == 1
    assert by_name["runtime.measure"][1] == plain[0]
