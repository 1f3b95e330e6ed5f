"""In-memory span tracer and the layer hooks the traced run installs.

A span records (name, start, end, parent).  A span's *self time* is its
duration minus the part of that interval its child spans cover; summed
per name, self times attribute every traced second to exactly one layer,
and whatever no span covers is the run's ``untracked_s``.

Hooks wrap public functions of ``repro`` at the name their caller
resolves (a module global such as ``repro.runtime.measure.lower``, or a
class attribute such as ``Evaluator.measure``).  A wrapper only reads
the clock, counts, and calls through with the same arguments, so tracing
changes no trajectory.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Spans kept in memory; nothing is written until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def self_times(self) -> List[float]:
        """Self time of every span, by index."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(index)
        return [
            self_time(
                (self.starts[i], self.ends[i]),
                [(self.starts[c], self.ends[c]) for c in children.get(i, ())],
            )
            for i in range(len(self.names))
        ]

    def self_by_name(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (summed self seconds, span count)``."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for name, seconds in zip(self.names, self.self_times()):
            totals[name][0] += seconds
            totals[name][1] += 1
        return {name: (s, int(n)) for name, (s, n) in totals.items()}

    def dump(self) -> Dict:
        """Column-wise span table for writing out at the end of a run."""
        return {
            "names": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "counts": dict(self.counts),
        }


def self_time(span: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Duration of ``span`` minus the union of ``children`` clipped to it."""
    start, end = span
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, cursor)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


# -- hooks ------------------------------------------------------------------

def _screen_counts(tracer, args, result):
    tracer.count("explore.surrogate.submitted", len(args[1]))
    tracer.count("explore.surrogate.screened", len(result.screened))


def _batch_counts(tracer, args, result):
    tracer.count("runtime.parallel.points", len(args[1]))


def _measure_counts(tracer, args, result):
    if not result.status.ok:
        tracer.count("runtime.measure.failed")


def _save_counts(tracer, args, result):
    tracer.count("runtime.checkpoint.bytes", os.path.getsize(args[0]))


def _cache_counts(tracer, args, result):
    if result is not None:
        tracer.count("runtime.cache.hits")


def _lookup_counts(tracer, args, result):
    if result is not None:
        tracer.count("serve.lookup_hits")


def _optimize_counts(tracer, args, result):
    lowering = result.tuning.lowering or {}
    tracer.count("schedule.memo_hits", lowering.get("hits", 0))
    tracer.count("schedule.memo_lookups", lowering.get("hits", 0) + lowering.get("misses", 0))


def _network_counts(tracer, args, result):
    tracer.count("nn.tuner.slices", result.slices_run)
    tracer.count("nn.tuner.dedup_layers", result.dedup_layers_covered)
    tracer.count("nn.tuner.useful_slices", useful_slices(result.trace))


#: (module, attribute path, span name, counter) — one wrapper each.  The
#: attribute is the name the *caller* resolves: ``optimize`` is reached
#: through the package by the network scheduler and the service, and
#: through ``repro.optimize.api`` by ``tune_workload``.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.optimize", "optimize", "optimize", _optimize_counts),
    ("repro.optimize.api", "optimize", "optimize", _optimize_counts),
    ("repro.optimize.api", "analyze", "analysis.analyze", None),
    ("repro.optimize.api", "build_space", "space.build", None),
    ("repro.explore.tuner", "BaseTuner.tune", "explore.tuner", None),
    ("repro.explore.tuner", "FlexTensorTuner.get_state", "explore.tuner.state", None),
    ("repro.explore.tuner", "FlexTensorTuner.set_state", "explore.tuner.state", None),
    ("repro.explore.tuner", "select_starting_points", "explore.sa.select", None),
    ("repro.explore.qlearning", "QAgent.choose_direction", "explore.qlearning.choose", None),
    ("repro.explore.qlearning", "QAgent.train", "explore.qlearning.train", None),
    ("repro.explore.surrogate", "SurrogateScreen.screen", "explore.surrogate.screen", _screen_counts),
    ("repro.explore.surrogate", "batch_point_features", "codegen.features", None),
    ("repro.explore.surrogate", "point_features", "codegen.features", None),
    ("repro.learn.gbt", "GradientBoostedTrees.fit", "learn.gbt.fit", None),
    ("repro.learn.gbt", "GradientBoostedTrees.predict", "learn.gbt.predict", None),
    ("repro.runtime.parallel", "BatchEngine.evaluate_batch", "runtime.parallel.batch", _batch_counts),
    ("repro.runtime.measure", "Evaluator.measure", "runtime.measure", _measure_counts),
    ("repro.runtime.measure", "lower", "schedule.lower", None),
    ("repro.model.gpu", "GpuModel.estimate_seconds", "model.estimate", None),
    ("repro.model.cpu", "CpuModel.estimate_seconds", "model.estimate", None),
    ("repro.model.fpga", "FpgaModel.estimate_seconds", "model.estimate", None),
    ("repro.explore.tuner", "save_checkpoint", "runtime.checkpoint.save", _save_counts),
    ("repro.nn.tuner", "save_checkpoint", "runtime.checkpoint.save", _save_counts),
    ("repro.explore.tuner", "load_checkpoint", "runtime.checkpoint.load", None),
    ("repro.nn.tuner", "load_checkpoint", "runtime.checkpoint.load", None),
    ("repro.runtime.cache", "EvalCache.get", "runtime.cache.get", _cache_counts),
    ("repro.runtime.cache", "EvalCache.put", "runtime.cache.put", None),
    ("repro.runtime.records", "RecordBook.add", "runtime.records.add", None),
    ("repro.runtime.records", "RecordBook.best", "runtime.records.read", None),
    ("repro.runtime.records", "RecordBook.best_for_signature", "runtime.records.read", None),
    ("repro.nn.tuner", "NetworkTaskScheduler.plan_round", "nn.tuner.plan", None),
    ("repro.nn.tuner", "NetworkTaskScheduler.run", "nn.tuner", _network_counts),
    ("repro.serve.service", "TuningService.step", "serve.step", None),
    ("repro.serve.service", "TuningService.lookup", "serve.lookup", _lookup_counts),
    ("repro.serve.jobstore", "JobStore.submit", "serve.jobstore.wal", None),
    ("repro.serve.jobstore", "JobStore.transition", "serve.jobstore.wal", None),
    ("repro.serve.jobstore", "JobStore.note", "serve.jobstore.wal", None),
    ("repro.serve.scheduler", "Scheduler.pick", "serve.scheduler.pick", None),
)


def _wrap(tracer: Tracer, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


def install(tracer: Tracer, hooks=HOOKS) -> Callable[[], None]:
    """Wrap every hook; returns a function that restores the originals."""
    undo = []
    wrapped: Dict[int, Callable] = {}
    for module_name, path, name, counter in hooks:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        # One wrapper per function object: ``optimize`` is bound under two
        # names and must open one span per call, not two.
        if id(original) not in wrapped:
            wrapped[id(original)] = _wrap(tracer, original, name, counter)
        setattr(owner, attr, wrapped[id(original)])
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def useful_slices(trace: Sequence[Dict]) -> int:
    """Slices that raised their task's best GFLOPS (a network trace)."""
    best: Dict[int, float] = {}
    useful = 0
    for entry in trace:
        task = entry["task"]
        if entry["best_gflops"] > best.get(task, 0.0):
            useful += 1
        best[task] = max(best.get(task, 0.0), entry["best_gflops"])
    return useful


# -- per-layer metrics ------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metric -> unit.  Every ``_s`` metric is summed *self* time.
LAYER_METRICS: Dict[str, str] = {
    "optimize.calls": "count",
    "optimize.self_s": "s",
    "analysis.analyze_s": "s",
    "space.build_s": "s",
    "explore.tuner.self_s": "s",
    "explore.tuner.state_s": "s",
    "explore.qlearning.choose_s": "s",
    "explore.qlearning.train_s": "s",
    "explore.sa.select_s": "s",
    "explore.surrogate.screen_s": "s",
    "explore.surrogate.screened_frac": "fraction",
    "learn.gbt.fit_s": "s",
    "learn.gbt.fit_calls": "count",
    "learn.gbt.predict_s": "s",
    "codegen.features_s": "s",
    "runtime.parallel.batch_s": "s",
    "runtime.parallel.points": "count",
    "runtime.measure.calls": "count",
    "runtime.measure.self_s": "s",
    "runtime.measure.fail_frac": "fraction",
    "schedule.lower_s": "s",
    "schedule.lower_calls": "count",
    "schedule.memo_hit_rate": "fraction",
    "model.estimate_s": "s",
    "model.estimate_calls": "count",
    "runtime.checkpoint.save_s": "s",
    "runtime.checkpoint.save_calls": "count",
    "runtime.checkpoint.bytes": "bytes",
    "runtime.checkpoint.load_s": "s",
    "runtime.cache.get_s": "s",
    "runtime.cache.put_s": "s",
    "runtime.cache.hit_rate": "fraction",
    "runtime.records.add_s": "s",
    "runtime.records.read_s": "s",
    "nn.tuner.plan_s": "s",
    "nn.tuner.self_s": "s",
    "nn.tuner.slices": "count",
    "nn.tuner.dedup_layers": "count",
    "nn.tuner.useful_slice_frac": "fraction",
    "serve.step_s": "s",
    "serve.lookup_s": "s",
    "serve.jobstore.wal_s": "s",
    "serve.scheduler.pick_s": "s",
    "serve.lookup_hit_rate": "fraction",
    "untracked_s": "s",
    "trace_overhead_frac": "fraction",
}


def layer_metrics(by_name: Dict[str, Tuple[float, int]], counts: Dict[str, float],
                  wall_seconds: float) -> Dict[str, float]:
    """Per-layer numbers from ``Tracer.self_by_name()`` and
    ``Tracer.counts`` (summed over parts) and the traced wall time; all
    but ``trace_overhead_frac``, which needs untraced parts to compare."""
    c = defaultdict(float, counts)

    def self_s(name: str) -> float:
        return by_name.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return by_name.get(name, (0.0, 0))[1]

    traced_self = sum(seconds for seconds, _ in by_name.values())
    return {
        "optimize.calls": calls("optimize"),
        "optimize.self_s": self_s("optimize"),
        "analysis.analyze_s": self_s("analysis.analyze"),
        "space.build_s": self_s("space.build"),
        "explore.tuner.self_s": self_s("explore.tuner"),
        "explore.tuner.state_s": self_s("explore.tuner.state"),
        "explore.qlearning.choose_s": self_s("explore.qlearning.choose"),
        "explore.qlearning.train_s": self_s("explore.qlearning.train"),
        "explore.sa.select_s": self_s("explore.sa.select"),
        "explore.surrogate.screen_s": self_s("explore.surrogate.screen"),
        "explore.surrogate.screened_frac": _ratio(
            c["explore.surrogate.screened"], c["explore.surrogate.submitted"]
        ),
        "learn.gbt.fit_s": self_s("learn.gbt.fit"),
        "learn.gbt.fit_calls": calls("learn.gbt.fit"),
        "learn.gbt.predict_s": self_s("learn.gbt.predict"),
        "codegen.features_s": self_s("codegen.features"),
        "runtime.parallel.batch_s": self_s("runtime.parallel.batch"),
        "runtime.parallel.points": int(c["runtime.parallel.points"]),
        "runtime.measure.calls": calls("runtime.measure"),
        "runtime.measure.self_s": self_s("runtime.measure"),
        "runtime.measure.fail_frac": _ratio(
            c["runtime.measure.failed"], calls("runtime.measure")
        ),
        "schedule.lower_s": self_s("schedule.lower"),
        "schedule.lower_calls": calls("schedule.lower"),
        "schedule.memo_hit_rate": _ratio(
            c["schedule.memo_hits"], c["schedule.memo_lookups"]
        ),
        "model.estimate_s": self_s("model.estimate"),
        "model.estimate_calls": calls("model.estimate"),
        "runtime.checkpoint.save_s": self_s("runtime.checkpoint.save"),
        "runtime.checkpoint.save_calls": calls("runtime.checkpoint.save"),
        "runtime.checkpoint.bytes": int(c["runtime.checkpoint.bytes"]),
        "runtime.checkpoint.load_s": self_s("runtime.checkpoint.load"),
        "runtime.cache.get_s": self_s("runtime.cache.get"),
        "runtime.cache.put_s": self_s("runtime.cache.put"),
        "runtime.cache.hit_rate": _ratio(
            c["runtime.cache.hits"], calls("runtime.cache.get")
        ),
        "runtime.records.add_s": self_s("runtime.records.add"),
        "runtime.records.read_s": self_s("runtime.records.read"),
        "nn.tuner.plan_s": self_s("nn.tuner.plan"),
        "nn.tuner.self_s": self_s("nn.tuner"),
        "nn.tuner.slices": int(c["nn.tuner.slices"]),
        "nn.tuner.dedup_layers": int(c["nn.tuner.dedup_layers"]),
        "nn.tuner.useful_slice_frac": _ratio(
            c["nn.tuner.useful_slices"], c["nn.tuner.slices"]
        ),
        "serve.step_s": self_s("serve.step"),
        "serve.lookup_s": self_s("serve.lookup"),
        "serve.jobstore.wal_s": self_s("serve.jobstore.wal"),
        "serve.scheduler.pick_s": self_s("serve.scheduler.pick"),
        "serve.lookup_hit_rate": _ratio(
            c["serve.lookup_hits"], calls("serve.lookup")
        ),
        "untracked_s": wall_seconds - traced_self,
    }
