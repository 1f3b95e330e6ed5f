"""One part of a benchmark run: one workload, one seed, one fresh process.

``run.py`` starts this file once per part.  The part builds its inputs
from the seed and part index, opens cold stores in a temporary
directory, tunes, checks every output outside the timed region, and
prints one JSON object as the last line of its standard output.  With
``--trace 1`` it also installs the span hooks of ``spans.py`` around the
tuning phase and writes the spans to ``--spans-out`` when the part ends.

Every workload runs an open-loop stream of read-only lookups at
``LOOKUP_RATE``.  The process is single-threaded, so a lookup is served
at the next boundary between units of work (a job, a network slice, a
service slice); its latency, timed from when it was due, is how long a
unit blocks a reader.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.model import DEVICES, target_of  # noqa: E402
from repro.nn import LayerSpec, Network, tune_network  # noqa: E402
from repro.ops.workloads import Workload  # noqa: E402
from repro.runtime import RecordBook, op_signature_of, workload_key  # noqa: E402
from repro.schedule import lower, validate_schedule  # noqa: E402
from repro.serve import ServeConfig, TuningService  # noqa: E402
from repro.serve.jobstore import JobState  # noqa: E402
from repro.serve.service import OPERATORS  # noqa: E402
from repro.utils.serialization import config_from_dict  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# The package re-exports the function ``optimize`` under the submodule's
# name, so the module object has to come from the import system.
optimize_module = importlib.import_module("repro.optimize")


class LookupStream:
    """Open-loop lookups: lookup ``i`` is due ``i / rate`` seconds after
    :meth:`start`, and is answered at the first :meth:`serve_due` call
    after that.  Each answer is checked against ``expected``."""

    def __init__(self, keys: List, answer: Callable, expected: Callable,
                 rate: float = workloads.LOOKUP_RATE,
                 clock: Callable[[], float] = time.perf_counter):
        self.keys = keys
        self.answer = answer
        self.expected = expected
        self.rate = rate
        self.clock = clock
        self.t0 = 0.0
        self.issued = 0
        self.failed = 0
        self.latencies_ms: List[float] = []

    def start(self) -> None:
        self.t0 = self.clock()

    def serve_due(self) -> None:
        now = self.clock()
        while self.t0 + self.issued / self.rate <= now:
            due = self.t0 + self.issued / self.rate
            key = self.keys[self.issued % len(self.keys)]
            got = self.answer(key)
            self.latencies_ms.append((self.clock() - due) * 1e3)
            if got != self.expected(key):
                self.failed += 1
            self.issued += 1


def _gflops(record) -> Optional[float]:
    return None if record is None else record.gflops


def _key(item: Dict) -> str:
    return workload_key(item["operator"], item["params"], item["device"])


def _check_schedule(output, config, device, failures: List[str], label: str) -> bool:
    """Lower ``config`` and prove the loop nest is a bijection."""
    try:
        validate_schedule(lower(output, config, target_of(device)))
        return True
    except Exception as exc:  # noqa: BLE001 -- any failure is a wrong output
        failures.append(f"{label}: schedule fails validation: {exc}")
        return False


class UnitHook:
    """Wraps ``repro.optimize.optimize`` — the name the network scheduler
    and the service resolve for every slice — to note the engine mode of
    each call and, for the network, serve lookups at slice boundaries."""

    def __init__(self, after: Optional[Callable] = None):
        self.after = after
        self.engine_modes = set()
        self.original = optimize_module.optimize

    def __enter__(self):
        def optimize(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.engine_modes.add(result.tuning.throughput["engine_mode"])
            if self.after is not None:
                self.after(result)
            return result

        optimize_module.optimize = optimize
        return self

    def __exit__(self, *exc):
        optimize_module.optimize = self.original


# -- workloads ----------------------------------------------------------------
#
# Each ``setup_*`` builds inputs and opens stores (part of ``setup_s``);
# each ``run_*`` is the timed tuning phase and returns a ``checks``
# callable that runs after the clock stops.

def setup_ops(spec: Dict, store: Path, surrogate: bool) -> Dict:
    jobs = [
        (Workload(j["operator"], j["name"], j["params"]), DEVICES[j["device"]], j)
        for j in spec["jobs"]
    ]
    return {
        "jobs": jobs,
        "surrogate": surrogate,
        "records": RecordBook(),  # in memory: no persistence on op-*
        "lookup_keys": [_key(k) for k in spec["lookups"]],
    }


def run_ops(state: Dict) -> Dict:
    records = state["records"]
    ledger: Dict[str, float] = {}
    stream = LookupStream(
        state["lookup_keys"], lambda key: _gflops(records.best(key)), ledger.get
    )
    results = []
    stream.start()
    for workload, device, job in state["jobs"]:
        result = optimize_module.tune_workload(
            workload, device, records=records, trials=job["trials"],
            seed=job["seed"], surrogate=state["surrogate"],
        )
        if result.found:
            key = workload_key(workload.operator, workload.params, device.name)
            ledger[key] = max(ledger.get(key, 0.0), result.gflops)
        results.append(result)
        stream.serve_due()
    stream.serve_due()

    def checks(failures: List[str]) -> Dict:
        ok = 0
        for (workload, device, _), result in zip(state["jobs"], results):
            label = f"{workload} on {device.name}"
            if not result.found:
                failures.append(f"{label}: no schedule found")
            elif _check_schedule(workload.build(), result.config, device, failures, label):
                ok += 1
        return {"attempted": len(results), "ok": ok}

    return {
        "stream": stream,
        "engine_modes": {r.tuning.throughput["engine_mode"] for r in results},
        "digest": {
            "explore_sim_s": sum(r.tuning.exploration_seconds for r in results),
            "real_measurements": sum(r.tuning.num_measurements for r in results),
            "gflops": [r.gflops for r in results],
            "latencies_ms": [r.kernel_seconds * 1e3 for r in results],
        },
        "checks": checks,
    }


def setup_net(spec: Dict, store: Path) -> Dict:
    device = DEVICES[spec["device"]]
    layers = [
        LayerSpec(Workload(l["operator"], l["name"], l["params"])) for l in spec["layers"]
    ]
    by_key: Dict[str, str] = {}
    for k in spec["lookups"]:
        if _key(k) not in by_key:
            by_key[_key(k)] = op_signature_of(
                OPERATORS[k["operator"]](**k["params"]), DEVICES[k["device"]]
            )
    signatures = [by_key[_key(k)] for k in spec["lookups"]]
    return {
        "network": Network("MobileNet-v1", layers),
        "device": device,
        "trials": spec["trials"],
        "seed": spec["seed"],
        "records": RecordBook(store / "records.jsonl"),
        "eval_cache": store / "evalcache",
        "checkpoint_dir": store / "network-checkpoints",
        "lookup_keys": signatures,
    }


def run_net(state: Dict) -> Dict:
    records = state["records"]
    ledger: Dict[str, float] = {}
    stream = LookupStream(
        state["lookup_keys"],
        lambda sig: _gflops(records.best_for_signature(sig)),
        ledger.get,
    )

    def after_slice(result) -> None:
        # The scheduler stamps a slice's record after optimize() returns,
        # so lookups served here must see the previous slices only.
        stream.serve_due()
        if result.found:
            signature = result.evaluator.op_signature()
            ledger[signature] = max(ledger.get(signature, 0.0), result.gflops)

    stream.start()
    with UnitHook(after_slice) as hook:
        result = tune_network(
            state["network"], state["device"], trials=state["trials"],
            seed=state["seed"], records=records, eval_cache=state["eval_cache"],
            checkpoint_dir=state["checkpoint_dir"],
        )
    stream.serve_due()

    def checks(failures: List[str]) -> Dict:
        ok = 0
        for task in result.tasks:
            label = f"task {task.index} {task.workload}"
            if task.config_dict is None:
                failures.append(f"{label}: no schedule found")
            elif _check_schedule(
                task.workload.build(), config_from_dict(task.config_dict),
                state["device"], failures, label,
            ):
                ok += 1
        if not math.isfinite(result.total_seconds):
            failures.append("network latency is not finite")
        return {"attempted": len(result.tasks), "ok": ok}

    return {
        "stream": stream,
        "engine_modes": hook.engine_modes,
        "digest": {
            "explore_sim_s": result.exploration_seconds,
            "real_measurements": result.total_measurements,
            "gflops": [t.best_gflops for t in result.tasks],
            "latencies_ms": [result.total_seconds * 1e3],
        },
        "checks": checks,
    }


def setup_serve(spec: Dict, store: Path) -> Dict:
    service = TuningService(
        store, ServeConfig(slice_trials=spec["slice_trials"], workers=1)
    )
    return {
        "service": service,
        "submissions": spec["submissions"],
        "lookup_keys": spec["lookups"],
    }


def run_serve(state: Dict) -> Dict:
    service = state["service"]
    ledger: Dict[str, float] = {}
    stream = LookupStream(
        state["lookup_keys"],
        lambda k: _gflops(service.lookup(k["operator"], k["params"], k["device"])),
        lambda k: ledger.get(_key(k)),
    )
    pending = sorted(state["submissions"], key=lambda s: s["at_slice"])
    submitted = []
    stream.start()
    idle = False
    with UnitHook() as hook:
        while True:
            # Submit at the scripted slice index, or at once if the
            # service ran dry before reaching it.
            while pending and (idle or pending[0]["at_slice"] <= service.slices_run):
                s = pending.pop(0)
                job = service.submit(
                    s["tenant"], s["operator"], s["params"], s["device"],
                    trials=s["trials"], seed=s["seed"],
                )
                submitted.append(job)
            stream.serve_due()
            job_id = service.step()
            idle = job_id is None
            if idle:
                if not pending:
                    break
                continue
            job = service.store.jobs[job_id]
            if job.state is JobState.DONE:
                key = workload_key(job.operator, job.params, job.device)
                ledger[key] = max(ledger.get(key, 0.0), job.best_gflops)
    stream.serve_due()

    def checks(failures: List[str]) -> Dict:
        ok = 0
        for job in submitted:
            label = f"{job.job_id} {job.operator} on {job.device}"
            if job.state is not JobState.DONE:
                failures.append(f"{label}: ended {job.state.value}")
                continue
            record = service.records.best(workload_key(job.operator, job.params, job.device))
            if record is None:
                failures.append(f"{label}: no record for a finished job")
            elif _check_schedule(
                OPERATORS[job.operator](**job.params), record.config,
                DEVICES[job.device], failures, label,
            ):
                ok += 1
        return {"attempted": len(submitted), "ok": ok}

    return {
        "stream": stream,
        "engine_modes": hook.engine_modes,
        "digest": {
            "explore_sim_s": sum(j.sim_seconds for j in submitted),
            "real_measurements": sum(j.num_measurements for j in submitted),
            "gflops": [j.best_gflops for j in submitted],
            "latencies_ms": [
                Workload(j.operator, j.job_id, j.params).flops() / (j.best_gflops * 1e6)
                for j in submitted if j.best_gflops > 0
            ],
        },
        "checks": checks,
    }


SETUP = {
    "op-search": lambda spec, store: setup_ops(spec, store, surrogate=False),
    "op-screened": lambda spec, store: setup_ops(spec, store, surrogate=True),
    "net-tune": setup_net,
    "serve-mixed": setup_serve,
}
RUN = {
    "op-search": run_ops,
    "op-screened": run_ops,
    "net-tune": run_net,
    "serve-mixed": run_serve,
}


def run_part(workload: str, seed: int, part: int, trace: bool, spawned_at: float,
             spans_out: Optional[str]) -> Dict:
    store = Path(tempfile.mkdtemp(prefix=f"{workload}-"))
    try:
        spec = workloads.generate(workload, seed, part)
        state = SETUP[workload](spec, store)
        setup_s = time.time() - spawned_at

        tracer = spans.Tracer() if trace else None
        restore = spans.install(tracer) if trace else None
        started = time.perf_counter()
        try:
            outcome = RUN[workload](state)
        finally:
            wall = time.perf_counter() - started
            if restore is not None:
                restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures: List[str] = []
        jobs = outcome["checks"](failures)
        stream = outcome["stream"]
        if stream.failed:
            failures.append(f"{stream.failed} lookups disagreed with the ledger")
        result = {
            "workload": workload,
            "seed": seed,
            "part": part,
            "traced": trace,
            "setup_s": setup_s,
            "tune_wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "lookup_ms": stream.latencies_ms,
            "digest": outcome["digest"],
            "engine_modes": sorted(outcome["engine_modes"]),
            "attempted": jobs["attempted"] + stream.issued,
            "failed": (jobs["attempted"] - jobs["ok"]) + stream.failed,
            "failures": failures[:20],
        }
        if tracer is not None:
            result["spans"] = {"self": tracer.self_by_name(), "counts": dict(tracer.counts)}
            if spans_out:
                Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
                Path(spans_out).write_text(json.dumps(tracer.dump()))
        return result
    finally:
        shutil.rmtree(store, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() at which the parent started this process")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    result = run_part(args.workload, args.seed, args.part, bool(args.trace),
                      args.spawned_at, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
