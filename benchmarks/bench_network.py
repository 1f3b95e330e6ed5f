"""Network-level scheduler benchmark: uniform vs allocated.

Not a pytest test — run it directly after a change to the scheduler:

    PYTHONPATH=src python benchmarks/bench_network.py
    PYTHONPATH=src python benchmarks/bench_network.py --ablate

For YOLO-v1 and OverFeat (batch 1, V100, simulated) it tunes the whole
network twice from a cold store:

* **uniform** — every distinct layer independently with an identical
  ``TRIALS`` budget (``tune_network(allocate=False)``, the historical
  ``optimize_network`` behavior), and
* **allocated** — the network-level task scheduler
  (:mod:`repro.nn.tuner`): layers deduped by operator signature,
  weight-ranked trial slices with an ε floor, early stopping on
  plateaus, and multi-start restarts reinvesting the saved budget into
  the heavy-with-headroom tasks.

Acceptance criteria (per network, recorded as booleans):

* ``latency_le_uniform`` — allocated end-to-end latency is equal or
  better than uniform's, and
* ``measurement_savings_ge_30pct`` — allocated spends >= 30% fewer
  total real measurements.

Results land in ``BENCH_network.json`` at the repo root.  ``--quick``
runs OverFeat only (the adversarial case: no duplicate signatures, so
nothing is saved by dedup alone) at the same budget and criteria,
writes ``BENCH_network_quick.json`` instead, and exits nonzero if any
criterion is false — the CI perf-smoke mode.  Its criteria are
simulated latencies and measurement counts, so they do not depend on
the host.

``--ablate`` measures what each knob-backed scheduler element buys: on
YOLO-v1, OverFeat and MobileNet-v1 (the repository benchmark's
``net-tune`` network, built from ``perfbench/workloads.py``) it runs the
allocated arm once per element switched off (``ABLATIONS``) and writes
the latency ratio and measurement savings against uniform per arm to
``BENCH_network_ablation.json``.  It records numbers only; no criterion
gates on them.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.model import V100                              # noqa: E402
from repro.nn import (                                    # noqa: E402
    LayerSpec,
    Network,
    overfeat,
    tune_network,
    yolo_v1,
)
from repro.ops.workloads import Workload                  # noqa: E402

TRIALS = 50
SEED = 0
# Scheduler knobs used for the comparison arm (see docs/network.md).
SCHEDULER = dict(
    budget_frac=0.60,
    slice_trials=4,
    topup_frac=0.4,
    max_restarts=1,
    restart_trials=12,
)
# Each knob-backed scheduler element and the setting that switches it
# off (``--ablate``).
ABLATIONS = {
    "floor": {"starve_rounds": 10**9},
    "patience": {"patience": 10**9},
    "cap_boost": {"cap_boost": 1.0},
    "restarts": {"max_restarts": 0},
    "topup": {"topup_frac": 0},
}


def mobilenet_v1():
    """MobileNet-v1 as the repository benchmark's ``net-tune`` workload
    defines it (27 layers, multiplicity 1 each)."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import mobilenet_layers

    return Network("MobileNet-v1", [
        LayerSpec(Workload(layer["operator"], layer["name"], layer["params"]))
        for layer in mobilenet_layers()
    ])


def tune_allocated(network, trials, scheduler_kwargs):
    """The allocated arm from a cold shared store, and its wall time."""
    with tempfile.TemporaryDirectory() as store:
        start = time.perf_counter()
        allocated = tune_network(
            network, V100, trials=trials, seed=SEED,
            records=Path(store) / "records.jsonl",
            eval_cache=Path(store) / "evalcache",
            **scheduler_kwargs,
        )
        return allocated, time.perf_counter() - start


def versus_uniform(allocated, uniform):
    """(latency ratio, measurement savings) of an allocated run."""
    ratio = (
        allocated.total_seconds / uniform.total_seconds
        if uniform.total_seconds else float("inf")
    )
    savings = (
        1.0 - allocated.total_measurements / uniform.total_measurements
        if uniform.total_measurements else 0.0
    )
    return ratio, savings


def run_pair(network, trials, scheduler_kwargs):
    """Tune one network both ways from a cold shared store."""
    uniform = tune_network(
        network, V100, trials=trials, seed=SEED, allocate=False,
    )
    allocated, allocated_wall = tune_allocated(network, trials, scheduler_kwargs)
    ratio, savings = versus_uniform(allocated, uniform)
    return {
        "layers": network.num_layers,
        "distinct_tasks": len(allocated.tasks),
        "dedup_layers_covered": allocated.dedup_layers_covered,
        "uniform": {
            "total_ms": uniform.total_seconds * 1e3,
            "gflops": uniform.gflops,
            "trials_spent": uniform.trials_spent,
            "total_measurements": uniform.total_measurements,
            "exploration_seconds": uniform.exploration_seconds,
            "wall_seconds": uniform.wall_seconds,
        },
        "allocated": {
            "total_ms": allocated.total_seconds * 1e3,
            "gflops": allocated.gflops,
            "trials_budget": allocated.trials_budget,
            "trials_spent": allocated.trials_spent,
            "total_measurements": allocated.total_measurements,
            "exploration_seconds": allocated.exploration_seconds,
            "wall_seconds": allocated_wall,
            "rounds": allocated.rounds,
            "slices": allocated.slices_run,
            "restarts": sum(t.restarts for t in allocated.tasks),
            "tasks": [
                {
                    "op": f"{t.workload.operator}:{t.workload.name}",
                    "multiplicity": t.multiplicity,
                    "trials": t.trials_done,
                    "restarts": t.restarts,
                    "best_gflops": t.best_gflops,
                    "done": t.done_reason,
                    "warm": t.warm_source,
                }
                for t in allocated.tasks
            ],
        },
        "measurement_savings": savings,
        "latency_ratio": ratio,
    }


def ablate() -> int:
    """Allocated arm with each scheduler element switched off in turn."""
    payload = {
        "benchmark": "bench_network --ablate",
        "trials": TRIALS,
        "seed": SEED,
        "scheduler": SCHEDULER,
        "ablations": ABLATIONS,
        "networks": {},
    }
    arms = {"full": {}, **{f"no_{name}": knobs for name, knobs in ABLATIONS.items()}}
    for network in (yolo_v1(), overfeat(), mobilenet_v1()):
        print(f"== {network.name} ==")
        uniform = tune_network(network, V100, trials=TRIALS, seed=SEED, allocate=False)
        entry = {
            "uniform": {
                "total_ms": uniform.total_seconds * 1e3,
                "total_measurements": uniform.total_measurements,
            },
            "arms": {},
        }
        print(
            f"  {'uniform':<12}: {uniform.total_seconds * 1e3:8.4f} ms, "
            f"{uniform.total_measurements:6d} measurements"
        )
        for arm, knobs in arms.items():
            allocated, _ = tune_allocated(network, TRIALS, {**SCHEDULER, **knobs})
            ratio, savings = versus_uniform(allocated, uniform)
            entry["arms"][arm] = {
                "total_ms": allocated.total_seconds * 1e3,
                "total_measurements": allocated.total_measurements,
                "latency_ratio": ratio,
                "measurement_savings": savings,
            }
            print(
                f"  {arm:<12}: {allocated.total_seconds * 1e3:8.4f} ms, "
                f"{allocated.total_measurements:6d} measurements "
                f"(latency x{ratio:.4f}, {savings:.1%} saved)"
            )
        payload["networks"][network.name] = entry
    out = REPO_ROOT / "BENCH_network_ablation.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def main(quick: bool = False) -> int:
    trials = TRIALS
    networks = [overfeat()] if quick else [yolo_v1(), overfeat()]
    payload = {
        "benchmark": "bench_network",
        "quick": quick,
        "trials": trials,
        "seed": SEED,
        "scheduler": SCHEDULER,
        "networks": {},
    }
    criteria = {}
    for network in networks:
        print(f"== {network.name} ==")
        entry = run_pair(network, trials, SCHEDULER)
        payload["networks"][network.name] = entry
        uni, alloc = entry["uniform"], entry["allocated"]
        print(
            f"  uniform  : {uni['total_ms']:8.4f} ms end-to-end, "
            f"{uni['total_measurements']:6d} real measurements "
            f"({uni['trials_spent']} trials)"
        )
        print(
            f"  allocated: {alloc['total_ms']:8.4f} ms end-to-end, "
            f"{alloc['total_measurements']:6d} real measurements "
            f"({alloc['trials_spent']}/{alloc['trials_budget']} trials, "
            f"{alloc['restarts']} restarts, "
            f"{entry['dedup_layers_covered']} layers deduped)"
        )
        print(
            f"  latency x{entry['latency_ratio']:.4f}, "
            f"measurements saved {entry['measurement_savings']:.1%}"
        )
        short = network.name.lower().replace("-", "_")
        criteria[f"{short}_latency_ratio"] = entry["latency_ratio"]
        criteria[f"{short}_latency_le_uniform"] = entry["latency_ratio"] <= 1.0
        criteria[f"{short}_measurement_savings"] = entry["measurement_savings"]
        criteria[f"{short}_measurement_savings_ge_30pct"] = (
            entry["measurement_savings"] >= 0.30
        )
    payload["criteria"] = criteria

    out = REPO_ROOT / (
        "BENCH_network_quick.json" if quick else "BENCH_network.json"
    )
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    failed = []
    for key, value in criteria.items():
        print(f"  {key}: {value}")
        if value is False:
            failed.append(key)
    if failed:
        print(f"FAILED criteria: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="OverFeat only (same budget and criteria); exit nonzero on "
        "any false criterion",
    )
    parser.add_argument(
        "--ablate", action="store_true",
        help="switch each scheduler element off in turn on YOLO-v1, "
        "OverFeat and MobileNet-v1; write BENCH_network_ablation.json",
    )
    args = parser.parse_args()
    sys.exit(ablate() if args.ablate else main(quick=args.quick))
