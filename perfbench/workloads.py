"""Seeded input generators for the four benchmark workloads.

Each generator is a pure function of the seed and returns plain data
(JSON-compatible dicts and lists); the program under test only ever sees
the inputs built from it.  Why each workload exists, and which layer
metric it is meant to move, is written down in ``README.md``.

A run of one seed is split into *parts*, each run in its own process;
part ``k`` of seed ``s`` draws from ``random.Random(s * 1000003 + k)``.
The seed draws the search seeds, the job order and the lookup stream,
but not the problem shapes: each operator family contributes the median
test case of its Table 3 suite.  Drawing shapes from the whole suite
moved the geometric-mean GFLOPS of ``op-search`` by 14% between seeds,
which would hide any regression smaller than that.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.ops.workloads import OPERATOR_NAMES, SUITES

#: The paper's three targets: GPU, CPU and FPGA.
DEVICES = ("V100", "XeonE5-2699v4", "VU9P")

#: Open-loop lookup rate (lookups per wall second), every workload.
LOOKUP_RATE = 1000.0

OP_SEARCH_TRIALS = 10
OP_SCREENED_TRIALS = 6
OP_SCREENED_OPERATORS = ("GMM", "C2D")
NET_TRIALS = 3
SERVE_TRIALS = 6
SERVE_SLICE_TRIALS = 2


def _median_case(operator: str):
    suite = SUITES[operator]
    return suite[len(suite) // 2]


def _other_cases(operator: str):
    suite = SUITES[operator]
    return [w for i, w in enumerate(suite) if i != len(suite) // 2]


def _job(workload, device: str, rng: random.Random, trials: int) -> Dict:
    return {
        "operator": workload.operator,
        "name": workload.name,
        "params": dict(workload.params),
        "device": device,
        "seed": rng.randrange(1 << 30),
        "trials": trials,
    }


def _untuned_keys(rng: random.Random, operators, count: int) -> List[Dict]:
    """Shapes no job tunes: other cases of the same suites."""
    keys = []
    for _ in range(count):
        workload = rng.choice(_other_cases(rng.choice(list(operators))))
        keys.append({
            "operator": workload.operator,
            "params": dict(workload.params),
            "device": rng.choice(DEVICES),
        })
    return keys


def _lookup_order(rng: random.Random, tuned: List[Dict], untuned: List[Dict],
                  length: int = 4096) -> List[Dict]:
    """Half the lookups ask for a key some job tunes, half for one none does."""
    return [
        rng.choice(tuned if rng.random() < 0.5 else untuned) for _ in range(length)
    ]


def _rng(seed: int, part: int) -> random.Random:
    return random.Random(seed * 1_000_003 + part)


def op_jobs(rng: random.Random, operators, trials: int) -> Dict:
    """One job per (operator, device) stratum, in a seeded order."""
    jobs = [
        _job(_median_case(op), device, rng, trials)
        for op in operators for device in DEVICES
    ]
    rng.shuffle(jobs)
    tuned = [{k: job[k] for k in ("operator", "params", "device")} for job in jobs]
    untuned = _untuned_keys(rng, operators, len(tuned))
    return {"jobs": jobs, "lookups": _lookup_order(rng, tuned, untuned)}


def op_search(seed: int, part: int) -> Dict:
    """Every Table 3 operator on every device: 36 jobs per part."""
    return op_jobs(_rng(seed, part), OPERATOR_NAMES, OP_SEARCH_TRIALS)


def op_screened(seed: int, part: int) -> Dict:
    """GEMM and 2-D convolution on every device: 6 screened jobs per part.

    Every part tunes the same operators: rotating through all twelve
    moved the summed kernel latency by 25% between seeds, since a few
    large kernels dominate that sum."""
    return op_jobs(_rng(seed, part), OP_SCREENED_OPERATORS, OP_SCREENED_TRIALS)


def _c2d(c: int, k: int, hw: int, kernel: int, stride: int) -> Dict:
    return {
        "operator": "C2D",
        "name": f"c2d_{c}x{hw}_k{k}_f{kernel}s{stride}",
        "params": {
            "batch": 1, "in_channel": c, "height": hw, "width": hw,
            "out_channel": k, "kernel": kernel, "stride": stride,
            "padding": kernel // 2,
        },
    }


def _dep(c: int, hw: int, stride: int) -> Dict:
    return {
        "operator": "DEP",
        "name": f"dep_{c}x{hw}_s{stride}",
        "params": {
            "batch": 1, "in_channel": c, "height": hw, "width": hw,
            "multiplier": 1, "kernel": 3, "stride": stride, "padding": 1,
        },
    }


#: MobileNet-v1 body after the stem: (pointwise out channels, depthwise stride).
MOBILENET_BLOCKS = (
    (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
    (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1),
)


def mobilenet_layers() -> List[Dict]:
    """A stem conv, then 13 depthwise + pointwise 1x1 blocks, each layer
    listed once (27 layers; the five identical middle blocks are what
    signature dedup collapses)."""
    layers = [_c2d(3, 32, 224, 3, 2)]
    channels, hw = 32, 112
    for out_channels, stride in MOBILENET_BLOCKS:
        layers.append(_dep(channels, hw, stride))
        hw //= stride
        layers.append(_c2d(channels, out_channels, hw, 1, 1))
        channels = out_channels
    return layers


def net_tune(seed: int, part: int) -> Dict:
    """The network is fixed; the seed drives the scheduler's search seed
    and the lookup stream (network layers vs. suite shapes)."""
    rng = _rng(seed, part)
    layers = mobilenet_layers()
    tuned = [
        {"operator": layer["operator"], "params": layer["params"], "device": "V100"}
        for layer in layers
    ]
    # The DEP suite holds MobileNet's own depthwise shapes, so the shapes
    # no layer uses come from the C2D (YOLO) and DIL suites.
    untuned = [
        {**key, "device": "V100"} for key in _untuned_keys(rng, ("C2D", "DIL"), 16)
    ]
    return {
        "layers": layers,
        "device": "V100",
        "trials": NET_TRIALS,
        "seed": rng.randrange(1 << 30),
        "lookups": _lookup_order(rng, tuned, untuned),
    }


#: (submit at slice index, tenant, operator, device).  Tenants ``alpha``
#: and ``beta`` tune the same workload so the shared EvalCache is read;
#: jobs submitted at a later slice index make writes interleave with slices.
SERVE_SUBMISSIONS = (
    (0, "alpha", "GMM", "V100"),
    (0, "beta", "GMM", "V100"),
    (0, "gamma", "C2D", "V100"),
    (0, "gamma", "DEP", "XeonE5-2699v4"),
    (4, "alpha", "C1D", "VU9P"),
    (4, "beta", "C1D", "VU9P"),
    (8, "gamma", "GMV", "XeonE5-2699v4"),
    (8, "alpha", "T2D", "V100"),
)


def serve_mixed(seed: int, part: int) -> Dict:
    rng = _rng(seed, part)
    submissions = []
    for slice_index, tenant, operator, device in SERVE_SUBMISSIONS:
        job = _job(_median_case(operator), device, rng, SERVE_TRIALS)
        submissions.append({"at_slice": slice_index, "tenant": tenant, **job})
    keys = {}
    for job in submissions:
        key = {k: job[k] for k in ("operator", "params", "device")}
        keys[repr(sorted(key.items()))] = key
    tuned = list(keys.values())
    operators = sorted({job["operator"] for job in submissions})
    untuned = _untuned_keys(rng, operators, len(tuned))
    return {
        "submissions": submissions,
        "slice_trials": SERVE_SLICE_TRIALS,
        "lookups": _lookup_order(rng, tuned, untuned),
    }


GENERATORS = {
    "op-search": op_search,
    "op-screened": op_screened,
    "net-tune": net_tune,
    "serve-mixed": serve_mixed,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, part: int) -> Dict:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return GENERATORS[workload](seed, part)
