"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload op-search --seed 1 --seconds 25 --trace 0

A run is split into parts.  Each part runs ``part.py`` in a fresh process
with cold stores (a new temporary directory under ``.perfbench/tmp``),
as a CLI user would run the workload, on inputs drawn from the seed and
the part index.  The number of parts is ``--seconds`` divided by the
workload's part length on the reference host (2 cores), so the
deterministic metrics stay pure functions of the seed and the run
length; a run takes about ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
as many parts, each twice, untraced and traced, prints the per-layer metrics from
the traced parts, and fails the run if tracing changed any deterministic
output of any part.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with its run header, is also written to
``.perfbench/results/<workload>-seed<n>-trace<t>.json`` for ``diff.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from spans import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall seconds of one part (set-up included) on the reference host.
PART_SECONDS = {
    "op-search": 3.0,
    "op-screened": 6.5,
    "net-tune": 6.2,
    "serve-mixed": 4.4,
}
#: Every part drives the program with ``workers=1``: the serial engine.
DECLARED_ENGINE_MODE = "serial"

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "tune_wall_s": "s",
    "explore_sim_s": "s",
    "real_measurements": "count",
    "best_gflops_geomean": "GFLOPS",
    "net_latency_ms": "ms",
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: A run must end within 180 s; stop with an error before that.
RUN_DEADLINE_S = 170.0


def num_parts(workload: str, seconds: float, trace: bool) -> int:
    """Parts that fill ``seconds``; a traced run runs each part twice."""
    parts = max(1, round(seconds / PART_SECONDS[workload]))
    return max(1, parts // 2) if trace else parts


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_header(workload: str, seed: int) -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(ROOT),
        "declared_engine_mode": DECLARED_ENGINE_MODE,
    }


def run_part(workload: str, seed: int, part: int, traced: bool, work: Path,
             timeout: float) -> Dict:
    """One ``part.py`` process; raises ``RuntimeError`` if it fails."""
    spans_out = work / "spans" / f"{workload}-seed{seed}-part{part}.json"
    command = [
        sys.executable, str(HERE / "part.py"), "--workload", workload,
        "--seed", str(seed), "--part", str(part), "--trace", str(int(traced)),
        "--spans-out", str(spans_out), "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT, timeout=timeout,
            env=dict(os.environ, TMPDIR=str(work / "tmp")),
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"part {part} passed the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"part {part} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def end_to_end(parts: List[Dict]) -> Dict[str, float]:
    """Set-up, memory and lookup percentiles are medians over parts, so
    one part that lands on a slow spell of the host does not set them."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "tune_wall_s": sum(p["tune_wall_s"] for p in parts),
        "explore_sim_s": sum(p["digest"]["explore_sim_s"] for p in parts),
        "real_measurements": sum(p["digest"]["real_measurements"] for p in parts),
        "best_gflops_geomean": geomean([g for p in parts for g in p["digest"]["gflops"]]),
        "net_latency_ms": geomean([t for p in parts for t in p["digest"]["latencies_ms"]]),
        "lookup_p50_ms": statistics.median(percentile(p["lookup_ms"], 0.50) for p in parts),
        "lookup_p99_ms": statistics.median(percentile(p["lookup_ms"], 0.99) for p in parts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    by_name: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    counts: Dict[str, float] = defaultdict(float)
    for p in traced:
        for name, (seconds, calls) in p["spans"]["self"].items():
            by_name[name][0] += seconds
            by_name[name][1] += calls
        for name, value in p["spans"]["counts"].items():
            counts[name] += value
    traced_wall = sum(p["tune_wall_s"] for p in traced)
    layers = layer_metrics(by_name, counts, traced_wall)
    layers["trace_overhead_frac"] = (
        traced_wall / sum(p["tune_wall_s"] for p in untraced) - 1.0
    )
    return layers


def check_parts(untraced: List[Dict], traced: List[Dict]) -> List[str]:
    """Checks across parts: tracing is output-only, the engine mode is
    the declared one, and each part's own output checks."""
    problems = []
    for plain, with_spans in zip(untraced, traced):
        if plain["digest"] != with_spans["digest"]:
            problems.append(
                f"part {plain['part']}: tracing changed the outputs "
                f"{plain['digest']} -> {with_spans['digest']}"
            )
    for p in untraced + traced:
        if p["engine_modes"] != [DECLARED_ENGINE_MODE]:
            problems.append(
                f"part {p['part']}: engine modes {p['engine_modes']} != "
                f"declared {DECLARED_ENGINE_MODE!r}"
            )
        problems.extend(f"part {p['part']}: {f}" for f in p["failures"])
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(PART_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # Byte-compile once up front, so the first part does not pay for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    trace = bool(args.trace)
    untraced: List[Dict] = []
    traced: List[Dict] = []
    started = time.perf_counter()
    try:
        for part in range(num_parts(args.workload, args.seconds, trace)):
            # Alternate which of the pair goes first, so the order
            # does not bias ``trace_overhead_frac``.
            order = (False, True) if part % 2 == 0 else (True, False)
            for with_spans in (order if trace else (False,)):
                timeout = RUN_DEADLINE_S - (time.perf_counter() - started)
                result = run_part(args.workload, args.seed, part, with_spans,
                                  work, timeout)
                (traced if with_spans else untraced).append(result)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = check_parts(untraced, traced)
    modes = sorted({m for p in untraced + traced for m in p["engine_modes"]})
    header = {
        **run_header(args.workload, args.seed),
        "engine_modes": modes,
        "valid": modes == [DECLARED_ENGINE_MODE],
        "parts": len(untraced),
        "traced_parts": len(traced),
        "lookup_samples_per_part": min(len(p["lookup_ms"]) for p in untraced),
    }
    e2e = end_to_end(untraced)
    layers = per_layer(traced, untraced) if trace else {}
    attempted = sum(p["attempted"] for p in untraced + traced)
    failed = sum(p["failed"] for p in untraced + traced)
    correct = not problems and failed == 0 and header["valid"]

    shown, units = (layers, LAYER_METRICS) if trace else (e2e, END_TO_END)
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    for name, value in shown.items():
        print(f"{name:<34} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':<34} {failed / attempted:>16.6g} fraction "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "header": header,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": e2e,
        "per_layer": layers,
        "problems": problems,
        "parts": [
            {k: p[k] for k in ("part", "traced", "setup_s", "tune_wall_s", "peak_rss_mb")}
            for p in untraced + traced
        ],
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
