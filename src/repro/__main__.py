"""Command-line interface: tune an operator without writing code.

Each command takes only the flags it reads; ``python -m repro <command>
--help`` lists them.  Examples::

    python -m repro conv2d --device V100 --in-channel 256 --out-channel 512 \
        --size 28 --kernel 3 --trials 40
    python -m repro gemm --device XeonE5-2699v4 --n 1024 --k 1024 --m 1024
    python -m repro conv2d --device VU9P --size 14 --save tuned.json
    python -m repro conv2d --trials 200 --checkpoint run.ckpt --resume
    python -m repro gemm --workers 4 --cluster --straggler-pct 90
    python -m repro gemm --surrogate --screen-ratio 0.15 --lint --prune-space
    python -m repro lint --target cpu --sample 200
    python -m repro selfcheck --faults --cache-dir /tmp/evalcache
    python -m repro selfcheck --serve
    python -m repro submit --store /tmp/svc --tenant alice --op gemm --n 256
    python -m repro serve --store /tmp/svc
    python -m repro status --store /tmp/svc
    python -m repro lookup --store /tmp/svc --op gemm --n 256 --enqueue
    python -m repro tune-network --network yolo-v1 --store /tmp/svc --trials 25
    python -m repro tune-network --network overfeat --uniform

Exit codes: 0 on success; 2 on a command line argparse rejects, such as
a flag the command does not take; 1 on any other failure (no schedule
found, a selfcheck verdict of FAILED, a rejected submission, a lookup
miss, a missing service store, or a serve pass that left jobs failed or
quarantined).
"""

from __future__ import annotations

import argparse
import sys

from . import optimize
from .model import DEVICES
from .ops import conv2d_compute, gemm_compute, gemm_int8_compute
from .runtime import FaultInjector, MeasureConfig
from .serve.service import OPERATORS
from .utils import save_schedule

#: Every flag any command takes, with its argparse settings.
OPTIONS = {
    "--device": dict(default="V100", choices=sorted(DEVICES)),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=40),
    "--method": dict(default="q",
                     choices=["q", "p", "random-walk", "random-sample"]),
    **{flag: dict(type=int, default=default) for flag, default in (
        ("--batch", 1), ("--in-channel", 256), ("--out-channel", 512),
        ("--kernel", 3), ("--stride", 1), ("--n", 1024), ("--k", 1024),
        ("--m", 1024))},
    "--size": dict(type=int, default=28, help="height = width"),
    "--padding": dict(type=int, default=None, help="default: kernel // 2"),
    "--save": dict(help="write the tuned schedule to a JSON file"),
    "--show-code": dict(action="store_true",
                        help="print the generated Python kernel"),
    "--checkpoint": dict(help="JSONL checkpoint file for crash-safe tuning"),
    "--resume": dict(action="store_true",
                     help="resume from the newest checkpoint snapshot"),
    "--workers": dict(type=int, default=1, help="parallel evaluation "
                      "workers (1 = the bit-reproducible serial path)"),
    "--cache-dir": dict(help="persistent cross-run evaluation cache"),
    "--lint": dict(action="store_true", help="statically reject illegal "
                   "points at zero measurement cost"),
    "--prune-space": dict(action="store_true", help="drop knob values that "
                          "alone violate a device limit"),
    "--surrogate": dict(action="store_true", help="measure only the "
                        "candidates a learned cost model ranks best"),
    "--screen-ratio": dict(type=float, default=0.25, help="fraction of each "
                           "ranked batch measured with --surrogate"),
    "--cluster": dict(action="store_true", help="supervise the measurement "
                      "workers (leases, speculation, circuit breakers)"),
    "--straggler-pct": dict(type=float, help="lease-duration percentile "
                            "that triggers re-execution (default 95)"),
    "--tensorize": dict(action="store_true", help="add the tensorize knob "
                        "when a registered intrinsic matches"),
    "--faults": dict(action="store_true", help="inject compile errors, "
                     "hangs and flaky measurements"),
    "--parallel": dict(action="store_true",
                       help="run the tuners on 4 batched workers"),
    "--sample": dict(type=int, default=400,
                     help="random points sampled per schedule space"),
    "--target": dict(choices=["gpu", "cpu", "fpga"], help="lint the "
                     "family's reference device instead of --device"),
    "--lint-records": dict(action="store_true",
                           help="print every diagnostic"),
    "--store": dict(default=".repro-serve", help="service store directory "
                    "(job WAL, checkpoints, records, eval cache)"),
    "--tenant": dict(default="anonymous", help="tenant billed for the job"),
    "--op": dict(default="gemm", choices=["conv2d", "gemm", "gemv"]),
    "--priority": dict(type=int, default=1, choices=[0, 1, 2],
                       help="0=interactive, 1=batch, 2=background"),
    "--ttl": dict(type=float, help="job TTL in simulated seconds"),
    "--slice-trials": dict(type=int, help="trials per scheduling slice "
                           "(default: serve 2, else the scheduler's)"),
    "--max-slices": dict(type=int, help="stop after this many slices"),
    "--max-queue": dict(type=int, default=64,
                        help="global bound on active jobs"),
    "--max-crashes": dict(type=int, default=3,
                          help="crashes before a job is quarantined"),
    "--enqueue": dict(action="store_true",
                      help="enqueue a tuning job on a miss"),
    "--network": dict(default="yolo-v1", choices=["yolo-v1", "overfeat"]),
    "--uniform": dict(action="store_true", help="identical per-layer "
                      "budgets instead of the task scheduler"),
}


def _add(parser: argparse.ArgumentParser, flags) -> argparse.ArgumentParser:
    for flag in flags:
        parser.add_argument(flag, **OPTIONS[flag])
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line parser: one subparser per command, each
    holding only the flags its command reads."""

    def group(*flags):
        return _add(argparse.ArgumentParser(add_help=False), flags)

    device = group("--device", "--seed")
    search = group("--trials", "--method")
    conv = group("--batch", "--in-channel", "--out-channel", "--size",
                 "--kernel", "--stride", "--padding")
    matrix = group("--n", "--k", "--m")
    store = group("--store")
    tune = group("--save", "--show-code", "--checkpoint", "--resume",
                 "--workers", "--cache-dir", "--lint", "--prune-space",
                 "--surrogate", "--screen-ratio", "--cluster",
                 "--straggler-pct", "--tensorize")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexTensor reproduction: tune a tensor operator for a "
                    "simulated device.",
    )
    commands = parser.add_subparsers(dest="command", metavar="command",
                                     required=True)

    def command(name, func, help, parents, *flags):
        sub = commands.add_parser(name, help=help, description=help,
                                  parents=parents, allow_abbrev=False)
        sub.set_defaults(func=func)
        return _add(sub, flags)

    command("conv2d", tune_command, "tune a 2-D convolution",
            [device, search, conv, tune])
    command("gemm", tune_command, "tune a matrix multiply",
            [device, search, matrix, tune])
    command("gemv", tune_command, "tune a matrix-vector product",
            [device, search, tune], "--n", "--k")
    command("lint", lint_command, "count statically illegal points in "
            "sampled schedule spaces", [device, conv, matrix],
            "--sample", "--target", "--lint-records")
    check = command("selfcheck", selfcheck_command, "run an end-to-end smoke "
                    "(default: every tuner on a small conv2d)", [device],
                    "--trials", "--workers", "--cache-dir", "--straggler-pct",
                    "--faults", "--parallel")
    selectors = check.add_mutually_exclusive_group()
    for name, smoke in SELFCHECKS.items():
        selectors.add_argument(f"--{name}", dest="check", action="store_const",
                               const=name, help=smoke.__doc__.splitlines()[0])
    command("serve", serve_command, "drive the service until idle", [store],
            "--workers", "--slice-trials", "--max-slices", "--max-queue",
            "--max-crashes")
    command("submit", submit_command, "submit one tuning job",
            [device, search, store, conv, matrix],
            "--tenant", "--op", "--priority", "--ttl", "--max-queue")
    command("status", status_command, "print the service's job table", [store])
    command("lookup", lookup_command, "answer a workload from the records",
            [device, store, conv, matrix],
            "--trials", "--tenant", "--op", "--enqueue")
    command("tune-network", tune_network_command, "tune a whole §6.6 "
            "network", [device, search, store],
            "--batch", "--network", "--uniform", "--resume", "--slice-trials")
    return parser


def operator_params(op: str, args) -> dict:
    """Keyword arguments of ``OPERATORS[op]`` from the shape flags."""
    if op == "conv2d":
        return {
            "batch": args.batch, "in_channel": args.in_channel,
            "height": args.size, "width": args.size,
            "out_channel": args.out_channel, "kernel": args.kernel,
            "stride": args.stride,
            "padding": args.kernel // 2 if args.padding is None else args.padding,
        }
    if op == "gemm":
        return {"n": args.n, "k": args.k, "m": args.m}
    return {"n": args.n, "k": args.k}


#: Reference device of each lowering target for ``lint --target``.
_TARGET_DEVICE = {"gpu": "V100", "cpu": "XeonE5-2699v4", "fpga": "VU9P"}


def lint_command(args) -> int:
    """Lint random samples of the gemm and conv2d schedule spaces for the
    chosen device and print per-rule diagnostic counts (see docs/lint.md).

    ``--target`` lints a device family instead of a named device; with it,
    on cpu and gpu, the sample also covers a tensorize-enabled int8 gemm
    space so the TEN rules (docs/tensorize.md) are exercised.
    """
    import numpy as np

    from .analysis import RULES, ScheduleLinter
    from .model import target_of
    from .space import build_space

    device = DEVICES[args.device]
    if args.target is not None and target_of(device) != args.target:
        device = DEVICES[_TARGET_DEVICE[args.target]]
    target = target_of(device)
    workloads = [
        (op, OPERATORS[op](**operator_params(op, args)), False)
        for op in ("gemm", "conv2d")
    ]
    if args.target in ("cpu", "gpu"):
        workloads.append(("gemm-int8", gemm_int8_compute(args.n, args.k, args.m), True))
    rng = np.random.default_rng(args.seed)
    total_illegal = 0
    for name, output, tensorize in workloads:
        space = build_space(output, target, tensorize=tensorize)
        linter = ScheduleLinter(space.op, target, device)
        sample = min(args.sample, space.size)
        counts: dict = {}
        illegal = warned = 0
        for _ in range(sample):
            point = space.random_point(rng)
            diagnostics = linter.lint(space.decode(point))
            if any(d.severity == "error" for d in diagnostics):
                illegal += 1
            elif diagnostics:
                warned += 1
            for d in diagnostics:
                counts[d.rule] = counts.get(d.rule, 0) + 1
                if args.lint_records:
                    print(f"  {name} point {point}: {d}")
        total_illegal += illegal
        print(f"{name}: space={space.size} sampled={sample} "
              f"illegal={illegal} warned={warned} clean={sample - illegal - warned}")
        for rule in sorted(counts):
            rule_name, severity, _ = RULES[rule]
            print(f"  {rule} {rule_name:<20} {severity:<5} x{counts[rule]}")
    print(f"\n{total_illegal} statically illegal points found "
          f"(rejected at zero cost when tuning with --lint)")
    return 0


# -- selfcheck smokes: each prints its report and returns a failure count ----


def _check(name: str, ok: bool, detail: str, width: int = 13) -> int:
    """Print one smoke line; 1 when the check failed."""
    print(f"{name:>{width}}: {'ok' if ok else 'FAILED'}  {detail}")
    return int(not ok)


def robustness_smoke(args) -> int:
    """Plain ``selfcheck``: every tuner must survive a short (optionally
    fault-injected, optionally 4-worker) run on the conv2d smoke
    workload."""
    injector = measure = None
    if args.faults:
        injector = FaultInjector(
            compile_error_rate=0.05, hang_rate=0.05,
            transient_error_rate=0.3, jitter=0.05, seed=args.seed,
        )
        measure = MeasureConfig(timeout_seconds=0.5)
    workers = 4 if args.parallel else max(1, args.workers)
    output = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="smoke")
    failures = 0
    for method in ("q", "p", "random-walk", "random-sample"):
        result = optimize(
            output, DEVICES[args.device], trials=min(args.trials, 5),
            method=method, seed=args.seed, fault_injector=injector,
            measure_config=measure, workers=workers,
            eval_cache=args.cache_dir or None,
        )
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(result.tuning.status_counts.items())
        )
        failures += _check(method, result.found,
                           f"best={result.gflops:8.1f} GFLOPS  [{counts}]")
        if workers > 1 and result.tuning.throughput is not None:
            t = result.tuning.throughput
            print(f"{'':>13}  {t['points_per_simulated_second']:.1f} pts/s simulated, "
                  f"cache hit rate {t['cache_hit_rate']:.0%}, "
                  f"utilization {t['pool_utilization']:.0%}")
    return failures


def lint_smoke(args) -> int:
    """Prove the linter sound against the model, plus ruff/mypy if installed.

    Sampled points the linter rejects on the smoke workloads must really
    be invalid (a lowering failure or an invalid model time)."""
    import shutil
    import subprocess

    import numpy as np

    from .analysis import ScheduleLinter
    from .model import INVALID_TIME, model_for, target_of
    from .schedule import lower
    from .space import build_space

    device = DEVICES[args.device]
    target = target_of(device)
    model = model_for(device)
    # Shapes big enough that some sampled points genuinely bust device
    # budgets — a smoke with zero rejections would prove nothing.
    workloads = [
        ("gemm", gemm_compute(256, 256, 256)),
        ("conv2d", conv2d_compute(1, 32, 16, 16, 64, 3, padding=1, name="smoke")),
    ]
    rng = np.random.default_rng(args.seed)
    failures = 0
    for name, output in workloads:
        space = build_space(output, target)
        linter = ScheduleLinter(space.op, target, device)
        rejected = unsound = 0
        for _ in range(200):
            config = space.decode(space.random_point(rng))
            if not linter.errors(config):
                continue
            rejected += 1
            try:
                seconds = model.estimate_seconds(lower(output, config, target))
            except Exception:
                continue  # lowering failure: the rejection is justified
            unsound += seconds < INVALID_TIME
        failures += unsound
        verdict = "ok" if unsound == 0 else f"UNSOUND x{unsound}"
        print(f"{name:>13}: {verdict}  ({rejected}/200 sampled points rejected)")

    lint_paths = [
        "src/repro/analysis", "src/repro/schedule",
        "src/repro/learn", "src/repro/explore/surrogate.py",
        "src/repro/ir", "src/repro/model",
    ]
    for tool, cmd in (
        ("ruff", ["ruff", "check", *lint_paths]),
        ("mypy", ["mypy", *lint_paths]),
    ):
        if shutil.which(tool) is None:
            print(f"{tool:>13}: skipped (not installed)")
            continue
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(f"{tool:>13}: " + ("ok" if proc.returncode == 0 else "FAILED"))
        if proc.returncode != 0:
            print(proc.stdout or proc.stderr)
            failures += 1
    return failures


def tensorize_smoke(args) -> int:
    """Check the int8 gemm intrinsic: match, parity, proofs and billing.

    1. ``dot4_vnni`` statically matches int8 gemm on cpu;
    2. an accepted tensorization executes bit-identically to the same
       schedule without the intrinsic (interpreter and generated kernel);
    3. over sampled tensorized configs, every TEN rejection is a lowering
       failure and every acceptance lowers — the proof-carrying contract;
    4. the model bills a legal tensorization strictly cheaper than the
       identical scalar schedule.
    """
    import numpy as np

    from .analysis import matching_intrinsics, tensorize_rejections
    from .codegen import execute_scheduled, random_inputs, run_generated
    from .model import XEON_E5_2699V4, model_for
    from .schedule import LoweringError, NodeConfig, lower
    from .space import build_space

    output = gemm_int8_compute(64, 64, 64, name="tz_smoke")
    matched = matching_intrinsics(output.op, "cpu")
    failures = _check("match", matched == ("dot4_vnni",),
                      f"matching_intrinsics(gemm-int8, cpu) = {matched}")

    small = gemm_int8_compute(8, 8, 8, name="tz_parity")
    config = NodeConfig(
        spatial_factors=((1, 2, 4), (1, 2, 4)), reduce_factors=((2, 4),),
        reorder=0, vectorize=False, tensorize="dot4_vnni",
    )
    tensorized = lower(small, config, "cpu")
    plain = lower(small, config.with_(tensorize=""), "cpu")
    inputs = {
        name: np.round(8 * array)
        for name, array in random_inputs(small, seed=args.seed).items()
    }
    expected = execute_scheduled(plain, inputs)
    failures += _check("parity", (
        np.array_equal(execute_scheduled(tensorized, inputs), expected)
        and np.array_equal(run_generated(tensorized, inputs), expected)
    ), "(interpreter + generated kernel, bit-exact)")

    space = build_space(output, "cpu", tensorize=True)
    rng = np.random.default_rng(args.seed)
    accepted = rejected = broken = 0
    for _ in range(120):
        cfg = space.decode(space.random_point(rng)).with_(tensorize="dot4_vnni")
        rejections = tensorize_rejections(output.op, cfg, "cpu")
        try:
            lower(output, cfg, "cpu")
            lowered = True
        except LoweringError:
            lowered = False
        rejected += bool(rejections)
        accepted += not rejections
        broken += lowered == bool(rejections)
    failures += _check("proofs", broken == 0, f"({accepted} accepted, "
                       f"{rejected} rejected of 120 sampled)")

    model = model_for(XEON_E5_2699V4)
    billing_cfg = NodeConfig(
        spatial_factors=((8, 4, 2), (8, 4, 2)), reduce_factors=((16, 4),),
        reorder=0, vectorize=False, fuse_levels=2,
    )
    scalar_s = model.estimate_seconds(lower(output, billing_cfg, "cpu"))
    tz_s = model.estimate_seconds(
        lower(output, billing_cfg.with_(tensorize="dot4_vnni"), "cpu")
    )
    return failures + _check("billing", tz_s < scalar_s, f"({scalar_s * 1e6:.1f} "
                             f"us scalar vs {tz_s * 1e6:.1f} us tensorized)")


def surrogate_smoke(args) -> int:
    """Require held-out rank correlation from the learned cost model.

    Fits the surrogate on sampled points of the smoke workload and
    requires positive Spearman correlation on a held-out slice — proof
    the featurization carries signal before it screens a real run."""
    import numpy as np

    from .explore import SurrogateScreen, spearman
    from .graph import get_graph
    from .model import target_of
    from .runtime import Evaluator
    from .space import build_space

    device = DEVICES[args.device]
    graph = get_graph(conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="smoke"))
    space = build_space(graph, target_of(device))
    evaluator = Evaluator(graph, device, space=space)
    rng = np.random.default_rng(args.seed)
    points: dict = {}  # 80 distinct points, in draw order
    while len(points) < 80:
        points[space.random_point(rng)] = None
    labelled = [(p, evaluator.evaluate(p)) for p in points]
    train, held_out = labelled[:60], labelled[60:]

    screen = SurrogateScreen(space, min_train=len(train), seed=args.seed)
    for point, performance in train:
        screen.observe(point, performance)
    predicted = screen.predict([p for p, _ in held_out])
    actual = [performance for _, performance in held_out]
    correlation = spearman([float(s) for s in predicted], actual)
    print(f"    surrogate: trained on {len(train)} points, "
          f"{len(held_out)} held out")
    print(f"  correlation: {correlation:.3f} (Spearman, held-out slice)")
    return 0 if screen.ready and correlation > 0 else 1


def cluster_config(args, workers: int):
    """The ``--cluster`` supervision policy over ``workers`` nodes, with
    ``--straggler-pct`` applied when given."""
    from .runtime import ClusterConfig

    pct = args.straggler_pct
    return ClusterConfig(workers=max(1, workers),
                         **({} if pct is None else {"straggler_pct": pct}))


def cluster_smoke(args) -> int:
    """Check the supervised cluster stays deterministic under node faults.

    1. Every tuner must complete a short run through a 4-worker
       supervised cluster under seeded node faults (crashes, stale
       heartbeats, slow nodes, flaky nodes).
    2. A chaos run that fatally kills all but one worker mid-run must
       report the same best schedule as the fault-free clustered run at
       equal trial count — node faults may change timing and health,
       never results (the cluster determinism contract).
    """
    from .runtime import ClusterConfig, NodeFaultInjector

    output = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="smoke")
    workers = 4

    def run(method, cluster, node_faults=None):
        return optimize(
            output, DEVICES[args.device], trials=min(args.trials, 5),
            method=method, seed=args.seed, workers=workers, cluster=cluster,
            node_faults=node_faults,
        )

    chaos = NodeFaultInjector(
        crash_rate=0.05, stale_rate=0.05, slow_rate=0.1, flaky_rate=0.1,
        seed=args.seed,
    )
    failures = 0
    for method in ("q", "p", "random-walk", "random-sample"):
        result = run(method, cluster_config(args, workers), chaos)
        c = result.tuning.cluster
        failures += _check(
            method, result.found,
            f"best={result.gflops:8.1f} GFLOPS  [leases={c['num_leases']} "
            f"reassigned={c['num_reassigned']} speculative={c['num_speculative']} "
            f"trips={c['num_breaker_trips']}]",
        )

    # Chaos parity: fault-free cluster vs. a cluster whose workers 1-3
    # are fatally killed a few leases in — identical best schedule.
    clean = run("q", ClusterConfig(workers=workers))
    doomed = run("q", ClusterConfig(workers=workers), NodeFaultInjector(
        seed=args.seed, dead_after={1: 3, 2: 3, 3: 3},
    ))
    parity = (
        doomed.tuning.best_point == clean.tuning.best_point
        and doomed.tuning.best_performance == clean.tuning.best_performance
        and doomed.tuning.num_measurements == clean.tuning.num_measurements
    )
    return failures + _check(
        "chaos parity", parity,
        f"({doomed.tuning.cluster['alive']}/{workers} workers survived; best "
        f"{doomed.gflops:.1f} vs {clean.gflops:.1f} GFLOPS)",
    )


def serve_smoke(args) -> int:
    """Check the tuning service's outcomes survive hard daemon kills.

    Submits four jobs from two tenants, runs one service to completion
    (the reference), then replays the identical submissions twice with a
    scripted hard kill of the daemon mid-run — once in the
    checkpoint-ahead-of-WAL commit window, once right after a RUNNING
    transition — restarts on the same store, and requires every job to
    finish with the bit-identical best schedule, trial count and
    measurement count as the uninterrupted run.
    """
    import tempfile

    from .serve import DaemonKilled, ServeChaos, ServeConfig, TuningService

    config = ServeConfig(slice_trials=2, workers=max(1, args.workers))
    conv = {"batch": 1, "in_channel": 4, "height": 8, "width": 8,
            "out_channel": 8, "kernel": 3, "padding": 1}
    jobs = (  # tenant, operator, params, seed offset, method
        ("alice", "gemm", {"n": 8, "k": 8, "m": 8}, 0, "q"),
        ("bob", "gemm", {"n": 16, "k": 8, "m": 8}, 1, "p"),
        ("alice", "conv2d", conv, 0, "random-walk"),
        ("bob", "gemm", {"n": 8, "k": 8, "m": 8}, 2, "random-sample"),
    )

    def submit_all(service):
        for tenant, op, params, offset, method in jobs:
            service.submit(tenant, op, params, args.device,
                           trials=min(args.trials, 4), seed=args.seed + offset,
                           method=method)

    def outcomes(service):
        return {
            job.job_id: (job.state.value, job.trials_done, job.best_gflops,
                         job.best_point, job.num_measurements)
            for job in service.store.jobs.values()
        }

    with tempfile.TemporaryDirectory() as store:
        reference = TuningService(store, config)
        submit_all(reference)
        slices = reference.run()
        expected = outcomes(reference)
    print(f"    reference: {len(expected)} jobs done in {slices} slices")

    failures = 0
    for label, chaos in (
        ("commit-window kill", ServeChaos(kill_at_slice=3)),
        ("pre-slice kill", ServeChaos(kill_before_run=2)),
    ):
        with tempfile.TemporaryDirectory() as store:
            doomed = TuningService(store, config, chaos=chaos)
            submit_all(doomed)
            killed = False
            try:
                doomed.run()
            except DaemonKilled:
                killed = True
            restarted = TuningService(store, config)
            restarted.run()
            failures += _check(
                label, killed and outcomes(restarted) == expected,
                f"(recovered {len(restarted.recovered_jobs)} in-flight, "
                f"{restarted.stats()['by_state']})", width=18,
            )
    return failures


#: ``selfcheck --<name>`` smokes; the first docstring line of each is its
#: selector flag's help.  Plain ``selfcheck`` runs :func:`robustness_smoke`.
SELFCHECKS = {
    "lint": lint_smoke, "tensorize": tensorize_smoke,
    "surrogate": surrogate_smoke, "cluster": cluster_smoke,
    "serve": serve_smoke,
}


def selfcheck_command(args) -> int:
    """Run the selected smoke, print its verdict, and exit nonzero when
    it counted any failure."""
    smoke = SELFCHECKS[args.check] if args.check else robustness_smoke
    failures = smoke(args)
    label = f"{args.check} selfcheck" if args.check else "selfcheck"
    print(f"{label} " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 1 if failures else 0


# -- tuning service -----------------------------------------------------------


def _serve_service(args, require_store: bool = False):
    """The service on ``--store``, configured by the service flags the
    command takes; None when ``require_store`` and the store is missing."""
    from pathlib import Path

    from .serve import ServeConfig, TuningService

    if require_store and not Path(args.store).exists():
        print(f"no service store at {args.store}")
        return None
    config = ServeConfig(**{
        key: getattr(args, key)
        for key in ("slice_trials", "workers", "max_queue", "max_crashes")
        if getattr(args, key, None) is not None
    })
    return TuningService(args.store, config)


def serve_command(args) -> int:
    """Drive the scheduler loop until idle (or ``--max-slices``); exits
    nonzero when any job ended FAILED or QUARANTINED this pass."""
    from .serve import JobState

    service = _serve_service(args, require_store=True)
    if service is None:
        return 1
    if service.recovered_jobs:
        print(f"recovered {len(service.recovered_jobs)} in-flight job(s) "
              f"from the WAL: {', '.join(service.recovered_jobs)}")
    executed = service.run(max_slices=args.max_slices)
    stats = service.stats()
    print(service.status_table())
    print(f"\n{executed} slices run, clock {stats['clock']:.1f}s, "
          f"{stats['records']} records, states {stats['by_state']}")
    unhealthy = service.store.by_state(JobState.FAILED, JobState.QUARANTINED)
    for job in unhealthy:
        print(f"unhealthy: {job.job_id} {job.state.value} ({job.reason})")
    return 1 if unhealthy else 0


def submit_command(args) -> int:
    """Submit one tuning job; exits nonzero when admission rejects it."""
    from .serve import JobState

    service = _serve_service(args)
    job = service.submit(
        args.tenant, args.op, operator_params(args.op, args), args.device,
        trials=args.trials, seed=args.seed, method=args.method,
        priority=args.priority, ttl_seconds=args.ttl,
    )
    print(f"{job.job_id}: {job.state.value}"
          + (f" ({job.reason})" if job.reason else ""))
    return 0 if job.state is JobState.ADMITTED else 1


def status_command(args) -> int:
    """Print the job table and service counters from the WAL."""
    service = _serve_service(args, require_store=True)
    if service is None:
        return 1
    print(service.status_table())
    stats = service.stats()
    print(f"\nclock {stats['clock']:.1f}s  active {stats['active']}  "
          f"records {stats['records']}  states {stats['by_state']}")
    return 0


def lookup_command(args) -> int:
    """Answer (op, shape, device) from the record book; exits 0 on a
    hit, nonzero on a miss (optionally enqueueing a tuning job)."""
    service = _serve_service(args, require_store=True)
    if service is None:
        return 1
    params = operator_params(args.op, args)
    record = service.lookup(
        args.op, params, args.device, tenant=args.tenant,
        enqueue=args.enqueue, trials=args.trials, seed=args.seed,
    )
    if record is not None:
        print(f"hit: {record.key} -> {record.gflops:.1f} GFLOPS "
              f"({record.trials} trials, seed {record.seed})")
        return 0
    print(f"miss: {args.op}{params}@{args.device}"
          + (" (tuning job enqueued)" if args.enqueue else ""))
    return 1


def tune_network_command(args) -> int:
    """Tune a whole §6.6 network through the task scheduler.

    Records and the evaluation cache land in the ``--store`` directory
    using the serve layout, so ``python -m repro lookup`` (and the serve
    read path) answer queries about network layers tuned here.
    """
    from pathlib import Path

    from .nn import overfeat, tune_network, yolo_v1
    from .serve.service import EVALCACHE_DIRNAME, RECORDS_FILENAME

    network = {"yolo-v1": yolo_v1, "overfeat": overfeat}[args.network](args.batch)
    store = Path(args.store)
    store.mkdir(parents=True, exist_ok=True)
    result = tune_network(
        network, DEVICES[args.device], trials=args.trials, method=args.method,
        seed=args.seed, allocate=not args.uniform,
        records=store / RECORDS_FILENAME, eval_cache=store / EVALCACHE_DIRNAME,
        checkpoint_dir=store / "network-checkpoints" / args.network,
        resume=args.resume,
        **({"slice_trials": args.slice_trials}
           if not args.uniform and args.slice_trials is not None else {}),
    )
    print(result.summary())
    if not result.found:
        print("\nno valid schedule found for at least one task")
        return 1
    return 0


# -- operator tuning ----------------------------------------------------------


def measurement_health_report(tuning) -> str:
    """One-block summary of where measurement budget went *besides* clean
    measurements: retries, quarantine, static lint rejects, surrogate
    screening, and — when a cluster supervisor ran — worker breaker
    trips and lease reassignments.  Printed after every tune so pipeline
    health is visible without digging through ``TuneResult``."""
    lines = [
        "measurement health:",
        f"  retries={tuning.num_retries}  "
        f"quarantined={tuning.num_quarantined}  "
        f"quarantine_hits={tuning.quarantine_hits}  "
        f"failed={tuning.num_failures}",
        f"  lint_rejects={tuning.lint_rejects}  "
        f"screened={tuning.num_screened}",
    ]
    if tuning.cluster is not None:
        c = tuning.cluster
        lines.append(
            f"  breaker_trips={c['num_breaker_trips']}  "
            f"reassigned={c['num_reassigned']}  "
            f"speculative={c['num_speculative']} "
            f"(won {c['num_speculative_wins']})  "
            f"degraded_batches={c['num_degraded_batches']}"
        )
    return "\n".join(lines)


def tune_command(args) -> int:
    """Tune one operator, print the result, optionally save the schedule."""
    result = optimize(
        OPERATORS[args.command](**operator_params(args.command, args)),
        DEVICES[args.device],
        trials=args.trials, method=args.method, seed=args.seed,
        checkpoint=args.checkpoint, resume=args.resume,
        workers=args.workers, eval_cache=args.cache_dir or None,
        lint=args.lint, prune_space=args.prune_space,
        surrogate=args.surrogate, screen_ratio=args.screen_ratio,
        cluster=args.cluster and cluster_config(args, args.workers),
        tensorize=args.tensorize,
    )
    print(f"{result.summary()}\n\n{measurement_health_report(result.tuning)}")
    if not result.found:
        # Exit-code contract: a tune that found no valid schedule is a
        # failure — scripts and CI must never mistake it for success.
        print("\nno valid schedule found")
        return 1
    if args.surrogate and result.tuning.surrogate is not None:
        s = result.tuning.surrogate
        print(
            f"screening: {s['screened']} of {s['ranked']} ranked candidates "
            f"screened out ({s['forwarded']} measured, {s['explored']} "
            f"ε-promoted), {s['refits']} refits on {s['observations']} "
            f"observations, rank correlation {s['rank_correlation']:.2f}"
        )
    throughput = result.tuning.throughput
    if throughput is not None and (args.workers > 1 or args.cache_dir):
        print(
            f"throughput: {throughput['points_per_simulated_second']:.1f} pts/s "
            f"simulated ({throughput['points_per_wall_second']:.1f} pts/s wall), "
            f"cache hit rate {throughput['cache_hit_rate']:.0%}, "
            f"workers={throughput['workers']}, "
            f"utilization {throughput['pool_utilization']:.0%}"
        )
    if args.show_code:
        print(f"\n{result.generated_code()}")
    if args.save:
        save_schedule(args.save, result.config, result.graph_config, metadata={
            "operator": args.command, "device": args.device,
            "gflops": result.gflops,
        })
        print(f"\nschedule saved to {args.save}")
    return 0


def main(argv=None) -> int:
    """CLI entry point: parse, then run the chosen command."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
