"""Supervised measurement cluster (ISSUE #5): seeded node faults,
lease lifecycle, speculative re-execution, breaker state machine,
chaos-determinism of tuning results, serial degradation bit-identity,
and checkpoint/resume of the full supervisor state."""

import json

import numpy as np
import pytest

from repro import optimize
from repro.__main__ import main as cli_main
from repro.explore import FlexTensorTuner, RandomSampleTuner
from repro.model import V100
from repro.ops import conv2d_compute
from repro.runtime import (
    BatchEngine,
    BreakerState,
    ClusterConfig,
    ClusterSupervisor,
    Evaluator,
    NodeFault,
    NodeFaultInjector,
)


def smoke_output():
    return conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")


def smoke_evaluator(**kwargs):
    return Evaluator(smoke_output(), V100, **kwargs)


def clustered_tuner(tuner_cls=FlexTensorTuner, seed=7, workers=4,
                    node_faults=None, config=None, supervisor=None, **ev_kwargs):
    ev = smoke_evaluator(**ev_kwargs)
    if supervisor is None:
        supervisor = ClusterSupervisor(
            config or ClusterConfig(workers=workers),
            node_faults=node_faults, seed=seed,
        )
    engine = BatchEngine(ev, workers=supervisor.config.workers, cluster=supervisor)
    return tuner_cls(ev, seed=seed, engine=engine)


class TestNodeFaultInjector:
    def test_decide_is_a_pure_function_of_the_seed(self):
        a = NodeFaultInjector(crash_rate=0.2, stale_rate=0.2, slow_rate=0.2,
                              flaky_rate=0.2, seed=11)
        b = NodeFaultInjector(crash_rate=0.2, stale_rate=0.2, slow_rate=0.2,
                              flaky_rate=0.2, seed=11)
        rolls = [(w, s) for w in range(4) for s in range(32)]
        assert [a.decide(w, s) for w, s in rolls] == [b.decide(w, s) for w, s in rolls]
        # order of queries must not matter either
        assert [a.decide(w, s) for w, s in reversed(rolls)] == [
            b.decide(w, s) for w, s in reversed(rolls)
        ]

    def test_all_fault_kinds_reachable(self):
        inj = NodeFaultInjector(crash_rate=0.25, stale_rate=0.25, slow_rate=0.25,
                                flaky_rate=0.20, seed=0)
        kinds = {inj.decide(w, s) for w in range(4) for s in range(64)}
        assert kinds == set(NodeFault)

    def test_zero_rates_never_fault(self):
        inj = NodeFaultInjector(seed=5)
        assert all(
            inj.decide(w, s) is NodeFault.NONE for w in range(4) for s in range(64)
        )

    def test_rates_must_sum_below_one(self):
        with pytest.raises(ValueError):
            NodeFaultInjector(crash_rate=0.6, flaky_rate=0.6)
        with pytest.raises(ValueError):
            NodeFaultInjector(slow_rate=0.1, slow_factor=0.5)

    def test_dead_after_scripts_a_permanent_kill(self):
        inj = NodeFaultInjector(seed=0, dead_after={1: 3})
        assert not inj.is_fatal(1, 2)
        assert inj.is_fatal(1, 3)
        assert inj.is_fatal(1, 7)
        assert not inj.is_fatal(0, 100)
        assert inj.decide(1, 3) is NodeFault.CRASH

    def test_crash_fraction_is_deterministic_and_partial(self):
        inj = NodeFaultInjector(crash_rate=0.5, seed=9)
        for w, s in [(0, 0), (1, 4), (3, 17)]:
            f = inj.crash_fraction(w, s)
            assert f == inj.crash_fraction(w, s)
            assert 0.0 < f < 1.0


class TestSupervisorScheduling:
    def test_fault_free_batch_matches_lpt_billing(self):
        sup = ClusterSupervisor(ClusterConfig(workers=3), seed=0)
        costs = [0.5, 0.2, 0.9, 0.1, 0.4]
        plan = sup.schedule_batch(costs, clock=0.0)
        # Without faults every lease completes on its first worker, so
        # the plan bills exactly the nominal work and the makespan equals
        # the greedy first-free assignment the LPT billing would produce.
        assert plan.busy_seconds == pytest.approx(sum(costs))
        loads = [0.0, 0.0, 0.0]
        expected = []
        for c in costs:
            i = loads.index(min(loads))
            loads[i] += c
            expected.append(loads[i])
        assert plan.completions == pytest.approx(expected)
        assert plan.makespan == pytest.approx(max(loads))
        assert sup.num_leases == len(costs)
        assert sup.num_reassigned == 0

    def test_flaky_lease_is_dropped_and_reassigned(self):
        inj = NodeFaultInjector(flaky_rate=1.0, seed=0)
        sup = ClusterSupervisor(
            ClusterConfig(workers=2, max_reassign=50), node_faults=inj, seed=0
        )
        plan = sup.schedule_batch([0.3, 0.3], clock=0.0)
        # flaky_rate=1.0 means every lease delivers garbage: the job is
        # dropped + requeued until force-accept, breaker trips, or the
        # serial drain picks it up — but the batch always completes.
        assert plan is not None
        assert all(c > 0 for c in plan.completions)
        assert sup.num_flaky_drops > 0
        assert sup.num_reassigned > 0
        assert sup.num_forced > 0 or sup.num_serial_drained > 0
        # every drop was billed: busy exceeds the nominal work
        assert plan.busy_seconds > 0.6

    def test_max_reassign_force_accepts_the_outcome(self):
        # max_reassign=1 forces acceptance before any breaker can trip.
        inj = NodeFaultInjector(flaky_rate=1.0, seed=0)
        sup = ClusterSupervisor(
            ClusterConfig(workers=2, max_reassign=1), node_faults=inj, seed=0
        )
        plan = sup.schedule_batch([0.3, 0.3], clock=0.0)
        assert plan is not None
        assert sup.num_forced == 2
        assert all(c > 0 for c in plan.completions)

    def test_lease_expiry_reassigns_slow_nodes(self):
        # slow_factor far beyond lease_factor: every slow lease blows its
        # deadline and must be cancelled + reassigned.
        inj = NodeFaultInjector(slow_rate=0.5, slow_factor=100.0, seed=3)
        sup = ClusterSupervisor(
            ClusterConfig(workers=2, lease_min_seconds=0.0), node_faults=inj, seed=0
        )
        plan = sup.schedule_batch([0.2] * 12, clock=0.0)
        assert plan is not None
        assert sup.num_expired > 0
        assert sup.num_reassigned > 0
        assert all(c > 0 for c in plan.completions)

    def test_crash_detection_waits_for_heartbeat_timeout(self):
        inj = NodeFaultInjector(seed=0, dead_after={0: 0})
        cfg = ClusterConfig(workers=2, heartbeat_timeout=0.25)
        sup = ClusterSupervisor(cfg, node_faults=inj, seed=0)
        plan = sup.schedule_batch([1.0, 1.0, 1.0], clock=0.0)
        assert plan is not None
        assert sup.workers[0].dead
        assert sup.num_crashes == 1
        # the fatally crashed worker's job was recovered elsewhere
        assert all(c > 0 for c in plan.completions)

    def test_stale_heartbeat_ghost_is_billed_in_full(self):
        inj = NodeFaultInjector(stale_rate=1.0, seed=0)
        cfg = ClusterConfig(workers=2, heartbeat_timeout=0.25, max_reassign=50)
        sup = ClusterSupervisor(cfg, node_faults=inj, seed=0)
        plan = sup.schedule_batch([1.0], clock=0.0)
        assert plan is not None
        assert sup.num_stale > 0
        # the ghost runs to completion even though its result is dropped
        assert plan.busy_seconds >= 1.0

    def test_all_workers_dead_returns_none(self):
        sup = ClusterSupervisor(ClusterConfig(workers=2), seed=0)
        for w in sup.workers:
            w.dead = True
        assert sup.schedule_batch([0.1], clock=0.0) is None
        assert not sup.any_available(0.0)

    def test_serial_drain_completes_orphaned_jobs(self):
        # Single worker dies fatally on its first lease: the rest of the
        # batch has nowhere to run and must drain serially.
        inj = NodeFaultInjector(seed=0, dead_after={0: 0})
        sup = ClusterSupervisor(ClusterConfig(workers=1), node_faults=inj, seed=0)
        plan = sup.schedule_batch([0.2, 0.2, 0.2], clock=0.0)
        assert plan is not None
        assert sup.num_serial_drained > 0
        assert all(c > 0 for c in plan.completions)
        assert plan.makespan == pytest.approx(max(plan.completions))

    # seed 20 makes worker 0's first lease SLOW (50x) while worker 1
    # stays clean — a deterministic straggler for the speculation tests.
    SLOW_FIRST = dict(slow_rate=0.3, slow_factor=50.0, seed=20)

    def spec_supervisor(self, **cfg_kwargs):
        cfg = ClusterConfig(
            workers=2, lease_factor=1000.0, straggler_min_samples=5, **cfg_kwargs
        )
        sup = ClusterSupervisor(
            cfg, node_faults=NodeFaultInjector(**self.SLOW_FIRST), seed=0
        )
        for _ in range(8):
            sup._note_duration(0.1)  # arm the straggler threshold at 0.1
        return sup

    def test_speculation_launches_and_first_result_wins(self):
        # Job 0 straggles on worker 0 (50x slow); worker 1 churns the
        # fast jobs, goes idle past the threshold, and picks up a
        # speculative copy of job 0 — whose result wins long before the
        # straggler would have finished.
        sup = self.spec_supervisor()
        plan = sup.schedule_batch([0.1, 0.1, 0.1, 0.1], clock=0.0)
        assert plan is not None
        assert sup.num_speculative == 1
        assert sup.num_speculative_wins == 1
        assert max(plan.completions) < 0.1 * 50.0
        # the cancelled straggler's partial work is still billed
        assert plan.busy_seconds > sum([0.1] * 4)

    def test_speculation_can_be_disabled(self):
        sup = self.spec_supervisor(speculate=False)
        plan = sup.schedule_batch([0.1, 0.1, 0.1, 0.1], clock=0.0)
        assert sup.num_speculative == 0
        # without speculation the batch waits for the straggler
        assert plan.makespan == pytest.approx(0.1 * 50.0)

    def test_straggler_threshold_percentile(self):
        sup = ClusterSupervisor(ClusterConfig(straggler_min_samples=5), seed=0)
        assert sup.straggler_threshold() is None
        for d in [1.0, 2.0, 3.0, 4.0]:
            sup._note_duration(d)
        assert sup.straggler_threshold() is None  # below min samples
        sup._note_duration(5.0)
        assert sup.straggler_threshold() == 5.0  # p95 of 5 samples
        sup2 = ClusterSupervisor(
            ClusterConfig(straggler_pct=50.0, straggler_min_samples=5), seed=0
        )
        for d in [1.0, 2.0, 3.0, 4.0, 5.0]:
            sup2._note_duration(d)
        assert sup2.straggler_threshold() == 3.0

    def test_duration_window_is_bounded(self):
        sup = ClusterSupervisor(ClusterConfig(duration_window=8), seed=0)
        for i in range(100):
            sup._note_duration(float(i))
        assert len(sup._durations) == 8
        assert sup._durations == [float(i) for i in range(92, 100)]

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            ClusterSupervisor(ClusterConfig(workers=0))
        with pytest.raises(ValueError):
            ClusterSupervisor(ClusterConfig(heartbeat_timeout=0.0))


class TestBreakerStateMachine:
    def make(self, **kwargs):
        cfg = ClusterConfig(workers=1, **kwargs)
        return ClusterSupervisor(cfg, seed=0)

    def test_repeated_failures_trip_closed_to_open(self):
        sup = self.make(health_alpha=0.25, open_threshold=0.45)
        w = sup.workers[0]
        clock = 0.0
        while w.breaker is BreakerState.CLOSED:
            sup._health_down(w, clock)
            clock += 1.0
        assert w.breaker is BreakerState.OPEN
        assert w.trips == 1
        assert sup.num_breaker_trips == 1
        assert w.health < sup.config.open_threshold

    def test_open_is_not_admittable_until_cooldown(self):
        sup = self.make(cooldown_seconds=5.0)
        w = sup.workers[0]
        w.breaker = BreakerState.OPEN
        w.opened_at = 10.0
        assert not sup._admittable(w, 12.0)
        assert w.breaker is BreakerState.OPEN
        assert sup._admittable(w, 15.0)  # cooled down: promoted to probing
        assert w.breaker is BreakerState.PROBING
        assert w.health >= sup.config.probe_health

    def test_successful_probe_closes_the_breaker(self):
        sup = self.make()
        w = sup.workers[0]
        w.breaker = BreakerState.PROBING
        sup._health_up(w, 1.0)
        assert w.breaker is BreakerState.CLOSED
        assert sup.num_probes_passed == 1

    def test_failed_probe_reopens_immediately(self):
        sup = self.make()
        w = sup.workers[0]
        w.breaker = BreakerState.PROBING
        w.health = 0.9  # health alone would not trip a CLOSED breaker
        sup._health_down(w, 3.0)
        assert w.breaker is BreakerState.OPEN
        assert w.opened_at == 3.0
        assert sup.num_reopened == 1

    def test_dead_worker_is_never_admittable(self):
        sup = self.make()
        w = sup.workers[0]
        w.dead = True
        assert not sup._admittable(w, 1e9)

    def test_health_is_an_ewma(self):
        sup = self.make(health_alpha=0.5)
        w = sup.workers[0]
        sup._health_down(w, 0.0)
        assert w.health == pytest.approx(0.5)
        sup._health_up(w, 1.0)
        assert w.health == pytest.approx(0.75)


class TestSupervisorCheckpoint:
    def chaos_supervisor(self, seed=4):
        inj = NodeFaultInjector(crash_rate=0.1, stale_rate=0.1, slow_rate=0.2,
                                flaky_rate=0.2, seed=seed)
        return ClusterSupervisor(ClusterConfig(workers=3), node_faults=inj, seed=seed)

    def test_state_roundtrips_through_json(self):
        sup = self.chaos_supervisor()
        for clock in range(6):
            sup.schedule_batch([0.2, 0.4, 0.3], clock=float(clock))
        state = json.loads(json.dumps(sup.get_state()))
        restored = self.chaos_supervisor()
        restored.set_state(state)
        assert restored.get_state() == sup.get_state()
        assert restored.stats() == sup.stats()

    def test_resume_continues_bit_identically(self):
        full = self.chaos_supervisor()
        plans_full = [
            full.schedule_batch([0.2, 0.4, 0.3, 0.5], clock=float(c))
            for c in range(10)
        ]
        half = self.chaos_supervisor()
        for c in range(5):
            half.schedule_batch([0.2, 0.4, 0.3, 0.5], clock=float(c))
        resumed = self.chaos_supervisor()
        resumed.set_state(json.loads(json.dumps(half.get_state())))
        plans_resumed = [
            resumed.schedule_batch([0.2, 0.4, 0.3, 0.5], clock=float(c))
            for c in range(5, 10)
        ]
        for a, b in zip(plans_full[5:], plans_resumed):
            assert a.completions == b.completions
            assert a.makespan == b.makespan
            assert a.busy_seconds == b.busy_seconds
        assert full.stats() == resumed.stats()


class TestEngineIntegration:
    CHAOS = dict(crash_rate=0.05, stale_rate=0.05, slow_rate=0.1, flaky_rate=0.1)

    def test_chaos_changes_timing_but_not_results(self):
        clean = clustered_tuner(seed=7).tune(8, num_seeds=3)
        chaos = clustered_tuner(
            seed=7, node_faults=NodeFaultInjector(seed=13, **self.CHAOS)
        ).tune(8, num_seeds=3)
        assert chaos.best_point == clean.best_point
        assert chaos.best_performance == clean.best_performance
        assert chaos.num_measurements == clean.num_measurements
        # timing is fair game: chaos reorders completions and stretches
        # the makespan, so the curve's timestamps may differ — but the
        # final best must not.
        assert chaos.cluster["num_reassigned"] > 0
        assert chaos.exploration_seconds >= clean.exploration_seconds

    def test_killing_all_but_one_worker_preserves_results(self):
        clean = clustered_tuner(seed=7).tune(8, num_seeds=3)
        doomed = clustered_tuner(
            seed=7,
            node_faults=NodeFaultInjector(seed=7, dead_after={1: 2, 2: 2, 3: 2}),
        ).tune(8, num_seeds=3)
        assert doomed.cluster["alive"] == 1
        assert doomed.best_point == clean.best_point
        assert doomed.best_performance == clean.best_performance
        assert doomed.num_measurements == clean.num_measurements

    def test_single_worker_cluster_is_bit_identical_to_serial(self):
        serial = FlexTensorTuner(smoke_evaluator(), seed=7).tune(6, num_seeds=3)
        clustered = clustered_tuner(seed=7, workers=1).tune(6, num_seeds=3)
        assert clustered.best_point == serial.best_point
        assert clustered.best_performance == serial.best_performance
        assert clustered.exploration_seconds == serial.exploration_seconds
        assert clustered.curve == serial.curve

    def test_all_breakers_open_degrades_to_serial_bit_identically(self):
        serial = FlexTensorTuner(smoke_evaluator(), seed=7).tune(6, num_seeds=3)
        sup = ClusterSupervisor(ClusterConfig(workers=4, cooldown_seconds=1e12), seed=7)
        for w in sup.workers:
            w.breaker = BreakerState.OPEN
            w.opened_at = 0.0
        degraded = clustered_tuner(seed=7, supervisor=sup).tune(6, num_seeds=3)
        assert sup.num_degraded_batches > 0
        assert sup.num_leases == 0
        assert degraded.best_point == serial.best_point
        assert degraded.best_performance == serial.best_performance
        assert degraded.exploration_seconds == serial.exploration_seconds

    def test_chaos_kill_and_resume_is_bit_identical(self, tmp_path):
        faults = lambda: NodeFaultInjector(seed=13, **self.CHAOS)  # noqa: E731
        path = tmp_path / "cluster.ckpt"
        full = clustered_tuner(seed=7, node_faults=faults()).tune(8, num_seeds=3)
        killed = clustered_tuner(seed=7, node_faults=faults())
        killed.tune(4, num_seeds=3, checkpoint=path)
        resumed_tuner = clustered_tuner(seed=7, node_faults=faults())
        resumed = resumed_tuner.tune(8, num_seeds=3, checkpoint=path, resume=True)
        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.curve == full.curve
        # the supervisor state itself resumed bit-identically
        assert resumed.cluster == full.cluster
        assert resumed_tuner.engine.cluster.get_state() is not None

    def test_speculation_fires_under_slow_nodes_without_changing_results(self):
        clean = clustered_tuner(seed=3).tune(8, num_seeds=3)
        slow = clustered_tuner(
            seed=3, node_faults=NodeFaultInjector(slow_rate=0.3, slow_factor=8.0, seed=5)
        ).tune(8, num_seeds=3)
        assert slow.cluster["num_speculative"] > 0
        assert slow.best_point == clean.best_point
        assert slow.best_performance == clean.best_performance

    def test_random_sample_tuner_also_survives_chaos(self):
        clean = clustered_tuner(RandomSampleTuner, seed=11).tune(6, num_seeds=3)
        chaos = clustered_tuner(
            RandomSampleTuner, seed=11,
            node_faults=NodeFaultInjector(seed=4, **self.CHAOS),
        ).tune(6, num_seeds=3)
        assert chaos.best_point == clean.best_point
        assert chaos.best_performance == clean.best_performance

    def test_engine_stats_and_report_include_cluster(self):
        tuner = clustered_tuner(seed=7)
        result = tuner.tune(4, num_seeds=2)
        stats = tuner.engine.stats()
        assert stats["cluster"] == result.cluster
        assert stats["cluster"]["num_leases"] > 0


class TestOptimizeWiring:
    def test_optimize_cluster_flag_and_summary(self):
        result = optimize(
            smoke_output(), V100, trials=4, seed=5, workers=4, cluster=True,
            node_faults=NodeFaultInjector(crash_rate=0.1, flaky_rate=0.1, seed=2),
        )
        assert result.found
        assert result.tuning.cluster is not None
        assert result.tuning.cluster["num_leases"] > 0
        assert "cluster:" in result.summary()

    def test_optimize_without_cluster_has_no_cluster_stats(self):
        result = optimize(smoke_output(), V100, trials=3, seed=5)
        assert result.tuning.cluster is None
        assert "cluster:" not in result.summary()

    def test_straggler_pct_passthrough(self):
        result = optimize(
            smoke_output(), V100, trials=3, seed=5, workers=4,
            cluster=ClusterConfig(workers=4, straggler_pct=75.0),
        )
        assert result.tuning.cluster["straggler_pct"] == 75.0


@pytest.mark.faults
class TestCli:
    def test_selfcheck_cluster_smoke(self, capsys):
        assert cli_main(["selfcheck", "--cluster", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "chaos parity: ok" in out
        assert "cluster selfcheck passed" in out

    def test_cli_cluster_flag_prints_health_block(self, capsys):
        argv = ["gemm", "--n", "8", "--k", "8", "--m", "8",
                "--trials", "2", "--workers", "4", "--cluster"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "measurement health" in out
        assert "cluster:" in out


class TestHealthReport:
    def test_health_block_without_cluster(self, capsys):
        argv = ["gemm", "--n", "8", "--k", "8", "--m", "8", "--trials", "2"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "measurement health" in out
        assert "retries" in out
