"""Batched evaluation engine: fan candidate points across workers.

FlexTensor's exploration is embarrassingly parallel per trial — SA
proposes a batch of starting points and the agent scores whole
neighborhoods — so the engine accepts a *list* of candidate points,
serves what it can from the caches, deduplicates the rest by canonical
key, and bills the remainder as concurrent measurements (§5.2 runs
candidates on parallel devices; AutoTVM batches its builder/runner the
same way).

Two execution modes share one billing model:

* ``workers=1`` — the deterministic fallback: the batch is evaluated by
  literally looping the serial :meth:`Evaluator.evaluate`, so seeded
  tests, fault injection and checkpoint/resume stay bit-identical to the
  pre-engine code path.
* ``workers>1`` — the batch's outcomes come from the same two halves
  :meth:`Evaluator.measure` runs in sequence: a pure outcome half
  (:meth:`Evaluator.remote_outcome`) and a billing half
  (:meth:`Evaluator.apply_remote`).  Between them the *simulated* clock
  advances by the batch makespan: job costs are assigned to the
  least-loaded of W virtual workers in submission order (LPT-style list
  scheduling), so W workers genuinely overlap simulated measurement
  time — the quantity Figures 6d/7 account in.

One dispatch, :meth:`BatchEngine._measure`, picks the mode for plain
batches and for the candidates the surrogate screen forwards.  The
batched mode and the screen share one probe (lint gate, then cache
lookup).

Determinism contract: for a fixed evaluator configuration and submission
order, results, records, clock values and caches are a pure function of
the batch — the billing half never depends on real scheduling order.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..space import Point
from .measure import Evaluator

if TYPE_CHECKING:
    from ..explore.surrogate import SurrogateScreen
    from .cluster import ClusterSupervisor


class BatchEngine:
    """Evaluates batches of points against one :class:`Evaluator`.

    The engine owns no measurement logic — it orchestrates cache
    lookups, deduplication, worker fan-out and simulated-clock billing
    around the evaluator's fault-tolerant pipeline (retries, timeout
    budgets and quarantine behave exactly as in the serial path; see
    ``docs/parallel.md``).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        workers: int = 1,
        surrogate: Optional["SurrogateScreen"] = None,
        cluster: Optional["ClusterSupervisor"] = None,
    ):
        self.evaluator = evaluator
        if cluster is not None:
            # The supervisor's registry is the source of truth for the
            # worker count — a mismatched ``workers`` would bill a
            # different cluster than the one being supervised.
            workers = cluster.config.workers
        self.workers = max(1, int(workers))
        # Surrogate screen (repro.explore.surrogate): when attached, each
        # batch is ranked after the lint gate and cache probe, and only
        # the top fraction (plus the ε exploration slice) is measured.
        self.surrogate = surrogate
        # Cluster supervisor (repro.runtime.cluster): when attached,
        # simulated-clock billing runs through its lease/heartbeat/
        # speculation scheduler instead of plain LPT, and an all-open
        # breaker registry degrades the batch to the serial path.
        self.cluster = cluster
        self.num_batches = 0
        self.num_submitted = 0
        self.num_measured = 0
        self.num_cached = 0
        self.num_deduped = 0
        self.num_lint_rejected = 0
        self.num_screened = 0      # candidates answered by the surrogate
        self.busy_seconds = 0.0    # simulated seconds of worker occupancy
        self.span_seconds = 0.0    # simulated makespan summed over batches
        self.wall_seconds = 0.0    # real time spent inside evaluate_batch

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, points: Sequence[Point]) -> List[float]:
        """Performance values for ``points``, in submission order."""
        started = time.perf_counter()
        try:
            if self.surrogate is not None:
                return self._evaluate_screened(points)
            return self._measure(points)
        finally:
            self.wall_seconds += time.perf_counter() - started
            self.num_batches += 1
            self.num_submitted += len(points)

    def cluster_degraded(self) -> bool:
        """Whether the supervisor has no admittable worker left: every
        breaker open (or every node dead), so evaluation must take the
        bit-identical serial path instead of the cluster.  The tuners
        also consult this to degrade their trial *shape* to serial.
        (Side-effect-free except for cool-down re-admission inside
        ``any_available``, which is deterministic on the simulated
        clock.)"""
        if self.cluster is None or not self.workers > 1:
            return False
        return not self.cluster.any_available(self.evaluator.clock)

    def _measure(self, points: Sequence[Point], probed: bool = False) -> List[float]:
        """The one measurement dispatch: the serial loop with one worker
        (or a fully degraded cluster), otherwise one batched run billed
        by LPT or by the cluster supervisor.  ``probed`` says every point
        already missed :meth:`_probe`, so the batched run skips its own."""
        if self.cluster_degraded():
            self.cluster.mark_degraded()
        elif self.workers > 1:
            return self._evaluate_parallel(points, probed)
        return self._evaluate_serial(points)

    def _probe(
        self, points: Sequence[Point], results: List[Optional[float]]
    ) -> List[Tuple[int, Point]]:
        """Lint gate, then cache probe, for each point.  Answered points
        are written into ``results``; the rest come back as
        ``(index, point)`` candidates that still need measuring.

        Lint goes first (a statically-illegal point is never measured —
        it is rejected at zero simulated cost), then cache/quarantine
        hits are served for free.
        """
        ev = self.evaluator
        candidates: List[Tuple[int, Point]] = []
        for i, point in enumerate(points):
            point = tuple(point)
            rejected = ev.lint_reject(point)
            if rejected is not None:
                results[i] = rejected
                self.num_lint_rejected += 1
                continue
            cached = ev.lookup(point)
            if cached is not None:
                results[i] = cached
                self.num_cached += 1
                continue
            candidates.append((i, point))
        return candidates

    def _evaluate_serial(self, points: Sequence[Point]) -> List[float]:
        """Bit-reproducible fallback: the exact serial evaluation loop.

        Per-point semantics (duplicate transients re-measure, quarantine
        ordering, clock accounting) are byte-for-byte those of calling
        ``evaluator.evaluate`` in a plain loop — because that is what
        this is.
        """
        ev = self.evaluator
        clock_before = ev.clock
        measured_before = ev.num_measurements
        lint_before = ev.num_lint_rejects
        results = [ev.evaluate(p) for p in points]
        measured = ev.num_measurements - measured_before
        lint_rejected = ev.num_lint_rejects - lint_before
        self.num_measured += measured
        self.num_lint_rejected += lint_rejected
        self.num_cached += len(points) - measured - lint_rejected
        self.span_seconds += ev.clock - clock_before
        self.busy_seconds += ev.clock - clock_before
        return results

    def _evaluate_screened(self, points: Sequence[Point]) -> List[float]:
        """The full measure pipeline with the surrogate stage enabled:
        lint gate -> cache probe -> surrogate screen -> measurement.

        Screened-out candidates are answered with the surrogate's
        predicted performance and billed only the model-inference cost
        (near-zero, like a lint reject); the forwarded slice runs through
        :meth:`_measure`.  Every fresh measurement is fed back into the
        surrogate's training set, and the screen's ranking is scored
        against the real results.
        """
        ev = self.evaluator
        surrogate = self.surrogate
        results: List[Optional[float]] = [None] * len(points)
        candidates = self._probe(points, results)
        if not candidates:
            return results
        decision = surrogate.screen([p for _, p in candidates])
        for position, predicted in decision.screened:
            results[candidates[position][0]] = predicted
            self.num_screened += 1
        if decision.cost_seconds:
            # The whole batch pays one (near-zero) inference pass.
            ev.charge(decision.cost_seconds)
            self.span_seconds += decision.cost_seconds
            self.busy_seconds += decision.cost_seconds
        forward_points = [candidates[position][1] for position in decision.forward]
        records_before = len(ev.records)
        if forward_points:
            performances = self._measure(forward_points, probed=True)
            for position, performance in zip(decision.forward, performances):
                results[candidates[position][0]] = performance
        # Online training: every measurement this batch actually ran.
        for record in ev.records[records_before:]:
            surrogate.observe(record.point, record.performance)
        surrogate.note_quality(
            decision,
            [(position, results[candidates[position][0]])
             for position in decision.forward],
        )
        return results

    def _evaluate_parallel(
        self, points: Sequence[Point], probed: bool = False
    ) -> List[float]:
        ev = self.evaluator
        results: List[Optional[float]] = [None] * len(points)
        # 1. Probe (unless the caller just did: nothing is measured in
        #    between, so a second probe could only miss again), then dedup
        #    the misses by canonical key so one measurement covers every
        #    equivalent submission in the batch.
        jobs: List[Tuple[Point, List[int]]] = []
        job_by_key: Dict[Point, int] = {}
        misses = enumerate(points) if probed else self._probe(points, results)
        for i, point in misses:
            key = ev.canonical_key(point)
            existing = job_by_key.get(key)
            if existing is not None:
                jobs[existing][1].append(i)
                self.num_deduped += 1
                continue
            job_by_key[key] = len(jobs)
            jobs.append((point, [i]))
        if not jobs:
            return results  # everything was cached
        # 2. Compute outcomes — pure, order-independent.
        outcomes = [ev.remote_outcome(p) for p, _ in jobs]
        # 3. Bill simulated time.  With a cluster supervisor attached the
        #    batch runs through its lease/heartbeat/speculation scheduler
        #    (node faults perturb timing and worker health, never the
        #    outcomes computed above); otherwise job costs are
        #    list-scheduled onto W virtual workers in submission order
        #    (LPT).  Either way the batch advances the clock by its
        #    makespan and each record is stamped with its own completion
        #    time.
        batch_start = ev.clock
        plan = None
        if self.cluster is not None:
            plan = self.cluster.schedule_batch(
                [ev.outcome_cost(o) for o in outcomes], clock=batch_start
            )
        if plan is not None:
            completions = plan.completions
            makespan = plan.makespan
            busy = plan.busy_seconds
        else:
            loads = [0.0] * self.workers
            completions = []
            for outcome in outcomes:
                worker = min(range(self.workers), key=lambda w: loads[w])
                loads[worker] += ev.outcome_cost(outcome)
                completions.append(loads[worker])
            makespan = max(loads)
            busy = sum(loads)
        # 4. Apply in completion order (stable for ties) so the record
        #    stream and convergence curve have monotone clocks.
        order = sorted(range(len(jobs)), key=lambda j: completions[j])
        for j in order:
            point, indices = jobs[j]
            result = ev.apply_remote(
                point, outcomes[j], clock=batch_start + completions[j]
            )
            for i in indices:
                results[i] = result.performance
        ev.clock = batch_start + makespan
        self.num_measured += len(jobs)
        self.busy_seconds += busy
        self.span_seconds += makespan
        return results

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict:
        """Throughput/caching counters for the end-of-tune report."""
        ev = self.evaluator
        simulated = self.span_seconds
        utilization = (
            self.busy_seconds / (simulated * self.workers) if simulated else 0.0
        )
        payload = {
            "workers": self.workers,
            "engine_mode": "serial" if self.workers == 1 else "batched",
            "batches": self.num_batches,
            "points_submitted": self.num_submitted,
            "points_measured": self.num_measured,
            "points_cached": self.num_cached,
            "points_deduped": self.num_deduped,
            "points_lint_rejected": self.num_lint_rejected,
            "points_screened": self.num_screened,
            "lint_rejects": ev.num_lint_rejects,
            "lint_rules": dict(ev.lint_rule_counts),
            "simulated_seconds": simulated,
            "wall_seconds": self.wall_seconds,
            "points_per_simulated_second": (
                self.num_submitted / simulated if simulated else 0.0
            ),
            "points_per_wall_second": (
                self.num_submitted / self.wall_seconds if self.wall_seconds else 0.0
            ),
            "pool_utilization": utilization,
            "cache_hit_rate": (
                self.num_cached / self.num_submitted if self.num_submitted else 0.0
            ),
            "memo_hits": ev.num_memo_hits,
            "canon_hits": ev.num_canon_hits,
            "disk_hits": ev.num_disk_hits,
            "quarantine_hits": ev.num_quarantine_hits,
        }
        if ev.lowering_memo is not None:
            payload["lowering"] = ev.lowering_memo.stats()
        if ev.eval_cache is not None:
            payload["eval_cache"] = ev.eval_cache.stats()
        if self.surrogate is not None:
            payload["surrogate"] = self.surrogate.stats()
        if self.cluster is not None:
            payload["cluster"] = self.cluster.stats()
        return payload
