"""Supervised measurement cluster: heartbeats, leases, speculation, breakers.

FlexTensor's evaluation (§6) distributes measurement across machines
(2.1x on 4 machines), and MetaSchedule-style systems supervise their
builder/runner fleet for the same reason: on a real cluster workers
hang, crash, straggle and flake, and an unsupervised fan-out either
stalls the whole batch or silently eats measurement budget.  This
module adds that supervision layer between the tuners and the batch
engine's workers — against *simulated* hardware, so node failures must be simulated
too (:class:`~repro.runtime.fault.NodeFaultInjector`) and the whole
layer is testable as a pure function of the seed.

A :class:`ClusterSupervisor` maintains a worker registry and, per
candidate batch, runs a deterministic discrete-event simulation of the
assignment on the simulated measurement clock:

* **Leases** — each in-flight measurement is a lease with a deadline
  (``lease_factor`` x its nominal cost).  A lease that misses its
  deadline is cancelled and the job reassigned.
* **Heartbeats** — workers heartbeat on the simulated clock; a worker
  silent for ``heartbeat_timeout`` seconds is declared lost and its
  lease reassigned (crash detection is also heartbeat-driven: a dead
  worker is only *noticed* once its heartbeats stop arriving).
* **Speculative re-execution** — a lease running past a percentile
  threshold of recently completed lease durations (``straggler_pct``)
  gets a speculative copy on an idle worker; the first result wins and
  the loser's partial cost is billed, exactly like the engine's
  LPT-style simulated-clock billing.
* **Health scoring + circuit breaker** — every lease outcome folds into
  a per-worker EWMA health score driving a three-state breaker
  (closed → probing → open): a worker whose health drops below
  ``open_threshold`` is quarantined (no new leases), re-admitted as
  *probing* after ``cooldown_seconds``, closed again on a successful
  probe, re-opened on a failed one.

Determinism contract: node faults affect **scheduling and billing
only** — which worker runs a job, how long the batch's simulated
makespan is, what the supervisor's health state becomes — never the
measurement outcomes themselves (those are pure functions of the
point, computed before scheduling).  A chaos run therefore finds the
same best schedule as a fault-free run at equal trial count, and the
supervisor's full state (registry, lease history, breakers, health
EWMAs, RNG) checkpoints beside the Q-network for bit-identical
kill+resume.  When every worker's breaker is open the engine degrades
to the bit-identical serial path (see ``docs/cluster.md``).
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .fault import NodeFault, NodeFaultInjector


class BreakerState(enum.Enum):
    """Circuit-breaker state of one worker."""

    CLOSED = "closed"      # healthy: receives leases normally
    PROBING = "probing"    # cooled down after a trip: one probe lease at a time
    OPEN = "open"          # quarantined: receives no leases until cool-down


@dataclass
class ClusterConfig:
    """Supervision policy of a :class:`ClusterSupervisor`.

    All times are *simulated* seconds on the measurement clock.
    """

    workers: int = 4
    #: Heartbeat cadence of a healthy worker (registry bookkeeping).
    heartbeat_interval: float = 0.05
    #: Silence beyond this declares a worker lost and expires its lease.
    heartbeat_timeout: float = 0.25
    #: Lease deadline = max(lease_min_seconds, lease_factor * nominal cost).
    lease_factor: float = 4.0
    lease_min_seconds: float = 0.05
    #: Percentile of recent lease durations beyond which a running lease
    #: counts as a straggler and may be speculatively re-executed.
    straggler_pct: float = 95.0
    straggler_min_samples: int = 5
    #: Master switch for speculative re-execution.
    speculate: bool = True
    #: EWMA factor of the per-worker health score (1 = only last outcome).
    health_alpha: float = 0.25
    #: Health below this trips a CLOSED breaker to OPEN.
    open_threshold: float = 0.45
    #: Health granted to a worker re-admitted for probing.
    probe_health: float = 0.55
    #: Simulated seconds an OPEN breaker waits before PROBING.
    cooldown_seconds: float = 5.0
    #: Simulated seconds a crashed (non-fatally) worker takes to restart.
    restart_seconds: float = 2.0
    #: Node-level reassignments of one job before its (already computed)
    #: outcome is force-accepted — guarantees termination under any chaos.
    max_reassign: int = 4
    #: Completed-lease durations kept for the straggler percentile.
    duration_window: int = 64


@dataclass
class WorkerState:
    """Registry entry for one supervised worker."""

    worker_id: int
    health: float = 1.0
    breaker: BreakerState = BreakerState.CLOSED
    opened_at: float = 0.0        # simulated clock when the breaker opened
    lease_serial: int = 0         # lifetime leases granted (keys node faults)
    last_heartbeat: float = 0.0   # simulated clock of the last heartbeat seen
    dead: bool = False            # permanently crashed (scripted kill)
    completed: int = 0
    failed: int = 0
    crashes: int = 0
    trips: int = 0                # CLOSED -> OPEN transitions

    def to_dict(self) -> Dict:
        return {
            "worker_id": self.worker_id,
            "health": self.health,
            "breaker": self.breaker.value,
            "opened_at": self.opened_at,
            "lease_serial": self.lease_serial,
            "last_heartbeat": self.last_heartbeat,
            "dead": self.dead,
            "completed": self.completed,
            "failed": self.failed,
            "crashes": self.crashes,
            "trips": self.trips,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "WorkerState":
        return cls(
            worker_id=int(payload["worker_id"]),
            health=float(payload["health"]),
            breaker=BreakerState(payload.get("breaker", "closed")),
            opened_at=float(payload.get("opened_at", 0.0)),
            lease_serial=int(payload.get("lease_serial", 0)),
            last_heartbeat=float(payload.get("last_heartbeat", 0.0)),
            dead=bool(payload.get("dead", False)),
            completed=int(payload.get("completed", 0)),
            failed=int(payload.get("failed", 0)),
            crashes=int(payload.get("crashes", 0)),
            trips=int(payload.get("trips", 0)),
        )


@dataclass
class BatchPlan:
    """Result of scheduling one batch: per-job simulated completion
    times (relative to the batch start), the batch makespan, and the
    total worker-busy seconds billed (including wasted speculative,
    crashed and expired work)."""

    completions: List[float]
    makespan: float
    busy_seconds: float


#: Counter names persisted in supervisor snapshots, in a fixed order.
_COUNTERS = (
    "num_batches", "num_degraded_batches", "num_serial_drained",
    "num_leases", "num_reassigned", "num_expired", "num_crashes",
    "num_stale", "num_flaky_drops", "num_forced",
    "num_speculative", "num_speculative_wins",
    "num_breaker_trips", "num_reopened", "num_probes_passed",
)


class ClusterSupervisor:
    """Deterministic worker-supervision layer for the batch engine.

    The supervisor owns no measurement logic: the engine computes every
    outcome (a pure function of the point) *before* asking the
    supervisor to schedule the batch, so supervision decisions — lease
    reassignment, speculation, breaker trips — can only change simulated
    timing and worker health, never results.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        node_faults: Optional[NodeFaultInjector] = None,
        seed: int = 0,
        workers: Optional[int] = None,
    ):
        config = config or ClusterConfig()
        if workers is not None:
            config = replace(config, workers=int(workers))
        if config.workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if config.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.config = config
        self.node_faults = node_faults
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workers = [WorkerState(i) for i in range(config.workers)]
        self._durations: List[float] = []   # recent completed lease durations
        for name in _COUNTERS:
            setattr(self, name, 0)

    # -- registry / admission ----------------------------------------------

    def _admittable(self, worker: WorkerState, clock: float) -> bool:
        """Whether a worker may receive a lease at simulated ``clock``.

        Promotes a cooled-down OPEN breaker to PROBING as a side effect,
        so re-admission happens exactly when the clock crosses the
        cool-down boundary, mid-batch included.
        """
        if worker.dead:
            return False
        if worker.breaker is BreakerState.OPEN:
            if clock - worker.opened_at >= self.config.cooldown_seconds:
                worker.breaker = BreakerState.PROBING
                worker.health = max(worker.health, self.config.probe_health)
                return True
            return False
        return True

    def any_available(self, clock: float) -> bool:
        """Whether at least one worker may receive leases at ``clock``.
        When false the engine must degrade to the serial path."""
        return any(self._admittable(w, clock) for w in self.workers)

    def mark_degraded(self) -> None:
        """Record one batch routed to the serial path (all breakers open)."""
        self.num_degraded_batches += 1

    # -- health / breaker --------------------------------------------------

    def _health_up(self, worker: WorkerState, clock: float) -> None:
        alpha = self.config.health_alpha
        worker.health = (1 - alpha) * worker.health + alpha
        worker.completed += 1
        worker.last_heartbeat = clock
        if worker.breaker is BreakerState.PROBING:
            worker.breaker = BreakerState.CLOSED
            self.num_probes_passed += 1

    def _health_down(self, worker: WorkerState, clock: float) -> None:
        alpha = self.config.health_alpha
        worker.health = (1 - alpha) * worker.health
        worker.failed += 1
        if worker.dead:
            worker.breaker = BreakerState.OPEN
            worker.opened_at = clock
            return
        if worker.breaker is BreakerState.PROBING:
            # A failed probe re-opens immediately: one strike in probing.
            worker.breaker = BreakerState.OPEN
            worker.opened_at = clock
            self.num_reopened += 1
        elif (
            worker.breaker is BreakerState.CLOSED
            and worker.health < self.config.open_threshold
        ):
            worker.breaker = BreakerState.OPEN
            worker.opened_at = clock
            worker.trips += 1
            self.num_breaker_trips += 1

    # -- straggler threshold -----------------------------------------------

    def _note_duration(self, duration: float) -> None:
        self._durations.append(duration)
        if len(self._durations) > self.config.duration_window:
            del self._durations[: len(self._durations) - self.config.duration_window]

    def straggler_threshold(self) -> Optional[float]:
        """Duration beyond which a running lease counts as a straggler,
        or None while too few leases have completed to judge."""
        if len(self._durations) < self.config.straggler_min_samples:
            return None
        data = sorted(self._durations)
        rank = int(np.ceil(self.config.straggler_pct / 100.0 * len(data))) - 1
        return data[min(max(rank, 0), len(data) - 1)]

    # -- batch scheduling ---------------------------------------------------

    def schedule_batch(
        self, costs: Sequence[float], clock: float
    ) -> Optional[BatchPlan]:
        """Simulate assigning ``len(costs)`` jobs across the cluster.

        ``costs[j]`` is job j's nominal simulated cost (the engine's
        ``outcome_cost``); ``clock`` is the evaluator clock at batch
        start.  Returns the per-job completion times and makespan, or
        None when no worker is admittable — the engine then degrades to
        the bit-identical serial path.

        The simulation is event-driven on relative time ``t`` (absolute
        = ``clock + t``) and fully deterministic: heap ties break on an
        event sequence number, idle workers are picked lowest-id first,
        and node faults key on per-worker lease serials.
        """
        if not self.any_available(clock):
            return None
        self.num_batches += 1
        cfg = self.config
        n = len(costs)
        completions: List[Optional[float]] = [None] * n
        pending = deque(range(n))
        assign_counts = [0] * n
        # One active lease per worker; leases_by_job tracks unresolved
        # copies so speculation and sibling-cancellation can find them.
        active: Dict[int, Dict[str, Any]] = {}
        leases_by_job: Dict[int, List[Dict[str, Any]]] = {}
        offline_until: Dict[int, float] = {}
        heap: List = []
        seq = 0
        busy = 0.0
        span = 0.0
        finished = 0

        def push(t: float, kind: str, payload) -> None:
            nonlocal seq
            heapq.heappush(heap, (t, seq, kind, payload))
            seq += 1

        def bill(seconds: float) -> None:
            nonlocal busy
            busy += max(seconds, 0.0)

        def unresolved(job: int) -> List[Dict[str, Any]]:
            return [
                lease for lease in leases_by_job.get(job, [])
                if not lease["resolved"] and not lease["cancelled"]
            ]

        def idle_worker(t: float) -> Optional[WorkerState]:
            for worker in self.workers:
                if worker.worker_id in active:
                    continue
                if offline_until.get(worker.worker_id, 0.0) > t:
                    continue
                if self._admittable(worker, clock + t):
                    return worker
            return None

        def grant(worker: WorkerState, job: int, t: float, speculative: bool) -> None:
            serial = worker.lease_serial
            worker.lease_serial += 1
            self.num_leases += 1
            fault = NodeFault.NONE
            fatal = False
            if self.node_faults is not None:
                fault = self.node_faults.decide(worker.worker_id, serial)
                fatal = self.node_faults.is_fatal(worker.worker_id, serial)
            cost = max(float(costs[job]), 1e-9)
            duration = cost
            if fault is NodeFault.SLOW and self.node_faults is not None:
                duration *= self.node_faults.slow_factor
            deadline = t + max(cfg.lease_min_seconds, cfg.lease_factor * cost)
            lease = {
                "worker": worker.worker_id,
                "job": job,
                "start": t,
                "duration": duration,
                "deadline": deadline,
                "fault": fault,
                "fatal": fatal,
                "speculative": speculative,
                "resolved": False,
                "cancelled": False,
            }
            active[worker.worker_id] = lease
            leases_by_job.setdefault(job, []).append(lease)
            worker.last_heartbeat = clock + t
            if speculative:
                self.num_speculative += 1
            if fault is NodeFault.CRASH:
                fraction = (
                    self.node_faults.crash_fraction(worker.worker_id, serial)
                    if self.node_faults is not None else 0.5
                )
                push(t + fraction * duration, "crash", lease)
            elif fault is NodeFault.STALE:
                if duration <= cfg.heartbeat_timeout:
                    # Heartbeats resume before anyone noticed the gap.
                    push(t + duration, "done", lease)
                else:
                    lease["busy_until"] = t + duration
                    push(t + cfg.heartbeat_timeout, "lost", lease)
            elif t + duration <= lease["deadline"]:
                push(t + duration, "flaky" if fault is NodeFault.FLAKY else "done", lease)
            else:
                push(lease["deadline"], "expire", lease)

        def finish_job(job: int, t: float, winner: Optional[Dict[str, Any]]) -> None:
            nonlocal finished
            completions[job] = t
            finished += 1
            if winner is not None and winner["speculative"]:
                self.num_speculative_wins += 1
            # First result wins: cancel every other copy still running
            # and bill its partial work (the LPT clock already paid it).
            for sibling in leases_by_job.get(job, []):
                if sibling is winner or sibling["resolved"] or sibling["cancelled"]:
                    continue
                sibling["cancelled"] = True
                if active.get(sibling["worker"]) is sibling:
                    del active[sibling["worker"]]
                bill(t - sibling["start"])

        def requeue(lease, t: float) -> None:
            """Put a node-failed job back at the head of the queue (or
            force-accept its outcome once max_reassign is exhausted)."""
            job = lease["job"]
            if completions[job] is not None or unresolved(job):
                return  # a sibling copy is still running (or already won)
            assign_counts[job] += 1
            if assign_counts[job] > cfg.max_reassign:
                self.num_forced += 1
                finish_job(job, t, None)
            else:
                self.num_reassigned += 1
                pending.appendleft(job)

        def dispatch(t: float) -> None:
            while pending:
                worker = idle_worker(t)
                if worker is None:
                    return
                grant(worker, pending.popleft(), t, speculative=False)
            if not cfg.speculate:
                return
            threshold = self.straggler_threshold()
            if threshold is None:
                return
            while True:
                worker = idle_worker(t)
                if worker is None:
                    return
                stragglers = [
                    lease for lease in active.values()
                    if not lease["resolved"] and not lease["cancelled"]
                    and completions[lease["job"]] is None
                    and len(unresolved(lease["job"])) == 1
                    and t - lease["start"] > threshold
                ]
                if not stragglers:
                    return
                stragglers.sort(key=lambda lease: (lease["start"], lease["job"]))
                longest = stragglers[0]["start"]
                candidates = [s for s in stragglers if s["start"] == longest]
                pick = candidates[int(self.rng.integers(len(candidates)))]
                grant(worker, pick["job"], t, speculative=True)

        dispatch(0.0)
        while heap:
            t, _seq, kind, payload = heapq.heappop(heap)
            span = max(span, t)
            if kind == "restart":
                dispatch(t)
                continue
            lease = payload
            if kind == "detect":
                # Crash detection fires on a lease the crash handler
                # already resolved — only a win by a speculative sibling
                # (checked inside requeue) makes it moot.
                requeue(lease, t)
                dispatch(t)
                continue
            if lease["cancelled"] or lease["resolved"]:
                continue
            worker = self.workers[lease["worker"]]
            if kind == "done":
                lease["resolved"] = True
                del active[worker.worker_id]
                bill(lease["duration"])
                self._note_duration(lease["duration"])
                self._health_up(worker, clock + t)
                if completions[lease["job"]] is None:
                    finish_job(lease["job"], t, lease)
            elif kind == "flaky":
                # The lease ran to completion but delivered garbage: bill
                # the full duration, drop the result, requeue the job.
                lease["resolved"] = True
                del active[worker.worker_id]
                bill(lease["duration"])
                self.num_flaky_drops += 1
                self._health_down(worker, clock + t)
                requeue(lease, t)
            elif kind == "crash":
                # The worker dies mid-lease.  Nobody knows yet: detection
                # waits for the heartbeat gap; the job stays in limbo.
                lease["resolved"] = True
                del active[worker.worker_id]
                bill(t - lease["start"])
                worker.crashes += 1
                self.num_crashes += 1
                if lease["fatal"]:
                    worker.dead = True
                else:
                    offline_until[worker.worker_id] = t + cfg.restart_seconds
                    push(t + cfg.restart_seconds, "restart", None)
                self._health_down(worker, clock + t)
                push(t + cfg.heartbeat_timeout, "detect", lease)
                continue  # requeue happens at detection time
            elif kind == "lost":
                # Stale heartbeats: the supervisor declares the worker
                # lost and reassigns, but the ghost keeps running to
                # completion (billed in full); its late result is
                # discarded — outcomes are pure, so nothing is lost.
                lease["resolved"] = True
                del active[worker.worker_id]
                bill(lease["duration"])
                self.num_stale += 1
                offline_until[worker.worker_id] = lease["busy_until"]
                push(lease["busy_until"], "restart", None)
                self._health_down(worker, clock + t)
                requeue(lease, t)
            elif kind == "expire":
                # Deadline missed (e.g. a slow node with a tight lease):
                # cancel the lease, bill the partial work, reassign.
                lease["resolved"] = True
                del active[worker.worker_id]
                bill(t - lease["start"])
                self.num_expired += 1
                self._health_down(worker, clock + t)
                requeue(lease, t)
            dispatch(t)

        if finished < n:
            # Every worker is dead, open or offline with jobs left: drain
            # the remainder serially on the local host so the batch (and
            # the tuning run) still completes.
            remaining = [job for job in range(n) if completions[job] is None]
            cursor = span
            for job in remaining:
                cursor += max(float(costs[job]), 1e-9)
                completions[job] = cursor
                bill(max(float(costs[job]), 1e-9))
            self.num_serial_drained += len(remaining)
            span = cursor
        span = max([span] + [c for c in completions if c is not None])
        return BatchPlan(
            completions=[float(c) for c in completions],  # type: ignore[arg-type]
            makespan=span,
            busy_seconds=busy,
        )

    # -- checkpointing ------------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of all mutable supervisor state:
        the worker registry (health, breakers, lease serials), the
        lease-duration window behind the straggler threshold, the
        speculation RNG, and every lifetime counter."""
        return {
            "seed": self.seed,
            "rng": self.rng.bit_generator.state,
            "workers": [w.to_dict() for w in self.workers],
            "durations": list(self._durations),
            "counters": {name: getattr(self, name) for name in _COUNTERS},
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.rng.bit_generator.state = state["rng"]
        self.workers = [WorkerState.from_dict(w) for w in state["workers"]]
        self._durations = [float(d) for d in state.get("durations", [])]
        counters = state.get("counters", {})
        for name in _COUNTERS:
            setattr(self, name, int(counters.get(name, 0)))

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict:
        """Supervision counters and the live registry for reports."""
        return {
            "workers": self.config.workers,
            "alive": sum(1 for w in self.workers if not w.dead),
            "open": sum(
                1 for w in self.workers if w.breaker is BreakerState.OPEN
            ),
            "probing": sum(
                1 for w in self.workers if w.breaker is BreakerState.PROBING
            ),
            "health": [round(w.health, 4) for w in self.workers],
            "straggler_pct": self.config.straggler_pct,
            "speculate": self.config.speculate,
            **{name: getattr(self, name) for name in _COUNTERS},
        }
