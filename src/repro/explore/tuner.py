"""Exploration drivers: the Q-method, the P-method and a random walk.

* **Q-method** (FlexTensor, §5.1) — simulated annealing chooses starting
  points from the evaluated set H; the Q-learning agent picks *one*
  direction per starting point; transitions train the network every five
  trials.
* **P-method** (§6.5 baseline) — same SA starting points, but evaluates
  *all* directions of each starting point every trial, no learning.
* **Random walk** — ablation baseline: uniform random directions.

All tuners share the :class:`~repro.runtime.Evaluator`, so measured
points, simulated exploration time and convergence curves are directly
comparable (Figures 6d and 7).

The shared :meth:`BaseTuner.tune` loop is fault tolerant: it degrades
gracefully when the evaluator reports a poisoned neighborhood (high
recent error rate) and can periodically checkpoint its full state —
H set, visited set, RNG, Q-network — so a killed run resumes exactly
where it stopped (``docs/robustness.md``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..runtime import BatchEngine, Evaluator, load_checkpoint, save_checkpoint
from ..space import Point, heuristic_seed_points
from .qlearning import QAgent, normalized_reward
from .sa import select_starting_points


@dataclass
class TuneResult:
    """Outcome of one exploration run."""

    best_point: Optional[Point]
    best_performance: float        # GFLOPS under the device model
    best_seconds: float            # modeled kernel time of the best point
    num_measurements: int
    exploration_seconds: float     # simulated tuning wall-clock
    curve: List[Tuple[float, float]] = field(default_factory=list)
    status_counts: Dict[str, int] = field(default_factory=dict)
    throughput: Optional[Dict] = None   # BatchEngine.stats() when one ran
    lint_rejects: int = 0               # points statically rejected (zero cost)
    lint_rules: Dict[str, int] = field(default_factory=dict)  # rule -> fire count
    num_screened: int = 0               # points answered by the surrogate screen
    surrogate: Optional[Dict] = None    # SurrogateScreen.stats() when one ran
    num_retries: int = 0                # measurement attempts beyond the first
    quarantine_hits: int = 0            # free lookups answered by quarantine
    num_quarantined: int = 0            # points in quarantine at the end
    cluster: Optional[Dict] = None      # ClusterSupervisor.stats() when one ran
    lowering: Optional[Dict] = None     # LoweringMemo.stats() when memoizing
    profile: Optional[Dict] = None      # HotPathProfiler.stats() (wall seconds)

    @property
    def found(self) -> bool:
        return self.best_point is not None and self.best_performance > 0

    @property
    def num_failures(self) -> int:
        """Measurements that did not produce a clean performance value.

        Statically-rejected points are excluded: they never reached the
        measurement pipeline (see :attr:`lint_rejects`).
        """
        ok = self.status_counts.get("ok", 0) + self.status_counts.get("flaky_retried", 0)
        return sum(self.status_counts.values()) - ok - self.status_counts.get("illegal", 0)


class BaseTuner:
    """Shared H-set bookkeeping, the fault-aware tuning loop, and
    checkpoint/resume."""

    name = "base"

    def __init__(
        self,
        evaluator: Evaluator,
        gamma: float = 2.0,
        num_starting_points: int = 4,
        seed: int = 0,
        seed_points: Optional[List[Point]] = None,
        degrade_threshold: float = 0.5,
        engine: Optional[BatchEngine] = None,
    ):
        self.evaluator = evaluator
        self.space = evaluator.space
        self.gamma = gamma
        self.num_starting_points = num_starting_points
        self.rng = np.random.default_rng(seed)
        self.evaluated: Dict[Point, float] = {}
        self.visited: Set[Point] = set()
        self.seed_points: List[Point] = list(seed_points or [])
        # Above this recent-error-rate the tuner assumes the neighborhood
        # is poisoned (quarantined / failing points) and degrades: shorter
        # walks plus a fresh SA restart to escape the region.
        self.degrade_threshold = degrade_threshold
        # Batched evaluation engine (repro.runtime.parallel).  ``None``
        # and ``workers=1`` both take the exact serial evaluation path;
        # ``workers>1`` switches the tuners to their batched trial shapes.
        self.engine = engine

    @property
    def parallel(self) -> bool:
        """Whether trials should submit whole candidate batches.

        A supervised cluster whose workers are all quarantined (every
        breaker open, or every node dead) degrades the trial shape
        itself: the tuner proposes serially, exactly like ``workers=1``,
        so a fully-quarantined run stays bit-identical to a serial run.
        Workers re-admitted after cool-down restore the batched shape.
        """
        if self.engine is None or self.engine.workers <= 1:
            return False
        return not self.engine.cluster_degraded()

    # -- helpers -----------------------------------------------------------

    def _evaluate(self, point: Point) -> float:
        return self._evaluate_batch([point])[0]

    def _evaluate_batch(self, points: List[Point]) -> List[float]:
        """Evaluate candidates (through the engine when one is attached)
        and fold them into the H set.  With no engine — or ``workers=1``
        — this is byte-for-byte the pre-engine serial loop: evaluation
        consumes no tuner RNG and H/visited updates commute with it, so
        collect-then-batch trials stay bit-identical."""
        if not points:
            return []
        if self.engine is not None:
            performances = self.engine.evaluate_batch(points)
        else:
            performances = [self.evaluator.evaluate(p) for p in points]
        for point, performance in zip(points, performances):
            self.evaluated[point] = performance
            self.visited.add(point)
        return performances

    def _seed(self, num_seeds: int) -> None:
        # Explicit warm-start points (e.g. from a RecordBook) come first.
        # One batch for the whole seed set: heuristic_seed_points draws
        # from the tuner RNG before any evaluation, same as the serial
        # order did.
        batch = list(self.seed_points)
        batch.extend(heuristic_seed_points(self.space, num_seeds, self.rng))
        self._evaluate_batch(batch)

    def _degraded(self) -> bool:
        """Whether the measurement pipeline reports a poisoned region."""
        return self.evaluator.recent_error_rate() >= self.degrade_threshold

    def _result(self) -> TuneResult:
        best_point, best_perf = self.evaluator.best()
        best_seconds = (
            self.evaluator.flops / (best_perf * 1e9) if best_perf > 0 else float("inf")
        )
        return TuneResult(
            best_point=best_point,
            best_performance=best_perf,
            best_seconds=best_seconds,
            num_measurements=self.evaluator.num_measurements,
            exploration_seconds=self.evaluator.clock,
            curve=self.evaluator.convergence_curve(),
            status_counts=dict(self.evaluator.status_counts),
            lint_rejects=self.evaluator.num_lint_rejects,
            lint_rules=dict(self.evaluator.lint_rule_counts),
            num_retries=self.evaluator.num_retries,
            quarantine_hits=self.evaluator.num_quarantine_hits,
            num_quarantined=len(self.evaluator.quarantine),
            lowering=(
                self.evaluator.lowering_memo.stats()
                if self.evaluator.lowering_memo is not None
                else None
            ),
            profile=self.evaluator.profiler.stats(),
        )

    # -- the tuning loop ---------------------------------------------------

    def tune(
        self,
        trials: int,
        num_seeds: int = 4,
        checkpoint: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> TuneResult:
        """Run the exploration loop, optionally checkpointed.

        Args:
            trials: number of exploration trials.
            num_seeds: heuristic + random seed points evaluated up front.
            checkpoint: path of a JSONL checkpoint file; when set, full
                tuner state is snapshotted every ``checkpoint_every``
                trials and after the final trial (atomic
                write-then-rename).
            checkpoint_every: snapshot period in trials.
            resume: restore the newest snapshot from ``checkpoint`` (if
                any) and continue from its trial index; the finished run
                is bit-identical to an uninterrupted one.

        The persistent evaluation cache is made durable before every
        snapshot and on return, so a durable snapshot never refers to
        cache lines a machine crash could still lose.
        """
        start_trial = 0
        if checkpoint and resume:
            start_trial = self._restore(checkpoint)
        if start_trial == 0:
            self._seed(num_seeds)
        for trial in range(start_trial, trials):
            self._run_trial(trial)
            self._end_trial(trial)
            done = trial + 1
            if checkpoint and (done % checkpoint_every == 0 or done == trials):
                self._sync_cache()
                save_checkpoint(checkpoint, self._snapshot(done))
        self._sync_cache()
        result = self._result()
        if self.engine is not None:
            # Engine counters are per-process, so after a resume they
            # cover the resumed portion of the run only.
            result.throughput = self.engine.stats()
            if self.engine.surrogate is not None:
                # Surrogate counters live in its (checkpointed) state, so
                # they cover the whole run even across a resume.
                result.surrogate = self.engine.surrogate.stats()
                result.num_screened = self.engine.surrogate.num_screened
            if self.engine.cluster is not None:
                # Supervisor counters are checkpointed state too, so they
                # cover the whole run even across a resume.
                result.cluster = self.engine.cluster.stats()
        return result

    def _run_trial(self, trial: int) -> None:
        raise NotImplementedError

    def _end_trial(self, trial: int) -> None:
        """Per-trial hook (the Q-method trains its network here)."""

    def _sync_cache(self) -> None:
        if self.evaluator.eval_cache is not None:
            self.evaluator.eval_cache.sync()

    # -- checkpoint/resume -------------------------------------------------

    def _snapshot(self, next_trial: int) -> Dict:
        return {"tuner": self.name, "trial": next_trial, "state": self.get_state()}

    def _restore(self, checkpoint: Union[str, Path]) -> int:
        """Load the newest snapshot; returns the trial index to resume at
        (0 — a fresh start — when there is nothing usable)."""
        snapshot = load_checkpoint(checkpoint)
        if snapshot is None:
            return 0
        if snapshot.get("tuner") != self.name:
            warnings.warn(
                f"checkpoint {checkpoint} was written by tuner "
                f"{snapshot.get('tuner')!r}, not {self.name!r}; starting fresh"
            )
            return 0
        self.set_state(snapshot["state"])
        return int(snapshot["trial"])

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of all mutable tuner state (insertion
        order of H is preserved — the SA distribution and best() tie-breaks
        depend on it)."""
        state = {
            "rng": self.rng.bit_generator.state,
            "evaluated": [[list(p), perf] for p, perf in self.evaluated.items()],
            "visited": [list(p) for p in sorted(self.visited)],
            "evaluator": self.evaluator.get_state(),
        }
        if self.engine is not None and self.engine.surrogate is not None:
            # The surrogate's training set, fitted trees, ε RNG and
            # counters checkpoint alongside the Q-network so a resumed
            # run makes bit-identical screening decisions.
            state["surrogate"] = self.engine.surrogate.get_state()
        if self.engine is not None and self.engine.cluster is not None:
            # The cluster supervisor's registry, breakers, health EWMAs,
            # lease history and RNG checkpoint too, so a resumed run
            # replays identical supervision decisions (docs/cluster.md).
            state["cluster"] = self.engine.cluster.get_state()
        return state

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.rng.bit_generator.state = state["rng"]
        self.evaluated = {tuple(p): perf for p, perf in state["evaluated"]}
        self.visited = {tuple(p) for p in state["visited"]}
        self.evaluator.set_state(state["evaluator"])
        if (
            self.engine is not None
            and self.engine.surrogate is not None
            and "surrogate" in state
        ):
            self.engine.surrogate.set_state(state["surrogate"])
        if (
            self.engine is not None
            and self.engine.cluster is not None
            and "cluster" in state
        ):
            self.engine.cluster.set_state(state["cluster"])


class FlexTensorTuner(BaseTuner):
    """The paper's combined heuristic + machine-learning exploration."""

    name = "q-method"

    def __init__(
        self,
        evaluator: Evaluator,
        gamma: float = 2.0,
        num_starting_points: int = 4,
        steps: int = 4,
        epsilon: float = 0.5,
        train_period: int = 5,
        seed: int = 0,
        seed_points: Optional[List[Point]] = None,
        degrade_threshold: float = 0.5,
        engine: Optional[BatchEngine] = None,
    ):
        super().__init__(
            evaluator, gamma, num_starting_points, seed, seed_points,
            degrade_threshold=degrade_threshold, engine=engine,
        )
        self.steps = steps
        self.agent = QAgent(
            self.space,
            epsilon=epsilon,
            train_period=train_period,
            seed=seed,
        )

    def _run_trial(self, trial: int) -> None:
        if self.parallel:
            self._run_trial_batched(trial)
            return
        steps = self.steps
        if self._degraded():
            # Poisoned neighborhood: shorten the walks and inject a fresh
            # SA restart so the search escapes instead of looping on a
            # broken region.
            steps = max(1, self.steps // 2)
            self._evaluate(self.space.random_point(self.rng))
        starts = select_starting_points(
            self.evaluated, self.num_starting_points, self.gamma, self.rng
        )
        for start in starts:
            # "The searching process can involve multiple steps" (§5.1):
            # walk up to ``steps`` moves from the starting point, always
            # continuing from the freshly evaluated neighbor.
            current = start
            for _step in range(steps):
                choice = self.agent.choose_direction(current, self.visited, self.rng)
                if choice is None:
                    break
                direction, neighbor = choice
                perf_from = self.evaluated[current]
                perf_to = self._evaluate(neighbor)
                self.agent.record(
                    current, direction, neighbor,
                    normalized_reward(perf_from, perf_to),
                )
                current = neighbor

    def _run_trial_batched(self, trial: int) -> None:
        """Lockstep-parallel variant of the Q-trial: all walk heads take
        their step together, so each step costs one batched network
        forward plus one batched evaluation instead of one of each per
        head.  The serial trial interleaves direction-prior updates with
        later heads' choices, so this path is reserved for ``workers>1``
        — the serial path stays bit-identical to the pre-engine code."""
        steps = self.steps
        if self._degraded():
            steps = max(1, self.steps // 2)
            self._evaluate(self.space.random_point(self.rng))
        starts = select_starting_points(
            self.evaluated, self.num_starting_points, self.gamma, self.rng
        )
        heads = list(starts)
        active = list(range(len(heads)))
        for _step in range(steps):
            if not active:
                break
            choices = self.agent.choose_directions(
                [heads[i] for i in active], self.visited, self.rng
            )
            moves = [
                (i, choice[0], choice[1])
                for i, choice in zip(active, choices)
                if choice is not None
            ]
            if not moves:
                break
            performances = self._evaluate_batch([nb for _, _, nb in moves])
            for (i, direction, neighbor), perf_to in zip(moves, performances):
                perf_from = self.evaluated[heads[i]]
                self.agent.record(
                    heads[i], direction, neighbor,
                    normalized_reward(perf_from, perf_to),
                )
                heads[i] = neighbor
            active = [i for i, _, _ in moves]

    def _end_trial(self, trial: int) -> None:
        self.agent.end_trial()

    def get_state(self) -> Dict:
        state = super().get_state()
        state["agent"] = self.agent.get_state()
        return state

    def set_state(self, state: Dict) -> None:
        super().set_state(state)
        self.agent.set_state(state["agent"])


class PMethodTuner(BaseTuner):
    """Exhaustive-direction exploration (the paper's P-method, §6.5)."""

    name = "p-method"

    def _run_trial(self, trial: int) -> None:
        starts = select_starting_points(
            self.evaluated, self.num_starting_points, self.gamma, self.rng
        )
        # Collect every unvisited direction of every start, then submit
        # the whole trial as one batch.  Marking visited at collection
        # reproduces the serial membership checks exactly (a neighbor
        # shared by two starts is collected once, in the same position
        # the serial loop would have evaluated it).
        batch: List[Point] = []
        for start in starts:
            for _direction, neighbor in self.space.neighbors(start):
                if neighbor in self.visited:
                    continue
                self.visited.add(neighbor)
                batch.append(neighbor)
        self._evaluate_batch(batch)


class RandomWalkTuner(BaseTuner):
    """Ablation baseline: SA starting points, uniformly random directions."""

    name = "random-walk"

    def _run_trial(self, trial: int) -> None:
        if self._degraded():
            self._evaluate(self.space.random_point(self.rng))
        starts = select_starting_points(
            self.evaluated, self.num_starting_points, self.gamma, self.rng
        )
        # One random unvisited direction per start, drawn in start order
        # (evaluation consumes no tuner RNG, so collect-then-batch makes
        # the same draws the serial loop made), submitted as one batch.
        batch: List[Point] = []
        for start in starts:
            options = [
                (d, nb)
                for d, nb in self.space.neighbors(start)
                if nb not in self.visited
            ]
            if not options:
                continue
            _direction, neighbor = options[int(self.rng.integers(len(options)))]
            self.visited.add(neighbor)
            batch.append(neighbor)
        self._evaluate_batch(batch)


class RandomSampleTuner(BaseTuner):
    """Ablation baseline: uniform random sampling of the flat space —
    what the search degenerates to without the neighborhood
    rearrangement of §4.2."""

    name = "random-sample"

    def _run_trial(self, trial: int) -> None:
        self._evaluate_batch(
            [self.space.random_point(self.rng) for _ in range(self.num_starting_points)]
        )
