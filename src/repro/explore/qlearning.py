"""Q-learning direction selection (§5.1, "Machine Learning Method").

Directions in the rearranged schedule space are the actions of a
reinforcement-learning problem: state = current point, action = direction,
reward = normalized performance improvement ``(E_e - E_p) / E_p``.  A
four-layer ReLU network predicts per-direction Q-values; training happens
periodically (every five trials) on the recorded transition tuples with
DQN-style targets ``reward + α · max_d Y(e)`` computed by a target-network
copy ``Y`` and optimized by AdaDelta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..space import Point, ScheduleSpace
from .network import MLP


@dataclass
class Transition:
    """One recorded move: (p, direction, e, reward) of §5.1."""

    state: Point
    direction: int
    next_state: Point
    reward: float


class QAgent:
    """Direction-choosing agent over one schedule space."""

    def __init__(
        self,
        space: ScheduleSpace,
        alpha: float = 0.8,
        epsilon: float = 0.5,
        epsilon_decay: float = 0.96,
        epsilon_min: float = 0.05,
        hidden: int = 64,
        train_period: int = 5,
        seed: int = 0,
    ):
        self.space = space
        self.alpha = alpha          # discount on the bootstrapped term
        self.epsilon = epsilon      # exploration rate (decays per trial)
        self.epsilon_decay = epsilon_decay
        self.epsilon_min = epsilon_min
        self.train_period = train_period
        self.network = MLP(space.feature_size, space.num_directions, hidden, seed=seed)
        self.target_network = MLP(space.feature_size, space.num_directions, hidden, seed=seed)
        self.target_network.copy_from(self.network)
        self.transitions: List[Transition] = []
        self.losses: List[float] = []
        # Per-direction running reward statistics: a cheap global prior the
        # network refines.  Optimistic initialization encourages trying
        # each direction at least once.
        self._direction_reward = np.full(space.num_directions, 0.25)
        self._direction_count = np.zeros(space.num_directions)
        self._rng = np.random.default_rng(seed)
        self._trials_since_training = 0

    # -- acting -----------------------------------------------------------

    def choose_direction(
        self, point: Point, visited: set, rng: Optional[np.random.Generator] = None
    ) -> Optional[Tuple[int, Point]]:
        """Pick the best unvisited direction from ``point`` by Q-value
        (epsilon-greedy); None if every neighbor was already visited."""
        rng = rng or self._rng
        options = [
            (d, nb) for d, nb in self.space.neighbors(point) if nb not in visited
        ]
        if not options:
            return None
        if rng.random() < self.epsilon:
            return options[int(rng.integers(len(options)))]
        q_values = self.network.forward(self.space.features(point))
        scores = q_values + self._direction_reward
        return max(options, key=lambda item: scores[item[0]])

    def choose_directions(
        self,
        points: Sequence[Point],
        visited: set,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Optional[Tuple[int, Point]]]:
        """Batched direction choice for many walk heads at once.

        One stacked :meth:`MLP.forward_batch` call scores every direction
        of every head (replacing one forward per head), then each head
        applies the same epsilon-greedy rule as :meth:`choose_direction`,
        drawing from ``rng`` in head order.  A ``taken`` set keeps two
        heads from claiming the same neighbor in the same lockstep, so a
        batch never submits duplicate points.
        """
        rng = rng or self._rng
        if not points:
            return []
        all_q = self.network.forward_batch(
            [self.space.features(p) for p in points]
        )
        taken: set = set()
        choices: List[Optional[Tuple[int, Point]]] = []
        for row, point in enumerate(points):
            options = [
                (d, nb)
                for d, nb in self.space.neighbors(point)
                if nb not in visited and nb not in taken
            ]
            if not options:
                choices.append(None)
                continue
            if rng.random() < self.epsilon:
                choice = options[int(rng.integers(len(options)))]
            else:
                scores = all_q[row] + self._direction_reward
                choice = max(options, key=lambda item: scores[item[0]])
            taken.add(choice[1])
            choices.append(choice)
        return choices

    # -- learning -----------------------------------------------------------

    def record(self, state: Point, direction: int, next_state: Point, reward: float) -> None:
        self.transitions.append(Transition(state, direction, next_state, reward))
        count = self._direction_count[direction] + 1.0
        self._direction_count[direction] = count
        mean = self._direction_reward[direction]
        self._direction_reward[direction] = mean + (reward - mean) / count

    def end_trial(self) -> None:
        """Call once per exploration trial; trains every ``train_period``
        and anneals the exploration rate."""
        self.epsilon = max(self.epsilon * self.epsilon_decay, self.epsilon_min)
        self._trials_since_training += 1
        if self._trials_since_training >= self.train_period:
            self.train()
            self._trials_since_training = 0

    def train(self, batch_size: int = 64) -> Optional[float]:
        """One training pass over a sample of recorded transitions."""
        if not self.transitions:
            return None
        sample_size = min(batch_size, len(self.transitions))
        idx = self._rng.choice(len(self.transitions), size=sample_size, replace=False)
        batch = [self.transitions[i] for i in idx]

        features = np.stack([self.space.features(t.state) for t in batch])
        next_features = np.stack([self.space.features(t.next_state) for t in batch])
        # Both networks evaluate their whole batch in one matrix forward.
        next_q = self.target_network.forward(next_features)
        current_q = self.network.forward(features)

        # DQN targets, fully vectorized: rows are distinct sampled
        # transitions, so the fancy-indexed assignment is exact — the
        # same float64 ops the per-row loop performed.
        rows = np.arange(len(batch))
        directions = np.array([t.direction for t in batch])
        rewards = np.array([t.reward for t in batch])
        targets = current_q.copy()
        targets[rows, directions] = rewards + self.alpha * next_q.max(axis=1)
        mask = np.zeros_like(targets)
        mask[rows, directions] = 1.0
        loss = self.network.train_batch(features, targets, mask)
        self.losses.append(loss)
        # Back up the trained parameters into the stabilizing copy [36].
        self.target_network.copy_from(self.network)
        return loss


    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> dict:
        """JSON-compatible snapshot of everything that evolves during a
        run: exploration rate, replay buffer, direction prior, the
        Q-network (with optimizer accumulators), and the private RNG.

        The target network is not stored: outside :meth:`train` it is
        always a parameter copy of the Q-network (and its own optimizer
        is never stepped), so :meth:`set_state` rebuilds it exactly."""
        return {
            "epsilon": self.epsilon,
            "trials_since_training": self._trials_since_training,
            "direction_reward": self._direction_reward.tolist(),
            "direction_count": self._direction_count.tolist(),
            "transitions": [
                {
                    "state": list(t.state),
                    "direction": t.direction,
                    "next_state": list(t.next_state),
                    "reward": t.reward,
                }
                for t in self.transitions
            ],
            "losses": list(self.losses),
            "network": self.network.get_state(),
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.epsilon = state["epsilon"]
        self._trials_since_training = state["trials_since_training"]
        self._direction_reward = np.asarray(state["direction_reward"], dtype=np.float64)
        self._direction_count = np.asarray(state["direction_count"], dtype=np.float64)
        self.transitions = [
            Transition(
                state=tuple(t["state"]),
                direction=t["direction"],
                next_state=tuple(t["next_state"]),
                reward=t["reward"],
            )
            for t in state["transitions"]
        ]
        self.losses = list(state.get("losses", []))
        self.network.set_state(state["network"])
        self.target_network.copy_from(self.network)
        self._rng.bit_generator.state = state["rng"]


def normalized_reward(perf_from: float, perf_to: float) -> float:
    """The paper's reward ``(E_e - E_p) / E_p``, guarded for E_p = 0."""
    if perf_from <= 0.0:
        return 1.0 if perf_to > 0.0 else 0.0
    return (perf_to - perf_from) / perf_from
