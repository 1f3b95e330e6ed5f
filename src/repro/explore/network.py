"""A small fully-connected network with AdaDelta training, in pure numpy.

The paper's Q-value predictor: four fully connected layers with ReLU
activations (§5.1), trained online with the AdaDelta optimizer [64] and
stabilized by a target-network copy as in DQN [36].
"""

from __future__ import annotations

import base64
from typing import Dict, List, Sequence

import numpy as np


def encode_array(array: np.ndarray) -> Dict:
    """A float64 array as ``{"shape", "b64"}``: its little-endian bytes,
    base64-encoded.  Exact (no float-to-text rounding) and about a third
    of the size of the JSON float text it replaces."""
    data = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return {"shape": list(array.shape), "b64": base64.b64encode(data).decode("ascii")}


def decode_array(payload: Dict) -> np.ndarray:
    """Inverse of :func:`encode_array`: a fresh, writable float64 array."""
    data = base64.b64decode(payload["b64"])
    flat = np.frombuffer(data, dtype="<f8").astype(np.float64)
    return flat.reshape(payload["shape"])


class AdaDelta:
    """AdaDelta (Zeiler 2012): per-parameter adaptive steps, no global LR."""

    def __init__(self, shapes: Sequence, rho: float = 0.95, eps: float = 1e-6):
        self.rho = rho
        self.eps = eps
        self._grad_sq = [np.zeros(s) for s in shapes]
        self._delta_sq = [np.zeros(s) for s in shapes]

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        for i, (p, g) in enumerate(zip(params, grads)):
            self._grad_sq[i] = self.rho * self._grad_sq[i] + (1 - self.rho) * g * g
            update = (
                np.sqrt(self._delta_sq[i] + self.eps)
                / np.sqrt(self._grad_sq[i] + self.eps)
            ) * g
            self._delta_sq[i] = self.rho * self._delta_sq[i] + (1 - self.rho) * update * update
            p -= update

    def get_state(self) -> dict:
        """JSON-compatible accumulator snapshot (checkpoint/resume)."""
        return {
            "grad_sq": [encode_array(a) for a in self._grad_sq],
            "delta_sq": [encode_array(a) for a in self._delta_sq],
        }

    def set_state(self, state: dict) -> None:
        self._grad_sq = [decode_array(a) for a in state["grad_sq"]]
        self._delta_sq = [decode_array(a) for a in state["delta_sq"]]


class MLP:
    """Four fully-connected layers with ReLU between them.

    ``forward`` keeps no state; ``train_batch`` runs one gradient step on
    a masked mean-squared error (only the Q-values of taken actions carry
    loss, the DQN convention).
    """

    NUM_LAYERS = 4

    def __init__(self, input_size: int, output_size: int, hidden: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        sizes = [input_size, hidden, hidden, hidden, output_size]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))
        self._optimizer = AdaDelta([w.shape for w in self.weights] + [b.shape for b in self.biases])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a batch (or single vector) of features."""
        single = x.ndim == 1
        h = np.atleast_2d(x)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
        return h[0] if single else h

    def forward_batch(self, features: Sequence[np.ndarray]) -> np.ndarray:
        """Q-values for a list of feature vectors via one stacked matrix
        forward — one GEMM per layer instead of one per vector."""
        return self.forward(np.stack(features))

    def train_batch(self, x: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
        """One AdaDelta step on ``mean((Q - target)^2 * mask)``.

        Returns the (masked) loss before the step.
        """
        activations = [np.atleast_2d(x)]
        h = activations[0]
        pre = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
            activations.append(h)
        output = activations[-1]
        diff = (output - targets) * mask
        count = max(mask.sum(), 1.0)
        loss = float((diff * diff).sum() / count)

        grad = 2.0 * diff / count
        w_grads: List[np.ndarray] = [None] * len(self.weights)
        b_grads: List[np.ndarray] = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            w_grads[i] = activations[i].T @ grad
            b_grads[i] = grad.sum(axis=0)
            if i > 0:
                grad = (grad @ self.weights[i].T) * (pre[i - 1] > 0)
        self._optimizer.step(self.weights + self.biases, w_grads + b_grads)
        return loss

    def copy_from(self, other: "MLP") -> None:
        """Overwrite parameters with another network's (target-net sync)."""
        for w, ow in zip(self.weights, other.weights):
            w[...] = ow
        for b, ob in zip(self.biases, other.biases):
            b[...] = ob

    def get_state(self) -> dict:
        """All parameters and optimizer accumulators, JSON-compatible.

        Arrays travel as raw float64 bytes (:func:`encode_array`), so a
        restored network continues training bit-identically.
        """
        return {
            "weights": [encode_array(w) for w in self.weights],
            "biases": [encode_array(b) for b in self.biases],
            "optimizer": self._optimizer.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.weights = [decode_array(w) for w in state["weights"]]
        self.biases = [decode_array(b) for b in state["biases"]]
        self._optimizer.set_state(state["optimizer"])
