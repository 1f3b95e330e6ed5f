"""Per-stage wall-time accounting for the candidate-evaluation hot path.

Perf claims rot unless they stay attributable: the throughput bench used
to report one opaque wall-seconds number per run, so a regression in any
stage (lowering, featurization, surrogate fit/predict, model evaluation)
looked identical to noise.  :class:`HotPathProfiler` is a near-zero-cost
accumulator of cumulative wall seconds and call counts per stage, wired
through the evaluator and the surrogate screen and surfaced in
``TuneResult.throughput["profile"]`` and
``benchmarks/bench_throughput.py`` output.

Wall seconds only — the *simulated* clock is owned by the evaluator and
is deliberately untouched here.  The profiler is not checkpointed state:
wall time is a property of the host, not of the run, so a resumed run
reports the resumed portion only (like the engine's wall counters).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict

#: Stage names in reporting order.
SECTIONS = (
    "lower",
    "features",
    "surrogate_fit",
    "surrogate_predict",
    "model_eval",
)


class HotPathProfiler:
    """Cumulative wall seconds + call counts per hot-path stage."""

    def __init__(self):
        self.seconds: Dict[str, float] = {name: 0.0 for name in SECTIONS}
        self.calls: Dict[str, int] = {name: 0 for name in SECTIONS}

    @contextmanager
    def section(self, name: str):
        """Time one entry of stage ``name`` (unknown names are allowed —
        they simply add a new row to :meth:`stats`)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold in externally measured time."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    def stats(self) -> Dict:
        """JSON-compatible per-stage summary for TuneResult / the bench."""
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in self.seconds
        }
