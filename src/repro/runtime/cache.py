"""Persistent cross-run evaluation cache (level 2 of the two-level cache).

Level 1 is the :class:`~repro.runtime.measure.Evaluator`'s in-run memo
(raw points, drives the simulated clock).  This module adds the level-2
store: one in-memory index backed by an append-only JSONL file, keyed
by ``(op signature, canonical point)`` so results survive across
processes and are shared by every tuner and ``tune_workload()``.

Entries record the final :class:`MeasureStatus` alongside the
performance value, so *permanent* failures (compile errors, lowering
errors, timeouts) are cached too and never re-measured on a warm run.

The file is a :class:`~repro.runtime.log.JsonlLog` with group-committed
appends: each line is flushed under the file lock, but made durable
only by :meth:`EvalCache.sync`, which the tuning loop calls before
every checkpoint write and when it returns.  The durable cache
therefore always covers the durable tuner snapshot.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .log import JsonlLog

#: On-disk format version; bump when the entry layout changes.
EVALCACHE_VERSION = 1

#: File name used inside a cache directory.
EVALCACHE_FILENAME = "evalcache.jsonl"


class EvalCache:
    """Evaluation memo: one in-memory index over an on-disk JSONL log.

    The cache maps ``(op_signature, canonical_point)`` to
    ``(performance, status_value)``.  ``op_signature`` is produced by the
    evaluator and encodes operator structure, shapes, target and device,
    so one directory can safely serve many workloads.  The index holds
    every entry loaded at start-up or stored since; each store also
    appends one line to the log.  Without a directory the cache is
    memory-only.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._entries: Dict[Tuple[str, Tuple[int, ...]], Tuple[float, str]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._log: Optional[JsonlLog] = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._log = JsonlLog(
                self.cache_dir / EVALCACHE_FILENAME,
                "skipping corrupt cache entry at {path}:{lineno}",
            )
            self._load()

    @property
    def path(self) -> Optional[Path]:
        return self._log.path if self._log else None

    def _load(self) -> None:
        for lineno, payload in self._log.objects():
            try:
                if payload.get("v", EVALCACHE_VERSION) != EVALCACHE_VERSION:
                    raise ValueError("version mismatch")
                key = (payload["sig"], tuple(int(x) for x in payload["point"]))
                value = (float(payload["perf"]), str(payload["status"]))
            except (KeyError, TypeError, ValueError):
                self._log.skip(lineno)
                continue
            self._entries[key] = value

    def sync(self) -> None:
        """Make every entry stored so far durable (one fsync per group)."""
        if self._log is not None:
            self._log.sync()

    # -- public API --------------------------------------------------------

    def get(self, signature: str, point: Tuple[int, ...]) -> Optional[Tuple[float, str]]:
        """Cached ``(performance, status)`` for a canonical point, or None."""
        entry = self._entries.get((signature, tuple(point)))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, signature: str, point: Tuple[int, ...], perf: float, status: str) -> None:
        """Store one finished (permanent-status) evaluation."""
        key = (signature, tuple(point))
        if key in self._entries:
            return
        self.stores += 1
        self._entries[key] = (perf, status)
        if self._log is not None:
            self._log.append({
                "v": EVALCACHE_VERSION, "sig": signature, "point": list(key[1]),
                "perf": perf, "status": status,
            }, durable=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for the throughput report."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "entries": len(self),
        }
