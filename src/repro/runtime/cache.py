"""Persistent cross-run evaluation cache (level 2 of the two-level cache).

Level 1 is the :class:`~repro.runtime.measure.Evaluator`'s in-run memo
(raw points, drives the simulated clock).  This module adds the level-2
store: a bounded in-memory LRU in front of an append-only JSONL file,
keyed by ``(op signature, canonical point)`` so results survive across
processes and are shared by every tuner and ``tune_workload()``.

Entries record the final :class:`MeasureStatus` alongside the
performance value, so *permanent* failures (compile errors, lowering
errors, timeouts) are cached too and never re-measured on a warm run.
Like the PR-1 :class:`RecordBook`, a file truncated mid-append (killed
process) or hand-corrupted loses only the bad lines, never the cache.

Appends are group-committed: each line is written and flushed under the
file lock, but made durable only by :meth:`EvalCache.sync`, which the
tuning loop calls before every checkpoint write and when it returns.
The durable cache therefore always covers the durable tuner snapshot.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from .locking import locked

#: On-disk format version; bump when the entry layout changes.
EVALCACHE_VERSION = 1

#: File name used inside a cache directory.
EVALCACHE_FILENAME = "evalcache.jsonl"


class EvalCache:
    """Two-level evaluation memo: in-memory LRU over an on-disk JSONL log.

    The cache maps ``(op_signature, canonical_point)`` to
    ``(performance, status_value)``.  ``op_signature`` is produced by the
    evaluator and encodes operator structure, shapes, target and device,
    so one directory can safely serve many workloads.  Writes append one
    flushed JSONL line (a killed process loses at most a torn line, which
    the loader skips; a machine crash at most the lines since the last
    :meth:`sync`); reads hit the LRU first and fall back to the
    disk-loaded index.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 4096,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[Tuple[str, Tuple[int, ...]], Tuple[float, str]]" = OrderedDict()
        self._disk: Dict[Tuple[str, Tuple[int, ...]], Tuple[float, str]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_hits = 0
        self._unsynced = False
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._load()

    @property
    def path(self) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / EVALCACHE_FILENAME

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        path = self.path
        if path is None or not path.exists():
            return
        for key, value in self._read_all(path):
            self._disk[key] = value

    @staticmethod
    def _read_all(path: Path) -> Iterator[Tuple[Tuple[str, Tuple[int, ...]], Tuple[float, str]]]:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if payload.get("v", EVALCACHE_VERSION) != EVALCACHE_VERSION:
                    raise ValueError("version mismatch")
                key = (payload["sig"], tuple(int(x) for x in payload["point"]))
                value = (float(payload["perf"]), str(payload["status"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Mirror RecordBook: a truncated or hand-edited line must
                # never take the whole cache down.
                warnings.warn(f"skipping corrupt cache entry at {path}:{lineno}")
                continue
            yield key, value

    def _append(self, signature: str, point: Tuple[int, ...], perf: float, status: str) -> None:
        path = self.path
        if path is None:
            return
        line = json.dumps({
            "v": EVALCACHE_VERSION,
            "sig": signature,
            "point": list(point),
            "perf": perf,
            "status": status,
        })
        # Open-per-append: worker processes forked mid-run never share a
        # stale file-descriptor offset with the parent.  The flock keeps
        # appends from separate tuner processes sharing one cache dir
        # whole-line atomic even where write() interleaving is possible.
        with open(path, "a") as f, locked(f):
            f.write(line + "\n")
            f.flush()
        self._unsynced = True

    def sync(self) -> None:
        """Make every line appended so far durable (one fsync per group).

        fsync covers the file, not the descriptor, so reopening the log
        reaches the lines written through the per-append handles."""
        if not self._unsynced:
            return
        with open(self.path, "a") as f:
            os.fsync(f.fileno())
        self._unsynced = False

    # -- public API --------------------------------------------------------

    def get(self, signature: str, point: Tuple[int, ...]) -> Optional[Tuple[float, str]]:
        """Cached ``(performance, status)`` for a canonical point, or None."""
        key = (signature, tuple(point))
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return entry
        entry = self._disk.get(key)
        if entry is not None:
            self.hits += 1
            self.disk_hits += 1
            self._remember(key, entry)
            return entry
        self.misses += 1
        return None

    def put(self, signature: str, point: Tuple[int, ...], perf: float, status: str) -> None:
        """Store one finished (permanent-status) evaluation."""
        key = (signature, tuple(point))
        if key in self._memory or key in self._disk:
            return
        self.stores += 1
        self._remember(key, (perf, status))
        if self.cache_dir is not None:
            # Mirror into the durable index too, so the entry survives
            # LRU eviction within this process exactly as it does a
            # restart.
            self._disk[key] = (perf, status)
            self._append(signature, key[1], perf, status)

    def _remember(self, key, value) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        keys = set(self._disk)
        keys.update(self._memory)
        return len(keys)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for the throughput report."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "entries": len(self),
        }
