"""Crash-safe checkpointing of tuner state (JSONL, atomic replace).

A tuning run is hours of simulated (or real) measurements; losing the
H set and the Q-network to a crash means paying for
them again.  A checkpoint file holds one JSON snapshot per line, newest
last, written by :meth:`JsonlLog.rewrite` so a kill at any instant
leaves either the old file or the new one, never a torn write.
Loading walks the lines backwards and returns the newest parseable
snapshot, so even a checkpoint file truncated by a dying filesystem
still resumes from the latest intact state.  Snapshots of another
schema version are skipped too: a run finding only those starts fresh.

See ``docs/robustness.md`` for the snapshot schema.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, Optional, Union

from .log import JsonlLog

#: Schema version stamped into every snapshot and required at load.
#: Version 2: network arrays as base64 float64 bytes, no target network.
CHECKPOINT_VERSION = 2


def _log(path: Union[str, Path]) -> JsonlLog:
    return JsonlLog(path, "skipping {reason} checkpoint line in {path}")


def save_checkpoint(
    path: Union[str, Path], snapshot: Dict, keep: int = 3
) -> None:
    """Append a snapshot to a JSONL checkpoint file atomically.

    The file retains at most ``keep`` snapshots (oldest dropped); the
    older lines are copied raw, without being parsed, and the whole
    file is rewritten atomically, so readers never observe a partial
    write.
    """
    log = _log(path)
    snapshot = dict(snapshot)
    snapshot.setdefault("version", CHECKPOINT_VERSION)
    lines = [line for _, line in log.lines()]
    lines.append(json.dumps(snapshot))
    log.rewrite(lines[-max(keep, 1):])


def load_checkpoint(path: Union[str, Path]) -> Optional[Dict]:
    """The newest valid snapshot in a checkpoint file, or None.

    Corrupt or truncated lines (e.g. the process died mid-append on a
    filesystem without atomic rename) and snapshots of any other
    :data:`CHECKPOINT_VERSION` are skipped with a warning.
    """
    log = _log(path)
    for _, snapshot in log.objects(newest_first=True):
        if snapshot.get("version") != CHECKPOINT_VERSION:
            warnings.warn(
                f"skipping version {snapshot.get('version')!r} checkpoint "
                f"snapshot in {log.path} (this build reads {CHECKPOINT_VERSION})"
            )
            continue
        return snapshot
    return None
