"""Crash-safe checkpointing of tuner state (JSONL, atomic replace).

A tuning run is hours of simulated (or real) measurements; losing the
H set, the visited set, and the Q-network to a crash means paying for
them again.  A checkpoint file holds one JSON snapshot per line, newest
last; writes go through a temp file + ``os.replace`` so a kill at any
instant leaves either the old file or the new one, never a torn write.
Loading walks the lines backwards and returns the newest parseable
snapshot, so even a checkpoint file truncated by a dying filesystem
still resumes from the latest intact state.  Snapshots of another
schema version are skipped too: a run finding only those starts fresh.

See ``docs/robustness.md`` for the snapshot schema.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Schema version stamped into every snapshot and required at load.
#: Version 2: network arrays as base64 float64 bytes, no target network.
CHECKPOINT_VERSION = 2


def save_checkpoint(
    path: Union[str, Path], snapshot: Dict, keep: int = 3
) -> None:
    """Append a snapshot to a JSONL checkpoint file atomically.

    The file retains at most ``keep`` snapshots (oldest dropped); the
    whole file is rewritten to a sibling temp file and renamed over the
    original, so readers never observe a partial write.
    """
    path = Path(path)
    snapshot = dict(snapshot)
    snapshot.setdefault("version", CHECKPOINT_VERSION)
    lines: List[str] = []
    if path.exists():
        text = path.read_text(errors="replace")
        lines = [l for l in text.splitlines() if l.strip()]
    lines.append(json.dumps(snapshot))
    lines = lines[-max(keep, 1):]
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: Union[str, Path]) -> Optional[Dict]:
    """The newest valid snapshot in a checkpoint file, or None.

    Corrupt or truncated lines (e.g. the process died mid-append on a
    filesystem without atomic rename) and snapshots of any other
    :data:`CHECKPOINT_VERSION` are skipped with a warning.
    """
    path = Path(path)
    if not path.exists():
        return None
    # errors="replace": a disk-level corruption dropping raw bytes into
    # the file must degrade to a skipped line, not an exception.
    lines = path.read_text(errors="replace").splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line:
            continue
        try:
            snapshot = json.loads(line)
        except json.JSONDecodeError:
            warnings.warn(f"skipping corrupt checkpoint line in {path}")
            continue
        if not isinstance(snapshot, dict):
            warnings.warn(f"skipping non-object checkpoint line in {path}")
            continue
        if snapshot.get("version") != CHECKPOINT_VERSION:
            warnings.warn(
                f"skipping version {snapshot.get('version')!r} checkpoint "
                f"snapshot in {path} (this build reads {CHECKPOINT_VERSION})"
            )
            continue
        return snapshot
    return None
