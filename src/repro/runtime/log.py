"""The one JSONL store primitive: every persistent file is opened here.

Tuner checkpoints, the EvalCache, the RecordBook and the serve job log
are files of one JSON object per line.  :class:`JsonlLog` gives them
locked appends (durable, or group-committed until :meth:`JsonlLog.sync`),
atomic rewrites, and tolerant reading.  The crash rules are stated once
in ``docs/robustness.md`` ("Persistence primitive").
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from pathlib import Path
from typing import IO, Dict, Iterator, List, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]


@contextlib.contextmanager
def locked(handle: IO) -> Iterator[IO]:
    """Hold an exclusive advisory ``flock`` on an open file for the block.

    Writers in separate processes serialize line-at-a-time, so a reader
    never sees two half-lines spliced together.  The lock belongs to the
    file description, so a writer that dies mid-append releases it.
    Without ``fcntl`` (Windows) it degrades to a no-op.
    """
    if fcntl is None:
        yield handle
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield handle
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class JsonlLog:
    """One JSONL store file.

    ``skip_warning`` is the store's warning for an unusable line,
    formatted with ``path``, ``lineno`` and ``reason`` (``"corrupt"`` or
    ``"non-object"``).  Stores also :meth:`skip` lines that parse but
    fail their own schema.
    """

    def __init__(self, path: Union[str, Path], skip_warning: str):
        self.path = Path(path)
        self.skip_warning = skip_warning
        self._unsynced = False

    def skip(self, lineno: int, reason: str = "corrupt") -> None:
        warnings.warn(
            self.skip_warning.format(path=self.path, lineno=lineno, reason=reason)
        )

    def append(self, payload: Dict, durable: bool = True) -> None:
        """Append one flushed line under the lock; fsync it if ``durable``.

        Opened per append, so processes forked mid-run never share a
        stale descriptor offset."""
        line = json.dumps(payload)
        with open(self.path, "a") as f, locked(f):
            f.write(line + "\n")
            f.flush()
            if durable:
                os.fsync(f.fileno())
        self._unsynced = not durable  # an fsync covers every earlier line

    def sync(self) -> None:
        """Make every line appended so far durable with one fsync."""
        if not self._unsynced:
            return
        with open(self.path, "a") as f:
            os.fsync(f.fileno())
        self._unsynced = False

    def rewrite(self, lines: List[str]) -> None:
        """Atomically replace the file: stage a sibling ``.tmp``, fsync
        it, ``os.replace`` it over the original."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w") as f:
            f.write("\n".join(lines) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)

    def lines(self, newest_first: bool = False) -> Iterator[Tuple[int, str]]:
        """``(lineno, raw line)`` for every non-blank line, unparsed.

        Undecodable bytes are replaced, so disk-level corruption yields
        an unparseable line, not an exception."""
        if not self.path.exists():
            return
        numbered = list(enumerate(self.path.read_text(errors="replace").splitlines(), 1))
        if newest_first:
            numbered.reverse()
        for lineno, line in numbered:
            if line.strip():
                yield lineno, line

    def objects(self, newest_first: bool = False) -> Iterator[Tuple[int, Dict]]:
        """``(lineno, object)`` per line that parses as a JSON object,
        parsed lazily; torn and non-object lines are skipped with the
        store's warning."""
        for lineno, line in self.lines(newest_first):
            try:
                payload = json.loads(line.strip())
            except json.JSONDecodeError:
                self.skip(lineno)
                continue
            if not isinstance(payload, dict):
                self.skip(lineno, "non-object")
                continue
            yield lineno, payload
