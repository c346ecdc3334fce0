"""The JSONL file under every persistent store of the program.

The persistent evaluation cache (:mod:`repro.core.evalcache`) and the
design atlas (:mod:`repro.atlas.store`) keep their state as JSON lines
that are only ever appended, so a killed run keeps everything it paid
for.  Search checkpoints (:mod:`repro.resilience.session`) are JSON
lines too, replaced whole after every evaluation round.  This module
owns how all three touch the file: lock, parse, skip and replace; each
store keeps only its record semantics, as a per-entry callback.

- **Locking.**  Reads take a shared advisory ``flock``, appends and
  rewrites an exclusive one (a no-op where ``fcntl`` is unavailable).
  A handle whose path was replaced while it waited for the lock is
  reopened, so nothing is ever appended to an orphaned file.
- **Incremental reads.**  A log remembers the inode and byte offset it
  has read up to and later parses only what was appended since.  A
  changed inode or a shrunken file means the file was rewritten
  (``atlas-compact``): it is read again from the start, and since the
  callbacks are idempotent nothing already loaded is lost.
- **Corrupt lines.**  Undecodable lines, non-objects and entries the
  callback rejects (``KeyError``/``TypeError``/``ValueError``) are
  skipped and counted in ``n_skipped``, with one warning per log.
  Lines of another ``schema`` version are orphaned by design and stay
  silent.
- **Torn tails.**  Live writers append whole lines under the exclusive
  lock and readers hold the shared one, so a last line without its
  newline is a killed writer's remnant.  Reads leave it unread; the
  next append ends it with a newline first, so it becomes one counted
  corrupt line instead of swallowing the first new record.
- **Atomic rewrites.**  :func:`atomic_write` (tmp file, ``fsync``,
  ``os.replace``) is how a whole store file is replaced: compaction,
  the atlas index sidecar and each round's search checkpoint.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # advisory locking is POSIX-only; elsewhere appends are best-effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

Entry = Mapping[str, Any]


def _line(entry: Entry) -> str:
    return json.dumps(entry, separators=(",", ":")) + "\n"


def _flock(handle, operation: str) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), getattr(fcntl, operation))


def atomic_write(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` by ``text``; a crash leaves the old or the new file.

    The temporary file is unique per process and thread, so concurrent
    writers of one path never interleave inside it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


class JsonLog:
    """Locked, incremental access to one append-only JSONL file.

    ``on_entry`` receives every complete entry of this ``schema`` and
    raises ``KeyError``/``TypeError``/``ValueError`` to reject one as
    malformed; ``on_rewrite`` runs when the file is found rewritten
    (and on the first read), before it is read again from the start.
    Not thread-safe: the owning store calls it under its own lock, and
    both callbacks run under that lock.
    """

    def __init__(
        self,
        path: Union[str, Path],
        label: str,
        schema: int,
        on_entry: Callable[[Entry], None],
        on_rewrite: Optional[Callable[[], None]] = None,
    ) -> None:
        self.path = Path(path)
        self.label = label
        self.schema = schema
        self._on_entry = on_entry
        self._on_rewrite = on_rewrite
        #: Corrupt lines skipped so far (schema mismatches excluded).
        self.n_skipped = 0
        self._warned = False
        self._ino: Optional[int] = None
        self._offset = 0
        self._line_no = 0

    @contextmanager
    def _locked(self, exclusive: bool) -> Iterator[Tuple[Any, int]]:
        """Open and lock the file; yields the handle and its size.

        A rewrite replaces the file while a writer waits on the lock,
        so after locking the handle must still name the path, else it
        is reopened.  A rewritten file resets the read position.
        """
        mode, lock = ("a+b", "LOCK_EX") if exclusive else ("rb", "LOCK_SH")
        while True:
            handle = self.path.open(mode)
            try:
                _flock(handle, lock)
                stat = os.fstat(handle.fileno())
                try:
                    if os.stat(self.path).st_ino == stat.st_ino:
                        break
                except OSError:
                    pass  # path vanished mid-swap; reopen recreates it
                _flock(handle, "LOCK_UN")
            except BaseException:
                handle.close()
                raise
            handle.close()
        try:
            if stat.st_ino != self._ino or stat.st_size < self._offset:
                self._ino = stat.st_ino
                self._offset = 0
                self._line_no = 0
                if self._on_rewrite is not None:
                    self._on_rewrite()
            yield handle, stat.st_size
        finally:
            _flock(handle, "LOCK_UN")
            handle.close()

    def _read(self, handle) -> int:
        """Parse the complete lines past the offset; returns how many."""
        handle.seek(self._offset)
        count = 0
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # torn tail: left unread
            self._offset += len(raw)
            self._line_no += 1
            count += 1
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                self._skip("undecodable JSON")
                continue
            if not isinstance(entry, dict):
                self._skip("not a JSON object")
                continue
            if entry.get("schema") != self.schema:
                continue  # orphaned by a schema bump, by design
            try:
                self._on_entry(entry)
            except (KeyError, TypeError, ValueError):
                self._skip("malformed record")
        return count

    def _skip(self, reason: str) -> None:
        self.n_skipped += 1
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"{self.label} {self.path}: skipping corrupt line "
            f"{self._line_no} ({reason}); further corrupt lines counted "
            "silently",
            RuntimeWarning,
            stacklevel=5,
        )

    def refresh(self) -> int:
        """Merge the lines appended (by anyone) since the last read."""
        try:
            with self._locked(exclusive=False) as (handle, size):
                return self._read(handle) if size > self._offset else 0
        except FileNotFoundError:
            return 0

    def append(self, entries: Sequence[Entry]) -> None:
        """Append entries as whole, flushed lines.

        Other writers' lines are merged first, and a torn tail is ended
        with a newline (and counted) before the new lines go out.
        """
        if not entries:
            return
        payload = "".join(_line(entry) for entry in entries).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked(exclusive=True) as (handle, size):
            self._read(handle)
            if self._offset < size:
                handle.write(b"\n")
                handle.flush()
                self._read(handle)
            handle.write(payload)
            handle.flush()
            self._offset += len(payload)
            self._line_no += len(entries)

    def rewrite(self, render: Callable[[], Iterable[Entry]]) -> None:
        """Atomically replace the file by the entries ``render`` returns.

        The exclusive lock is held across merge, render and swap, so a
        concurrent append lands either before (and is merged first) or
        after, in the new file.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked(exclusive=True) as (handle, _size):
            self._read(handle)
            atomic_write(self.path, "".join(_line(entry) for entry in render()))
