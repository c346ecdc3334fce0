"""Persistent cross-run evaluation cache.

The multiresolution search never pays twice for the same (point,
fidelity) pair *within* a run; this module extends that guarantee
*across* runs.  Priced design points are appended to a JSONL file keyed
by the evaluator's *fingerprint* — a string covering everything that
could change the metrics of a point: the Monte-Carlo seed, the fidelity
budgets, the specification under evaluation, and the code version.  A
rerun of ``table3``/``table4`` (or any search over the same
specification) then starts warm and answers grid rounds from disk
instead of repaying the simulation bill.

Semantics mirror the in-memory :class:`~repro.core.evaluation.\
CachingEvaluator`: the store keeps the *highest* fidelity seen per
(fingerprint, point), and a lower-fidelity request is answered by that
higher-fidelity record, which is at least as accurate.  A fingerprint
change invalidates nothing on disk — old entries simply stop matching,
so one file can serve many specifications at once (the table sweeps
share a single cache file across their specs).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.jsonlog import JsonLog

PointKey = Tuple[Tuple[str, Any], ...]

#: Bump to orphan every existing cache file (schema migrations).
CACHE_SCHEMA_VERSION = 1


def evaluator_fingerprint(evaluator: object) -> str:
    """The cache-key prefix identifying an evaluator's exact behavior.

    Evaluators that want cross-run caching expose a ``fingerprint()``
    method returning a stable string over their seed, budgets, and
    specification.  Anything else falls back to its qualified class
    name, which never matches across incompatible evaluators but also
    never pretends two configurations are interchangeable.
    """
    hook = getattr(evaluator, "fingerprint", None)
    if callable(hook):
        return str(hook())
    cls = type(evaluator)
    return (
        f"{cls.__module__}.{cls.__qualname__}"
        f":max_fidelity={getattr(evaluator, 'max_fidelity', 0)}"
    )


class PersistentEvalCache:
    """Append-only JSONL store of priced design points.

    Thread-safe; entries survive process restarts.  Records are written
    eagerly (one line per computed evaluation, flushed immediately) so a
    crashed or interrupted search still leaves its paid-for evaluations
    behind for the next run.  The file is read at construction and each
    append first merges what other writers appended since; locking,
    corrupt lines and torn tails follow :mod:`repro.core.jsonlog`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, PointKey], Tuple[int, Dict[str, float]]] = {}
        self._log = JsonLog(
            self.path, "evaluation cache", CACHE_SCHEMA_VERSION, self._load_entry
        )
        with self._lock:
            self._log.refresh()
        self.n_loaded = len(self._entries)

    @property
    def n_skipped(self) -> int:
        """Corrupt lines skipped; schema-version mismatches are not counted."""
        return self._log.n_skipped

    def _load_entry(self, record: Mapping[str, Any]) -> None:
        key = (str(record["fp"]), tuple((str(k), v) for k, v in record["point"]))
        fidelity = int(record["fid"])
        metrics = {str(k): float(v) for k, v in record["metrics"].items()}
        existing = self._entries.get(key)
        if existing is None or fidelity > existing[0]:
            self._entries[key] = (fidelity, metrics)

    # -- lookup / insert -------------------------------------------------

    def get(
        self, fingerprint: str, key: PointKey, fidelity: int
    ) -> Optional[Tuple[int, Dict[str, float]]]:
        """The stored ``(fidelity, metrics)`` answering a request, or None.

        A stored record answers any request at or below its fidelity.
        """
        with self._lock:
            entry = self._entries.get((fingerprint, key))
            if entry is None or entry[0] < fidelity:
                return None
            return entry[0], dict(entry[1])

    def put(
        self,
        fingerprint: str,
        key: PointKey,
        fidelity: int,
        metrics: Mapping[str, float],
        elapsed_s: float = 0.0,
    ) -> bool:
        """Store one priced point; returns True if anything was written.

        Lower-or-equal-fidelity duplicates of an existing entry are
        dropped — the file only grows when knowledge improves.
        """
        metrics = {str(k): float(v) for k, v in metrics.items()}
        with self._lock:
            existing = self._entries.get((fingerprint, key))
            if existing is not None and existing[0] >= fidelity:
                return False
            self._entries[(fingerprint, key)] = (fidelity, metrics)
            record = {
                "schema": CACHE_SCHEMA_VERSION,
                "fp": fingerprint,
                "point": [[k, v] for k, v in key],
                "fid": fidelity,
                "metrics": metrics,
                "elapsed_s": round(float(elapsed_s), 6),
            }
            self._log.append([record])
            return True

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Plain-dict store accounting (for status endpoints/reports)."""
        with self._lock:
            return {
                "path": str(self.path),
                "entries": len(self._entries),
                "loaded": self.n_loaded,
                "skipped": self.n_skipped,
            }

    def close(self) -> None:
        """Nothing to release: no file stays open between appends."""

    def __enter__(self) -> "PersistentEvalCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
