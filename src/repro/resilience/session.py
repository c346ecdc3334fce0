"""Crash-tolerant searches: per-round checkpoints + resume.

A production search over a real specification runs for hours; a worker
crash, an OOM kill, or a pre-empted machine must not throw that work
away.  :class:`CheckpointingEvaluator` makes any
:class:`~repro.core.search.MetacoreSearch` restartable.  It is one more
layer of the evaluator chain, between the search's in-memory cache and
the engine's pool and retry/quarantine shim
(:func:`~repro.core.parallel.evaluator_stack`):

- after every computed evaluation round it replaces its checkpoint
  file, a :class:`~repro.core.jsonlog.JsonLog`: a header line with the
  evaluator fingerprint and the round count, then one line per priced
  ``(point, exact fidelity, metrics, elapsed_s)`` record;
- on resume, the checkpoint's records answer their evaluations
  **bit-identically** (JSON round-trips Python floats exactly), so the
  search replays deterministically — it fast-forwards through the
  restored rounds without touching the inner evaluator and continues
  from where the crashed run stopped, reaching the *same final
  selection* as an uninterrupted run.

``max_rounds`` turns the evaluator into a deterministic crash machine
for tests and CI: the checkpoint for round *k* is written *before*
:class:`RoundBudgetExceeded` is raised, exactly like a kill arriving
between rounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.evalcache import evaluator_fingerprint
from repro.core.evaluation import (
    Evaluator,
    Metrics,
    TimedEvaluation,
    evaluate_many_timed,
)
from repro.core.jsonlog import Entry, JsonLog
from repro.core.parameters import Point, frozen_point
from repro.core.search import SearchResult
from repro.errors import ReproError
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

#: Bump to orphan existing checkpoint files on format changes.
CHECKPOINT_SCHEMA_VERSION = 2

Record = Tuple[Metrics, float]


class RoundBudgetExceeded(ReproError):
    """The checkpoint's ``max_rounds`` budget ran out mid-search.

    The checkpoint of every completed round is already on disk when
    this is raised; re-running with ``resume=True`` continues the
    search.  Used to simulate kills deterministically in tests/CI.
    """

    def __init__(self, rounds: int, checkpoint_path: Path) -> None:
        super().__init__(
            f"evaluation round budget ({rounds}) exhausted; "
            f"checkpoint saved at {checkpoint_path}"
        )
        self.rounds = rounds
        self.checkpoint_path = checkpoint_path


class CheckpointingEvaluator:
    """Record every computed evaluation into a per-round checkpoint.

    Sits between the search's in-memory cache and the real evaluator.
    Requests answered by the checkpoint cost nothing and are returned
    bit-identically to the original computation; everything else goes
    to the inner evaluator (which may itself be parallel and/or
    resilient) and is checkpointed after the batch completes.

    The checkpoint is guarded by the inner evaluator's fingerprint: a
    checkpoint written under a different seed/spec/code version is
    ignored (with a warning) rather than silently replayed.  A cold run
    (``resume=False``) replaces whatever the file held.
    """

    def __init__(
        self,
        inner: Evaluator,
        checkpoint_path: Union[str, Path],
        resume: bool = False,
        max_rounds: Optional[int] = None,
    ) -> None:
        self.inner = inner
        self.checkpoint_path = Path(checkpoint_path)
        self.max_rounds = max_rounds
        self._fingerprint = evaluator_fingerprint(inner)
        #: (frozen point, fidelity) -> (metrics, elapsed_s).  Keyed by the
        #: *exact* fidelity, unlike the caching layers above: replay must
        #: answer a round with what that round actually computed, or the
        #: resumed search would see different (higher-fidelity) metrics
        #: than the original run did and could walk a different path.
        self._records: Dict[Tuple[Tuple, int], Record] = {}
        #: What the file held when last read: (fingerprint, rounds) of
        #: its header and its records.  Only a resume adopts them; a
        #: save reads the file too, before replacing it.
        self._header: Optional[Tuple[str, int]] = None
        self._loaded: Dict[Tuple[Tuple, int], Record] = {}
        self._log = JsonLog(
            self.checkpoint_path,
            "checkpoint",
            CHECKPOINT_SCHEMA_VERSION,
            self._on_entry,
            on_rewrite=self._forget_file,
        )
        #: Rounds (computed batches) completed, including restored ones.
        self.rounds_completed = 0
        self.restored_rounds = 0
        self.restored_records = 0
        self.replay_hits = 0
        if resume:
            self._restore()

    # -- evaluator protocol ---------------------------------------------

    @property
    def max_fidelity(self) -> int:
        return self.inner.max_fidelity

    def fingerprint(self) -> str:
        return self._fingerprint

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        return self.evaluate_many_timed([point], fidelity)[0].metrics

    def evaluate_many(self, points: Sequence[Point], fidelity: int) -> List[Metrics]:
        return [t.metrics for t in self.evaluate_many_timed(points, fidelity)]

    def evaluate_many_timed(
        self, points: Sequence[Point], fidelity: int
    ) -> List[TimedEvaluation]:
        """Answer from the checkpoint where possible; compute the rest.

        Each call with at least one computed point is one *round*; the
        checkpoint is replaced atomically after the round completes.
        """
        results: List[Optional[TimedEvaluation]] = [None] * len(points)
        misses: List[Tuple[int, Point]] = []
        for index, point in enumerate(points):
            record = self._records.get((frozen_point(point), fidelity))
            if record is not None:
                self.replay_hits += 1
                results[index] = TimedEvaluation(
                    metrics=dict(record[0]), elapsed_s=record[1]
                )
            else:
                misses.append((index, point))
        if misses:
            if (
                self.max_rounds is not None
                and self.rounds_completed >= self.max_rounds
            ):
                raise RoundBudgetExceeded(self.max_rounds, self.checkpoint_path)
            timed = evaluate_many_timed(
                self.inner, [p for _, p in misses], fidelity
            )
            for (index, point), evaluation in zip(misses, timed):
                self._records[(frozen_point(point), fidelity)] = (
                    dict(evaluation.metrics),
                    evaluation.elapsed_s,
                )
                results[index] = evaluation
            self.rounds_completed += 1
            self._save()
        return results  # type: ignore[return-value]

    # -- checkpoint I/O ---------------------------------------------------

    def _on_entry(self, entry: Entry) -> None:
        if "rounds" in entry:
            self._header = (str(entry["fingerprint"]), int(entry["rounds"]))
            return
        key = tuple((str(k), v) for k, v in entry["point"])
        self._loaded[(key, int(entry["fid"]))] = (
            {str(k): float(v) for k, v in entry["metrics"].items()},
            float(entry["elapsed_s"]),
        )

    def _forget_file(self) -> None:
        self._header = None
        self._loaded.clear()

    def _restore(self) -> None:
        self._log.refresh()
        if self._header is None:
            return
        fingerprint, rounds = self._header
        if fingerprint != self._fingerprint:
            warnings.warn(
                f"checkpoint {self.checkpoint_path} was written by a "
                "different evaluator configuration; starting fresh",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        self._records.update(self._loaded)
        self._forget_file()
        self.rounds_completed = self.restored_rounds = rounds
        self.restored_records = len(self._records)
        get_registry().counter("session.restored_records").inc(self.restored_records)
        trace_event(
            "session.checkpoint_restored",
            path=str(self.checkpoint_path),
            rounds=self.restored_rounds,
            records=self.restored_records,
        )

    def _entries(self) -> Iterator[Entry]:
        schema = CHECKPOINT_SCHEMA_VERSION
        yield {
            "schema": schema,
            "fingerprint": self._fingerprint,
            "rounds": self.rounds_completed,
        }
        for (key, fidelity), (metrics, elapsed) in self._records.items():
            yield {
                "schema": schema,
                "point": [[k, v] for k, v in key],
                "fid": fidelity,
                "metrics": metrics,
                "elapsed_s": elapsed,
            }

    def _save(self) -> None:
        """Atomically replace the checkpoint (temp file, fsync, rename)."""
        self._log.rewrite(self._entries)
        self._forget_file()  # what the rewrite read first is not adopted
        get_registry().counter("session.checkpoint_writes").inc()
        trace_event(
            "session.checkpoint_written",
            path=str(self.checkpoint_path),
            rounds=self.rounds_completed,
            records=len(self._records),
        )


@dataclass
class SessionResult:
    """A search result plus its crash-tolerance accounting."""

    result: SearchResult
    #: Rounds replayed from the checkpoint (0 on a cold run).
    restored_rounds: int = 0
    #: Evaluation records restored from the checkpoint.
    restored_records: int = 0
    #: Rounds completed in total (restored + newly computed).
    rounds_completed: int = 0
    #: Quarantined points (from the resilient shim, when one is attached).
    quarantined: List[str] = field(default_factory=list)
    n_retries: int = 0
    #: Whether a checkpoint backed the run.
    checkpointed: bool = False

    @classmethod
    def of(
        cls,
        result: SearchResult,
        checkpointer: Optional[CheckpointingEvaluator] = None,
        shim: Optional[object] = None,
    ) -> "SessionResult":
        """The accounting of a run over these optional evaluator layers."""
        session = cls(result=result)
        if checkpointer is not None:
            session.checkpointed = True
            session.restored_rounds = checkpointer.restored_rounds
            session.restored_records = checkpointer.restored_records
            session.rounds_completed = checkpointer.rounds_completed
        if shim is not None:
            session.quarantined = shim.quarantine_summary()
            session.n_retries = shim.n_retries
        return session

    def summary(self) -> str:
        lines = [self.result.summary()]
        if self.checkpointed:
            lines.append(
                f"session: {self.rounds_completed} rounds "
                f"({self.restored_rounds} restored, "
                f"{self.restored_records} records from checkpoint)"
            )
        if self.n_retries:
            lines.append(f"retries: {self.n_retries}")
        if self.quarantined:
            lines.append(f"quarantined points ({len(self.quarantined)}):")
            lines.extend(f"  {entry}" for entry in self.quarantined)
        return "\n".join(lines)
