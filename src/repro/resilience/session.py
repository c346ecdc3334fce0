"""Crash-tolerant search sessions: atomic checkpoints + resume.

A production search over a real specification runs for hours; a worker
crash, an OOM kill, or a pre-empted machine must not throw that work
away.  This module makes a :class:`~repro.core.search.MetacoreSearch`
restartable:

- :class:`CheckpointingEvaluator` sits under the search's in-memory
  cache and writes an **atomic JSON checkpoint**
  (:func:`~repro.core.jsonlog.atomic_write`) after every computed
  evaluation round, recording each priced (point, fidelity, metrics)
  triple;
- on resume, the checkpoint's records answer their evaluations
  **bit-identically** (JSON round-trips Python floats exactly), so the
  search replays deterministically — it fast-forwards through the
  restored rounds without touching the inner evaluator and continues
  from where the crashed run stopped, reaching the *same final
  selection* as an uninterrupted run;
- :class:`SearchSession` bundles the wiring: it builds the search over
  the checkpointing layer, runs it, and reports how many rounds were
  restored vs. computed.

``max_rounds`` turns the evaluator into a deterministic crash machine
for tests and CI: the checkpoint for round *k* is written *before*
:class:`RoundBudgetExceeded` is raised, exactly like a kill arriving
between rounds.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.evalcache import PersistentEvalCache, evaluator_fingerprint
from repro.core.evaluation import (
    Evaluator,
    Metrics,
    TimedEvaluation,
    evaluate_many_timed,
)
from repro.core.jsonlog import atomic_write
from repro.core.objectives import DesignGoal
from repro.core.parameters import DesignSpace, Point, frozen_point
from repro.core.search import (
    MetacoreSearch,
    PointNormalizer,
    SearchConfig,
    SearchResult,
)
from repro.errors import ReproError
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer, trace_event

#: Bump to orphan existing checkpoint files on format changes.
CHECKPOINT_SCHEMA_VERSION = 1


class RoundBudgetExceeded(ReproError):
    """The session's ``max_rounds`` budget ran out mid-search.

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
    """Record every computed evaluation into an atomic JSON checkpoint.

    Sits between the search's in-memory cache and the real evaluator.
    Requests answered by the checkpoint cost nothing and are returned
    bit-identically to the original computation; everything else goes
    to the inner evaluator (which may itself be parallel and/or
    resilient) and is checkpointed after the batch completes.

    The checkpoint is guarded by the inner evaluator's fingerprint: a
    checkpoint written under a different seed/spec/code version is
    ignored (with a warning) rather than silently replayed.
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
        self._records: Dict[Tuple[Tuple, int], Tuple[Metrics, float]] = {}
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
        checkpoint is rewritten atomically after the round completes.
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

    def _restore(self) -> None:
        if not self.checkpoint_path.exists():
            return
        try:
            with self.checkpoint_path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            warnings.warn(
                f"checkpoint {self.checkpoint_path} is unreadable "
                f"({exc}); starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        if not isinstance(data, dict) or data.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            warnings.warn(
                f"checkpoint {self.checkpoint_path} has an unknown schema; "
                "starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        if data.get("fingerprint") != self._fingerprint:
            warnings.warn(
                f"checkpoint {self.checkpoint_path} was written by a "
                "different evaluator configuration; starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        for record in data.get("records", []):
            try:
                key = tuple((str(k), v) for k, v in record["point"])
                fidelity = int(record["fid"])
                metrics = {str(k): float(v) for k, v in record["metrics"].items()}
                elapsed = float(record.get("elapsed_s", 0.0))
            except (KeyError, TypeError, ValueError):
                continue
            self._records[(key, fidelity)] = (metrics, elapsed)
        self.rounds_completed = int(data.get("rounds", 0))
        self.restored_rounds = self.rounds_completed
        self.restored_records = len(self._records)
        get_registry().counter("session.restored_records").inc(self.restored_records)
        trace_event(
            "session.checkpoint_restored",
            path=str(self.checkpoint_path),
            rounds=self.restored_rounds,
            records=self.restored_records,
        )

    def _save(self) -> None:
        """Atomically rewrite the checkpoint (temp file + rename)."""
        payload: Dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": self._fingerprint,
            "rounds": self.rounds_completed,
            "records": [
                {
                    "point": [[k, v] for k, v in key],
                    "fid": fidelity,
                    "metrics": metrics,
                    "elapsed_s": elapsed,
                }
                for (key, fidelity), (metrics, elapsed) in self._records.items()
            ],
        }
        atomic_write(
            self.checkpoint_path, json.dumps(payload, separators=(",", ":"))
        )
        get_registry().counter("session.checkpoint_writes").inc()
        trace_event(
            "session.checkpoint_written",
            path=str(self.checkpoint_path),
            rounds=self.rounds_completed,
            records=len(self._records),
        )


@dataclass
class SessionResult:
    """A search result plus the session's crash-tolerance accounting."""

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

    def summary(self) -> str:
        lines = [self.result.summary()]
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


@dataclass
class SearchSession:
    """A restartable :class:`MetacoreSearch` run.

    Wires the checkpointing layer (and, optionally, the resilient
    retry/quarantine shim) under a fresh search and runs it.  The same
    session parameters re-run with ``resume=True`` after a crash
    fast-forward through the checkpoint and finish the search.
    """

    space: DesignSpace
    goal: DesignGoal
    evaluator: Evaluator
    checkpoint_path: Union[str, Path]
    config: Optional[SearchConfig] = None
    normalizer: Optional[PointNormalizer] = None
    store: Optional[PersistentEvalCache] = None
    resume: bool = False
    #: Abort (with checkpoint intact) after this many computed rounds.
    max_rounds: Optional[int] = None
    #: Attach the retry/quarantine shim between checkpoint and evaluator.
    resilient: bool = False
    max_retries: int = 2
    backoff_s: float = 0.1
    timeout_s: Optional[float] = None
    #: Atlas seed source (see :class:`repro.atlas.similarity.AtlasSeeder`),
    #: forwarded to the underlying search for warm starts.
    atlas: Optional[object] = None

    def run(self) -> SessionResult:
        """Run (or resume) the search; checkpoints land on every round."""
        from repro.resilience.shim import ResilientEvaluator

        inner: Evaluator = self.evaluator
        shim: Optional[ResilientEvaluator] = None
        if self.resilient:
            shim = ResilientEvaluator(
                inner,
                max_retries=self.max_retries,
                backoff_s=self.backoff_s,
                timeout_s=self.timeout_s,
            )
            inner = shim
        checkpointer = CheckpointingEvaluator(
            inner,
            self.checkpoint_path,
            resume=self.resume,
            max_rounds=self.max_rounds,
        )
        with get_tracer().span(
            "session.run", resume=self.resume, restored=checkpointer.restored_rounds
        ):
            search = MetacoreSearch(
                self.space,
                self.goal,
                checkpointer,
                config=self.config,
                normalizer=self.normalizer,
                store=self.store,
                atlas=self.atlas,
            )
            result = search.run()
        return SessionResult(
            result=result,
            restored_rounds=checkpointer.restored_rounds,
            restored_records=checkpointer.restored_records,
            rounds_completed=checkpointer.rounds_completed,
            quarantined=shim.quarantine_summary() if shim else [],
            n_retries=shim.n_retries if shim else 0,
        )
