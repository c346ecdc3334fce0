"""Cost-evaluation engine plumbing (paper component *iii*).

Evaluators map a design point to a metrics record at a chosen
*fidelity*: the multiresolution search evaluates coarse grids with
cheap, low-accuracy estimates ("simulation times kept short", Sec. 4.4)
and re-evaluates surviving candidates at higher fidelity on finer
grids.  This module defines the evaluator protocol (including the
``evaluate_many`` batch entry point the parallel layer accelerates), a
cache that never pays twice for the same (point, fidelity) pair —
in-memory within a run and, with a
:class:`~repro.core.evalcache.PersistentEvalCache` attached, on disk
across runs — and an evaluation log the search and the experiment
reports both read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.core.evalcache import PersistentEvalCache, evaluator_fingerprint
from repro.core.parameters import Point, frozen_point
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer

Metrics = Dict[str, float]

#: Metric marking an answer that stands in for a failed evaluation (the
#: retry/quarantine shim's).  Such a record answers requests within its
#: run, but is never written to the persistent cache or the design
#: atlas, so a transient failure does not outlive the run.
FAILED_METRIC = "evaluation_failed"


class Evaluator(Protocol):
    """Anything that can price a design point at a given fidelity.

    Evaluators *may* additionally provide:

    - ``evaluate_many(points, fidelity) -> List[Metrics]`` (and the
      richer ``evaluate_many_timed``) to price a batch at once — the
      :class:`~repro.core.parallel.ParallelEvaluator` implements these
      over a process pool; anything without them is batched serially.
    - ``fingerprint() -> str`` identifying the exact evaluation
      behavior (seed, budgets, specification, code version) for the
      persistent cross-run cache.
    """

    #: Highest meaningful fidelity level (0 = cheapest estimate).
    max_fidelity: int

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        """Return the metrics of ``point`` at the given fidelity."""
        ...


@dataclass(frozen=True)
class TimedEvaluation:
    """One computed evaluation with its cost attribution."""

    metrics: Metrics
    #: CPU seconds spent inside the evaluator (in whatever process ran it).
    elapsed_s: float
    #: PID of the worker process that priced the point; None = in-process.
    worker: Optional[int] = None


def evaluate_serially_timed(
    evaluator: Evaluator, points: Sequence[Point], fidelity: int
) -> List[TimedEvaluation]:
    """Price a batch one point at a time in this process, with timing."""
    results: List[TimedEvaluation] = []
    for point in points:
        with get_tracer().span("evaluate", fidelity=fidelity):
            start = time.perf_counter()
            metrics = evaluator.evaluate(point, fidelity)
            elapsed = time.perf_counter() - start
        results.append(TimedEvaluation(metrics=dict(metrics), elapsed_s=elapsed))
    return results


def evaluate_many_timed(
    evaluator: Evaluator, points: Sequence[Point], fidelity: int
) -> List[TimedEvaluation]:
    """Batch entry point: use the evaluator's own batching if it has one."""
    hook = getattr(evaluator, "evaluate_many_timed", None)
    if callable(hook):
        return hook(points, fidelity)
    return evaluate_serially_timed(evaluator, points, fidelity)


@dataclass(frozen=True)
class EvaluationRecord:
    """One priced design point."""

    point: Tuple[Tuple[str, object], ...]
    fidelity: int
    metrics: Mapping[str, float]
    elapsed_s: float = 0.0

    def as_point(self) -> Point:
        return dict(self.point)

    def __str__(self) -> str:
        point = ", ".join(f"{k}={v}" for k, v in self.point)
        metrics = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.metrics.items()))
        return f"[fid {self.fidelity}] {{{point}}} -> {{{metrics}}}"


@dataclass
class EvaluationLog:
    """Every evaluation a search performed, in order.

    ``total_time_s`` sums per-evaluation CPU seconds; with parallel
    workers those overlap, so ``wall_time_s`` separately accumulates
    the caller-observed wall-clock per evaluation batch.  Their ratio
    is the realized parallel speedup.
    """

    records: List[EvaluationRecord] = field(default_factory=list)
    #: Wall-clock seconds the caller spent waiting on evaluations.
    wall_time_s: float = 0.0

    def append(self, record: EvaluationRecord) -> None:
        self.records.append(record)

    def add_wall_time(self, seconds: float) -> None:
        self.wall_time_s += max(0.0, seconds)

    @property
    def n_evaluations(self) -> int:
        return len(self.records)

    @property
    def total_time_s(self) -> float:
        """Summed per-evaluation CPU seconds (exceeds wall when parallel)."""
        return sum(r.elapsed_s for r in self.records)

    @property
    def cpu_time_s(self) -> float:
        """Alias of :attr:`total_time_s`, named for what it measures."""
        return self.total_time_s

    def by_fidelity(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for record in self.records:
            counts[record.fidelity] = counts.get(record.fidelity, 0) + 1
        return counts


class CachingEvaluator:
    """Memoizing wrapper around an evaluator.

    A point evaluated at fidelity ``f`` is never recomputed at any
    fidelity ``<= f`` — a lower-fidelity request is answered from the
    higher-fidelity result, which is at least as accurate.  With a
    :class:`~repro.core.evalcache.PersistentEvalCache` attached the
    same rule extends across process runs, keyed by the inner
    evaluator's fingerprint.

    Hits and misses are observable: the :class:`EvaluationLog` records
    only *computed* evaluations, while ``cache_hits``/``cache_misses``/
    ``persistent_hits`` count every *request*, so ``log.n_evaluations``
    no longer silently conflates the two.  The same counts feed the
    process-wide metrics registry (``evaluator.cache_hits`` /
    ``evaluator.cache_misses`` / ``evaluator.cache_upgrades`` /
    ``evaluator.persistent_hits``) along with per-fidelity latency
    histograms ``evaluator.latency_s.fid<level>`` and the
    ``evaluator.cpu_s`` / ``evaluator.wall_s`` time counters.

    All bookkeeping is lock-guarded: batch results may arrive from
    executor callbacks on other threads when this wrapper fronts the
    parallel evaluation path.
    """

    def __init__(
        self,
        inner: Evaluator,
        log: Optional[EvaluationLog] = None,
        store: Optional[PersistentEvalCache] = None,
    ) -> None:
        self.inner = inner
        self.log = log if log is not None else EvaluationLog()
        self.store = store
        self._fingerprint = (
            evaluator_fingerprint(inner) if store is not None else None
        )
        self._cache: Dict[Tuple, Tuple[int, Metrics]] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._upgrades = 0
        self._persistent_hits = 0

    @property
    def max_fidelity(self) -> int:
        return self.inner.max_fidelity

    @property
    def cache_hits(self) -> int:
        """Requests answered from the in-memory cache (no computation)."""
        return self._hits

    @property
    def cache_misses(self) -> int:
        """Requests that ran the inner evaluator (includes upgrades)."""
        return self._misses

    @property
    def cache_upgrades(self) -> int:
        """Misses that recomputed a cached point at a higher fidelity."""
        return self._upgrades

    @property
    def persistent_hits(self) -> int:
        """Requests answered from the on-disk cross-run cache."""
        return self._persistent_hits

    def preload(
        self, key: Tuple, fidelity: int, metrics: Mapping[str, float]
    ) -> bool:
        """Seed the in-memory cache with an externally stored evaluation.

        The warm-start path of the design atlas replays a previous
        run's records through here before the search begins.  Preloaded
        entries answer requests like any cached result but touch
        neither the log (nothing was computed) nor the hit/miss
        counters (nothing was requested yet).  Returns True when the
        entry was installed, False when an equal-or-higher-fidelity
        record is already cached.
        """
        with self._lock:
            existing = self._cache.get(key)
            if existing is not None and existing[0] >= int(fidelity):
                return False
            self._cache[key] = (int(fidelity), dict(metrics))
            return True

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        return self.evaluate_many([point], fidelity)[0]

    def evaluate_many(
        self, points: Sequence[Point], fidelity: int
    ) -> List[Metrics]:
        """Price a batch of points; results align with ``points`` order.

        Cached points (in-memory or persistent) are answered without
        computation; the remaining misses go to the inner evaluator in
        one batch, which the parallel layer may fan out over worker
        processes.
        """
        registry = get_registry()
        results: List[Optional[Metrics]] = [None] * len(points)
        # key -> indices still waiting on the computed result.
        pending: Dict[Tuple, List[int]] = {}
        pending_points: List[Point] = []
        with self._lock:
            for index, point in enumerate(points):
                key = frozen_point(point)
                cached = self._cache.get(key)
                if cached is not None and cached[0] >= fidelity:
                    self._hits += 1
                    registry.counter("evaluator.cache_hits").inc()
                    results[index] = cached[1]
                    continue
                if key in pending:  # duplicate miss within this batch
                    self._hits += 1
                    registry.counter("evaluator.cache_hits").inc()
                    pending[key].append(index)
                    continue
                stored = self._store_lookup(key, fidelity)
                if stored is not None:
                    stored_fidelity, metrics = stored
                    self._persistent_hits += 1
                    registry.counter("evaluator.persistent_hits").inc()
                    self._cache[key] = (stored_fidelity, metrics)
                    results[index] = metrics
                    continue
                self._misses += 1
                registry.counter("evaluator.cache_misses").inc()
                if cached is not None:
                    self._upgrades += 1
                    registry.counter("evaluator.cache_upgrades").inc()
                pending[key] = [index]
                pending_points.append(dict(point))
        if pending_points:
            self._compute_batch(pending_points, pending, fidelity, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def _store_lookup(
        self, key: Tuple, fidelity: int
    ) -> Optional[Tuple[int, Metrics]]:
        if self.store is None:
            return None
        return self.store.get(self._fingerprint, key, fidelity)

    def _compute_batch(
        self,
        points: List[Point],
        pending: Dict[Tuple, List[int]],
        fidelity: int,
        results: List[Optional[Metrics]],
    ) -> None:
        """Run the inner evaluator on the cache misses and record them."""
        registry = get_registry()
        tracer = get_tracer()
        span_ctx = (
            tracer.span("evaluate.batch", points=len(points), fidelity=fidelity)
            if len(points) > 1
            else None
        )
        wall_start = time.perf_counter()
        if span_ctx is not None:
            with span_ctx as batch_span:
                timed = evaluate_many_timed(self.inner, points, fidelity)
                wall_s = time.perf_counter() - wall_start
                cpu_s = sum(t.elapsed_s for t in timed)
                by_worker: Dict[str, float] = {}
                for t in timed:
                    if t.worker is not None:
                        label = f"pid{t.worker}"
                        by_worker[label] = by_worker.get(label, 0.0) + t.elapsed_s
                batch_span.set(
                    wall_s=round(wall_s, 6),
                    cpu_s=round(cpu_s, 6),
                    workers=len(by_worker),
                    **{f"worker.{k}.cpu_s": round(v, 6) for k, v in by_worker.items()},
                )
                if by_worker:
                    registry.counter("evaluator.parallel_points").inc(len(timed))
        else:
            timed = evaluate_many_timed(self.inner, points, fidelity)
            wall_s = time.perf_counter() - wall_start
            cpu_s = sum(t.elapsed_s for t in timed)
        with self._lock:
            self.log.add_wall_time(wall_s)
            registry.counter("evaluator.wall_s").inc(wall_s)
            registry.counter("evaluator.cpu_s").inc(cpu_s)
            histogram = registry.histogram(f"evaluator.latency_s.fid{fidelity}")
            for point, evaluation in zip(points, timed):
                key = frozen_point(point)
                metrics = dict(evaluation.metrics)
                histogram.observe(evaluation.elapsed_s)
                self._cache[key] = (fidelity, metrics)
                if self.store is not None and FAILED_METRIC not in metrics:
                    self.store.put(
                        self._fingerprint,
                        key,
                        fidelity,
                        metrics,
                        evaluation.elapsed_s,
                    )
                self.log.append(
                    EvaluationRecord(
                        point=key,
                        fidelity=fidelity,
                        metrics=dict(metrics),
                        elapsed_s=evaluation.elapsed_s,
                    )
                )
                for index in pending[key]:
                    results[index] = metrics


class FunctionEvaluator:
    """Adapter turning a plain callable into an :class:`Evaluator`.

    Handy for tests and for user-defined MetaCores whose cost model is
    a single function of the design point.
    """

    def __init__(
        self,
        func: Callable[[Point, int], Metrics],
        max_fidelity: int = 0,
    ) -> None:
        self._func = func
        self.max_fidelity = max_fidelity

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        return self._func(point, fidelity)
