"""Process-parallel batch evaluation of design points.

Grid evaluations are independent — the paper notes run time is the knob
traded for result quality (Sec. 4.4), and every point of a grid round
can be priced concurrently without changing any result.  This module
fans a batch of points out over a :class:`ProcessPoolExecutor`: each
worker process unpickles the evaluator once (at pool start-up) and then
prices points with warm per-worker state (simulator caches, memoized
trellises, filter realizations).

Determinism is preserved because the library's evaluators derive every
stochastic stream from ``(seed, point, SNR, batch)`` rather than from
shared mutable RNG state, so a point's metrics do not depend on which
process prices it or in what order.  Results are returned in request
order.

Evaluators that cannot be pickled (e.g. closures over test state) fall
back to in-process serial evaluation, as does ``workers <= 1``; the
wrapper is then a transparent pass-through.  :func:`evaluator_stack`
builds the one chain every search and served session prices through:
the engine, its pool when one helps, and the retry/quarantine shim.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.core.evalcache import evaluator_fingerprint
from repro.core.evaluation import (
    Evaluator,
    Metrics,
    TimedEvaluation,
    evaluate_serially_timed,
)
from repro.core.parameters import Point

#: The evaluator each worker process reconstructs at pool start-up.
_WORKER_EVALUATOR: Optional[Evaluator] = None

#: Every evaluator that has actually started a pool, so entry points
#: can guarantee worker shutdown on exit even when an error path skips
#: a ``close()`` call.
_LIVE_POOLS: "weakref.WeakSet[ParallelEvaluator]" = weakref.WeakSet()


def shutdown_all_pools() -> None:
    """Close every live worker pool (idempotent, exit-safe)."""
    for evaluator in list(_LIVE_POOLS):
        try:
            evaluator.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


atexit.register(shutdown_all_pools)


def _init_worker(payload: bytes) -> None:
    global _WORKER_EVALUATOR
    # Under the fork start method the worker inherits the parent's
    # tracer sink (same file descriptor, no cross-process lock).
    # Detach it: worker-side spans are no-ops, and the parent emits one
    # `evaluate.batch` span with per-worker attribution instead.
    from repro.observability.trace import get_tracer

    get_tracer().set_sink(None)
    _WORKER_EVALUATOR = pickle.loads(payload)


def _evaluate_in_worker(task):
    point, fidelity = task
    start = time.perf_counter()
    metrics = _WORKER_EVALUATOR.evaluate(point, fidelity)
    return dict(metrics), time.perf_counter() - start, os.getpid()


def _pool_context():
    """Prefer fork (cheap start-up, no import round-trip) where available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelEvaluator:
    """Fan batch evaluations out over a process pool.

    Parameters
    ----------
    inner:
        The evaluator to parallelize.  It is pickled once at pool
        creation and reconstructed in every worker; if pickling fails
        the wrapper silently degrades to serial in-process evaluation.
    workers:
        Pool size.  ``None`` uses the CPU count; ``<= 1`` disables the
        pool entirely.

    The pool is created lazily on the first batch and reused across
    rounds (so per-worker caches stay warm).  Call :meth:`close` (or
    use as a context manager) to release the worker processes.
    """

    def __init__(self, inner: Evaluator, workers: Optional[int] = None) -> None:
        self.inner = inner
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        self._executor: Optional[ProcessPoolExecutor] = None
        # A served session's eval and search threads can reach a cold
        # pool at once; only one of them may create it.
        self._executor_lock = threading.Lock()
        self._payload: Optional[bytes]
        try:
            self._payload = pickle.dumps(inner)
        except Exception:
            self._payload = None

    # -- evaluator protocol ---------------------------------------------

    @property
    def max_fidelity(self) -> int:
        return self.inner.max_fidelity

    def fingerprint(self) -> str:
        """Delegate, so parallelism never changes the cache key."""
        return evaluator_fingerprint(self.inner)

    @property
    def parallel_enabled(self) -> bool:
        """True when batches will actually use worker processes."""
        return self.workers > 1 and self._payload is not None

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        """Single points are priced in-process (no pickling round-trip)."""
        return self.inner.evaluate(point, fidelity)

    def evaluate_many(self, points: Sequence[Point], fidelity: int) -> List[Metrics]:
        return [t.metrics for t in self.evaluate_many_timed(points, fidelity)]

    def evaluate_many_timed(
        self, points: Sequence[Point], fidelity: int
    ) -> List[TimedEvaluation]:
        """Price a batch; results align with ``points`` order."""
        if not points:
            return []
        if not self.parallel_enabled or len(points) < 2:
            return evaluate_serially_timed(self.inner, points, fidelity)
        tasks = [(dict(point), fidelity) for point in points]
        chunksize = max(1, len(tasks) // (self.workers * 4))
        try:
            results = list(
                self._ensure_executor().map(
                    _evaluate_in_worker, tasks, chunksize=chunksize
                )
            )
        except BrokenProcessPool:
            # A worker died (OOM, signal); finish the batch in-process
            # and stop using the pool for the rest of this run.
            self.close()
            self._payload = None
            return evaluate_serially_timed(self.inner, points, fidelity)
        return [
            TimedEvaluation(metrics=metrics, elapsed_s=elapsed, worker=pid)
            for metrics, elapsed, pid in results
        ]

    # -- pool lifecycle --------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_pool_context(),
                    initializer=_init_worker,
                    initargs=(self._payload,),
                )
                _LIVE_POOLS.add(self)
            return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def worker_pool(
    inner: Evaluator, workers: Optional[int]
) -> Optional[ParallelEvaluator]:
    """A pool over ``inner`` when ``workers > 1`` and it pickles, else None."""
    if not workers or workers <= 1:
        return None
    pool = ParallelEvaluator(inner, workers=workers)
    return pool if pool.parallel_enabled else None


@dataclass
class EvaluatorStack:
    """An engine under its optional worker pool and retry/quarantine shim.

    ``evaluator`` is the top of the stack; ``parallel`` and ``shim``
    are the layers it holds (None when absent), kept for pool start-up
    and shutdown and for the shim's retry/quarantine accounting.
    """

    evaluator: Evaluator
    parallel: Optional[ParallelEvaluator] = None
    shim: Optional[Any] = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self.parallel is not None:
            self.parallel.close()


def evaluator_stack(
    engine: Evaluator,
    workers: Optional[int] = 1,
    resilient: bool = False,
    max_retries: int = 2,
) -> EvaluatorStack:
    """engine -> :func:`worker_pool` -> ``ResilientEvaluator`` (resilient).

    The one evaluator chain under every search and served session;
    neither layer changes what a point is worth or its fingerprint.
    """
    parallel = worker_pool(engine, workers)
    evaluator: Evaluator = engine if parallel is None else parallel
    shim = None
    if resilient:
        # Imported lazily: repro.resilience depends on the drivers.
        from repro.resilience.shim import ResilientEvaluator

        shim = ResilientEvaluator(evaluator, max_retries=max_retries)
        evaluator = shim
    return EvaluatorStack(evaluator, parallel, shim)
