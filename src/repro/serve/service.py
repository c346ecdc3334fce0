"""The asyncio evaluation service.

The MetaCore contract is a query interface — (parameter point,
fidelity) -> (BER, area, throughput) — and exploration workloads issue
many such queries concurrently against a shared simulator.  This module
serves that shape as a long-running process:

- concurrent ``eval``/``search`` requests from any number of clients;
- compatible client point requests coalesce into dynamic micro-batches
  (:mod:`repro.serve.batching`) fed to the batch-first evaluation layer,
  where a :class:`~repro.core.parallel.ParallelEvaluator` fans them out
  over worker processes; a search prices its own points on its search
  thread, through the same session cache but outside the batches;
- one lock-guarded :class:`~repro.core.evaluation.CachingEvaluator` per
  specification, all sharing one
  :class:`~repro.core.evalcache.PersistentEvalCache`, so every client
  benefits from every other client's paid-for evaluations;
- backpressure: a bounded admission window (``max_pending``), per-
  request timeouts, and cancellation-safe result delivery;
- optional retry/quarantine via the resilience shim, so a poisoned
  point degrades one answer instead of the whole service.

**Bit-identical guarantee.**  Evaluators derive every stochastic stream
from (seed, point, fidelity), never from shared mutable state, so the
metrics a request receives are byte-identical to a serial one-shot
evaluation of the same (point, fidelity) — independent of batching,
arrival order, or which worker priced it.  As with the in-process and
persistent caches, a request may be answered by an *already computed
higher-fidelity* record for the same point (at least as accurate); on a
cold service every request is answered at exactly its requested
fidelity.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.evalcache import PersistentEvalCache, evaluator_fingerprint
from repro.core.evaluation import CachingEvaluator, Evaluator, Metrics
from repro.core.metacore import MetaCore, definition_for_spec
from repro.core.parallel import evaluator_stack
from repro.core.parameters import Point
from repro.errors import ConfigurationError
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.trace import get_tracer
from repro.serve.batching import MicroBatcher, PendingRequest
from repro.serve.protocol import (
    search_config_from_payload,
    spec_from_payload,
)

#: Threads running ``evaluate_many`` batches.
EVAL_THREADS = 2
#: Threads running whole searches.
SEARCH_THREADS = 2

#: Batch-size histogram edges (requests per micro-batch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


def evaluator_for_payload(
    payload: Dict[str, Any],
) -> Tuple[str, object, Evaluator]:
    """(kind, spec, evaluator) for a wire spec payload.

    The single construction point shared by the service's session
    factory and the cluster router's routing-key computation, so both
    derive the *same* evaluator fingerprint from the same payload.
    """
    spec = spec_from_payload(payload)
    definition = definition_for_spec(spec)
    return definition.kind, spec, definition.evaluator(spec)


def fingerprint_for_payload(payload: Dict[str, Any]) -> str:
    """The evaluator fingerprint a spec payload resolves to."""
    _kind, _spec, evaluator = evaluator_for_payload(payload)
    return evaluator_fingerprint(evaluator)


class ServiceError(RuntimeError):
    """Base class of request-level service failures."""

    code = "error"


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request (queue full)."""

    code = "overloaded"


class RequestTimeoutError(ServiceError):
    """The request exceeded its per-request wall-clock budget."""

    code = "timeout"


class ServiceClosedError(ServiceError):
    """The service is shutting down and accepts no new work."""

    code = "closed"


class ServiceDrainingError(ServiceError):
    """The service is draining: in-flight work finishes, new work is
    rejected (a cluster router fails the request over to a peer)."""

    code = "draining"


class EvaluationFailedError(ServiceError):
    """The evaluator raised while pricing the request's batch."""

    code = "evaluation_failed"


@dataclass
class ServiceConfig:
    """Knobs of the evaluation service."""

    #: Largest micro-batch handed to ``evaluate_many`` in one call.
    max_batch: int = 8
    #: Admission window: concurrent in-flight point requests beyond
    #: this are rejected immediately with ``overloaded``.
    max_pending: int = 256
    #: Default per-request wall-clock budget (None = unbounded).
    request_timeout_s: Optional[float] = 60.0
    #: Worker processes per session's evaluator (1 = in-process).
    workers: int = 1
    #: Shared persistent cross-run cache (None = memory only).
    cache_path: Optional[str] = None
    #: Shared design atlas: served searches warm-start from it and
    #: ingest into it, and the ``recommend`` op answers from it.
    atlas_path: Optional[str] = None
    #: Wrap session evaluators in the retry/quarantine shim.
    resilient: bool = False
    #: Retries per failing point when ``resilient`` (see the shim).
    max_retries: int = 2
    #: Stable replica identity reported by ``status`` (cluster routers
    #: show it in health/routing tables); None = anonymous.
    node_id: Optional[str] = None


class EvaluatorSession:
    """One specification's shared evaluation stack inside the service.

    Wraps the spec's cost-evaluation engine in the facade's evaluator
    chain (:func:`~repro.core.parallel.evaluator_stack`: an optional
    worker pool, then an optional retry/quarantine shim) and the
    lock-guarded :class:`CachingEvaluator` every client request goes
    through, which shares the service's persistent store.
    """

    def __init__(
        self,
        name: str,
        inner: Evaluator,
        config: ServiceConfig,
        store: Optional[PersistentEvalCache],
        kind: str = "custom",
        spec: Optional[object] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.spec = spec
        self.inner = inner
        self.fingerprint = evaluator_fingerprint(inner)
        stack = evaluator_stack(
            inner,
            workers=config.workers,
            resilient=config.resilient,
            max_retries=config.max_retries,
        )
        self.parallel = stack.parallel
        self.shim = stack.shim
        self.evaluator = CachingEvaluator(stack.evaluator, store=store)

    def close(self) -> None:
        if self.parallel is not None:
            self.parallel.close()

    def stats(self) -> Dict[str, Any]:
        """Plain-dict cache/time accounting for the status endpoint."""
        evaluator = self.evaluator
        requests = evaluator.cache_hits + evaluator.cache_misses
        info: Dict[str, Any] = {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "workers": self.parallel.workers if self.parallel else 1,
            "cache_hits": evaluator.cache_hits,
            "cache_misses": evaluator.cache_misses,
            "cache_upgrades": evaluator.cache_upgrades,
            "persistent_hits": evaluator.persistent_hits,
            "hit_ratio": (
                evaluator.cache_hits / requests if requests else 0.0
            ),
            "computed": evaluator.log.n_evaluations,
            "cpu_s": evaluator.log.cpu_time_s,
            "wall_s": evaluator.log.wall_time_s,
        }
        if self.shim is not None:
            info["resilience"] = self.shim.snapshot()
        return info


class _ServeEvaluatorProxy:
    """Evaluator facade pricing a search's points on its own thread.

    A search runs on a search-executor thread and calls the session's
    lock-guarded cache directly: it shares cached results with client
    ``eval`` traffic for the same specification, but not its
    micro-batches, so a search point never waits on the event loop or
    the batcher.  The search was admitted as a whole, so its points
    bypass admission control and carry no per-point timeout; once the
    service stops, the next batch raises :class:`ServiceClosedError`
    (a draining service still finishes its searches).
    """

    def __init__(
        self,
        service: "EvaluationService",
        session: EvaluatorSession,
    ) -> None:
        self._service = service
        self._session = session
        self.max_fidelity = session.evaluator.max_fidelity

    def fingerprint(self) -> str:
        return self._session.fingerprint

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        return self.evaluate_many([point], fidelity)[0]

    def evaluate_many(
        self, points: Sequence[Point], fidelity: int
    ) -> List[Metrics]:
        if not self._service._running:
            raise ServiceClosedError("service is not running")
        return self._session.evaluator.evaluate_many(points, fidelity)


class EvaluationService:
    """Shared-state evaluation service (run inside an asyncio loop).

    Life cycle: construct, :meth:`start` inside a running loop, submit
    work via :meth:`submit_point` / :meth:`submit_search` /
    :meth:`status`, then :meth:`stop`.  The socket front-end lives in
    :mod:`repro.serve.server`; in-process callers can drive the service
    directly.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store: Optional[PersistentEvalCache] = (
            PersistentEvalCache(self.config.cache_path)
            if self.config.cache_path
            else None
        )
        self.atlas = None
        if self.config.atlas_path:
            from repro.atlas.store import DesignAtlas

            self.atlas = DesignAtlas(self.config.atlas_path)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._sessions: Dict[str, EvaluatorSession] = {}
        self._sessions_lock = threading.Lock()
        self._batcher = MicroBatcher(
            self._run_batch, max_batch=self.config.max_batch
        )
        self._eval_executor: Optional[ThreadPoolExecutor] = None
        self._search_executor: Optional[ThreadPoolExecutor] = None
        self._running = False
        self._draining = False
        self._started_s = 0.0
        #: Requests admitted and not yet answered (mutated on the loop
        #: thread only); the admission window bounds it.
        self.n_pending = 0
        #: Per-service instruments backing the ``status`` endpoint; the
        #: same updates also land in the process-wide registry so the
        #: telemetry exporter sees them.
        self.metrics = MetricsRegistry()

    def _registries(self) -> Tuple[MetricsRegistry, MetricsRegistry]:
        return (self.metrics, get_registry())

    # -- life cycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the worker executors."""
        self.loop = asyncio.get_running_loop()
        self._eval_executor = ThreadPoolExecutor(
            max_workers=EVAL_THREADS,
            thread_name_prefix="serve-eval",
        )
        self._search_executor = ThreadPoolExecutor(
            max_workers=SEARCH_THREADS,
            thread_name_prefix="serve-search",
        )
        self._running = True
        self._started_s = time.monotonic()

    def drain(self) -> Dict[str, Any]:
        """Stop admitting new work; in-flight work keeps running.

        The replica-side half of a cluster's graceful hand-off: after
        draining, ``eval``/``search``/``recommend`` submissions answer
        ``draining`` (which a router treats as a failover signal) while
        running batches and searches complete normally.  Idempotent;
        ``status`` reports the flag.
        """
        self._draining = True
        return {"draining": True, "pending": self.n_pending}

    def _check_accepting(self) -> None:
        """Raise unless the service admits new client-facing work."""
        if not self._running:
            raise ServiceClosedError("service is not running")
        if self._draining:
            raise ServiceDrainingError(
                "service is draining and accepts no new work"
            )

    async def stop(self) -> None:
        """Fail queued work, finish in-flight work, release resources.

        New submissions raise :class:`ServiceClosedError` immediately,
        and so does an in-flight search's next grid batch, while
        already-running batches complete.  The executor joins run on
        the loop's default executor so the loop keeps answering
        meanwhile.
        """
        self._running = False
        await self._batcher.close()
        loop = self.loop
        for executor in (self._eval_executor, self._search_executor):
            if executor is not None and loop is not None:
                await loop.run_in_executor(
                    None, lambda ex=executor: ex.shutdown(wait=True)
                )
        self._eval_executor = None
        self._search_executor = None
        for session in self.sessions():
            session.close()
        if self.store is not None:
            self.store.close()

    # -- sessions --------------------------------------------------------

    def sessions(self) -> List[EvaluatorSession]:
        with self._sessions_lock:
            return list(self._sessions.values())

    def register_evaluator(
        self,
        name: str,
        evaluator: Evaluator,
        kind: str = "custom",
        spec: Optional[object] = None,
    ) -> EvaluatorSession:
        """Attach a caller-supplied evaluator under an explicit name.

        Requests can then address it with ``"session": name`` instead
        of a spec payload — the in-process path for user-defined
        MetaCores (and the test suite's instrumented evaluators).
        """
        with self._sessions_lock:
            if name in self._sessions:
                raise ConfigurationError(
                    f"session {name!r} already registered"
                )
            session = EvaluatorSession(
                name, evaluator, self.config, self.store, kind, spec
            )
            self._sessions[name] = session
        return session

    def session_for_spec(self, payload: Dict[str, Any]) -> EvaluatorSession:
        """The session serving a spec payload, created on first use.

        Sessions are keyed by evaluator fingerprint, so two clients
        sending byte-different but equivalent payloads of the same
        specification share one evaluator, one cache, one pool.
        """
        kind, spec, evaluator = evaluator_for_payload(payload)
        name = evaluator_fingerprint(evaluator)
        with self._sessions_lock:
            existing = self._sessions.get(name)
            if existing is not None:
                return existing
            session = EvaluatorSession(
                name, evaluator, self.config, self.store, kind, spec
            )
            self._sessions[name] = session
        return session

    def resolve_session(
        self,
        spec_payload: Optional[Dict[str, Any]] = None,
        session_name: Optional[str] = None,
    ) -> EvaluatorSession:
        """Find the session a request addresses (payload or name)."""
        if session_name is not None:
            with self._sessions_lock:
                session = self._sessions.get(session_name)
            if session is None:
                raise ConfigurationError(
                    f"no session named {session_name!r}"
                )
            return session
        if spec_payload is None:
            raise ConfigurationError("request needs a spec or session")
        return self.session_for_spec(spec_payload)

    # -- point evaluation ------------------------------------------------

    _UNSET = object()

    async def submit_point(
        self,
        session: EvaluatorSession,
        point: Point,
        fidelity: int,
        timeout_s: Any = _UNSET,
    ) -> Metrics:
        """Admit, micro-batch, evaluate, and answer one point request.

        Raises :class:`ServiceOverloadedError` when the admission
        window is full, :class:`RequestTimeoutError` when the budget
        (``timeout_s``, defaulting to the service config) expires —
        the underlying evaluation is then abandoned, not interrupted —
        and :class:`EvaluationFailedError` when the evaluator raised.
        """
        self._check_accepting()
        if self.n_pending >= self.config.max_pending:
            for registry in self._registries():
                registry.counter("serve.rejected").inc()
            raise ServiceOverloadedError(
                f"{self.n_pending} requests pending "
                f"(admission window {self.config.max_pending})"
            )
        if not 0 <= int(fidelity) <= session.evaluator.max_fidelity:
            raise ConfigurationError(
                f"fidelity {fidelity} out of range "
                f"[0, {session.evaluator.max_fidelity}]"
            )
        assert self.loop is not None
        future: "asyncio.Future[Metrics]" = self.loop.create_future()
        request = PendingRequest(
            point=dict(point),
            fidelity=int(fidelity),
            future=future,
            context=session,
        )
        self.n_pending += 1
        for registry in self._registries():
            registry.counter("serve.requests").inc()
            registry.gauge("serve.queue_depth").set(self.n_pending)
        self._batcher.submit((session.name, int(fidelity)), request)
        timeout = (
            self.config.request_timeout_s
            if timeout_s is self._UNSET
            else timeout_s
        )
        try:
            if timeout is not None:
                return await asyncio.wait_for(future, timeout)
            return await future
        except asyncio.TimeoutError:
            for registry in self._registries():
                registry.counter("serve.timeouts").inc()
            raise RequestTimeoutError(
                f"request exceeded its {timeout:.3g}s budget"
            ) from None
        finally:
            self.n_pending -= 1
            for registry in self._registries():
                registry.gauge("serve.queue_depth").set(self.n_pending)

    async def _run_batch(
        self, key: Any, requests: List[PendingRequest]
    ) -> None:
        """Run one closed micro-batch on the evaluation executor."""
        session: EvaluatorSession = requests[0].context
        fidelity = requests[0].fidelity
        points = [request.point for request in requests]
        for registry in self._registries():
            registry.histogram(
                "serve.batch_size", BATCH_SIZE_BUCKETS
            ).observe(len(points))
            registry.counter("serve.batches").inc()
        assert self.loop is not None and self._eval_executor is not None
        with get_tracer().span(
            "serve.batch",
            session=session.kind,
            points=len(points),
            fidelity=fidelity,
        ):
            try:
                metrics_list = await self.loop.run_in_executor(
                    self._eval_executor,
                    session.evaluator.evaluate_many,
                    points,
                    fidelity,
                )
            except asyncio.CancelledError:
                # Shutdown cancelled the collector mid-batch: anybody
                # still waiting must not hang on a dead future.
                error = ServiceClosedError("service shut down mid-batch")
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(error)
                raise
            except Exception as exc:  # evaluator bug or poisoned batch
                for registry in self._registries():
                    registry.counter("serve.batch_errors").inc()
                error = EvaluationFailedError(
                    f"{type(exc).__name__}: {exc}"
                )
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(error)
                return
        now = time.monotonic()
        latencies = [
            registry.histogram("serve.latency_s")
            for registry in self._registries()
        ]
        for request, metrics in zip(requests, metrics_list):
            for latency in latencies:
                latency.observe(now - request.enqueued_s)
            if not request.future.done():  # timed out / disconnected
                request.future.set_result(metrics)

    # -- searches --------------------------------------------------------

    def _metacore(
        self,
        session: EvaluatorSession,
        config_fields: Optional[Dict[str, Any]],
        fixed: Optional[Dict[str, Any]],
    ) -> MetaCore:
        """The facade a served search or recommendation runs through."""
        if session.spec is None:
            raise ConfigurationError(
                f"session {session.name!r} has no specification; "
                "searches and recommendations need a spec-backed session"
            )
        definition = definition_for_spec(session.spec)
        return MetaCore(
            session.spec,
            fixed=dict(fixed or definition.default_fixed),
            config=search_config_from_payload(config_fields),
        )

    def _search(self, session: EvaluatorSession, metacore: MetaCore):
        """Run the facade's search step on the session's evaluator.

        The search prices its points on the calling (search-executor)
        thread through :class:`_ServeEvaluatorProxy`, warm-starts from
        the service's atlas and ingests its log back into it.
        """
        with get_tracer().span("serve.search", session=session.kind):
            return metacore._search_with(
                _ServeEvaluatorProxy(self, session), session.inner, self.atlas
            )

    async def submit_search(
        self,
        session: EvaluatorSession,
        config_fields: Optional[Dict[str, Any]] = None,
        fixed: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Run a full multiresolution search on the search executor.

        The search prices its points on the search thread through
        :class:`_ServeEvaluatorProxy`, sharing cache state (not
        micro-batches) with concurrent client traffic for the same
        specification.
        """
        self._check_accepting()
        metacore = self._metacore(session, config_fields, fixed)
        for registry in self._registries():
            registry.counter("serve.searches").inc()
        assert self.loop is not None and self._search_executor is not None
        result = await self.loop.run_in_executor(
            self._search_executor, self._search, session, metacore
        )
        return {
            "feasible": result.feasible,
            "best_point": result.best_point,
            "best_metrics": result.best_metrics,
            "n_evaluations": result.log.n_evaluations,
            "regions_explored": result.regions_explored,
            "atlas_seeds": result.atlas_seeds,
            "atlas_replayed": result.atlas_replayed,
            "strategy": result.strategy,
            "evals_saved": result.evals_saved,
            "summary": result.summary(),
        }

    # -- recommendation --------------------------------------------------

    async def submit_recommend(
        self,
        session: EvaluatorSession,
        constraints: Optional[Dict[str, Any]] = None,
        config_fields: Optional[Dict[str, Any]] = None,
        fixed: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Answer a constraint query from the service's design atlas.

        A library hit costs zero evaluations; a miss falls back to a
        warm-started served search on the search executor (sharing the
        session's evaluator and cache) whose log is ingested before the
        frontier is re-queried.
        """
        self._check_accepting()
        if self.atlas is None:
            raise ConfigurationError(
                "service has no atlas (start it with atlas_path)"
            )
        metacore = self._metacore(session, config_fields, fixed)
        for registry in self._registries():
            registry.counter("serve.recommends").inc()
        assert self.loop is not None and self._search_executor is not None
        return await self.loop.run_in_executor(
            self._search_executor,
            self._run_recommend_sync,
            session,
            metacore,
            dict(constraints or {}),
        )

    def _run_recommend_sync(
        self,
        session: EvaluatorSession,
        metacore: MetaCore,
        constraints: Dict[str, Any],
    ) -> Dict[str, Any]:
        with get_tracer().span("serve.recommend", session=session.kind):
            recommendation = metacore._recommend_with(
                self.atlas,
                session.fingerprint,
                constraints,
                lambda: self._search(session, metacore),
            )
        self.metrics.counter(
            "atlas.hits" if recommendation.source == "atlas" else "atlas.misses"
        ).inc()
        return {
            "source": recommendation.source,
            "point": recommendation.point,
            "metrics": recommendation.metrics,
            "n_evaluations": recommendation.n_evaluations,
            "feasible": recommendation.feasible,
            "summary": recommendation.summary(),
        }

    # -- status ----------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Counters and per-session cache statistics as a plain dict."""
        batch_hist = self.metrics.histogram(
            "serve.batch_size", BATCH_SIZE_BUCKETS
        )
        latency_hist = self.metrics.histogram("serve.latency_s")
        info: Dict[str, Any] = {
            "protocol": 1,
            "running": self._running,
            "draining": self._draining,
            "node": self.config.node_id,
            "uptime_s": (
                time.monotonic() - self._started_s if self._running else 0.0
            ),
            "queue_depth": self.n_pending,
            "max_pending": self.config.max_pending,
            "max_batch": self.config.max_batch,
            "workers": self.config.workers,
            **{
                field: int(self.metrics.counter(f"serve.{field}").value)
                for field in (
                    "requests", "rejected", "timeouts", "batches",
                    "searches", "recommends",
                )
            },
            "batch_size": {
                "count": batch_hist.count,
                "mean": batch_hist.mean,
                "p50": batch_hist.quantile(0.5),
                "max": batch_hist.snapshot()["max"],
            },
            "latency_s": {
                "count": latency_hist.count,
                "mean": latency_hist.mean,
                "p50": latency_hist.quantile(0.5),
                "p99": latency_hist.quantile(0.99),
            },
            "sessions": {
                session.name: session.stats()
                for session in self.sessions()
            },
        }
        info["persistent_hits"] = sum(
            session.evaluator.persistent_hits for session in self.sessions()
        )
        if self.store is not None:
            info["store"] = self.store.stats()
        if self.atlas is not None:
            atlas_info = self.atlas.stats()
            atlas_info["hits"] = self.metrics.counter("atlas.hits").value
            atlas_info["misses"] = self.metrics.counter("atlas.misses").value
            info["atlas"] = atlas_info
        return info
