"""The cluster router: fingerprint-sharded front door for N replicas.

The router speaks the exact client protocol of
:mod:`repro.serve.protocol` — a client cannot tell a router from a
single server — and forwards each ``eval``/``search``/``recommend``
to a replica chosen by consistent hashing on the request's routing
key.  The key is the evaluator fingerprint: the ``session`` name when
the request carries one (session names *are* fingerprints, see
``EvaluationService.session_for_spec``), else the fingerprint computed
from the spec payload.  Same spec → same key from any router → same
replica, so each replica keeps warm evaluator sessions, caches, and
micro-batches for its shard of the fingerprint space.

Reliability mechanics on the request path:

- **Failover** — a transport failure or a replica answering with a
  *failover code* (``overloaded``, ``draining``, ``closed``) moves the
  request to the next replica on the key's preference list, with
  capped exponential backoff between attempts, up to
  ``max_attempts`` tries.  Any other error is the request's own
  answer (e.g. ``bad_request``) and is forwarded verbatim.
- **Hedging** — if the first replica has not answered an ``eval``
  within ``hedge_after_s``, the request is duplicated to the next
  replica on the preference list; the first usable answer wins and the
  loser is cancelled (its late response is discarded by the connection
  layer).  Every routed operation is deterministic, so a duplicate
  cannot change any result — only the tail latency.  A ``search`` is
  not hedged (:data:`HEDGED_OPS`): it is long CPU work that the losing
  replica keeps running after the router cancels its copy, so a hedge
  only steals CPU; nor is a ``recommend``, which can fall back to such
  a search on an atlas miss.
- **Health** — a :class:`~repro.cluster.health.HealthMonitor` probes
  every replica's ``status``; ejected replicas are skipped by routing
  until a probe readmits them.  The hash ring itself never changes,
  so recovery restores the original shard map.

Determinism note: replicas share nothing and derive all stochastic
streams from (seed, point, fidelity), so a search answered through the
router — under failover, hedging, or both — is byte-identical to the
same search on a single facade.  The differential tests in
``tests/test_cluster.py`` enforce this.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.connection import ReplicaUnavailableError
from repro.cluster.health import (
    STATE_EJECTED,
    HealthMonitor,
    RouterReplica,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.topology import Topology
from repro.errors import ConfigurationError
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.trace import get_tracer
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    error_response,
    ok_response,
)
from repro.serve.server import ServeServer, run_until_shutdown
from repro.serve.service import fingerprint_for_payload

#: Replica error codes that mean "try another replica", not "the
#: request itself failed".  Everything else is forwarded to the client.
FAILOVER_CODES = frozenset({"overloaded", "draining", "closed"})

#: Operations that are routed by key (everything else the router
#: answers itself or fans out).
ROUTED_OPS = frozenset({"eval", "search", "recommend"})

#: Routed operations a straggling primary is hedged for.
HEDGED_OPS = frozenset({"eval"})


class RouterConfig:
    """Tunables for routing, hedging, failover, and health probing."""

    def __init__(
        self,
        vnodes: int = DEFAULT_VNODES,
        hedge_after_s: Optional[float] = 0.5,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 1.0,
        probe_interval_s: float = 0.5,
        probe_timeout_s: float = 5.0,
        eject_after: int = 3,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.vnodes = int(vnodes)
        #: ``None`` (or <= 0) disables hedging entirely.
        self.hedge_after_s = (
            None
            if hedge_after_s is None or hedge_after_s <= 0
            else float(hedge_after_s)
        )
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.retry_backoff_max_s = max(
            self.retry_backoff_s, float(retry_backoff_max_s)
        )
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.eject_after = max(1, int(eject_after))
        self.connect_timeout_s = float(connect_timeout_s)


class ClusterRouter:
    """Routes protocol requests across a replica set (asyncio-side)."""

    def __init__(
        self, topology: Topology, config: Optional[RouterConfig] = None
    ) -> None:
        self.topology = topology
        self.config = config or RouterConfig()
        self.replicas: Dict[str, RouterReplica] = {
            replica.name: RouterReplica(
                replica, connect_timeout_s=self.config.connect_timeout_s
            )
            for replica in topology.replicas
        }
        self.ring = HashRing(topology.names(), vnodes=self.config.vnodes)
        self.monitor = HealthMonitor(
            list(self.replicas.values()),
            probe_interval_s=self.config.probe_interval_s,
            probe_timeout_s=self.config.probe_timeout_s,
            eject_after=self.config.eject_after,
        )
        self.metrics = MetricsRegistry()
        self._fingerprints: Dict[str, str] = {}
        self._fingerprint_lock = threading.Lock()

    # -- life cycle ------------------------------------------------------

    async def start(self) -> None:
        """Probe every replica once (live initial state), start probes."""
        await asyncio.gather(
            *(
                self.monitor.probe(replica)
                for replica in self.replicas.values()
            ),
            return_exceptions=True,
        )
        self.monitor.start()

    async def stop(self) -> None:
        await self.monitor.stop()
        await asyncio.gather(
            *(
                replica.connection.close()
                for replica in self.replicas.values()
            ),
            return_exceptions=True,
        )

    # -- bookkeeping -----------------------------------------------------

    def _inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)
        get_registry().counter(name).inc(amount)

    def _routing_key(self, message: Dict[str, Any]) -> str:
        session = message.get("session")
        if session is not None:
            return str(session)
        spec = message.get("spec")
        if not isinstance(spec, dict):
            raise ConfigurationError("request needs a spec or session")
        # Fingerprinting builds (but never runs) an evaluator; cache by
        # the canonical payload bytes so steady-state routing is a dict
        # lookup.
        import json

        cache_key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        with self._fingerprint_lock:
            cached = self._fingerprints.get(cache_key)
        if cached is not None:
            return cached
        fingerprint = fingerprint_for_payload(spec)
        with self._fingerprint_lock:
            self._fingerprints[cache_key] = fingerprint
        return fingerprint

    def _candidates(self, key: str) -> List[RouterReplica]:
        """Preference-ordered replicas for a key, healthiest filter first.

        Prefer routable replicas; if none (all ejected or draining),
        fall back to non-ejected, then to the raw preference order —
        a last-ditch attempt beats refusing outright, since ejection
        is advisory and the replica may be back.
        """
        preference = [self.replicas[name] for name in self.ring.preference(key)]
        routable = [replica for replica in preference if replica.routable]
        if routable:
            return routable
        alive = [
            replica
            for replica in preference
            if replica.state != STATE_EJECTED
        ]
        return alive or preference

    # -- request path ----------------------------------------------------

    async def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one client message (the server's _dispatch hook)."""
        op = message.get("op")
        request_id = message.get("id")
        if op == "ping":
            return ok_response(
                request_id,
                {
                    "pong": True,
                    "protocol": PROTOCOL_VERSION,
                    "router": True,
                },
            )
        if op == "status":
            return ok_response(request_id, await self.cluster_status())
        if op == "drain":
            return ok_response(request_id, await self.drain_all())
        if op in ROUTED_OPS:
            self._inc("cluster.requests")
            return await self._route(message)
        if op == "shutdown":
            # Handled by the server wrapper (it owns the stop event);
            # reaching here means a bare router without one.
            raise ConfigurationError("router cannot shut down replicas")
        raise ConfigurationError(f"unknown operation {op!r}")

    async def _route(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = str(message.get("op"))
        request_id = message.get("id")
        fields = {
            key: value
            for key, value in message.items()
            if key not in ("id", "op")
        }
        key = self._routing_key(message)
        candidates = self._candidates(key)
        last_failure = "no replicas available"
        attempt = 0
        with get_tracer().span("cluster.route", op=op):
            while attempt < self.config.max_attempts:
                primary = candidates[attempt % len(candidates)]
                backup = (
                    candidates[(attempt + 1) % len(candidates)]
                    if len(candidates) > 1
                    else None
                )
                outcome, winner = await self._attempt(
                    op, fields, primary, backup
                )
                if outcome is not None:
                    if outcome.get("ok"):
                        winner.record_success()
                        self._inc(f"cluster.routed.{winner.name}")
                        result = outcome.get("result") or {}
                        return ok_response(request_id, result)
                    error = outcome.get("error") or {}
                    code = str(error.get("code", "error"))
                    if code not in FAILOVER_CODES:
                        # The request's own answer; not a replica fault.
                        return error_response(
                            request_id,
                            code,
                            str(error.get("message", "request failed")),
                        )
                    last_failure = (
                        f"replica {winner.name!r} answered {code}"
                    )
                attempt += 1
                if attempt < self.config.max_attempts:
                    self._inc("cluster.failovers")
                    delay = min(
                        self.config.retry_backoff_max_s,
                        self.config.retry_backoff_s * (2 ** (attempt - 1)),
                    )
                    if delay > 0:
                        await asyncio.sleep(delay)
                    candidates = self._candidates(key)
        return error_response(
            request_id,
            "unavailable",
            f"{op} failed after {attempt} attempts: {last_failure}",
        )

    async def _attempt(
        self,
        op: str,
        fields: Dict[str, Any],
        primary: RouterReplica,
        backup: Optional[RouterReplica],
    ) -> Tuple[Optional[Dict[str, Any]], RouterReplica]:
        """One routing attempt: primary, hedged with backup if a
        :data:`HEDGED_OPS` request is slow.

        Returns ``(response_envelope, answering_replica)``; the
        envelope is ``None`` when every contacted replica failed at the
        transport level (the caller then backs off and retries).
        """
        primary.n_requests += 1
        tasks: Dict["asyncio.Task[Dict[str, Any]]", RouterReplica] = {}
        primary_task = asyncio.ensure_future(
            primary.connection.request(op, fields)
        )
        tasks[primary_task] = primary
        hedge_deadline = (
            self.config.hedge_after_s
            if backup is not None and op in HEDGED_OPS
            else None
        )
        outcome: Optional[Dict[str, Any]] = None
        winner = primary
        hedged = False
        try:
            while tasks:
                done, _pending = await asyncio.wait(
                    set(tasks),
                    timeout=hedge_deadline,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    # Primary is straggling: hedge once to the backup.
                    hedge_deadline = None
                    if backup is not None and not hedged:
                        hedged = True
                        self._inc("cluster.hedges")
                        backup.n_hedges += 1
                        backup.n_requests += 1
                        hedge_task = asyncio.ensure_future(
                            backup.connection.request(op, fields)
                        )
                        tasks[hedge_task] = backup
                    continue
                for task in done:
                    replica = tasks.pop(task)
                    try:
                        response = task.result()
                    except ReplicaUnavailableError:
                        replica.record_failure(self.config.eject_after)
                        continue
                    code = None
                    if not response.get("ok"):
                        code = str(
                            (response.get("error") or {}).get("code")
                        )
                    if code in FAILOVER_CODES and tasks:
                        # A hedge partner is still running; let it win.
                        outcome, winner = response, replica
                        continue
                    if hedged and replica is not primary:
                        self._inc("cluster.hedge_wins")
                    return response, replica
            return outcome, winner
        finally:
            for task in tasks:
                task.cancel()

    # -- cluster-wide operations ----------------------------------------

    async def _fetch_statuses(
        self,
    ) -> Dict[str, Optional[Dict[str, Any]]]:
        """Live ``status`` from every non-ejected replica, in parallel."""

        async def fetch(
            replica: RouterReplica,
        ) -> Optional[Dict[str, Any]]:
            if replica.state == STATE_EJECTED:
                return replica.last_status
            try:
                response = await asyncio.wait_for(
                    replica.connection.request("status"),
                    timeout=self.config.probe_timeout_s,
                )
            except (ReplicaUnavailableError, asyncio.TimeoutError):
                return replica.last_status
            if not response.get("ok"):
                return replica.last_status
            status = response.get("result") or {}
            replica.last_status = status
            return status

        names = list(self.replicas)
        statuses = await asyncio.gather(
            *(fetch(self.replicas[name]) for name in names)
        )
        return dict(zip(names, statuses))

    async def cluster_status(self) -> Dict[str, Any]:
        """Aggregated cluster view: router counters + per-replica rows."""
        statuses = await self._fetch_statuses()
        rows = []
        persistent_hits = 0
        requests = 0
        searches = 0
        for name, replica in self.replicas.items():
            row = replica.describe()
            status = statuses.get(name)
            if status is not None:
                row["status"] = status
                persistent_hits += int(status.get("persistent_hits") or 0)
                requests += int(status.get("requests") or 0)
                searches += int(status.get("searches") or 0)
            rows.append(row)
        routable = [
            replica.name
            for replica in self.replicas.values()
            if replica.routable
        ]
        counters = {
            name: snap["value"]
            for name, snap in self.metrics.snapshot().items()
            if snap.get("type") == "counter"
        }
        return {
            "router": True,
            "protocol": PROTOCOL_VERSION,
            "replicas": rows,
            "n_replicas": len(self.replicas),
            "routable": routable,
            "persistent_hits": persistent_hits,
            "requests": requests,
            "searches": searches,
            "cluster": counters,
        }

    async def drain_all(self) -> Dict[str, Any]:
        """Forward ``drain`` to every replica; report who complied."""

        async def drain(replica: RouterReplica) -> bool:
            try:
                response = await asyncio.wait_for(
                    replica.connection.request("drain"),
                    timeout=self.config.probe_timeout_s,
                )
            except (ReplicaUnavailableError, asyncio.TimeoutError):
                return False
            if response.get("ok"):
                replica.draining = True
                return True
            return False

        names = list(self.replicas)
        drained = await asyncio.gather(
            *(drain(self.replicas[name]) for name in names)
        )
        return {
            "draining": True,
            "replicas": {
                name: bool(flag) for name, flag in zip(names, drained)
            },
        }


class RouterServer(ServeServer):
    """Socket front-end: the ServeServer transport, router dispatch."""

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        allow_shutdown: bool = True,
    ) -> None:
        super().__init__(
            service=None,  # type: ignore[arg-type]  # never dispatched to
            host=host,
            port=port,
            unix_path=unix_path,
            allow_shutdown=allow_shutdown,
        )
        self.router = router

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        request_id = message.get("id")
        if op == "shutdown":
            if not self.allow_shutdown:
                return error_response(
                    request_id, "forbidden", "remote shutdown is disabled"
                )
            self.shutdown_requested.set()
            return ok_response(request_id, {"stopping": True})
        return await self.router.dispatch(message)


async def route_forever(
    topology: Topology,
    config: Optional[RouterConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
    ready_callback=None,
) -> None:
    """Run router + server until a ``shutdown`` request arrives."""
    router = ClusterRouter(topology, config)
    server = RouterServer(router, host=host, port=port, unix_path=unix_path)
    await run_until_shutdown(router, server, ready_callback)
