"""The cluster router: fingerprint-sharded front door for N replicas.

The router is a backend of the socket front-end in
:mod:`repro.serve.server`, so it speaks the exact client protocol of
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
- **One replica per attempt** — each routing attempt is a single
  request to a single replica, so each routed request is priced once.
  An evaluation is a deterministic function of (spec, point,
  fidelity): a duplicate sent to a second replica could not change the
  answer, only pay for it twice.
- **Health** — a :class:`~repro.cluster.health.HealthMonitor` probes
  every replica's ``status``; ejected replicas are skipped by routing
  until a probe readmits them.  The hash ring itself never changes,
  so recovery restores the original shard map.

Determinism note: replicas share nothing and derive all stochastic
streams from (seed, point, fidelity), so a search answered through the
router — with or without failover — is byte-identical to the
same search on a single facade.  The differential tests in
``tests/test_cluster.py`` enforce this.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional

from repro.cluster.connection import ReplicaUnavailableError
from repro.cluster.health import (
    PROBE_TIMEOUT_S,
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
from repro.serve.service import fingerprint_for_payload

#: Replica error codes that mean "try another replica", not "the
#: request itself failed".  Everything else is forwarded to the client.
FAILOVER_CODES = frozenset({"overloaded", "draining", "closed"})

#: Operations that are routed by key (everything else the router
#: answers itself or fans out).
ROUTED_OPS = frozenset({"eval", "search", "recommend"})

#: Cap on the exponential backoff between failover attempts.
RETRY_BACKOFF_MAX_S = 1.0


class RouterConfig:
    """Tunables for routing, failover, and health probing."""

    def __init__(
        self,
        vnodes: int = DEFAULT_VNODES,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        probe_interval_s: float = 0.5,
        eject_after: int = 3,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.vnodes = int(vnodes)
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.probe_interval_s = float(probe_interval_s)
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
        """Answer one client message (``shutdown`` is the server's)."""
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
                replica = candidates[attempt % len(candidates)]
                replica.n_requests += 1
                try:
                    outcome = await replica.connection.request(op, fields)
                except ReplicaUnavailableError as error:
                    replica.record_failure(self.config.eject_after)
                    last_failure = str(error)
                else:
                    if outcome.get("ok"):
                        replica.record_success()
                        self._inc(f"cluster.routed.{replica.name}")
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
                        f"replica {replica.name!r} answered {code}"
                    )
                attempt += 1
                if attempt < self.config.max_attempts:
                    self._inc("cluster.failovers")
                    delay = min(
                        RETRY_BACKOFF_MAX_S,
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
                    timeout=PROBE_TIMEOUT_S,
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
                    timeout=PROBE_TIMEOUT_S,
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
