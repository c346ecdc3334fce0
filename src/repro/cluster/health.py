"""Replica health tracking and the periodic probe loop.

Each replica the router knows about carries a small state machine:

``healthy``
    Answering probes and requests; full routing member.
``degraded``
    Recent consecutive failures, but under the ejection threshold.
    Still routed to (the failure may be a single dropped connection),
    just reported as degraded in cluster status.
``ejected``
    ``eject_after`` consecutive failures; removed from routing until a
    probe succeeds again, at which point it rejoins as healthy.  The
    consistent-hash ring is *not* rebuilt on ejection — keys keep their
    preference order and simply skip ejected entries — so a replica
    that recovers gets its old keys back with no reshuffling.

The :class:`HealthMonitor` drives transitions with periodic ``status``
probes over each replica's own multiplexed connection (so a probe also
exercises the exact transport requests use).  Request-path failures
feed the same counters; a replica can therefore be ejected purely by
failing traffic, and only a successful probe readmits it.

A replica whose status reports ``draining: true`` keeps its health
state but is skipped when routing *new* work, mirroring how the serve
layer itself refuses admission while draining.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

from repro.cluster.connection import (
    ReplicaConnection,
    ReplicaUnavailableError,
)
from repro.cluster.topology import Replica

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_EJECTED = "ejected"

#: Seconds a ``status`` probe (or a router-side status/drain fan-out
#: request) may take before the replica counts as unresponsive.
PROBE_TIMEOUT_S = 5.0


class RouterReplica:
    """A topology replica plus its connection, health, and counters."""

    def __init__(
        self, replica: Replica, connect_timeout_s: float = 5.0
    ) -> None:
        self.replica = replica
        self.connection = ReplicaConnection(
            replica, connect_timeout_s=connect_timeout_s
        )
        self.state = STATE_HEALTHY
        self.draining = False
        self.consecutive_failures = 0
        self.n_requests = 0
        self.n_failures = 0
        self.n_probes = 0
        self.n_probe_failures = 0
        self.last_status: Optional[Dict[str, Any]] = None
        self.last_probe_at: Optional[float] = None

    @property
    def name(self) -> str:
        return self.replica.name

    @property
    def routable(self) -> bool:
        """Eligible for *new* work right now."""
        return self.state != STATE_EJECTED and not self.draining

    def record_success(self) -> None:
        if self.consecutive_failures or self.state != STATE_HEALTHY:
            self.consecutive_failures = 0
            self.state = STATE_HEALTHY

    def record_failure(self, eject_after: int) -> None:
        self.n_failures += 1
        self.consecutive_failures += 1
        if self.consecutive_failures >= eject_after:
            self.state = STATE_EJECTED
        else:
            self.state = STATE_DEGRADED

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "address": self.replica.address,
            "state": self.state,
            "draining": self.draining,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.n_requests,
            "failures": self.n_failures,
            "probes": self.n_probes,
            "probe_failures": self.n_probe_failures,
        }


class HealthMonitor:
    """Periodic ``status`` probes driving replica state transitions."""

    def __init__(
        self,
        replicas: List[RouterReplica],
        probe_interval_s: float = 1.0,
        eject_after: int = 3,
    ) -> None:
        self.replicas = replicas
        self.probe_interval_s = probe_interval_s
        self.eject_after = max(1, int(eject_after))
        self._task: Optional["asyncio.Task[None]"] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        while True:
            await asyncio.gather(
                *(self.probe(replica) for replica in self.replicas),
                return_exceptions=True,
            )
            await asyncio.sleep(self.probe_interval_s)

    async def probe(self, replica: RouterReplica) -> None:
        """One status probe; updates health state and cached status."""
        replica.n_probes += 1
        replica.last_probe_at = time.monotonic()
        try:
            response = await asyncio.wait_for(
                replica.connection.request("status"),
                timeout=PROBE_TIMEOUT_S,
            )
        except (ReplicaUnavailableError, asyncio.TimeoutError):
            replica.n_probe_failures += 1
            replica.record_failure(self.eject_after)
            return
        if not response.get("ok"):
            replica.n_probe_failures += 1
            replica.record_failure(self.eject_after)
            return
        status = response.get("result") or {}
        replica.last_status = status
        replica.draining = bool(status.get("draining"))
        replica.record_success()
