"""Blocking-world handles: a router thread, and a whole-cluster-in-one.

:class:`RouterHandle` is :class:`~repro.serve.server.ServeHandle`'s
life cycle (:class:`~repro.serve.server.LoopThreadHandle`) for the
router: event loop + :class:`ClusterRouter` + socket server on a
daemon thread, ``start()`` returning once the socket is bound.

:class:`ClusterHandle` is what the MetaCore facades' ``serve(replicas=N)``
returns: it owns N in-process replica ``ServeHandle``s plus one router
wired to them, presents the same surface as a single ``ServeHandle``
(``client()``, ``stop()``, context manager), and registers the facade's
spec session on *every* replica so session-addressed requests can land
anywhere the ring sends them.  Replicas share the design atlas (the
store is multi-writer safe) but get private persistent-cache files —
caching never changes results, so the split is invisible to clients.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Coroutine, Dict, List, Optional, Tuple

from repro.cluster.router import (
    ClusterRouter,
    RouterConfig,
    RouterServer,
    route_forever,
)
from repro.cluster.topology import Replica, Topology
from repro.serve.protocol import spec_to_payload
from repro.serve.server import LoopThreadHandle, ServeHandle
from repro.serve.service import ServiceConfig


class RouterHandle(LoopThreadHandle):
    """Router + socket server on a background thread."""

    _thread_name = "metacores-router"

    def __init__(
        self,
        topology: Topology,
        config: Optional[RouterConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        super().__init__(host=host, port=port, unix_path=unix_path)
        self.topology = topology
        self.config = config or RouterConfig()

    @property
    def router(self) -> Optional[ClusterRouter]:
        """The running router (None before ``start()``)."""
        server = self._server
        return server.router if isinstance(server, RouterServer) else None

    def _serve(self, ready_callback) -> Coroutine[Any, Any, None]:
        return route_forever(
            self.topology,
            config=self.config,
            host=self.host,
            port=self.port,
            unix_path=self.unix_path,
            ready_callback=ready_callback,
        )


def _replica_config(base: ServiceConfig, name: str) -> ServiceConfig:
    """Per-replica service config: own node id, private cache file."""
    cache_path = base.cache_path
    if cache_path:
        cache_path = f"{cache_path}.{name}"
    return dataclasses.replace(base, node_id=name, cache_path=cache_path)


class ClusterHandle:
    """N in-process replicas + a router, behind one handle.

    The facade surface matches :class:`ServeHandle` where it matters
    (``client()``, ``stop()``, ``port``, context manager), so call
    sites can treat ``serve()`` and ``serve(replicas=3)`` uniformly.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        router_config: Optional[RouterConfig] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        base = config or ServiceConfig()
        self.host = host
        self.port = port
        self.router_config = router_config
        self.replica_handles: List[ServeHandle] = [
            ServeHandle(_replica_config(base, f"replica-{index}"), host=host)
            for index in range(replicas)
        ]
        self.router_handle: Optional[RouterHandle] = None
        self._started = False

    # -- life cycle ------------------------------------------------------

    def start(self) -> "ClusterHandle":
        if self._started:
            raise RuntimeError("handle already started")
        started: List[ServeHandle] = []
        try:
            for handle in self.replica_handles:
                handle.start()
                started.append(handle)
            topology = Topology(
                replicas=tuple(
                    Replica(
                        name=f"replica-{index}",
                        host=handle.host,
                        port=handle.port,
                    )
                    for index, handle in enumerate(self.replica_handles)
                )
            )
            self.router_handle = RouterHandle(
                topology,
                config=self.router_config,
                host=self.host,
                port=self.port,
            ).start()
            self.port = self.router_handle.port
        except BaseException:
            for handle in started:
                handle.stop()
            raise
        self._started = True
        return self

    def stop(self) -> None:
        """Stop the router, then every replica (idempotent)."""
        self._started = False
        router, self.router_handle = self.router_handle, None
        if router is not None:
            router.stop()
        for handle in self.replica_handles:
            handle.stop()

    def __enter__(self) -> "ClusterHandle":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- conveniences ----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def router(self) -> Optional[ClusterRouter]:
        return self.router_handle.router if self.router_handle else None

    def client(self, timeout_s: float = 120.0):
        """A connected synchronous client for the cluster router."""
        assert self.router_handle is not None, "handle not started"
        return self.router_handle.client(timeout_s=timeout_s)

    def session_for_spec(self, payload: Dict[str, Any]) -> str:
        """Register a spec session on every replica; returns its name.

        Session names are evaluator fingerprints, so every replica
        derives the same name; registering everywhere lets clients
        address the session by name no matter where the ring routes.
        """
        name = None
        for handle in self.replica_handles:
            session = handle.service.session_for_spec(payload)
            name = session.name
        assert name is not None
        return name

    def register_spec(self, spec: object) -> str:
        """Register a facade specification cluster-wide (by object)."""
        return self.session_for_spec(spec_to_payload(spec))
