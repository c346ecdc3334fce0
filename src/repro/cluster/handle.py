"""The whole cluster in one process, behind one blocking-world handle.

:class:`ClusterHandle` is what the MetaCore facades' ``serve(replicas=N)``
returns: the :class:`~repro.serve.server.LoopThreadHandle` of a
:class:`ClusterRouter` plus the N in-process replica ``ServeHandle``s the
router is wired to.  It registers the facade's spec session on
*every* replica so session-addressed requests can land anywhere the
ring sends them.  Replicas share the design atlas (the store is
multi-writer safe) but get private persistent-cache files — caching
never changes results, so the split is invisible to clients.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.topology import Replica, Topology
from repro.serve.protocol import spec_to_payload
from repro.serve.server import LoopThreadHandle, ServeHandle
from repro.serve.service import ServiceConfig


def _replica_config(base: ServiceConfig, name: str) -> ServiceConfig:
    """Per-replica service config: own node id, private cache file."""
    cache_path = base.cache_path
    if cache_path:
        cache_path = f"{cache_path}.{name}"
    return dataclasses.replace(base, node_id=name, cache_path=cache_path)


class ClusterHandle(LoopThreadHandle):
    """N in-process replicas + the loop-thread handle of their router.

    ``client()``, ``address``, ``port`` and the context manager are the
    router's, so call sites can treat ``serve()`` and
    ``serve(replicas=3)`` uniformly; ``backend`` is the running
    :class:`ClusterRouter`.
    """

    _thread_name = "metacores-router"

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
        super().__init__(self._router, host=host, port=port)
        base = config or ServiceConfig()
        self.router_config = router_config
        self.replica_handles: List[ServeHandle] = [
            ServeHandle(_replica_config(base, f"replica-{index}"), host=host)
            for index in range(replicas)
        ]

    def _router(self) -> ClusterRouter:
        """The router over the started replicas (built on the loop)."""
        topology = Topology(
            replicas=tuple(
                Replica(
                    name=f"replica-{index}", host=handle.host, port=handle.port
                )
                for index, handle in enumerate(self.replica_handles)
            )
        )
        return ClusterRouter(topology, self.router_config)

    # -- life cycle ------------------------------------------------------

    def start(self) -> "ClusterHandle":
        """Start every replica, then the router in front of them."""
        started: List[ServeHandle] = []
        try:
            for handle in self.replica_handles:
                handle.start()
                started.append(handle)
            super().start()
        except BaseException:
            for handle in started:
                handle.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop the router, then every replica (idempotent)."""
        super().stop()
        for handle in self.replica_handles:
            handle.stop()

    # -- sessions --------------------------------------------------------

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
