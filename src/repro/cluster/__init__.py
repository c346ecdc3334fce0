"""Multi-node cluster serving: sharded routing over serve replicas.

The :mod:`repro.serve` layer made the cost-evaluation engine a single
long-running service; this package scales it *out*.  A thin async
router speaks the same newline-JSON protocol to clients and shards
traffic across several ordinary serve processes ("replicas") by
consistent hashing on the evaluator fingerprint, so every spec's
session, caches, and micro-batches stay warm on one replica while the
cluster as a whole serves many specs concurrently.  See
``docs/cluster.md``.

- :mod:`repro.cluster.topology` — replica set description: strict
  JSON topology files and ``--replica`` flag parsing;
- :mod:`repro.cluster.ring` — md5 consistent-hash ring with virtual
  nodes; preference lists drive failover order;
- :mod:`repro.cluster.connection` — pipelined async client connection
  to one replica with id remapping and fail-fast on disconnect;
- :mod:`repro.cluster.health` — replica health state machine
  (healthy/degraded/ejected, rejoin on recovery) + the probe loop;
- :mod:`repro.cluster.router` — the router itself, a backend of the
  :mod:`repro.serve.server` socket front-end: key routing, bounded
  failover retry, cluster status/drain;
- :mod:`repro.cluster.handle` — the whole-cluster-in-one-process
  ``ClusterHandle`` behind the facades' ``serve(replicas=N)``.

Determinism: replicas share no mutable evaluation state, so any search
routed through a cluster is byte-identical to the same search on a
single facade — the property every test in ``tests/test_cluster.py``
pivots on.
"""

from repro.cluster.connection import (
    ReplicaConnection,
    ReplicaUnavailableError,
)
from repro.cluster.handle import ClusterHandle
from repro.cluster.health import (
    STATE_DEGRADED,
    STATE_EJECTED,
    STATE_HEALTHY,
    HealthMonitor,
    RouterReplica,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.router import (
    FAILOVER_CODES,
    ClusterRouter,
    RouterConfig,
)
from repro.cluster.topology import (
    Replica,
    Topology,
    load_topology,
    topology_from_flags,
)

__all__ = [
    "ReplicaConnection",
    "ReplicaUnavailableError",
    "ClusterHandle",
    "STATE_DEGRADED",
    "STATE_EJECTED",
    "STATE_HEALTHY",
    "HealthMonitor",
    "RouterReplica",
    "DEFAULT_VNODES",
    "HashRing",
    "FAILOVER_CODES",
    "ClusterRouter",
    "RouterConfig",
    "Replica",
    "Topology",
    "load_topology",
    "topology_from_flags",
]
