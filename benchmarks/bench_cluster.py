"""Benchmark: cluster routing throughput and hedged tail latency.

Measures what the fingerprint-sharded router actually buys:

- **throughput scaling** — the same 96-eval workload (8 specification
  sessions, unique points) driven by 8 concurrent clients against a
  direct single-node service and against 1/2/4 router replicas,
  writing evals/s for each.  The hard gate: 4-replica throughput must
  be strictly above single-node.
- **hedged tail latency** — on a 4-replica cluster with one replica
  made a deliberate straggler, per-request p50/p99 with hedging off
  vs on (`hedge_after_s=0.1`).  Hedging should cut the p99 paid by
  sessions the ring happens to home on the slow node.

The evaluator is *simulated*: metrics are deterministic hash-derived
pseudo-values (so any routing mistake would surface as a wrong byte),
and cost is a ``time.sleep`` of ``BATCH_SETUP + PER_POINT * n`` per
batch.  Each node's capacity is its service's ``eval_threads`` pool (2
here) — the per-node bound that makes "more nodes" mean "more
capacity" — which a sleep bill renders faithfully on the single-CPU CI
boxes where CPU-bound work could never show overlap.  Everything else — sockets, the router, the ring,
hedging, micro-batching — is exactly the production path.

Results land in ``BENCH_cluster.json`` at the repo root.  Run with::

    PYTHONPATH=src python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster import ClusterHandle, RouterConfig
from repro.serve import ServeHandle, ServiceConfig

BATCH_SETUP = 0.020
PER_POINT = 0.004
STRAGGLER_EXTRA = 0.25
HEDGE_AFTER_S = 0.1

SESSIONS = [f"bench-spec-{i}" for i in range(8)]
CLIENTS = 8
POINTS_PER_CLIENT = 12
EVAL_THREADS = 2


def simulated_metrics(point: Dict[str, float], fidelity: int) -> Dict[str, float]:
    """Deterministic pseudo-metrics: a pure function of the request."""
    payload = json.dumps([point, fidelity], sort_keys=True).encode()
    digest = hashlib.sha256(payload).digest()
    return {
        "area_mm2": 0.1 + digest[0] / 255.0,
        "cycles_per_bit": 10.0 + digest[1],
        "spec_violation": 0.0,
    }


class SimulatedClusterEvaluator:
    """Sleep-billed stand-in for one node's share of a cost engine."""

    max_fidelity = 2

    def __init__(self, extra_s: float = 0.0) -> None:
        self.extra_s = extra_s
        self.n_evaluated = 0
        self._lock = threading.Lock()

    def evaluate(self, point, fidelity):
        return self.evaluate_many([point], fidelity)[0]

    def evaluate_many(self, points, fidelity):
        time.sleep(BATCH_SETUP + PER_POINT * len(points) + self.extra_s)
        with self._lock:
            self.n_evaluated += len(points)
        return [simulated_metrics(dict(p), fidelity) for p in points]


def workload() -> List[List[Dict[str, float]]]:
    """Unique (session, point) pairs partitioned across client threads."""
    jobs: List[List[Dict[str, float]]] = [[] for _ in range(CLIENTS)]
    for c in range(CLIENTS):
        for i in range(POINTS_PER_CLIENT):
            jobs[c].append(
                {
                    "session": SESSIONS[(c + i) % len(SESSIONS)],
                    "point": {"client": float(c), "index": float(i)},
                }
            )
    return jobs


def drive(make_client, record_latency=None) -> float:
    """Run the full workload through concurrent clients; returns seconds."""
    jobs = workload()
    errors: List[BaseException] = []

    def run(client_jobs) -> None:
        try:
            with make_client() as client:
                for job in client_jobs:
                    t0 = time.perf_counter()
                    metrics = client.eval(
                        job["point"], fidelity=1, session=job["session"]
                    )
                    if record_latency is not None:
                        record_latency(time.perf_counter() - t0)
                    expected = simulated_metrics(job["point"], 1)
                    assert metrics == expected, (metrics, expected)
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=run, args=(j,)) for j in jobs]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return elapsed


def service_config() -> ServiceConfig:
    return ServiceConfig(eval_threads=EVAL_THREADS)


def register_sessions(handle: ServeHandle, extra_s: float = 0.0) -> None:
    for name in SESSIONS:
        handle.service.register_evaluator(
            name, SimulatedClusterEvaluator(extra_s)
        )


def bench_single_node() -> Dict[str, float]:
    with ServeHandle(service_config()) as handle:
        register_sessions(handle)
        elapsed = drive(handle.client)
    total = CLIENTS * POINTS_PER_CLIENT
    return {"seconds": elapsed, "evals_per_s": total / elapsed}


def bench_cluster(replicas: int) -> Dict[str, float]:
    cluster = ClusterHandle(
        service_config(),
        replicas=replicas,
        router_config=RouterConfig(hedge_after_s=None),
    )
    with cluster:
        for replica in cluster.replica_handles:
            register_sessions(replica)
        elapsed = drive(cluster.client)
    total = CLIENTS * POINTS_PER_CLIENT
    return {"seconds": elapsed, "evals_per_s": total / elapsed}


def bench_hedging(hedge_after_s: Optional[float]) -> Dict[str, float]:
    """4 replicas, one straggler; per-request latency distribution."""
    cluster = ClusterHandle(
        service_config(),
        replicas=4,
        router_config=RouterConfig(hedge_after_s=hedge_after_s),
    )
    latencies: List[float] = []
    lock = threading.Lock()

    def record(latency_s: float) -> None:
        with lock:
            latencies.append(latency_s)

    with cluster:
        for index, replica in enumerate(cluster.replica_handles):
            # replica-0 pays an extra 250 ms per batch: the straggler
            # every production cluster eventually contains.
            register_sessions(
                replica, extra_s=STRAGGLER_EXTRA if index == 0 else 0.0
            )
        drive(cluster.client, record_latency=record)
        router = cluster.router
        hedges = router.metrics.counter("cluster.hedges").value
        hedge_wins = router.metrics.counter("cluster.hedge_wins").value
    latencies.sort()
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": latencies[int(0.99 * (len(latencies) - 1))] * 1e3,
        "max_ms": latencies[-1] * 1e3,
        "hedges": hedges,
        "hedge_wins": hedge_wins,
    }


def main() -> int:
    results: Dict[str, object] = {
        "workload": {
            "clients": CLIENTS,
            "points_per_client": POINTS_PER_CLIENT,
            "sessions": len(SESSIONS),
            "fidelity": 1,
            "batch_setup_s": BATCH_SETUP,
            "per_point_s": PER_POINT,
            "eval_threads_per_node": EVAL_THREADS,
            "straggler_extra_s": STRAGGLER_EXTRA,
            "hedge_after_s": HEDGE_AFTER_S,
        }
    }

    print("single node (direct, no router)...")
    single = bench_single_node()
    results["single_node"] = single
    print(f"  {single['evals_per_s']:.1f} evals/s ({single['seconds']:.2f}s)")

    throughput = {"single_node": single}
    for replicas in (1, 2, 4):
        print(f"router with {replicas} replica(s)...")
        r = bench_cluster(replicas)
        throughput[f"router_{replicas}"] = r
        print(f"  {r['evals_per_s']:.1f} evals/s ({r['seconds']:.2f}s)")
    results["throughput"] = throughput

    print("hedging off (4 replicas, one straggler)...")
    off = bench_hedging(None)
    print(f"  p50 {off['p50_ms']:.0f}ms  p99 {off['p99_ms']:.0f}ms")
    print(f"hedging on after {HEDGE_AFTER_S * 1e3:.0f}ms...")
    on = bench_hedging(HEDGE_AFTER_S)
    print(
        f"  p50 {on['p50_ms']:.0f}ms  p99 {on['p99_ms']:.0f}ms  "
        f"({on['hedges']:.0f} hedges, {on['hedge_wins']:.0f} wins)"
    )
    results["hedging"] = {"off": off, "on": on}

    speedup = (
        throughput["router_4"]["evals_per_s"] / single["evals_per_s"]
    )
    tail_cut = off["p99_ms"] / on["p99_ms"] if on["p99_ms"] else 1.0
    results["speedup_4_replicas"] = speedup
    results["p99_tail_cut"] = tail_cut
    print(f"4-replica speedup over single node: {speedup:.2f}x")
    print(f"hedging p99 tail cut: {tail_cut:.2f}x")

    out = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    if throughput["router_4"]["evals_per_s"] <= single["evals_per_s"]:
        print("FAIL: 4-replica throughput did not beat single node")
        return 1
    if on["hedge_wins"] < 1:
        print("FAIL: hedging never won against the straggler")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
