"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py search <workload> <trace 0|1> <spans file>
    python3 perfbench/child.py serve <trace 0|1> <atlas file> <spans file>
    python3 perfbench/child.py setup <workload>

``search`` runs ``viterbi_search`` and prints one JSON
object: monotonic ready/begin/done stamps, the reference probes' seconds,
per-search seconds, the searches' selections, the exact counts, peak RSS
and, when traced, the per-layer metrics.  ``serve`` starts the
``served_mix`` cluster, prints its port and session names once both
sessions are registered, serves until a line arrives on stdin, then
prints its peak RSS, reference probe and per-layer metrics.  ``setup``
only imports and constructs, to sample set-up time.  With trace 1 the
wrappers of :mod:`tracing` are installed before anything runs.

The reference probe (``workloads.reference_s``) times a fixed piece of
interpreter work in the same process right before and right after the
workload; run.py divides the workload's times by it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
if os.environ.get("PERFBENCH_CPU"):
    # The CPU run.py keeps for the served_mix server (see run.pin_cpus).
    os.sched_setaffinity(0, {int(os.environ["PERFBENCH_CPU"])})

import tracing  # noqa: E402
import workloads  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _recorder(trace: bool):
    if not trace:
        return None
    recorder = tracing.Recorder()
    recorder.install()
    return recorder


def _search_facades(workload: str):
    from repro.core.objectives import BERThresholdCurve
    from repro.core.search import SearchConfig

    if workload == "viterbi_search":
        from repro.viterbi.metacore import ViterbiMetaCore, ViterbiSpec

        max_ber, throughput = workloads.VITERBI_SPEC
        spec = ViterbiSpec(
            throughput_bps=throughput,
            ber_curve=BERThresholdCurve.single(workloads.VITERBI_ES_N0_DB, max_ber),
        )
        return [
            ViterbiMetaCore(
                spec,
                fixed=dict(workloads.VITERBI_FIXED),
                config=SearchConfig(**workloads.VITERBI_CONFIG),
            )
        ]
    raise SystemExit(f"unknown search workload {workload!r}")


def run_search(workload: str, trace: bool, spans_path: str) -> dict:
    recorder = _recorder(trace)
    facades = _search_facades(workload)
    from repro.observability.metrics import get_registry

    ready = time.monotonic()
    reference = [workloads.reference_s()]
    begin = time.monotonic()
    search_s, selections = [], []
    evaluations, requests, hits = 0, 0, 0
    by_fidelity: dict = {}
    for facade in facades:
        start = time.monotonic()
        result = facade.search()
        search_s.append(time.monotonic() - start)
        selections.append(workloads.selection(result))
        evaluations += result.log.n_evaluations
        for fidelity, count in result.log.by_fidelity().items():
            by_fidelity[str(fidelity)] = by_fidelity.get(str(fidelity), 0) + count
        requests += result.cache_hits + result.cache_misses
        hits += result.cache_hits
    done = time.monotonic()
    reference.append(workloads.reference_s())
    steps = get_registry().get("ber.trellis_steps")
    out = {
        "ready": ready,
        "begin": begin,
        "done": done,
        "reference_s": reference,
        "search_s": search_s,
        "selections": selections,
        "counts": {
            "core.evaluations": evaluations,
            "core.evaluations_by_fidelity": by_fidelity,
            "core.requests": requests,
            "core.hits": hits,
            "viterbi.trellis_steps": int(steps.value) if steps is not None else 0,
        },
        "rss_mb": _rss_mb(),
    }
    if recorder is not None:
        out["layers"] = recorder.layer_metrics()
        out["layer_self_s"] = tracing.self_time_by_layer(out["layers"])
        recorder.dump(spans_path)
    return out


def run_serve(trace: bool, atlas_path: str, spans_path: str) -> None:
    recorder = _recorder(trace)
    from repro.cluster import ClusterHandle
    from repro.iir.metacore import IIRSpec
    from repro.serve import ServiceConfig

    # The ServiceConfig a facade's serve(replicas=2) builds by default.
    config = ServiceConfig(workers=1, cache_path=None, resilient=False, atlas_path=atlas_path)
    cluster = ClusterHandle(config, replicas=2, host="127.0.0.1", port=0)
    cluster.start()
    try:
        sessions = [
            cluster.register_spec(IIRSpec.paper(period)) for period in workloads.SERVED_PERIODS
        ]
        ready = time.monotonic()
        probe = workloads.reference_s()
        hello = {"port": cluster.port, "sessions": sessions, "ready": ready, "reference_s": probe}
        print(json.dumps(hello), flush=True)
        sys.stdin.readline()
        counts = _served_counts(cluster)
        probe = workloads.reference_s()
    finally:
        cluster.stop()
    out = {"rss_mb": _rss_mb(), "counts": counts, "reference_s": probe}
    if recorder is not None:
        out["layers"] = recorder.layer_metrics()
        out["layer_self_s"] = tracing.self_time_by_layer(out["layers"])
        recorder.dump(spans_path)
    print(json.dumps(out), flush=True)


def _served_counts(cluster) -> dict:
    """Evaluator counts summed over every replica's sessions."""
    evaluations, requests, hits = 0, 0, 0
    by_fidelity: dict = {}
    for handle in cluster.replica_handles:
        for session in handle.service.sessions():
            evaluator = session.evaluator
            evaluations += evaluator.log.n_evaluations
            for fidelity, count in evaluator.log.by_fidelity().items():
                by_fidelity[str(fidelity)] = by_fidelity.get(str(fidelity), 0) + count
            requests += evaluator.cache_hits + evaluator.cache_misses
            hits += evaluator.cache_hits
    return {
        "core.evaluations": evaluations,
        "core.evaluations_by_fidelity": by_fidelity,
        "core.requests": requests,
        "core.hits": hits,
        "viterbi.trellis_steps": 0,
    }


def run_setup(workload: str) -> dict:
    _search_facades(workload)
    return {"ready": time.monotonic()}


def main(argv) -> int:
    mode = argv[1]
    if mode == "search":
        out = run_search(argv[2], argv[3] == "1", argv[4])
    elif mode == "serve":
        run_serve(argv[2] == "1", argv[3], argv[4])
        return 0
    elif mode == "setup":
        out = run_setup(argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
