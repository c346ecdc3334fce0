"""Run one benchmark workload on the real cost engines and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metric definitions and the map from per-layer metrics to the
end-to-end metrics they should move are documented in ``workloads.py``.

With ``--trace 0`` the workload is repeated, each repetition in a fresh
process, until ``--seconds`` have passed; the end-to-end metrics are
medians over the repetitions, the ``_rel`` times each divided by a
reference probe timed around the workload (see ``workloads``), and
``setup_s`` is the median over the repetitions plus ``SETUP_PROBES``
set-up-only processes.  With ``--trace 1`` one
untraced and one traced repetition run; the per-layer metrics come from
the traced one.  On ``viterbi_search`` the two must agree on every
selection and exact count (served counts depend on timing).

Every repetition's outputs are checked: search selections equal the
values frozen in ``expected.json``; every served ``eval`` answer equals,
as canonical JSON, an in-process evaluation of the same point; every
``recommend`` answer satisfies its constraint.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a run that fails a check
reports no metrics.  The line before it is the run's record: commit,
host, CPU count, Python and numpy versions, seed, sample counts and the
medians of the measured times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
#: Run outputs: traced spans (kept) and per-run working files (removed).
OUTPUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Set-up-only processes per run, besides the repetitions' own set-up.
SETUP_PROBES = 3
#: Fewest repetitions a run makes, however long they take.
MIN_REPS = 3
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0
#: Environment of the child processes, set once the CPUs are split.
CHILD_ENV: Dict[str, str] = {}

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ref",
    "peak_rss_mb": "MB",
    "req_p50_rel": "ref",
    "req_p99_rel": "ref",
}

PER_LAYER = {
    "viterbi.measure_s": "s",
    "viterbi.measure_calls": "count",
    "viterbi.trellis_steps": "count",
    "viterbi.steps_per_s": "1/s",
    "hardware.optimize_machine_s": "s",
    "hardware.optimize_machine_calls": "count",
    "hardware.machines_evaluated": "count",
    "hardware.synthesis_s": "s",
    "hardware.synthesis_calls": "count",
    "iir.check_quantized_s": "s",
    "iir.check_quantized_calls": "count",
    "iir.realize_s": "s",
    "iir.realize_calls": "count",
    "iir.design_s": "s",
    "iir.design_calls": "count",
    "core.evaluations": "count",
    "core.evaluations_f0": "count",
    "core.evaluations_f1": "count",
    "core.evaluations_f2": "count",
    "core.evaluations_f3": "count",
    "core.requests": "count",
    "core.hit_ratio": "ratio",
    "core.evaluate_s": "s",
    "core.search_self_s": "s",
    "atlas.recommend_s": "s",
    "atlas.hit_ratio": "ratio",
    "atlas.ingest_s": "s",
    "serve.codec_s": "s",
    "serve.queue_wait_s": "s",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "cluster.dispatch_s": "s",
    "cluster.hop_s": "s",
    "cluster.router_self_s": "s",
    "cluster.max_replica_share": "ratio",
    "cluster.failovers": "count",
    "cluster.hedges": "count",
    "trace.wall_s": "s",
    "trace_overhead": "ratio",
}

#: Per-layer metrics read from the router's ``status`` answer.
STATUS_METRICS = (
    "atlas.hit_ratio",
    "serve.batches",
    "serve.batch_size_mean",
    "serve.rejected",
    "serve.timeouts",
    "cluster.max_replica_share",
    "cluster.failovers",
    "cluster.hedges",
)

#: Counts that must repeat exactly between an untraced and a traced run.
EXACT_COUNTS = (
    "core.evaluations",
    "core.evaluations_by_fidelity",
    "core.requests",
    "core.hits",
    "viterbi.trellis_steps",
)


class CheckFailed(Exception):
    """A workload's output differs from what the program must produce."""


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- child processes ---------------------------------------------------------


def pin_cpus(workload: str) -> Optional[int]:
    """For ``served_mix``, keep one CPU for the server, the rest for the clients.

    Interpreter-lock hand-offs between the server's threads on two CPUs
    measure the host's scheduler, not the program: unpinned, served_mix
    ran 40-60% slower and its p99 nearly doubled whenever the host was
    busy.  The single-threaded search workload stays unpinned, free to
    move off a busy CPU.  Returns the server's CPU, or None.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if workload != "served_mix" or len(cpus) < 2:
        return None
    os.sched_setaffinity(0, cpus[:-1])
    return cpus[-1]


def child_env(program_cpu: Optional[int]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    if program_cpu is not None:
        env["PERFBENCH_CPU"] = str(program_cpu)
    return env


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run child.py to completion; its last stdout line is JSON."""
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, CHILD, *args],
        stdout=subprocess.PIPE,
        env=CHILD_ENV,
        cwd=ROOT,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_line(proc: subprocess.Popen, deadline: float) -> Dict[str, Any]:
    """One JSON line from a running child, or an error at the deadline."""
    box: List[str] = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(max(1.0, deadline - time.monotonic()))
    if not box or not box[0]:
        raise RuntimeError("server child gave no answer")
    return json.loads(box[0])


# -- search workload ---------------------------------------------------------


def spans_file(workload: str, seed: int) -> str:
    """Where a traced repetition writes its spans (kept after the run)."""
    return os.path.join(OUTPUT, f"spans-{workload}-seed{seed}.jsonl")


def search_rep(workload: str, seed: int, trace: bool, deadline: float) -> Dict[str, Any]:
    start = time.monotonic()
    out = run_child(["search", workload, "1" if trace else "0", spans_file(workload, seed)], deadline)
    out["setup_s"] = out["ready"] - start
    out["wall_s"] = out["done"] - out["begin"]
    out["reference_s"] = statistics.mean(out["reference_s"])
    # A search workload is one request: one command, one answer.
    out["latencies_s"] = [out["wall_s"]]
    out["attempted"] = len(out["search_s"])
    out["failed"] = 0
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)[workload]
    got = json.loads(canonical(out["selections"]))
    if got != expected:
        raise CheckFailed(f"{workload} selected {canonical(got)}, expected {canonical(expected)}")
    return out


def setup_probe(workload: str, seed: int, work: str, deadline: float) -> float:
    start = time.monotonic()
    if workload == "served_mix":
        proc = start_server(False, work, seed)
        try:
            ready = read_line(proc, deadline)["ready"]
        finally:
            stop_server(proc, deadline)
        return ready - start
    return run_child(["setup", workload], deadline)["ready"] - start


# -- served_mix --------------------------------------------------------------


def start_server(trace: bool, work: str, seed: int) -> subprocess.Popen:
    atlas = os.path.join(work, "atlas.jsonl")
    if os.path.exists(atlas):
        os.remove(atlas)
    return subprocess.Popen(
        [sys.executable, CHILD, "serve", "1" if trace else "0", atlas,
         spans_file("served_mix", seed)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=CHILD_ENV,
        cwd=ROOT,
        text=True,
    )


def stop_server(proc: subprocess.Popen, deadline: float) -> Optional[Dict[str, Any]]:
    """Ask the server child to stop; its final JSON line, if it gave one."""
    final = None
    try:
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        final = read_line(proc, deadline)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return final


def run_client(port: int, session: str, index: int, seed: int, space, out: Dict[str, Any]) -> None:
    """One closed-loop client thread; an unexpected error is kept for the caller."""
    try:
        drive_client(port, session, index, seed, space, out)
    except Exception as exc:  # surfaced by served_rep after the join
        out["crash"] = f"{type(exc).__name__}: {exc}"


def drive_client(port: int, session: str, index: int, seed: int, space, out: Dict[str, Any]) -> None:
    """A served search, then the seeded request plan, closed loop."""
    from repro.serve.client import ServeClient, ServeConnectionError, ServeRequestError

    errors = (ServeRequestError, ServeConnectionError)
    plan = workloads.request_stream(seed, index, *space)
    latencies: List[float] = []
    answers: List[Any] = []
    out.update(latencies=latencies, answers=answers, failed=0, attempted=1 + len(plan))
    with ServeClient(port=port, max_retries=0, timeout_s=120.0) as client:
        start = time.perf_counter()
        try:
            search = client.search(session=session, config=dict(workloads.SERVED_SEARCH_CONFIG))
            best_area = float(search["best_metrics"]["area_mm2"])
            out["search"] = search
            out["search_s"] = time.perf_counter() - start
        except errors as exc:
            out["failed"] += 1
            out["error"] = f"search: {exc}"
            best_area = None
        for op, argument in plan:
            start = time.perf_counter()
            try:
                if op == "recommend":
                    if best_area is None:
                        raise ServeRequestError("no_search", "search failed")
                    bound = best_area * argument
                    answer = client.recommend(session=session, constraints={"area_mm2": bound})
                    answers.append(("recommend", bound, answer))
                else:
                    point = argument if op == "fresh" else plan[argument][1]
                    answer = client.eval(point, 0, session=session)
                    answers.append(("eval", point, answer))
                latencies.append(time.perf_counter() - start)
            except errors as exc:
                latencies.append(math.inf)
                out["failed"] += 1
                out.setdefault("error", f"{op}: {exc}")


class ServedCheck:
    """Checks served answers; in-process evaluations are shared by the
    repetitions of a run, which send the same seeded requests."""

    def __init__(self) -> None:
        from repro.iir.metacore import IIRMetacoreEvaluator, IIRSpec

        self.evaluators = [
            IIRMetacoreEvaluator(IIRSpec.paper(period)) for period in workloads.SERVED_PERIODS
        ]
        self.expected: List[Dict[str, str]] = [{} for _ in workloads.SERVED_PERIODS]

    def __call__(self, clients: List[Dict[str, Any]]) -> None:
        """Compare every eval with in-process evaluation; check recommends."""
        for client, evaluator, expected in zip(clients, self.evaluators, self.expected):
            if not client.get("search", {}).get("feasible"):
                raise CheckFailed(f"served search for {evaluator.spec} found no feasible design")
            for op, argument, answer in client["answers"]:
                if op == "eval":
                    key = canonical(argument)
                    if key not in expected:
                        expected[key] = canonical(evaluator.evaluate(json.loads(key), 0))
                    if canonical(answer) != expected[key]:
                        raise CheckFailed(f"served eval of {key} differs from in-process evaluation")
                    continue
                metrics = answer.get("metrics") or {}
                if not (
                    answer.get("feasible")
                    and metrics.get("area_mm2", math.inf) <= argument
                    and metrics.get("spec_violation", math.inf) <= 0.0
                ):
                    raise CheckFailed(f"recommend under area {argument} answered {canonical(answer)}")


def served_rep(
    trace: bool, seed: int, work: str, deadline: float, check: ServedCheck
) -> Dict[str, Any]:
    from repro.iir.metacore import FAMILIES, WORD_LENGTHS
    from repro.iir.structures.base import available_structures
    from repro.serve.client import ServeClient

    space = (available_structures(), list(FAMILIES), list(WORD_LENGTHS))
    start = time.monotonic()
    proc = start_server(trace, work, seed)
    final = None
    try:
        hello = read_line(proc, deadline)
        probes = [hello["reference_s"], workloads.reference_s()]
        begin = time.monotonic()
        clients: List[Dict[str, Any]] = [{}, {}]
        threads = [
            threading.Thread(
                target=run_client,
                args=(hello["port"], session, index, seed, space, clients[index]),
                daemon=True,
            )
            for index, session in enumerate(hello["sessions"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(1.0, deadline - time.monotonic()))
        done = time.monotonic()
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("served_mix clients did not finish in time")
        probes.append(workloads.reference_s())
        with ServeClient(port=hello["port"], max_retries=0) as client:
            status = client.status()
    finally:
        final = stop_server(proc, deadline)
    if final is None:
        raise RuntimeError("server child gave no final report")
    crashed = [client["crash"] for client in clients if "crash" in client]
    if crashed:
        raise RuntimeError(f"served_mix client failed: {crashed[0]}")
    check(clients)
    return {
        "setup_s": hello["ready"] - start,
        "wall_s": done - begin,
        "reference_s": statistics.mean(probes + [final["reference_s"]]),
        "search_s": [client.get("search_s", math.nan) for client in clients],
        "rss_mb": final["rss_mb"],
        "latencies_s": [x for client in clients for x in client["latencies"]],
        "attempted": sum(client["attempted"] for client in clients),
        "failed": sum(client["failed"] for client in clients),
        "errors": [client["error"] for client in clients if "error" in client],
        "status": status,
        "counts": final["counts"],
        "layers": final.get("layers"),
        "layer_self_s": final.get("layer_self_s"),
    }


# -- metrics -----------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def raw_times(rep: Dict[str, Any]) -> Dict[str, float]:
    """A repetition's measured times, in seconds."""
    return {
        "wall": rep["wall_s"],
        "req_p50": percentile(rep["latencies_s"], 0.50),
        "req_p99": percentile(rep["latencies_s"], 0.99),
    }


def end_to_end(reps: List[Dict[str, Any]], setup_samples: List[float]) -> Dict[str, float]:
    """Medians over the repetitions; times relative to the reference probe.

    ``X_rel`` is a repetition's time X divided by the mean of the
    reference probes timed around the workload, so a host that runs
    everything slower for a while (other tenants on its cores) moves
    both alike.
    """
    rel = [
        {name: value / rep["reference_s"] for name, value in raw_times(rep).items()}
        for rep in reps
    ]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }
    for name in ("wall", "req_p50", "req_p99"):
        metrics[f"{name}_rel"] = statistics.median(row[name] for row in rel)
    return metrics


def per_layer(traced: Dict[str, Any], base: Dict[str, Any]) -> Dict[str, float]:
    layers = traced["layers"]
    counts = traced["counts"]
    by_fidelity = counts["core.evaluations_by_fidelity"]

    def get(name: str) -> float:
        return float(layers.get(name, 0.0))

    requests = counts["core.requests"]
    steps = counts["viterbi.trellis_steps"]
    measure_s = get("viterbi.measure_s")
    metrics = {
        "viterbi.measure_s": measure_s,
        "viterbi.measure_calls": get("viterbi.measure_calls"),
        "viterbi.trellis_steps": steps,
        "viterbi.steps_per_s": steps / measure_s if measure_s else 0.0,
        "hardware.optimize_machine_s": get("hardware.optimize_machine_s"),
        "hardware.optimize_machine_calls": get("hardware.optimize_machine_calls"),
        "hardware.machines_evaluated": get("hardware.machines_evaluated"),
        "hardware.synthesis_s": get("hardware.synthesis_s"),
        "hardware.synthesis_calls": get("hardware.synthesis_calls"),
        "iir.check_quantized_s": get("iir.check_quantized_s"),
        "iir.check_quantized_calls": get("iir.check_quantized_calls"),
        "iir.realize_s": get("iir.realize_s"),
        "iir.realize_calls": get("iir.realize_calls"),
        "iir.design_s": get("iir.design_s"),
        "iir.design_calls": get("iir.design_calls"),
        "core.evaluations": counts["core.evaluations"],
        "core.requests": requests,
        "core.hit_ratio": counts["core.hits"] / requests if requests else 0.0,
        "core.evaluate_s": get("core.evaluate_s"),
        "core.search_self_s": get("core.search_self_s"),
        "atlas.recommend_s": get("atlas.recommend_s"),
        "atlas.ingest_s": get("atlas.ingest_s"),
        "serve.codec_s": get("serve.codec_s"),
        "serve.queue_wait_s": get("serve.queue_wait_s"),
        "cluster.dispatch_s": get("cluster.dispatch_s"),
        "cluster.hop_s": get("cluster.hop_s"),
        "cluster.router_self_s": get("cluster.dispatch_self_s"),
        "trace.wall_s": traced["wall_s"],
        # Each repetition's wall relative to its own reference probe.
        "trace_overhead": (traced["wall_s"] / traced["reference_s"])
        / (base["wall_s"] / base["reference_s"]) - 1.0,
    }
    for fidelity in range(4):
        metrics[f"core.evaluations_f{fidelity}"] = by_fidelity.get(str(fidelity), 0)
    metrics.update(status_counts(traced.get("status")))
    return metrics


def status_counts(status: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Serve and cluster counts from the router's ``status`` answer
    (all zero on ``viterbi_search``, which serves nothing)."""
    if status is None:
        return dict.fromkeys(STATUS_METRICS, 0.0)
    rows = [row.get("status") or {} for row in status["replicas"]]
    counters = status.get("cluster") or {}
    batches = sum(row.get("batches", 0) for row in rows)
    sized = sum(row["batch_size"]["mean"] * row["batch_size"]["count"] for row in rows)
    sized_n = sum(row["batch_size"]["count"] for row in rows)
    recommends = sum(row.get("recommends", 0) for row in rows)
    atlas_hits = sum((row.get("atlas") or {}).get("hits", 0) for row in rows)
    routed = [value for name, value in counters.items() if name.startswith("cluster.routed.")]
    return {
        "atlas.hit_ratio": atlas_hits / recommends if recommends else 0.0,
        "serve.batches": float(batches),
        "serve.batch_size_mean": sized / sized_n if sized_n else 0.0,
        "serve.rejected": float(sum(row.get("rejected", 0) for row in rows)),
        "serve.timeouts": float(sum(row.get("timeouts", 0) for row in rows)),
        "cluster.max_replica_share": max(routed) / sum(routed) if routed else 0.0,
        "cluster.failovers": float(counters.get("cluster.failovers", 0)),
        "cluster.hedges": float(counters.get("cluster.hedges", 0)),
    }


# -- the run record ----------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha1()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(args, reps: List[Dict[str, Any]], setup_samples: List[float]) -> Dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha1": source_digest(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repetitions": len(reps),
        "setup_samples": len(setup_samples),
        "request_samples": sum(len(rep["latencies_s"]) for rep in reps),
        # Medians of the measured times the _rel metrics are made from.
        "median_s": {
            name: statistics.median(raw_times(rep)[name] for rep in reps)
            for name in ("wall", "req_p50", "req_p99")
        },
        "median_reference_s": statistics.median(rep["reference_s"] for rep in reps),
    }


# -- main --------------------------------------------------------------------


def run_rep(args, trace: bool, work: str, deadline: float, check=None) -> Dict[str, Any]:
    if args.workload == "served_mix":
        rep = served_rep(trace, args.seed, work, deadline, check)
    else:
        rep = search_rep(args.workload, args.seed, trace, deadline)
    times = raw_times(rep)
    log(
        f"  {'traced' if trace else 'untraced'} repetition: setup {rep['setup_s']:.3f} s, "
        f"wall {rep['wall_s']:.3f} s, reference {rep['reference_s']:.3f} s, "
        f"p50 {1e3 * times['req_p50']:.3f} ms, p99 {1e3 * times['req_p99']:.3f} ms, "
        f"rss {rep['rss_mb']:.1f} MB, "
        f"searches {' '.join(f'{s:.2f}' for s in rep['search_s'])} s"
    )
    return rep


def check_exact(base: Dict[str, Any], traced: Dict[str, Any]) -> None:
    for name in EXACT_COUNTS:
        if canonical(base["counts"][name]) != canonical(traced["counts"][name]):
            raise CheckFailed(
                f"{name} differs between untraced ({base['counts'][name]}) "
                f"and traced ({traced['counts'][name]}) runs"
            )


def measure(args, work: str, deadline: float):
    """Run the repetitions; returns (reps, setup samples, metrics)."""
    check = ServedCheck() if args.workload == "served_mix" else None
    if args.trace:
        base = run_rep(args, False, work, deadline, check)
        traced = run_rep(args, True, work, deadline, check)
        if args.workload != "served_mix":
            check_exact(base, traced)
        reps = [base, traced]
        return reps, [base["setup_s"]], per_layer(traced, base)
    start = time.monotonic()
    setup_samples = [
        setup_probe(args.workload, args.seed, work, deadline) for _ in range(SETUP_PROBES)
    ]
    reps: List[Dict[str, Any]] = []
    longest = 0.0
    # Repeat while the next repetition still fits in --seconds (counted
    # from the first probe), and at least MIN_REPS times.
    while len(reps) < MIN_REPS or time.monotonic() - start + longest <= args.seconds:
        rep_start = time.monotonic()
        reps.append(run_rep(args, False, work, deadline, check))
        longest = max(longest, time.monotonic() - rep_start)
        if longest > deadline - time.monotonic():
            break
    setup_samples += [rep["setup_s"] for rep in reps]
    return reps, setup_samples, end_to_end(reps, setup_samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: the program's sources are missing under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    CHILD_ENV.update(child_env(pin_cpus(args.workload)))
    work = os.path.join(OUTPUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    log(f"perfbench: {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    try:
        reps, setup_samples, metrics = measure(args, work, deadline)
    except CheckFailed as exc:
        log(f"perfbench: CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        for error in rep.get("errors", ()):
            log(f"perfbench: failed operation: {error}")
    units = PER_LAYER if args.trace else END_TO_END
    for name in units:
        log(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    if args.trace:
        traced = reps[-1]
        wall = traced["wall_s"]
        layers = dict(traced["layer_self_s"])
        if args.workload == "served_mix":
            # Server threads overlap, and a wait on another thread counts
            # as the waiter's self time, so shares can exceed 100%.
            log(f"  self time by layer, summed over server threads (traced wall {wall:.3f} s):")
        else:
            log(f"  self time by layer (traced wall {wall:.3f} s):")
            layers["unwrapped"] = wall - sum(layers.values())
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            log(f"    {layer:10s} {seconds:10.3f} s  {100 * seconds / wall:6.1f}%")
    print(json.dumps({"perfbench_record": record(args, reps, setup_samples)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        } if failed == 0 else {},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
