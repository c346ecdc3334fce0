"""JSONL export of traces/metrics and the trace-summary reducer.

One run, one file: every span and event streams to a JSONL file as it
closes, and a final ``metrics`` record snapshots the registry when the
sink shuts down.  The reducer (:func:`summarize_trace`) folds such a
file into per-stage totals — span count, total/mean/max wall-clock per
span name, event counts, and cache hit/miss counters — which
:func:`format_trace_report` renders as the ``trace-report`` CLI output.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Union

from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.trace import get_tracer


def _jsonable(value: Any) -> Any:
    """Best-effort conversion so exotic attrs never kill a run."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return str(value)


class JsonlSink:
    """Append-only JSONL writer usable as a tracer sink.

    Thread-safe: records from concurrent spans interleave but each line
    is written atomically under a lock.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self.n_records = 0

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one record as a JSON line (dropped after close)."""
        line = json.dumps(_jsonable(record), separators=(",", ":"))
        with self._lock:
            if self._file is None:
                return
            self._file.write(line + "\n")
            # Keep the buffer empty so a forked worker never inherits
            # (and re-flushes at exit) half-written parent records.
            self._file.flush()
            self.n_records += 1

    def write_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Snapshot a registry into the file as one ``metrics`` record."""
        registry = registry if registry is not None else get_registry()
        self.emit({"type": "metrics", "metrics": registry.snapshot()})

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def install_tracing(path: Union[str, Path]) -> JsonlSink:
    """Start recording the default tracer to a JSONL file.

    Returns the sink; pass it to :func:`shutdown_tracing` when the run
    finishes to flush the metrics snapshot and close the file.
    """
    sink = JsonlSink(path)
    get_tracer().set_sink(sink)
    return sink


def shutdown_tracing(
    sink: JsonlSink, registry: Optional[MetricsRegistry] = None
) -> None:
    """Flush metrics, detach the sink from the default tracer, close."""
    sink.write_metrics(registry)
    if get_tracer().sink is sink:
        get_tracer().set_sink(None)
    sink.close()


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield the records of a trace file, skipping malformed lines."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


# ---------------------------------------------------------------------------
# Summary reducer
# ---------------------------------------------------------------------------


@dataclass
class StageSummary:
    """Aggregated wall-clock of one span name across a run."""

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    errors: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, duration_s: float, status: str) -> None:
        self.count += 1
        self.total_s += duration_s
        self.max_s = max(self.max_s, duration_s)
        if status != "ok":
            self.errors += 1


@dataclass
class TraceSummary:
    """Per-stage totals of one trace file."""

    stages: Dict[str, StageSummary] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    #: Last metrics snapshot seen in the file (name -> snapshot dict).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    n_spans: int = 0
    n_events: int = 0

    @property
    def wall_clock_s(self) -> float:
        """Total time inside top-level stages (depth-0 spans only)."""
        return self._depth0_total

    _depth0_total: float = 0.0

    def counter_value(self, name: str) -> float:
        """Value of a counter from the metrics snapshot (0 if absent)."""
        snap = self.metrics.get(name)
        if snap and snap.get("type") == "counter":
            return float(snap.get("value", 0.0))
        return 0.0


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Reduce a JSONL trace file into per-stage totals."""
    summary = TraceSummary()
    for record in read_trace(path):
        kind = record.get("type")
        if kind == "span":
            name = str(record.get("name", "?"))
            duration = float(record.get("dur_s", 0.0))
            stage = summary.stages.get(name)
            if stage is None:
                stage = summary.stages[name] = StageSummary(name)
            stage.add(duration, str(record.get("status", "ok")))
            summary.n_spans += 1
            if int(record.get("depth", 0)) == 0:
                summary._depth0_total += duration
        elif kind == "event":
            name = str(record.get("name", "?"))
            summary.events[name] = summary.events.get(name, 0) + 1
            summary.n_events += 1
        elif kind == "metrics":
            metrics = record.get("metrics")
            if isinstance(metrics, dict):
                summary.metrics = metrics
    return summary


def _format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:8.1f}s"
    if seconds >= 0.1:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def format_trace_report(summary: TraceSummary) -> str:
    """Human-readable per-stage breakdown of a trace summary."""
    lines: List[str] = []
    lines.append("=" * 72)
    lines.append("trace report")
    lines.append("=" * 72)
    lines.append(
        f"spans: {summary.n_spans}, events: {summary.n_events}, "
        f"top-level wall clock: {summary.wall_clock_s:.3f} s"
    )
    if summary.stages:
        lines.append("")
        lines.append(
            f"{'stage':<32s} {'count':>7s} {'total':>10s} "
            f"{'mean':>10s} {'max':>10s}"
        )
        ordered = sorted(
            summary.stages.values(), key=lambda s: s.total_s, reverse=True
        )
        for stage in ordered:
            suffix = f"  ({stage.errors} errors)" if stage.errors else ""
            lines.append(
                f"{stage.name:<32s} {stage.count:>7d} "
                f"{_format_seconds(stage.total_s):>10s} "
                f"{_format_seconds(stage.mean_s):>10s} "
                f"{_format_seconds(stage.max_s):>10s}{suffix}"
            )
    if summary.events:
        lines.append("")
        lines.append("events:")
        for name in sorted(summary.events):
            lines.append(f"  {name:<30s} {summary.events[name]:>7d}")
    hits = summary.counter_value("evaluator.cache_hits")
    misses = summary.counter_value("evaluator.cache_misses")
    persistent = summary.counter_value("evaluator.persistent_hits")
    if hits or misses or persistent:
        total = hits + misses + persistent
        rate = 100.0 * hits / total if total else 0.0
        lines.append("")
        lines.append(
            f"evaluator cache: {int(hits)} hits / {int(misses)} misses / "
            f"{int(persistent)} persistent-hits ({rate:.1f}% hit rate)"
        )
    atlas_hits = summary.counter_value("atlas.hits")
    atlas_misses = summary.counter_value("atlas.misses")
    atlas_replayed = summary.counter_value("atlas.replayed")
    atlas_seeds = summary.counter_value("atlas.warm_seeds")
    atlas_skipped = summary.counter_value("atlas.levels_skipped")
    if atlas_hits or atlas_misses or atlas_replayed or atlas_seeds:
        lines.append(
            f"design atlas: {int(atlas_hits)} hits / "
            f"{int(atlas_misses)} misses / "
            f"{int(atlas_replayed)} replayed / "
            f"{int(atlas_seeds)} warm-seeds "
            f"({int(atlas_skipped)} levels skipped)"
        )
    routed = summary.counter_value("cluster.requests")
    failovers = summary.counter_value("cluster.failovers")
    if routed or failovers:
        lines.append(
            f"cluster: {int(routed)} routed / {int(failovers)} failovers"
        )
    cpu_s = summary.counter_value("evaluator.cpu_s")
    wall_s = summary.counter_value("evaluator.wall_s")
    if cpu_s or wall_s:
        speedup = cpu_s / wall_s if wall_s > 0 else 1.0
        lines.append(
            f"evaluator time: cpu {cpu_s:.3f}s / wall {wall_s:.3f}s "
            f"({speedup:.2f}x parallel speedup)"
        )
    kernel_names = sorted(
        name[len("ber.kernel."):-len(".frames")]
        for name in summary.metrics
        if name.startswith("ber.kernel.") and name.endswith(".frames")
    )
    for kernel in kernel_names:
        frames = summary.counter_value(f"ber.kernel.{kernel}.frames")
        steps = summary.counter_value(f"ber.kernel.{kernel}.steps")
        decode_s = summary.counter_value(f"ber.kernel.{kernel}.decode_s")
        steps_per_s = steps / decode_s if decode_s > 0 else 0.0
        lines.append(
            f"kernel: {kernel} — {int(frames)} frames decoded in "
            f"{decode_s:.3f}s ({steps_per_s / 1e3:.1f}k trellis steps/s)"
        )
    power_priced = summary.counter_value("power.priced")
    if power_priced:
        shares = []
        for name in sorted(summary.metrics):
            if name.startswith("power.priced.f"):
                count = summary.counter_value(name)
                pct = 100.0 * count / power_priced if power_priced else 0.0
                shares.append(f"{name[len('power.priced.'):]}={pct:.0f}%")
        detail = f" ({', '.join(shares)})" if shares else ""
        lines.append(
            f"power: {int(power_priced)} evaluations energy-priced{detail}"
        )
    counters = {
        name: snap
        for name, snap in sorted(summary.metrics.items())
        if snap.get("type") == "counter"
        and name
        not in (
            "evaluator.cache_hits",
            "evaluator.cache_misses",
            "evaluator.persistent_hits",
            "evaluator.cpu_s",
            "evaluator.wall_s",
            "atlas.hits",
            "atlas.misses",
            "atlas.replayed",
            "atlas.warm_seeds",
            "atlas.levels_skipped",
        )
        and not name.startswith("ber.kernel.")
        and not name.startswith("cluster.")
        and not name.startswith("power.")
    }
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, snap in counters.items():
            lines.append(f"  {name:<30s} {snap.get('value', 0):>12g}")
    histograms = {
        name: snap
        for name, snap in sorted(summary.metrics.items())
        if snap.get("type") == "histogram" and snap.get("count")
    }
    if histograms:
        lines.append("")
        lines.append("latency histograms:")
        for name, snap in histograms.items():
            count = int(snap.get("count", 0))
            total_s = float(snap.get("sum", 0.0))
            mean = total_s / count if count else 0.0
            lines.append(
                f"  {name:<30s} n={count:<7d} total={total_s:.3f}s "
                f"mean={mean * 1e3:.2f}ms max={float(snap.get('max') or 0.0) * 1e3:.2f}ms"
            )
    return "\n".join(lines)
