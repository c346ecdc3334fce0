"""Span recording for the traced benchmark runs.

The wrappers live here, in the benchmark, not in the program: a traced
child process replaces each layer's entry point with a wrapper *where
its caller looks the name up* (``repro.viterbi.metacore.optimize_machine``,
not ``repro.hardware.vliw.optimize_machine``), runs the workload, and
turns the recorded spans into per-layer metrics.

A span is ``(name, start, end, span_id, parent_id, request_id)``.  The
parent comes from a :mod:`contextvars` stack, which is per thread and,
under asyncio, per task, so concurrent coroutines on one event loop do
not adopt each other's spans; a task starts under the span that was
current when it was created.  Spans stay in memory until the workload
ends.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, Optional[int], Optional[int]]

_parent: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: (module, class or None, attribute, span name).  Each entry is patched
#: in the module its caller resolves it from.
SPAN_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.search", "MetacoreSearch", "run", "core.search"),
    ("repro.core.evaluation", "CachingEvaluator", "evaluate_many", "core.evaluate"),
    ("repro.viterbi.metacore", None, "optimize_machine", "hardware.optimize_machine"),
    ("repro.viterbi.ber", "BERSimulator", "measure", "viterbi.measure"),
    ("repro.iir.metacore", None, "check_quantized", "iir.check_quantized"),
    ("repro.iir.metacore", None, "realize", "iir.realize"),
    ("repro.iir.metacore", None, "design_filter", "iir.design"),
    ("repro.iir.metacore", None, "estimate_iir_implementation", "hardware.synthesis"),
    # repro.serve.service and the facades import these lazily from the
    # package at call time, so the package attribute is the lookup site.
    ("repro.atlas", None, "recommend", "atlas.recommend"),
    ("repro.atlas", None, "ingest_result", "atlas.ingest"),
    ("repro.serve.server", None, "encode_message", "serve.codec"),
    ("repro.serve.server", None, "decode_message", "serve.codec"),
    ("repro.cluster.connection", None, "encode_message", "serve.codec"),
    ("repro.cluster.connection", None, "decode_message", "serve.codec"),
    ("repro.cluster.router", "ClusterRouter", "dispatch", "cluster.dispatch"),
    ("repro.cluster.connection", "ReplicaConnection", "request", "cluster.hop"),
)

#: Called ~10^5 times per Viterbi search: counted, not spanned.
COUNT_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.hardware.vliw", None, "evaluate_machine", "hardware.machines_evaluated"),
)


class Recorder:
    """Collects spans and counts from the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Seconds point requests waited in the micro-batcher before
        #: the batch holding them started.
        self.queue_wait_s = 0.0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, original, name: str, new_request: bool):
        spans, ids, requests = self.spans, self._ids, self._requests
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = _parent.get()
                token = _parent.set(span_id)
                request_token = (
                    _request.set(next(requests)) if new_request else None
                )
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    end = clock()
                    spans.append(
                        (name, start, end, span_id, parent, _request.get())
                    )
                    if request_token is not None:
                        _request.reset(request_token)
                    _parent.reset(token)

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = _parent.get()
            token = _parent.set(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                spans.append((name, start, end, span_id, parent, _request.get()))
                _parent.reset(token)

        return wrapper

    def _count_wrapper(self, original, name: str):
        counts, lock = self.counts, self._lock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _batch_wrapper(self, original):
        recorder = self

        @functools.wraps(original)
        async def wrapper(service, key, requests):
            now = time.monotonic()
            waited = sum(now - request.enqueued_s for request in requests)
            with recorder._lock:
                recorder.queue_wait_s += waited
            return await original(service, key, requests)

        return wrapper

    def install(self) -> None:
        """Patch every target; a missing target is an error, not a skip."""
        for module_name, owner_name, attribute, name in SPAN_TARGETS:
            _patch(
                module_name,
                owner_name,
                attribute,
                lambda original, name=name: self._span_wrapper(
                    original, name, new_request=name == "cluster.dispatch"
                ),
            )
        for module_name, owner_name, attribute, name in COUNT_TARGETS:
            _patch(
                module_name,
                owner_name,
                attribute,
                lambda original, name=name: self._count_wrapper(original, name),
            )
        # Queue wait is read off each request's enqueue stamp when the
        # micro-batch holding it starts to run.
        _patch("repro.serve.service", "EvaluationService", "_run_batch", self._batch_wrapper)

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer seconds and call counts from the recorded spans."""
        spans = list(self.spans)
        by_id = {span[3]: span for span in spans}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append(span)

        def nested_in_same(span: Span) -> bool:
            parent = span[4]
            while parent is not None:
                ancestor = by_id.get(parent)
                if ancestor is None:
                    return False
                if ancestor[0] == span[0]:
                    return True
                parent = ancestor[4]
            return False

        inclusive: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in spans:
            name, start, end = span[0], span[1], span[2]
            calls[name] += 1
            covered = _covered(start, end, children.get(span[3], ()))
            self_s[name] += (end - start) - covered
            if not nested_in_same(span):
                inclusive[name] += end - start
        metrics: Dict[str, float] = {}
        for name in sorted(set(calls)):
            metrics[f"{name}_s"] = inclusive[name]
            metrics[f"{name}_self_s"] = self_s[name]
            metrics[f"{name}_calls"] = float(calls[name])
        for name, count in self.counts.items():
            metrics[name] = float(count)
        metrics["serve.queue_wait_s"] = self.queue_wait_s
        return metrics

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, id, parent, request)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_time_by_layer(metrics: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per layer (the first component of each span name)."""
    totals: Dict[str, float] = defaultdict(float)
    for key, value in metrics.items():
        if key.endswith("_self_s"):
            totals[key.split(".", 1)[0]] += value
    return dict(totals)


def _covered(start: float, end: float, spans: Sequence[Span]) -> float:
    """Length of [start, end] covered by the union of ``spans``."""
    intervals = sorted(
        (max(start, span[1]), min(end, span[2])) for span in spans
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _patch(module_name: str, owner_name: Optional[str], attribute: str, make) -> None:
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    original = owner.__dict__.get(attribute) if owner_name else getattr(module, attribute, None)
    if original is None:
        raise RuntimeError(f"trace target {module_name}.{owner_name or ''}.{attribute} is gone")
    setattr(owner, attribute, make(original))
