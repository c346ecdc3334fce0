"""Tests for the observability subsystem (tracing/metrics/export)."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.evaluation import CachingEvaluator, FunctionEvaluator
from repro.observability.export import (
    JsonlSink,
    format_trace_report,
    install_tracing,
    read_trace,
    shutdown_tracing,
    summarize_trace,
)
from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.observability.trace import Tracer, get_tracer


class ListSink:
    """In-memory sink for assertions."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def _clean_default_tracer():
    """Tests must never leave a sink on the process-wide tracer."""
    get_tracer().set_sink(None)
    yield
    get_tracer().set_sink(None)


class TestTracer:
    def test_disabled_span_is_noop(self):
        tracer = Tracer()
        with tracer.span("work", x=1) as sp:
            sp.set(y=2)
        assert not tracer.enabled
        assert tracer.current_span() is None

    def test_disabled_spans_are_shared(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")

    def test_span_records_duration_and_attrs(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("work", x=1) as sp:
            sp.set(y=2)
        (record,) = sink.records
        assert record["type"] == "span"
        assert record["name"] == "work"
        assert record["attrs"] == {"x": 1, "y": 2}
        assert record["dur_s"] >= 0.0
        assert record["status"] == "ok"

    def test_span_nesting_sets_parent_and_depth(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.current_span().name == "inner"
            assert tracer.current_span().name == "outer"
        inner, outer = sink.records  # inner closes first
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["depth"] == 0
        assert "parent" not in outer

    def test_exception_marks_error_and_propagates(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (record,) = sink.records
        assert record["status"] == "error"
        assert record["attrs"]["exception"] == "ValueError"
        # The stack unwound cleanly despite the exception.
        assert tracer.current_span() is None

    def test_event_attaches_current_span(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("stage"):
            tracer.event("milestone", n=3)
        event = sink.records[0]
        assert event["type"] == "event"
        assert event["name"] == "milestone"
        assert event["span"] == "stage"
        assert event["attrs"] == {"n": 3}

    def test_thread_local_stacks_are_independent(self):
        sink = ListSink()
        tracer = Tracer(sink)
        seen = {}

        def worker():
            with tracer.span("child-thread"):
                seen["parent"] = tracer.current_span()._parent

        with tracer.span("main-thread"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's span must not nest under this thread's.
        assert seen["parent"] is None

    def test_concurrent_tasks_keep_their_own_parents(self):
        """Two gathered coroutines holding a span across an ``await``
        both record it at the top level, not one inside the other."""
        sink = ListSink()
        tracer = Tracer(sink)

        async def route(release):
            with tracer.span("cluster.route"):
                await release.wait()
                with tracer.span("cluster.hop"):
                    pass

        async def main():
            release = asyncio.Event()
            tasks = asyncio.gather(route(release), route(release))
            await asyncio.sleep(0)  # both tasks are inside their span
            release.set()
            await tasks

        asyncio.run(main())
        routes = [r for r in sink.records if r["name"] == "cluster.route"]
        hops = [r for r in sink.records if r["name"] == "cluster.hop"]
        assert [r["depth"] for r in routes] == [0, 0]
        assert all("parent" not in r for r in routes)
        assert [(r["depth"], r["parent"]) for r in hops] == [
            (1, "cluster.route"), (1, "cluster.route")
        ]
        assert tracer.current_span() is None


class TestMetrics:
    def test_counter_only_goes_up(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_bucket_edges_are_inclusive(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)   # first bucket
        hist.observe(1.0)   # edge -> still first bucket (le semantics)
        hist.observe(1.5)   # second bucket
        hist.observe(2.0)   # edge -> second bucket
        hist.observe(99.0)  # overflow
        snap = hist.snapshot()
        assert snap["buckets"] == [1.0, 2.0]
        assert snap["counts"] == [2, 2, 1]  # last entry is overflow
        assert hist.count == 5
        assert hist.mean == pytest.approx((0.5 + 1.0 + 1.5 + 2.0 + 99.0) / 5)
        assert snap["min"] == 0.5 and snap["max"] == 99.0

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_registry_reuses_and_typechecks(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.gauge("g").set(4)
        registry.gauge("g").inc(-1)
        snap = registry.snapshot()
        assert snap["x"]["type"] == "counter"
        assert snap["g"]["value"] == 3
        registry.reset()
        assert registry.names() == []

    def test_default_registry_is_process_wide(self):
        assert get_registry() is get_registry()


class TestExportRoundTrip:
    def test_jsonl_round_trip_through_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        registry.counter("evaluator.cache_hits").inc(3)
        registry.counter("evaluator.cache_misses").inc(7)
        sink = install_tracing(path)
        tracer = get_tracer()
        assert tracer.sink is sink
        with tracer.span("search.run"):
            for level in range(2):
                with tracer.span("search.region", level=level):
                    pass
            tracer.event("ber.early_stop", bits=1000)
        shutdown_tracing(sink, registry)
        assert tracer.sink is None

        summary = summarize_trace(path)
        assert summary.n_spans == 3
        assert summary.n_events == 1
        assert summary.stages["search.region"].count == 2
        assert summary.stages["search.run"].count == 1
        assert summary.events["ber.early_stop"] == 1
        assert summary.counter_value("evaluator.cache_hits") == 3
        # Only the depth-0 span counts toward top-level wall clock.
        assert summary.wall_clock_s == pytest.approx(
            summary.stages["search.run"].total_s
        )

        report = format_trace_report(summary)
        assert "search.region" in report
        assert "3 hits / 7 misses" in report
        assert "ber.early_stop" in report

    def test_reducer_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        good = {"type": "span", "name": "ok", "dur_s": 0.5, "depth": 0,
                "status": "ok"}
        path.write_text("not json\n" + json.dumps(good) + "\n[1,2]\n")
        summary = summarize_trace(path)
        assert summary.n_spans == 1
        assert summary.stages["ok"].total_s == 0.5

    def test_sink_serializes_exotic_attrs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "event", "name": "e",
                       "attrs": {"obj": object(), "t": (1, 2)}})
        (record,) = list(read_trace(path))
        assert isinstance(record["attrs"]["obj"], str)
        assert record["attrs"]["t"] == [1, 2]

    def test_error_spans_reported(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = install_tracing(path)
        with pytest.raises(RuntimeError):
            with get_tracer().span("fragile"):
                raise RuntimeError("x")
        shutdown_tracing(sink)
        summary = summarize_trace(path)
        assert summary.stages["fragile"].errors == 1
        assert "(1 errors)" in format_trace_report(summary)


class TestCachingEvaluatorAccounting:
    def _evaluator(self, max_fidelity=2):
        calls = []

        def price(point, fidelity):
            calls.append((dict(point), fidelity))
            return {"cost": float(point["x"]) + fidelity}

        inner = FunctionEvaluator(price, max_fidelity=max_fidelity)
        return CachingEvaluator(inner), calls

    def test_hit_miss_counts(self):
        evaluator, calls = self._evaluator()
        evaluator.evaluate({"x": 1}, 0)
        evaluator.evaluate({"x": 1}, 0)  # hit
        evaluator.evaluate({"x": 2}, 0)  # miss
        assert evaluator.cache_hits == 1
        assert evaluator.cache_misses == 2
        assert evaluator.cache_upgrades == 0
        assert len(calls) == 2
        # The log records computed evaluations only, never hits.
        assert evaluator.log.n_evaluations == 2

    def test_lower_fidelity_answered_by_higher_is_a_hit(self):
        evaluator, calls = self._evaluator()
        evaluator.evaluate({"x": 1}, 2)
        result = evaluator.evaluate({"x": 1}, 0)
        assert result == {"cost": 3.0}  # the fidelity-2 answer
        assert evaluator.cache_hits == 1
        assert evaluator.cache_misses == 1
        assert len(calls) == 1

    def test_upgrade_is_a_miss_and_counted(self):
        evaluator, _ = self._evaluator()
        evaluator.evaluate({"x": 1}, 0)
        evaluator.evaluate({"x": 1}, 2)  # recompute at higher fidelity
        evaluator.evaluate({"x": 1}, 1)  # now answered from fidelity 2
        assert evaluator.cache_misses == 2
        assert evaluator.cache_upgrades == 1
        assert evaluator.cache_hits == 1

    def test_registry_counters_advance(self):
        registry = get_registry()
        registry.reset()
        evaluator, _ = self._evaluator()
        evaluator.evaluate({"x": 1}, 0)
        evaluator.evaluate({"x": 1}, 0)
        assert registry.counter("evaluator.cache_hits").value == 1
        assert registry.counter("evaluator.cache_misses").value == 1
        hist = registry.get("evaluator.latency_s.fid0")
        assert hist is not None and hist.count == 1

    def test_search_result_exposes_cache_stats(self):
        from repro.core.objectives import DesignGoal, Objective
        from repro.core.parameters import DesignSpace, DiscreteParameter
        from repro.core.search import MetacoreSearch, SearchConfig

        space = DesignSpace(
            [DiscreteParameter("x", tuple(range(8)))]
        )
        goal = DesignGoal(objectives=[Objective("cost")])

        def price(point, fidelity):
            return {"cost": float(point["x"])}

        search = MetacoreSearch(
            space,
            goal,
            FunctionEvaluator(price, max_fidelity=1),
            config=SearchConfig(max_resolution=1),
        )
        result = search.run()
        assert result.cache_misses == search.evaluator.cache_misses
        assert result.cache_hits == search.evaluator.cache_hits
        assert result.cache_hits + result.cache_misses >= result.log.n_evaluations
        assert "cache:" in result.summary()
