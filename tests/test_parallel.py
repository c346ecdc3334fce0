"""Parallel evaluation, persistent caching, and shared-table memoization."""

from __future__ import annotations

import hashlib
import threading
import time
import warnings
from typing import Dict

import pytest

from repro.core.evalcache import PersistentEvalCache, evaluator_fingerprint
from repro.core.evaluation import CachingEvaluator, FunctionEvaluator
from repro.core.objectives import DesignGoal, Objective
from repro.core.parallel import ParallelEvaluator
from repro.core.parameters import (
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Point,
    frozen_point,
)
from repro.core.search import MetacoreSearch, SearchConfig
from repro.viterbi.metrics import shared_metric_table
from repro.viterbi.quantize import AdaptiveQuantizer, FixedQuantizer, HardQuantizer
from repro.viterbi.trellis import trellis_for


class DeterministicEvaluator:
    """Picklable evaluator with metrics a pure function of the point."""

    def __init__(self, version: int = 1) -> None:
        self.max_fidelity = 2
        self.version = version

    def fingerprint(self) -> str:
        return f"deterministic:v{self.version}"

    def evaluate(self, point: Point, fidelity: int) -> Dict[str, float]:
        digest = hashlib.md5(
            repr(sorted(point.items())).encode("utf-8")
        ).digest()
        return {
            "area_mm2": 1.0 + int.from_bytes(digest[:4], "big") / 2**32,
            "fidelity_seen": float(fidelity),
        }


def small_space() -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter("a", (1, 2, 3, 4, 5), Correlation.MONOTONIC),
            DiscreteParameter("b", (10, 20, 30, 40), Correlation.MONOTONIC),
        ]
    )


def run_search(evaluator, store=None):
    return MetacoreSearch(
        small_space(),
        DesignGoal(objectives=[Objective("area_mm2")]),
        evaluator,
        config=SearchConfig(max_resolution=2, refine_top_k=2),
        store=store,
    ).run()


def result_signature(result):
    """Everything a SearchResult asserts, minus timing."""
    return (
        result.best_point,
        result.best_metrics,
        result.feasible,
        result.regions_explored,
        result.cache_hits,
        result.cache_misses,
        result.persistent_hits,
        [(r.point, r.fidelity, dict(r.metrics)) for r in result.log.records],
    )


class TestDeterminism:
    def test_parallel_search_is_bit_identical_to_serial(self):
        serial = run_search(DeterministicEvaluator())
        with ParallelEvaluator(DeterministicEvaluator(), workers=3) as parallel:
            assert parallel.parallel_enabled
            par = run_search(parallel)
        assert result_signature(par) == result_signature(serial)

    def test_parallel_results_preserve_request_order(self):
        points = [{"a": a, "b": b} for a in range(5) for b in range(4)]
        inner = DeterministicEvaluator()
        with ParallelEvaluator(DeterministicEvaluator(), workers=3) as parallel:
            batched = parallel.evaluate_many(points, 1)
        assert batched == [inner.evaluate(p, 1) for p in points]

    def test_workers_report_their_pid(self):
        points = [{"a": a, "b": 0} for a in range(8)]
        with ParallelEvaluator(DeterministicEvaluator(), workers=2) as parallel:
            timed = parallel.evaluate_many_timed(points, 0)
        assert all(t.worker is not None for t in timed)


class TestSerialFallback:
    def test_single_worker_never_spawns_a_pool(self):
        parallel = ParallelEvaluator(DeterministicEvaluator(), workers=1)
        assert not parallel.parallel_enabled
        points = [{"a": 1, "b": 10}, {"a": 2, "b": 20}]
        timed = parallel.evaluate_many_timed(points, 0)
        assert parallel._executor is None
        assert all(t.worker is None for t in timed)

    def test_unpicklable_evaluator_degrades_to_serial(self):
        state = {"calls": 0}

        def cost(point: Point, fidelity: int) -> Dict[str, float]:
            state["calls"] += 1  # closure over local state: unpicklable
            return {"area_mm2": float(point["a"])}

        parallel = ParallelEvaluator(FunctionEvaluator(cost), workers=4)
        assert not parallel.parallel_enabled
        results = parallel.evaluate_many([{"a": 1}, {"a": 2}], 0)
        assert [r["area_mm2"] for r in results] == [1.0, 2.0]
        assert state["calls"] == 2


class TestPersistentCache:
    def test_warm_rerun_reports_persistent_hits(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with PersistentEvalCache(path) as store:
            cold = run_search(DeterministicEvaluator(), store=store)
        assert cold.persistent_hits == 0
        assert cold.cache_misses > 0
        with PersistentEvalCache(path) as store:
            assert store.n_loaded > 0
            warm = run_search(DeterministicEvaluator(), store=store)
        assert warm.persistent_hits > 0
        assert warm.cache_misses < cold.cache_misses
        assert warm.best_point == cold.best_point
        assert warm.best_metrics == cold.best_metrics

    def test_fingerprint_change_invalidates_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with PersistentEvalCache(path) as store:
            run_search(DeterministicEvaluator(version=1), store=store)
        with PersistentEvalCache(path) as store:
            rerun = run_search(DeterministicEvaluator(version=2), store=store)
        assert rerun.persistent_hits == 0
        assert rerun.cache_misses > 0

    def test_higher_fidelity_answers_lower_requests(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c.jsonl")
        key = frozen_point({"a": 1})
        store.put("fp", key, 2, {"m": 1.0})
        assert store.get("fp", key, 1) == (2, {"m": 1.0})
        assert store.get("fp", key, 2) == (2, {"m": 1.0})
        # Lower-fidelity writes never downgrade the stored entry.
        assert not store.put("fp", key, 1, {"m": 9.0})
        assert store.get("fp", key, 2) == (2, {"m": 1.0})

    def test_survives_torn_tail_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = PersistentEvalCache(path)
        store.put("fp", frozen_point({"a": 1}), 0, {"m": 1.0})
        store.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema":1,"fp":"fp","poi')  # interrupted write
        reloaded = PersistentEvalCache(path)
        assert reloaded.n_loaded == 1

    def test_append_after_kill_at_every_offset_loses_nothing(self, tmp_path):
        # A writer killed mid-line leaves a fragment; the next append
        # must end it, not glue its first record onto it.
        path = tmp_path / "c.jsonl"
        with PersistentEvalCache(path) as store:
            for a in range(3):
                store.put("fp", frozen_point({"a": a}), 0, {"m": float(a)})
        data = path.read_bytes()
        last_line = data.rindex(b"\n", 0, len(data) - 1) + 1
        new_key = frozen_point({"a": 99})
        for cut in range(last_line, len(data)):
            path.write_bytes(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with PersistentEvalCache(path) as store:
                    assert store.put("fp", new_key, 0, {"m": 99.0})
                reloaded = PersistentEvalCache(path)
            assert reloaded.n_skipped <= 1, cut
            for a in range(2):
                assert reloaded.get("fp", frozen_point({"a": a}), 0) == (
                    0, {"m": float(a)}
                ), cut
            assert reloaded.get("fp", new_key, 0) == (0, {"m": 99.0}), cut

    def test_fingerprint_fallback_for_plain_evaluators(self):
        evaluator = FunctionEvaluator(lambda p, f: {"m": 0.0}, max_fidelity=3)
        fingerprint = evaluator_fingerprint(evaluator)
        assert "FunctionEvaluator" in fingerprint
        assert "max_fidelity=3" in fingerprint


class TestThreadSafety:
    def test_concurrent_requests_keep_counters_consistent(self):
        calls = []

        def cost(point: Point, fidelity: int) -> Dict[str, float]:
            calls.append(1)
            return {"m": float(point["i"])}

        caching = CachingEvaluator(FunctionEvaluator(cost))
        errors = []

        def hammer(offset: int) -> None:
            try:
                for i in range(50):
                    caching.evaluate({"i": (offset + i) % 20}, 0)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert caching.cache_hits + caching.cache_misses == 200
        assert caching.cache_misses == len(calls) == 20
        assert caching.log.n_evaluations == 20

    def test_cold_pool_is_created_once_under_concurrent_batches(
        self, monkeypatch
    ):
        """A served session's eval and search threads can reach a cold
        pool together; a second pool would leak its worker processes."""
        import sys

        import repro.core.parallel as parallel_module

        created = []

        class CountingPool(parallel_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                time.sleep(0.05)  # hold the window other threads race in
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", CountingPool)
        inner = DeterministicEvaluator()
        points = [{"a": 1, "b": 10}, {"a": 2, "b": 20}]
        barrier = threading.Barrier(4)
        results = []

        def batch() -> None:
            barrier.wait(timeout=10.0)
            results.append(parallel.evaluate_many(points, 0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ParallelEvaluator(inner, workers=2) as parallel:
                threads = [threading.Thread(target=batch) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(created) == 1
        expected = [inner.evaluate(p, 0) for p in points]
        assert results == [expected] * 4


class TestSharedConstruction:
    def test_trellis_is_memoized_per_code(self):
        first = trellis_for(5, (0o23, 0o35))
        second = trellis_for(5, [0o23, 0o35])
        assert first is second
        assert trellis_for(6, (0o53, 0o75)) is not first

    def test_metric_tables_shared_per_code_and_quantizer_spec(self):
        trellis = trellis_for(3, (0o5, 0o7))
        a = shared_metric_table(trellis, FixedQuantizer(3, 0.35))
        b = shared_metric_table(trellis, FixedQuantizer(3, 0.35))
        assert a is b
        assert shared_metric_table(trellis, FixedQuantizer(3, 0.5)) is not a
        assert shared_metric_table(trellis, AdaptiveQuantizer(3)) is not a
        assert shared_metric_table(trellis, HardQuantizer()) is not a

    def test_unknown_quantizer_subclass_gets_fresh_table(self):
        class OddQuantizer(FixedQuantizer):
            def cache_key(self):
                return None

        trellis = trellis_for(3, (0o5, 0o7))
        a = shared_metric_table(trellis, OddQuantizer(3))
        b = shared_metric_table(trellis, OddQuantizer(3))
        assert a is not b


class TestBatchSemantics:
    def test_duplicate_points_in_one_batch_compute_once(self):
        calls = []

        def cost(point: Point, fidelity: int) -> Dict[str, float]:
            calls.append(dict(point))
            return {"m": float(point["a"])}

        caching = CachingEvaluator(FunctionEvaluator(cost))
        results = caching.evaluate_many(
            [{"a": 1}, {"a": 2}, {"a": 1}, {"a": 2}], 0
        )
        assert [r["m"] for r in results] == [1.0, 2.0, 1.0, 2.0]
        assert len(calls) == 2
        assert caching.cache_hits == 2
        assert caching.cache_misses == 2

    def test_wall_time_is_tracked_separately_from_cpu(self):
        caching = CachingEvaluator(
            FunctionEvaluator(lambda p, f: {"m": 0.0})
        )
        caching.evaluate_many([{"a": 1}, {"a": 2}], 0)
        assert caching.log.wall_time_s >= 0.0
        assert caching.log.cpu_time_s == caching.log.total_time_s
