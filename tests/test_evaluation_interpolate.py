"""Tests for the evaluation engine, point coordinates, and Pareto tools."""

from __future__ import annotations

import numpy as np

from repro.core import (
    CachingEvaluator,
    DesignSpace,
    DiscreteParameter,
    EvaluationLog,
    EvaluationRecord,
    FunctionEvaluator,
    Objective,
    dominates,
    pareto_front,
    point_coordinates,
)


class TestCachingEvaluator:
    def _counting_evaluator(self):
        calls = []

        def func(point, fidelity):
            calls.append((dict(point), fidelity))
            return {"value": float(point["x"]) * (fidelity + 1)}

        return FunctionEvaluator(func, max_fidelity=3), calls

    def test_caches_same_fidelity(self):
        inner, calls = self._counting_evaluator()
        evaluator = CachingEvaluator(inner)
        evaluator.evaluate({"x": 1}, 1)
        evaluator.evaluate({"x": 1}, 1)
        assert len(calls) == 1

    def test_higher_fidelity_answers_lower_requests(self):
        inner, calls = self._counting_evaluator()
        evaluator = CachingEvaluator(inner)
        high = evaluator.evaluate({"x": 1}, 2)
        low = evaluator.evaluate({"x": 1}, 0)
        assert len(calls) == 1
        assert low == high

    def test_lower_fidelity_upgraded(self):
        inner, calls = self._counting_evaluator()
        evaluator = CachingEvaluator(inner)
        evaluator.evaluate({"x": 1}, 0)
        evaluator.evaluate({"x": 1}, 2)
        assert len(calls) == 2

    def test_log_records_everything(self):
        inner, _ = self._counting_evaluator()
        log = EvaluationLog()
        evaluator = CachingEvaluator(inner, log)
        evaluator.evaluate({"x": 1}, 0)
        evaluator.evaluate({"x": 2}, 1)
        assert log.n_evaluations == 2
        assert log.by_fidelity() == {0: 1, 1: 1}
        assert log.total_time_s >= 0.0


class TestEvaluationRecord:
    def test_round_trip_point(self):
        record = EvaluationRecord(
            point=(("a", 1), ("b", 2)), fidelity=1, metrics={"m": 3.0}
        )
        assert record.as_point() == {"a": 1, "b": 2}

    def test_str_readable(self):
        record = EvaluationRecord(
            point=(("a", 1),), fidelity=2, metrics={"m": 3.0}
        )
        assert "fid 2" in str(record) and "a=1" in str(record)


class TestInterpolation:
    def test_point_coordinates_normalized(self):
        space = DesignSpace(
            [DiscreteParameter("a", (10, 20, 30)), DiscreteParameter("b", (1,))]
        )
        coords = point_coordinates(space, {"a": 30, "b": 1})
        assert coords.tolist() == [1.0, 0.0]


class TestPareto:
    def _records(self):
        return [
            EvaluationRecord((("x", i),), 0, {"area": a, "ber": b})
            for i, (a, b) in enumerate(
                [(1.0, 0.5), (2.0, 0.1), (3.0, 0.05), (2.5, 0.2), (4.0, 0.4)]
            )
        ]

    def test_dominates(self):
        objectives = [Objective("area"), Objective("ber")]
        assert dominates({"area": 1, "ber": 1}, {"area": 2, "ber": 2}, objectives)
        assert not dominates(
            {"area": 1, "ber": 3}, {"area": 2, "ber": 2}, objectives
        )

    def test_dominates_requires_strict_improvement(self):
        objectives = [Objective("area")]
        assert not dominates({"area": 1}, {"area": 1}, objectives)

    def test_front_contents(self):
        objectives = [Objective("area"), Objective("ber")]
        front = pareto_front(self._records(), objectives)
        areas = [r.metrics["area"] for r in front]
        # (2.5, 0.2) is dominated by (2.0, 0.1); (4.0, 0.4) by (2.0, 0.1).
        assert areas == [1.0, 2.0, 3.0]

    def test_front_deduplicates_points(self):
        objectives = [Objective("area")]
        records = [
            EvaluationRecord((("x", 1),), 0, {"area": 5.0}),
            EvaluationRecord((("x", 1),), 1, {"area": 3.0}),
        ]
        front = pareto_front(records, objectives)
        assert len(front) == 1
        assert front[0].metrics["area"] == 3.0
