"""Tests for the multiresolution search and the baselines."""

from __future__ import annotations

import math
from typing import Dict

import pytest

from repro.core import (
    Constraint,
    ContinuousParameter,
    DesignGoal,
    DesignSpace,
    DiscreteParameter,
    ExhaustiveSearch,
    FunctionEvaluator,
    MetacoreSearch,
    Objective,
    RandomSearch,
    SearchConfig,
    SimulatedAnnealing,
)
from repro.errors import (
    ConfigurationError,
    DesignSpaceError,
)


def _space() -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter("a", tuple(range(0, 21))),
            DiscreteParameter("b", tuple(range(0, 21))),
        ]
    )


def _bowl_evaluator(optimum=(13, 7), fidelity_noise=0.0) -> FunctionEvaluator:
    """Smooth convex objective with a known optimum."""

    def func(point, fidelity) -> Dict[str, float]:
        a, b = float(point["a"]), float(point["b"])
        value = (a - optimum[0]) ** 2 + (b - optimum[1]) ** 2
        return {"cost": value + fidelity_noise / (fidelity + 1)}

    return FunctionEvaluator(func, max_fidelity=2)


def _goal() -> DesignGoal:
    return DesignGoal(objectives=[Objective("cost")])


class TestMetacoreSearch:
    @pytest.mark.parametrize("field", ["max_resolution", "refine_top_k"])
    def test_config_rejects_negative_settings(self, field):
        """A negative top-k would slice ``ranked[:-1]`` and refine every
        candidate but the worst; a negative depth means nothing."""
        with pytest.raises(ConfigurationError, match=field):
            SearchConfig(**{field: -1})
        assert getattr(SearchConfig(**{field: 0}), field) == 0

    def test_finds_optimum_of_smooth_bowl(self):
        search = MetacoreSearch(
            _space(), _goal(), _bowl_evaluator(),
            SearchConfig(max_resolution=4, refine_top_k=3),
        )
        result = search.run()
        assert result.feasible
        point = result.best_point
        assert abs(point["a"] - 13) <= 1 and abs(point["b"] - 7) <= 1

    def test_uses_fewer_evaluations_than_exhaustive(self):
        search = MetacoreSearch(
            _space(), _goal(), _bowl_evaluator(),
            SearchConfig(max_resolution=4, refine_top_k=3),
        )
        result = search.run()
        assert result.log.n_evaluations < 21 * 21 / 2

    def test_fidelity_grows_with_depth(self):
        search = MetacoreSearch(
            _space(), _goal(), _bowl_evaluator(),
            SearchConfig(max_resolution=3, refine_top_k=2),
        )
        result = search.run()
        by_fidelity = result.log.by_fidelity()
        assert 0 in by_fidelity
        assert max(by_fidelity) == 2  # evaluator's max fidelity

    def test_respects_constraints(self):
        def func(point, fidelity):
            return {
                "cost": float(point["a"]),
                "limit": float(point["b"]),
            }

        goal = DesignGoal(
            objectives=[Objective("cost")],
            constraints=[Constraint("limit", lower=15.0)],
        )
        search = MetacoreSearch(
            _space(), goal, FunctionEvaluator(func, 0),
            SearchConfig(max_resolution=3),
        )
        result = search.run()
        assert result.feasible
        assert result.best_point["b"] >= 15

    def test_infeasible_reported(self):
        def func(point, fidelity):
            return {"cost": 1.0, "limit": 0.0}

        goal = DesignGoal(
            objectives=[Objective("cost")],
            constraints=[Constraint("limit", lower=1.0)],
        )
        search = MetacoreSearch(
            _space(), goal, FunctionEvaluator(func, 0), SearchConfig()
        )
        result = search.run()
        assert not result.feasible

    def test_normalizer_applied(self):
        seen = []

        def func(point, fidelity):
            seen.append(dict(point))
            return {"cost": float(point["a"])}

        def normalizer(point):
            point = dict(point)
            point["b"] = 0
            return point

        search = MetacoreSearch(
            _space(), _goal(), FunctionEvaluator(func, 0),
            SearchConfig(max_resolution=1), normalizer=normalizer,
        )
        search.run()
        assert all(p["b"] == 0 for p in seen)

    def test_summary_readable(self):
        search = MetacoreSearch(
            _space(), _goal(), _bowl_evaluator(), SearchConfig(max_resolution=1)
        )
        text = search.run().summary()
        assert "evaluations" in text and "feasible" in text

    def test_continuous_dimension_search(self):
        space = DesignSpace(
            [
                ContinuousParameter("x", 0.0, 10.0),
                DiscreteParameter("d", (0, 1)),
            ]
        )

        def func(point, fidelity):
            return {"cost": (float(point["x"]) - 7.3) ** 2 + point["d"]}

        search = MetacoreSearch(
            space, _goal(), FunctionEvaluator(func, 0),
            SearchConfig(max_resolution=5, refine_top_k=2),
        )
        result = search.run()
        assert abs(result.best_point["x"] - 7.3) < 0.8
        assert result.best_point["d"] == 0


class TestBaselines:
    def test_exhaustive_finds_exact_optimum(self):
        result = ExhaustiveSearch(_space(), _goal(), _bowl_evaluator()).run()
        assert result.best_point == {"a": 13, "b": 7}
        assert result.log.n_evaluations == 21 * 21

    def test_exhaustive_refuses_huge_space(self):
        space = DesignSpace(
            [DiscreteParameter(f"p{i}", tuple(range(100))) for i in range(4)]
        )
        with pytest.raises(DesignSpaceError):
            ExhaustiveSearch(space, _goal(), _bowl_evaluator()).run(
                max_points=1000
            )

    def test_random_search_improves_with_budget(self):
        small = RandomSearch(_space(), _goal(), _bowl_evaluator()).run(
            n_samples=3, seed=1
        )
        large = RandomSearch(_space(), _goal(), _bowl_evaluator()).run(
            n_samples=200, seed=1
        )
        assert (
            large.best_metrics["cost"] <= small.best_metrics["cost"]
        )

    def test_random_search_reproducible(self):
        a = RandomSearch(_space(), _goal(), _bowl_evaluator()).run(50, seed=3)
        b = RandomSearch(_space(), _goal(), _bowl_evaluator()).run(50, seed=3)
        assert a.best_point == b.best_point

    def test_annealing_approaches_optimum(self):
        result = SimulatedAnnealing(_space(), _goal(), _bowl_evaluator()).run(
            n_steps=400, seed=5
        )
        point = result.best_point
        assert (point["a"] - 13) ** 2 + (point["b"] - 7) ** 2 <= 16

    def test_methods_labelled(self):
        assert ExhaustiveSearch(_space(), _goal(), _bowl_evaluator()).run().method == "exhaustive"
        assert RandomSearch(_space(), _goal(), _bowl_evaluator()).run(5).method == "random"
