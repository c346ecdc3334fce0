"""Baseline search strategies.

The paper motivates multiresolution search by the infeasibility of
exhaustive enumeration over ~10**8 points.  These baselines make that
comparison measurable: exhaustive search (on spaces small enough),
uniform random sampling, and simulated annealing — all returning the
same :class:`~repro.core.search.SearchResult` so the ablation
benchmarks can compare evaluation counts and result quality directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.evaluation import (
    CachingEvaluator,
    EvaluationLog,
    EvaluationRecord,
    Evaluator,
    Metrics,
)
from repro.core.objectives import DesignGoal
from repro.core.parameters import (
    ContinuousParameter,
    DesignSpace,
    DiscreteParameter,
    Point,
    frozen_point,
)
from repro.core.search import PointNormalizer, SearchResult
from repro.errors import DesignSpaceError
from repro.utils.rng import make_rng


class _BaselineBase:
    """Shared evaluation/bookkeeping for baseline searches."""

    method = "baseline"

    def __init__(
        self,
        space: DesignSpace,
        goal: DesignGoal,
        evaluator: Evaluator,
        fidelity: Optional[int] = None,
        normalizer: Optional[PointNormalizer] = None,
    ) -> None:
        self.space = space
        self.goal = goal
        self.log = EvaluationLog()
        self.evaluator = CachingEvaluator(evaluator, self.log)
        self.fidelity = (
            self.evaluator.max_fidelity if fidelity is None else fidelity
        )
        self.normalizer = normalizer
        self._best_key: Optional[Tuple] = None
        self._best_metrics: Optional[Metrics] = None

    def _consider(self, point: Point) -> Metrics:
        if self.normalizer:
            point = self.normalizer(dict(point))
        metrics = self.evaluator.evaluate(point, self.fidelity)
        if self._best_metrics is None or self.goal.compare(
            metrics, self._best_metrics
        ) < 0:
            self._best_key = frozen_point(point)
            self._best_metrics = metrics
        return metrics

    def _result(self) -> SearchResult:
        best = None
        feasible = False
        if self._best_key is not None and self._best_metrics is not None:
            best = EvaluationRecord(
                point=self._best_key,
                fidelity=self.fidelity,
                metrics=dict(self._best_metrics),
            )
            feasible = self.goal.is_feasible(self._best_metrics)
        return SearchResult(
            best=best, feasible=feasible, log=self.log, method=self.method
        )


class ExhaustiveSearch(_BaselineBase):
    """Enumerate every point of a (discrete) design space.

    Refuses spaces larger than ``max_points`` — which is the paper's
    point: the full Viterbi space is ~10**8 and cannot be enumerated.
    """

    method = "exhaustive"

    def run(self, max_points: int = 100_000) -> SearchResult:
        size = self.space.size()
        if size > max_points:
            raise DesignSpaceError(
                f"space has {size:.3g} points; exhaustive search capped "
                f"at {max_points}"
            )
        for point in self.space.iter_points():
            self._consider(point)
        return self._result()


class RandomSearch(_BaselineBase):
    """Uniform random sampling of the design space."""

    method = "random"

    def run(self, n_samples: int = 100, seed: int = 0) -> SearchResult:
        rng = make_rng(seed)
        for _ in range(n_samples):
            self._consider(_random_point(self.space, rng))
        return self._result()


class SimulatedAnnealing(_BaselineBase):
    """Simulated annealing in grid-index space.

    Moves perturb one randomly chosen free parameter to a neighboring
    value; the acceptance temperature anneals geometrically.  Scores
    are the goal's feasibility-first ordering collapsed to a scalar
    (violation-dominated when infeasible).
    """

    method = "annealing"

    #: Penalty weight turning constraint violation into score units.
    VIOLATION_WEIGHT = 1.0e6

    def _score(self, metrics: Metrics) -> float:
        violation = self.goal.total_violation(metrics)
        if violation > 0:
            return self.VIOLATION_WEIGHT * (1.0 + violation)
        return self.goal.primary.score(metrics)

    def run(
        self,
        n_steps: int = 200,
        initial_temperature: float = 1.0,
        cooling: float = 0.97,
        seed: int = 0,
    ) -> SearchResult:
        rng = make_rng(seed)
        current = _random_point(self.space, rng)
        current_score = self._score(self._consider(current))
        temperature = initial_temperature
        for _ in range(n_steps):
            candidate = _neighbor_point(self.space, current, rng)
            score = self._score(self._consider(candidate))
            delta = score - current_score
            scale = max(abs(current_score), 1e-12)
            if delta <= 0 or rng.random() < np.exp(
                -delta / (scale * max(temperature, 1e-9))
            ):
                current, current_score = candidate, score
            temperature *= cooling
        return self._result()


def _random_point(space: DesignSpace, rng: np.random.Generator) -> Point:
    """One uniform draw from the design space."""
    point: Point = {}
    for parameter in space.parameters:
        if isinstance(parameter, DiscreteParameter):
            point[parameter.name] = parameter.values[
                int(rng.integers(parameter.size))
            ]
        elif isinstance(parameter, ContinuousParameter):
            point[parameter.name] = float(
                rng.uniform(parameter.lower, parameter.upper)
            )
    return point


def _neighbor_point(
    space: DesignSpace, point: Point, rng: np.random.Generator
) -> Point:
    """Perturb one free parameter to an adjacent value."""
    free = [p for p in space.parameters if not p.is_fixed]
    if not free:
        return dict(point)
    parameter = free[int(rng.integers(len(free)))]
    neighbor = dict(point)
    if isinstance(parameter, DiscreteParameter):
        index = parameter.index_of(point[parameter.name])
        step = 1 if rng.random() < 0.5 else -1
        index = min(max(index + step, 0), parameter.size - 1)
        neighbor[parameter.name] = parameter.values[index]
    else:
        span = parameter.upper - parameter.lower
        value = float(point[parameter.name]) + float(
            rng.normal(0.0, 0.1 * span)
        )
        neighbor[parameter.name] = min(max(value, parameter.lower), parameter.upper)
    return neighbor
