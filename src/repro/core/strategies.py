"""Pluggable search strategies beside the multiresolution grid funnel.

The paper's search (Sec. 4.4, :mod:`repro.core.search`) explores the
design space with a recursive grid; this module adds two alternative
exploration strategies that reuse the same evaluator stack, ranking
map, Bayesian regularization, and confirmation pass — so caching,
parallel workers, checkpoints, atlas warm starts, and the serve layer
compose with them unchanged:

- :class:`EvolutionaryStrategy` (``strategy="evolve"``): a seeded
  evolutionary search — the coarse grid seeds an initial population,
  then tournament selection plus neighbor mutation breed offspring
  generations at escalating fidelity.  Every random draw derives from
  ``SearchConfig.strategy_seed`` and the generation index alone, so
  serial, parallel, and checkpoint-resumed runs take bit-identical
  paths.
- :class:`SurrogateStrategy` (``strategy="surrogate"``): the grid
  funnel with model-ranked pruning — a cheap ridge-regression /
  nearest-neighbor blend (:class:`SurrogateModel`) is fitted on the
  normalized coordinates of everything evaluated so far (including
  atlas-replayed records) and ranks each refined grid before paying
  for it; only the most promising fraction is evaluated.  The strategy
  is RNG-free: ranking ties break on the frozen design point, so the
  selection is deterministic under any candidate ordering.  When too
  little training data exists to fit a model, a level falls back to
  evaluating its full grid (the plain grid behavior).

Both strategies leave their candidates in the search's ranked map and
let :meth:`MetacoreSearch._confirm_winner` re-price the leaders at the
evaluator's top fidelity — cheap evaluations rank, expensive ones
decide, exactly as in the grid funnel.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluation import Metrics
from repro.core.grid import GridSample, Region
from repro.core.objectives import DesignGoal
from repro.core.parameters import (
    ContinuousParameter,
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Point,
    frozen_point,
)
from repro.errors import ConfigurationError
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer
from repro.utils.rng import spawn_rng

#: The strategies :class:`repro.core.search.MetacoreSearch` dispatches on.
STRATEGIES = ("grid", "evolve", "surrogate")

#: Penalty weight collapsing constraint violation into score units
#: (matches the annealing baseline's scalarization).
VIOLATION_WEIGHT = 1.0e6


def validate_strategy(name: str) -> str:
    """Return ``name`` lower-cased, or raise on an unknown strategy."""
    normalized = str(name).lower()
    if normalized not in STRATEGIES:
        raise ConfigurationError(
            f"unknown search strategy {name!r}; "
            f"choose one of {', '.join(STRATEGIES)}"
        )
    return normalized


def goal_scalar(goal: DesignGoal, metrics: Metrics) -> float:
    """Feasibility-first scalar score (lower is better).

    Infeasible points score ``VIOLATION_WEIGHT * (1 + violation)`` so
    any feasible point beats any infeasible one; feasible points score
    their primary objective.  Mirrors the total order of
    :meth:`DesignGoal.compare` closely enough for model fitting.
    """
    violation = goal.total_violation(metrics)
    if violation > 0:
        if not math.isfinite(violation):
            return math.inf
        return VIOLATION_WEIGHT * (1.0 + violation)
    return goal.primary.score(metrics)


# ---------------------------------------------------------------------------
# The regression surrogate
# ---------------------------------------------------------------------------


def model_features(space: DesignSpace, point: Point) -> np.ndarray:
    """Regression features of a design point.

    Correlated parameters map to one normalized [0, 1] coordinate (the
    same mapping :func:`repro.core.interpolate.point_coordinates`
    uses); *non-correlated* discrete parameters (categorical choices
    like a filter structure) are one-hot encoded instead — a linear
    model can then learn a per-category offset, where a fake numeric
    ordering of the categories would only inject noise.
    """
    features: List[float] = []
    for parameter in space.parameters:
        value = point[parameter.name]
        if isinstance(parameter, DiscreteParameter):
            if parameter.correlation is Correlation.NONE:
                index = parameter.index_of(value)
                features.extend(
                    1.0 if i == index else 0.0
                    for i in range(parameter.size)
                )
            elif parameter.size == 1:
                features.append(0.0)
            else:
                features.append(
                    parameter.index_of(value) / (parameter.size - 1)
                )
        elif isinstance(parameter, ContinuousParameter):
            span = parameter.upper - parameter.lower
            features.append(
                0.0
                if span == 0
                else (float(value) - parameter.lower) / span
            )
    return np.asarray(features, dtype=float)


class SurrogateModel:
    """Ridge regression blended with nearest-neighbor lookup.

    Features are the normalized unit-cube coordinates of a design point
    (:func:`model_features`, one-hot for categoricals); the target is
    the scalarized goal score.  The ridge half captures the smooth
    global trend (area and throughput are smooth in the paper's own
    words), the nearest-neighbor half keeps the model exact near
    training samples, where the funnel refines.

    The model is fully deterministic: fitting solves a closed-form
    normal equation and prediction is a pure function of the point, so
    :meth:`rank` orders any candidate list identically regardless of
    the order the candidates are presented in (ties break on the
    frozen design point).
    """

    def __init__(
        self,
        space: DesignSpace,
        ridge_lambda: float = 1e-3,
        nn_weight: float = 0.5,
    ) -> None:
        self.space = space
        self.ridge_lambda = float(ridge_lambda)
        self.nn_weight = float(nn_weight)
        self._weights: Optional[np.ndarray] = None
        self._train_coords: Optional[np.ndarray] = None
        self._train_scores: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    @property
    def n_samples(self) -> int:
        return 0 if self._train_scores is None else len(self._train_scores)

    def fit(self, points: Sequence[Point], scores: Sequence[float]) -> bool:
        """Fit on (point, scalar score) samples; returns fit success.

        Infeasible samples carry a :data:`VIOLATION_WEIGHT`-scale
        penalty that would swamp the regression: a feasible candidate
        whose nearest training neighbor happens to be infeasible would
        inherit a penalty-scale prediction and be pruned no matter how
        good its own region looks.  They are instead compressed
        monotonically into a narrow band one score-span above the worst
        feasible sample — still repelling the ranking, ordered by
        violation, without poisoning their feasible neighbors.
        Non-finite scores (dead points) land at the top of that band.
        With no finite sample at all the model stays unfitted (the
        strategy then falls back to grid evaluation).
        """
        if len(points) != len(scores):
            raise ConfigurationError("points and scores lengths disagree")
        if not points:
            return False
        y = np.asarray([float(s) for s in scores], dtype=float)
        finite = np.isfinite(y)
        if not finite.any():
            return False
        feasible = finite & (y < VIOLATION_WEIGHT)
        if feasible.any():
            lo = float(y[feasible].min())
            hi = float(y[feasible].max())
        else:
            lo, hi = 0.0, 1.0
        cap = hi + max(hi - lo, 1.0)
        safe = np.where(finite, y, np.inf)
        y = np.where(
            feasible, y, cap + np.arctan(safe / VIOLATION_WEIGHT)
        )
        coords = np.vstack(
            [model_features(self.space, point) for point in points]
        )
        design = np.hstack([coords, np.ones((coords.shape[0], 1))])
        gram = design.T @ design + self.ridge_lambda * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ y)
        self._train_coords = coords
        self._train_scores = y
        return True

    def predict(self, point: Point) -> float:
        """Predicted scalar score of a single point (lower = better)."""
        return float(self.predict_many([point])[0])

    def predict_many(self, points: Sequence[Point]) -> np.ndarray:
        """Vectorized prediction; aligns with ``points`` order."""
        if not self.is_fitted:
            raise ConfigurationError("surrogate model is not fitted")
        assert self._train_coords is not None
        assert self._train_scores is not None
        if len(points) == 0:
            return np.empty(0, dtype=float)
        coords = np.vstack(
            [model_features(self.space, point) for point in points]
        )
        design = np.hstack([coords, np.ones((coords.shape[0], 1))])
        ridge = design @ self._weights
        # Nearest training neighbor; distance ties resolve to the best
        # (lowest) score among the tied neighbors, which is independent
        # of training insertion order.
        distances = np.linalg.norm(
            coords[:, None, :] - self._train_coords[None, :, :], axis=2
        )
        nearest = distances.min(axis=1)
        nn = np.array(
            [
                self._train_scores[
                    np.isclose(row, near, rtol=0.0, atol=1e-12)
                ].min()
                for row, near in zip(distances, nearest)
            ]
        )
        return (1.0 - self.nn_weight) * ridge + self.nn_weight * nn

    def rank(self, points: Sequence[Point]) -> List[int]:
        """Indices of ``points`` ordered best-predicted first.

        The order is invariant under any shuffle of ``points``:
        predictions are pure per-point functions and ties break on the
        frozen (sorted-key) design point, never on list position.
        """
        predictions = self.predict_many(points)
        keyed = [
            (float(prediction), frozen_point(point), index)
            for index, (prediction, point) in enumerate(
                zip(predictions, points)
            )
        ]
        keyed.sort(key=lambda item: (item[0], _tie_key(item[1])))
        return [index for _, _, index in keyed]


def _tie_key(key: Tuple) -> Tuple:
    """A totally ordered stand-in for a frozen point (mixed types)."""
    return tuple((name, repr(value)) for name, value in key)


# ---------------------------------------------------------------------------
# Exploration strategies (driven by MetacoreSearch)
# ---------------------------------------------------------------------------


class EvolutionaryStrategy:
    """Seeded tournament-selection + mutation exploration.

    The coarse grid (the same one the grid funnel starts from) seeds
    and prices the initial population at fidelity 0; each generation
    then breeds ``evolve_population`` offspring by binary tournament
    over the current elite and a neighbor mutation of the winner, and
    prices them at a fidelity that escalates with the generation index
    — cheap early exploration, accurate late refinement, exactly the
    funnel's schedule.

    Determinism: each generation's RNG is
    ``spawn_rng(strategy_seed, "evolve", generation)`` and offspring
    are bred serially before the batch is priced, so the path depends
    only on the seed and the (deterministic) evaluated metrics — never
    on timing, worker count, or checkpoint replay.
    """

    name = "evolve"

    def __init__(self, search) -> None:
        self.search = search

    def explore(self) -> int:
        """Populate the search's ranked map; returns evaluations saved.

        "Saved" counts evaluation requests answered by the cache
        (offspring that re-proposed an already-priced design at the
        same or lower fidelity) — proposals that cost nothing.
        """
        search = self.search
        config = search.config
        registry = get_registry()
        tracer = get_tracer()
        population_size = max(2, int(config.evolve_population))
        generations = max(0, int(config.evolve_generations))
        hits_before = search.evaluator.cache_hits
        full = Region.full(search.space)
        search._regions_seen.add((full.bounds, 0))
        registry.counter("search.regions").inc()
        with tracer.span("search.evolve.seed") as seed_span:
            seeds = self._initial_population(full, population_size)
            priced = search.evaluator.evaluate_many(
                seeds, search._fidelity_for_level(0)
            )
            for seed, raw_metrics in zip(seeds, priced):
                metrics = search._apply_bayes(seed, dict(raw_metrics))
                search._record_ranked(frozen_point(seed), metrics)
            seed_span.set(seeds=len(seeds))
        population = self._elite(population_size)
        for generation in range(1, generations + 1):
            if not population:
                break
            level = min(generation, config.max_resolution)
            fidelity = search._fidelity_for_level(level)
            rng = spawn_rng(config.strategy_seed, "evolve", generation)
            offspring: List[Point] = []
            batch_keys: set = set()
            for _ in range(population_size):
                parent = self._tournament(population, rng)
                child = search._normalize(
                    _mutate_point(search.space, dict(parent), rng)
                )
                key = frozen_point(child)
                if key in batch_keys:
                    continue  # duplicate proposal within the batch
                batch_keys.add(key)
                offspring.append(child)
            with tracer.span(
                "search.evolve.generation",
                generation=generation,
                fidelity=fidelity,
                offspring=len(offspring),
            ):
                priced = search.evaluator.evaluate_many(offspring, fidelity)
                for child, raw_metrics in zip(offspring, priced):
                    metrics = search._apply_bayes(child, dict(raw_metrics))
                    search._record_ranked(frozen_point(child), metrics)
            population = self._elite(population_size)
        self._polish()
        saved = search.evaluator.cache_hits - hits_before
        registry.counter(f"search.strategy.{self.name}.evals_saved").inc(
            saved
        )
        return saved

    def _initial_population(
        self, full: Region, population_size: int
    ) -> List[Point]:
        """Coarse grid corners plus seeded uniform draws.

        The coarse grid anchors the population on the same footing the
        grid funnel starts from; uniform draws (derived from the
        strategy seed alone) add the diversity a 2-samples-per-axis
        grid lacks.
        """
        search = self.search
        config = search.config
        grid = full.grid(0, config.max_grid_points)
        seeds: List[Point] = []
        seen: set = set()
        for raw in grid.points:
            point = search._normalize(dict(raw))
            key = frozen_point(point)
            if key in seen:
                continue
            seen.add(key)
            seeds.append(point)
        rng = spawn_rng(config.strategy_seed, "evolve", "init")
        attempts = 0
        while len(seeds) < population_size and attempts < 20 * population_size:
            attempts += 1
            point = search._normalize(_random_point(search.space, rng))
            key = frozen_point(point)
            if key in seen:
                continue
            seen.add(key)
            seeds.append(point)
        return seeds

    def _elite(self, population_size: int) -> List[Point]:
        """The current top candidates of the whole ranked map."""
        search = self.search
        ranked = search._ranked
        keys = sorted(
            ranked,
            key=cmp_to_key(
                lambda a, b: search.goal.compare(ranked[a], ranked[b])
            ),
        )
        return [dict(key) for key in keys[:population_size]]

    #: Hill-climb rounds after the last generation (each round prices
    #: the unexplored one-step neighborhoods of the top elites).
    POLISH_ROUNDS = 12
    #: Hill climbs run from this many elites at once.  A single-start
    #: climb gets trapped when the incumbent sits in the wrong basin
    #: (e.g. the feasibility ridge between filter structures); climbing
    #: the top few in lockstep lets a runner-up's basin overtake.
    POLISH_STARTS = 3

    def _polish(self) -> None:
        """Deterministic multi-start hill climb from the top elites.

        Evolution gets close; a short steepest-descent walk over the
        one-step neighborhood finishes the job, making the final
        selection locally optimal in grid-index space — the same
        property the grid funnel's deepest refinement delivers.
        Converges when a round proposes nothing new.
        """
        search = self.search
        config = search.config
        fidelity = search._fidelity_for_level(config.max_resolution)
        tracer = get_tracer()
        with tracer.span(
            "search.evolve.polish", fidelity=fidelity
        ) as polish_span:
            rounds = 0
            seen: set = set()
            for _ in range(self.POLISH_ROUNDS):
                neighbors = self._polish_proposals(seen)
                if not neighbors:
                    break  # every elite basin is locally optimal
                rounds += 1
                priced = search.evaluator.evaluate_many(neighbors, fidelity)
                for neighbor, raw_metrics in zip(neighbors, priced):
                    metrics = search._apply_bayes(
                        neighbor, dict(raw_metrics)
                    )
                    search._record_ranked(frozen_point(neighbor), metrics)
            polish_span.set(rounds=rounds)

    def _polish_proposals(self, seen: set) -> List[Point]:
        """One round of unseen hill-climb proposals from the elites.

        Elites are grouped into *tie classes* (identical objective
        metrics under the goal's total order) so the top
        :attr:`POLISH_STARTS` classes are genuinely different basins —
        a plateau (e.g. a continuous axis that does not move the
        objective) would otherwise flood every start with variants of
        one design.  Within a class, members are tried in rank order
        until one still has unseen neighbors: that is what lets the
        climb *drift across* a plateau (each round advances one step
        along the flat axis) instead of stalling on its exhausted
        first member.
        """
        search = self.search
        ranked = search._ranked
        classes: List[Metrics] = []
        productive: set = set()
        proposals: List[Point] = []
        for point in self._elite(len(ranked)):
            metrics = ranked[frozen_point(point)]
            tie_class = next(
                (
                    index
                    for index, chosen in enumerate(classes)
                    if search.goal.compare(metrics, chosen) == 0
                ),
                None,
            )
            if tie_class is None:
                if len(classes) >= self.POLISH_STARTS:
                    continue
                classes.append(metrics)
                tie_class = len(classes) - 1
            if tie_class in productive:
                continue
            seen.add(frozen_point(point))
            fresh = self._neighborhood(point, seen)
            if fresh:
                proposals.extend(fresh)
                productive.add(tie_class)
            if len(productive) >= self.POLISH_STARTS:
                break
        return proposals

    def _neighborhood(self, incumbent: Point, seen: set) -> List[Point]:
        """One-step neighbors of ``incumbent`` not yet in ``seen``.

        Ordered axes move one index (discrete) or 10% of the span
        (continuous) in each direction; categorical axes
        (:attr:`Correlation.NONE`) propose every alternative value,
        since their indices carry no geometry.  Updates ``seen``.
        """
        search = self.search
        neighbors: List[Point] = []
        for parameter in search.space.parameters:
            if parameter.is_fixed:
                continue
            if isinstance(parameter, DiscreteParameter):
                if parameter.correlation is Correlation.NONE:
                    moves = [
                        value
                        for value in parameter.values
                        if value != incumbent[parameter.name]
                    ]
                else:
                    position = parameter.index_of(
                        incumbent[parameter.name]
                    )
                    moves = [
                        parameter.values[position + step]
                        for step in (-1, 1)
                        if 0 <= position + step < parameter.size
                    ]
            elif isinstance(parameter, ContinuousParameter):
                span = parameter.upper - parameter.lower
                value = float(incumbent[parameter.name])
                moves = [
                    min(
                        max(value + step, parameter.lower),
                        parameter.upper,
                    )
                    for step in (-0.1 * span, 0.1 * span)
                ]
            else:  # pragma: no cover - union is exhaustive
                continue
            for moved in moves:
                neighbor = dict(incumbent)
                neighbor[parameter.name] = moved
                neighbor = search._normalize(neighbor)
                key = frozen_point(neighbor)
                if key in seen:
                    continue
                seen.add(key)
                neighbors.append(neighbor)
        return neighbors

    def _tournament(
        self, population: List[Point], rng: np.random.Generator
    ) -> Point:
        """Binary tournament: two uniform draws, the better one wins."""
        search = self.search
        first = population[int(rng.integers(len(population)))]
        second = population[int(rng.integers(len(population)))]
        metrics_a = search._ranked.get(frozen_point(first))
        metrics_b = search._ranked.get(frozen_point(second))
        if metrics_a is None:
            return second
        if metrics_b is None:
            return first
        return (
            first
            if search.goal.compare(metrics_a, metrics_b) <= 0
            else second
        )


def _random_point(
    space: DesignSpace, rng: np.random.Generator
) -> Point:
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


def _mutate_point(
    space: DesignSpace, point: Point, rng: np.random.Generator
) -> Point:
    """Perturb one or two free parameters of a design point.

    Discrete steps draw an exponential magnitude in index space —
    mostly adjacent moves (the annealing baseline's neighborhood) with
    an occasional long jump, plus a small uniform-resample chance; the
    mix keeps locality without trapping the population in a basin.
    """
    free = [p for p in space.parameters if not p.is_fixed]
    mutated = dict(point)
    if not free:
        return mutated
    n_moves = 2 if (len(free) > 1 and rng.random() < 0.3) else 1
    chosen = rng.choice(len(free), size=n_moves, replace=False)
    for index in chosen:
        parameter = free[int(index)]
        if isinstance(parameter, DiscreteParameter):
            if (
                parameter.correlation is Correlation.NONE
                or rng.random() < 0.1
            ):
                # Categorical axes have no index geometry — a "step" is
                # meaningless, so always resample uniformly.
                mutated[parameter.name] = parameter.values[
                    int(rng.integers(parameter.size))
                ]
                continue
            position = parameter.index_of(mutated[parameter.name])
            step = 1 + int(rng.exponential(0.15 * parameter.size))
            if rng.random() < 0.5:
                step = -step
            position = min(max(position + step, 0), parameter.size - 1)
            mutated[parameter.name] = parameter.values[position]
        elif isinstance(parameter, ContinuousParameter):
            span = parameter.upper - parameter.lower
            value = float(mutated[parameter.name]) + float(
                rng.normal(0.0, 0.15 * span)
            )
            mutated[parameter.name] = min(
                max(value, parameter.lower), parameter.upper
            )
    return mutated


class SurrogateStrategy:
    """The grid funnel with model-ranked pruning of refined grids.

    Level 0 evaluates the full coarse grid (identical to the grid
    strategy — this is also the model's training set); every deeper
    level ranks the refined regions' candidate grids with the
    :class:`SurrogateModel` and evaluates only the top
    ``surrogate_keep`` fraction (never fewer than ``refine_top_k``
    candidates, and always including each region's anchor point, so the
    greedy funnel's own descent path stays priced).  The model is
    refitted after every level on everything evaluated so far —
    including records replayed from the atlas or a persistent cache,
    which sharpen the ranking for free.

    Pruned candidates are counted as saved evaluations
    (``search.strategy.surrogate.evals_saved``).  Levels that cannot
    fit a model (no finite training scores yet) fall back to full grid
    evaluation and are counted in
    ``search.strategy.surrogate.fallbacks``.
    """

    name = "surrogate"

    def __init__(self, search) -> None:
        self.search = search
        self.model = SurrogateModel(search.space)

    def explore(self) -> int:
        """Run the pruned funnel; returns candidate evaluations saved."""
        search = self.search
        self._training_points: List[Point] = []
        self._training_scores: List[float] = []
        self._saved = 0
        self._fallbacks = 0

        # Records already in the cache (atlas replay, preloads) are
        # free training data for the first fit.
        for key, _fidelity, metrics in search.evaluator.cached_records():
            point = dict(key)
            try:
                search.space.validate_point(point)
            except Exception:
                continue  # replayed from an incompatible space slice
            self._absorb(point, metrics)
        if self._training_points:
            self._refit()

        self._walk(Region.full(search.space), level=0, anchor=None)

        registry = get_registry()
        registry.counter(f"search.strategy.{self.name}.evals_saved").inc(
            self._saved
        )
        if self._fallbacks:
            registry.counter(
                f"search.strategy.{self.name}.fallbacks"
            ).inc(self._fallbacks)
        return self._saved

    def _walk(
        self, region: Region, level: int, anchor: Optional[Point]
    ) -> None:
        """One recursion of the grid funnel, with model pruning.

        This deliberately mirrors ``MetacoreSearch._search_region``
        step for step — same depth-first descent order, same
        ``(bounds, level)`` region dedupe, same per-region grid with
        duplicates across sibling regions re-submitted — because the
        Bayesian BER regularization accumulates per-point state whose
        posteriors depend on evaluation order.  The only deviation is
        the pruning step: a fitted model ranks the region's grid and
        only the top ``surrogate_keep`` fraction (plus the survivor
        point that spawned the region) is priced.
        """
        search = self.search
        config = search.config
        goal = search.goal
        region_key = (region.bounds, level)
        if region_key in search._regions_seen:
            return
        search._regions_seen.add(region_key)
        registry = get_registry()
        registry.counter("search.regions").inc()
        tracer = get_tracer()
        with tracer.span("search.region", level=level) as region_span:
            resolution = level * config.resolution_increment
            grid = region.grid(resolution, config.max_grid_points)
            fidelity = search._fidelity_for_level(level)
            points: List[Point] = []
            seen: set = set()
            for raw_point in grid.points:
                point = search._normalize(dict(raw_point))
                key = frozen_point(point)
                if key in seen:
                    continue  # normalization may collapse grid points
                seen.add(key)
                points.append(point)
            kept = self._prune(points, level, anchor)
            priced = search.evaluator.evaluate_many(kept, fidelity)
            evaluated: List[Tuple[Point, Metrics]] = []
            for point, raw_metrics in zip(kept, priced):
                metrics = search._apply_bayes(point, dict(raw_metrics))
                search._record_ranked(frozen_point(point), metrics)
                self._absorb(point, metrics)
                evaluated.append((point, metrics))
            self._refit()
            registry.counter("search.grid_points").inc(len(kept))
            region_span.set(
                grid_points=len(grid.points),
                evaluated=len(evaluated),
                fidelity=fidelity,
            )
            if level >= config.max_resolution:
                region_span.set(survivors=0)
                return
            ranked = sorted(
                evaluated,
                key=cmp_to_key(lambda a, b: goal.compare(a[1], b[1])),
            )
            survivors: List[Tuple[Point, Region]] = []
            for point, metrics in ranked[: config.refine_top_k]:
                if not math.isfinite(
                    goal.primary.score(metrics)
                ) and not math.isfinite(goal.total_violation(metrics)):
                    continue  # nothing to learn from a dead region
                grid_point = search._closest_grid_point(point, grid)
                if grid_point is None:
                    continue
                survivors.append(
                    (point, region.refine_around(grid_point, grid.samples))
                )
            region_span.set(survivors=len(survivors))
            registry.counter("search.survivors").inc(len(survivors))
        for point, sub_region in survivors:
            self._walk(sub_region, level + 1, anchor=point)

    def _prune(
        self, points: List[Point], level: int, anchor: Optional[Point]
    ) -> List[Point]:
        """Model-ranked subset of a region's grid worth pricing.

        The coarse level-0 grid is never pruned (it is the training
        set); deeper levels without a fitted model fall back to the
        full grid.  The anchor — the survivor whose refinement created
        this region — is always kept so the funnel's own descent path
        stays priced.
        """
        config = self.search.config
        if level == 0:
            return points
        if not self.model.is_fitted:
            self._fallbacks += 1
            return points
        anchor_key = (
            None
            if anchor is None
            else frozen_point(self.search._normalize(dict(anchor)))
        )
        with get_tracer().span(
            "search.surrogate.rank", level=level, candidates=len(points)
        ) as rank_span:
            order = self.model.rank(points)
            n_keep = max(
                1, math.ceil(config.surrogate_keep * len(points))
            )
            kept_indices = set(order[:n_keep])
            if anchor_key is not None:
                for index, point in enumerate(points):
                    if frozen_point(point) == anchor_key:
                        kept_indices.add(index)
            # Keep grid order, not rank order: the Bayesian BER
            # regularization is order-sensitive and must see the same
            # sequence the unpruned funnel would.
            kept = [
                point
                for index, point in enumerate(points)
                if index in kept_indices
            ]
            self._saved += len(points) - len(kept)
            rank_span.set(
                kept=len(kept), pruned=len(points) - len(kept)
            )
        return kept

    def _absorb(self, point: Point, metrics: Metrics) -> None:
        self._training_points.append(dict(point))
        self._training_scores.append(
            goal_scalar(self.search.goal, metrics)
        )

    def _refit(self) -> None:
        with get_tracer().span(
            "search.surrogate.fit", samples=len(self._training_points)
        ) as fit_span:
            fitted = self.model.fit(
                self._training_points, self._training_scores
            )
            fit_span.set(fitted=fitted)
