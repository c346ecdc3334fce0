"""The evolutionary strategy beside the multiresolution grid funnel.

The paper's search (Sec. 4.4, :mod:`repro.core.search`) explores the
design space with a recursive grid.  :class:`EvolutionaryStrategy`
(``strategy="evolve"``) is the one alternative: a seeded evolutionary
search that reuses the same evaluator stack, ranking map, Bayesian
regularization and confirmation pass, so caching, parallel workers,
checkpoints, atlas warm starts and the serve layer compose with it
unchanged.  The coarse grid seeds an initial population, then
tournament selection plus neighbor mutation breed offspring
generations at escalating fidelity.  Every random draw derives from
:data:`STRATEGY_SEED` and the generation index alone, so
serial, parallel and checkpoint-resumed runs take bit-identical paths.

The strategy leaves its candidates in the search's ranked map and lets
:meth:`MetacoreSearch._confirm_winner` re-price the leaders at the
evaluator's top fidelity: cheap evaluations rank, expensive ones
decide, exactly as in the grid funnel.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import List

import numpy as np

from repro.core.baselines import _random_point
from repro.core.evaluation import Metrics
from repro.core.grid import DEFAULT_MAX_GRID_POINTS, Region
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
STRATEGIES = ("grid", "evolve")

#: Master seed of the evolutionary strategy: every draw derives from it.
STRATEGY_SEED = 20010618
#: Offspring bred (and priced) per evolutionary generation.
EVOLVE_POPULATION = 12
#: Evolutionary generations after the coarse-grid seeding round.
EVOLVE_GENERATIONS = 5


def validate_strategy(name: str) -> str:
    """Return ``name`` lower-cased, or raise on an unknown strategy."""
    normalized = str(name).lower()
    if normalized not in STRATEGIES:
        raise ConfigurationError(
            f"unknown search strategy {name!r}; "
            f"choose one of {', '.join(STRATEGIES)}"
        )
    return normalized


class EvolutionaryStrategy:
    """Seeded tournament-selection + mutation exploration.

    The coarse grid (the same one the grid funnel starts from) seeds
    and prices the initial population at fidelity 0; each generation
    then breeds :data:`EVOLVE_POPULATION` offspring by binary tournament
    over the current elite and a neighbor mutation of the winner, and
    prices them at a fidelity that escalates with the generation index
    — cheap early exploration, accurate late refinement, exactly the
    funnel's schedule.

    Determinism: each generation's RNG is
    ``spawn_rng(STRATEGY_SEED, "evolve", generation)`` and offspring
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
        population_size = EVOLVE_POPULATION
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
        for generation in range(1, EVOLVE_GENERATIONS + 1):
            if not population:
                break
            level = min(generation, config.max_resolution)
            fidelity = search._fidelity_for_level(level)
            rng = spawn_rng(STRATEGY_SEED, "evolve", generation)
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
        grid = full.grid(0, DEFAULT_MAX_GRID_POINTS)
        seeds: List[Point] = []
        seen: set = set()
        for raw in grid.points:
            point = search._normalize(dict(raw))
            key = frozen_point(point)
            if key in seen:
                continue
            seen.add(key)
            seeds.append(point)
        rng = spawn_rng(STRATEGY_SEED, "evolve", "init")
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
