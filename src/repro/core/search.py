"""Multiresolution design-space search (paper Sec. 4.4, Fig. 6).

The algorithm follows the paper's pseudo code:

1. evaluate every point of a sparse grid over the current region
   (cheap, low-fidelity cost evaluations — short simulations);
2. rank the points (feasibility first, then the primary objective;
   probabilistic BER measurements are regularized through the Bayesian
   neighbor predictor before ranking);
3. extract the sub-regions enclosed by the most promising points'
   grid neighbors (``Refine_Grid``);
4. recurse into each sub-region with a finer grid and more accurate,
   longer-running evaluations, until the maximum search resolution.

The search is greedy by design — the paper justifies this with speed
and simplicity, and notes result quality can be traded for run time by
relaxing the pruning; the ``refine_top_k`` and fidelity schedule knobs
expose exactly that trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.bayes import BayesianBERPredictor
from repro.core.evalcache import PersistentEvalCache
from repro.core.evaluation import (
    CachingEvaluator,
    EvaluationLog,
    EvaluationRecord,
    Evaluator,
    Metrics,
)
from repro.core.grid import DEFAULT_MAX_GRID_POINTS, GridSample, Region
from repro.core.objectives import DesignGoal
from repro.core.parameters import DesignSpace, Point, frozen_point
from repro.errors import ConfigurationError
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer


#: Resolution added per recursion (Fig. 6's Resolution_Increment).  Each
#: grid's evaluation budget is ``DEFAULT_MAX_GRID_POINTS`` (the paper's
#: "up to 256 instances").
RESOLUTION_INCREMENT = 1
#: How many top-ranked candidates the confirmation pass re-prices; with
#: noisy cheap evaluations the cheapest *apparent* winner is not always
#: the true one.
CONFIRM_TOP_K = 3


@dataclass
class SearchConfig:
    """Knobs of the multiresolution search."""

    #: Recursion depth: resolution levels 0 .. max_resolution.
    max_resolution: int = 2
    #: Number of promising points whose regions are refined per level.
    refine_top_k: int = 3
    #: Use the Bayesian neighbor predictor for probabilistic metrics.
    use_bayesian_ber: bool = True
    #: Exploration strategy: "grid" (the paper's multiresolution
    #: funnel) or "evolve" (seeded tournament selection + mutation).
    #: See :mod:`repro.core.strategies` and
    #: ``docs/search-strategies.md``.
    strategy: str = "grid"

    def __post_init__(self) -> None:
        for name in ("max_resolution", "refine_top_k"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"{name} must not be negative (got {value})"
                )


@dataclass
class SearchResult:
    """Outcome of a search run."""

    best: Optional[EvaluationRecord]
    feasible: bool
    log: EvaluationLog
    regions_explored: int = 0
    method: str = "multiresolution"
    #: Evaluator-cache accounting (filled by :class:`MetacoreSearch`).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Requests answered by the on-disk cross-run cache (warm starts).
    persistent_hits: int = 0
    #: Frontier designs injected from the design atlas as fine-level
    #: candidates (0 when no atlas was attached or nothing matched).
    atlas_seeds: int = 0
    #: Prior-run evaluations replayed from the atlas into the cache.
    atlas_replayed: int = 0
    #: Coarse levels the injected seeds bypassed (seeds enter directly
    #: at the deepest resolution level instead of surviving the funnel).
    atlas_levels_skipped: int = 0
    #: Which exploration strategy produced this result.
    strategy: str = "grid"
    #: Candidate evaluations the strategy avoided paying for (evolve
    #: proposals answered from cache; 0 for the plain grid funnel).
    evals_saved: int = 0

    @property
    def best_point(self) -> Optional[Point]:
        """The winning design point (None if nothing was evaluated)."""
        return self.best.as_point() if self.best else None

    @property
    def best_metrics(self) -> Optional[Metrics]:
        """The winner's (confirmed) metrics record."""
        return self.best.metrics if self.best else None

    def summary(self) -> str:
        """Human-readable one-paragraph run summary."""
        lines = [
            f"method: {self.method}",
            f"evaluations: {self.log.n_evaluations} "
            f"(by fidelity {self.log.by_fidelity()})",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
            f" / {self.persistent_hits} persistent-hits",
            f"time: cpu {self.log.cpu_time_s:.3f}s"
            f" / wall {self.log.wall_time_s:.3f}s",
            f"regions explored: {self.regions_explored}",
            f"feasible: {self.feasible}",
        ]
        if self.strategy != "grid":
            lines.insert(
                1,
                f"strategy: {self.strategy} "
                f"({self.evals_saved} evaluations saved)",
            )
        if self.atlas_seeds or self.atlas_replayed or self.atlas_levels_skipped:
            lines.insert(
                3,
                f"atlas: {self.atlas_seeds} seeds"
                f" / {self.atlas_replayed} replayed"
                f" / {self.atlas_levels_skipped} levels-skipped",
            )
        if self.best is not None:
            lines.append(f"best: {self.best}")
        return "\n".join(lines)


#: Optional point repair hook: canonicalizes dependent parameters (e.g.
#: clamps M to 2**(K-1)) so every grid point is evaluable.
PointNormalizer = Callable[[Point], Point]


class MetacoreSearch:
    """The recursive multiresolution search of Fig. 6.

    ``atlas`` optionally attaches a design-atlas seed source (any
    object with ``replay()`` and ``seeds()``, see
    :class:`repro.atlas.similarity.AtlasSeeder`).  Replayed records
    from an identical prior scenario answer grid rounds for free;
    frontier designs of *similar* scenarios are injected as fine-level
    candidates after the cold recursion, and the confirmation pass
    takes the better of the cold-only and the seeded walk — so a
    warm-started search is never worse than the cold search at the
    same budget.
    """

    def __init__(
        self,
        space: DesignSpace,
        goal: DesignGoal,
        evaluator: Evaluator,
        config: Optional[SearchConfig] = None,
        normalizer: Optional[PointNormalizer] = None,
        store: Optional[PersistentEvalCache] = None,
        atlas: Optional[object] = None,
    ) -> None:
        self.space = space
        self.goal = goal
        self.config = config or SearchConfig()
        self.normalizer = normalizer
        self.log = EvaluationLog()
        self.evaluator = CachingEvaluator(evaluator, self.log, store=store)
        self.predictor = BayesianBERPredictor(space)
        self.atlas = atlas
        self._ranked: Dict[Tuple, Metrics] = {}
        self._regions_seen: Set[Tuple] = set()

    # ------------------------------------------------------------------

    #: Strategy name -> SearchResult.method label.
    _METHOD_LABELS = {
        "grid": "multiresolution",
        "evolve": "evolutionary",
    }

    def run(self) -> SearchResult:
        """Execute the full search and return the best design found."""
        from repro.core.strategies import (
            EvolutionaryStrategy,
            validate_strategy,
        )

        strategy = validate_strategy(self.config.strategy)
        self._ranked.clear()
        self._regions_seen.clear()
        registry = get_registry()
        evals_saved = 0
        with get_tracer().span("search.run", strategy=strategy) as run_span:
            atlas_replayed = self._replay_atlas()
            if strategy == "evolve":
                evals_saved = EvolutionaryStrategy(self).explore()
            else:
                self._search_region(Region.full(self.space), level=0)
            # Seeds are injected *after* the cold recursion: the
            # Bayesian predictor's state is insertion-order dependent,
            # so evaluating seeds first would perturb the cold
            # candidates' regularized metrics and void the differential
            # guarantee below.
            cold_ranked = dict(self._ranked)
            atlas_seeds = levels_skipped = 0
            if self.atlas is not None:
                atlas_seeds, levels_skipped = self._inject_seeds()
                registry.counter("atlas.warm_seeds").inc(atlas_seeds)
                registry.counter("atlas.levels_skipped").inc(levels_skipped)
            with get_tracer().span("search.confirm") as confirm_span:
                before = self.log.n_evaluations
                best_key, metrics = self._confirm_winner()
                if atlas_seeds:
                    # Differential guarantee: re-run the walk over the
                    # cold candidates alone (their ranked metrics are
                    # bit-identical to a cold run's) and keep the
                    # better confirmed winner.  Shared max-fidelity
                    # cache entries make the second walk cheap.
                    cold_key, cold_metrics = self._confirm_winner(
                        ranked=cold_ranked
                    )
                    if cold_key is not None and (
                        metrics is None
                        or self.goal.compare(cold_metrics, metrics) < 0
                    ):
                        best_key, metrics = cold_key, cold_metrics
                confirm_span.set(evaluations=self.log.n_evaluations - before)
            best: Optional[EvaluationRecord] = None
            feasible = False
            if best_key is not None and metrics is not None:
                best = EvaluationRecord(
                    point=best_key,
                    fidelity=self.evaluator.max_fidelity,
                    metrics=dict(metrics),
                )
                feasible = self.goal.is_feasible(metrics)
            run_span.set(
                evaluations=self.log.n_evaluations,
                regions=len(self._regions_seen),
                cache_hits=self.evaluator.cache_hits,
                cache_misses=self.evaluator.cache_misses,
                persistent_hits=self.evaluator.persistent_hits,
                atlas_seeds=atlas_seeds,
                atlas_replayed=atlas_replayed,
                feasible=feasible,
                evals_saved=evals_saved,
            )
        return SearchResult(
            best=best,
            feasible=feasible,
            log=self.log,
            regions_explored=len(self._regions_seen),
            method=self._METHOD_LABELS[strategy],
            cache_hits=self.evaluator.cache_hits,
            cache_misses=self.evaluator.cache_misses,
            persistent_hits=self.evaluator.persistent_hits,
            atlas_seeds=atlas_seeds,
            atlas_replayed=atlas_replayed,
            atlas_levels_skipped=levels_skipped,
            strategy=strategy,
            evals_saved=evals_saved,
        )

    # -- atlas warm start ------------------------------------------------

    def _replay_atlas(self) -> int:
        """Preload the exact scenario's stored records into the cache."""
        if self.atlas is None:
            return 0
        replayed = 0
        for key, fidelity, metrics in self.atlas.replay():
            if self.evaluator.preload(key, fidelity, metrics):
                replayed += 1
        if replayed:
            get_registry().counter("atlas.replayed").inc(replayed)
        return replayed

    def _inject_seeds(self) -> Tuple[int, int]:
        """Price near-neighbor frontier designs as fine-level candidates.

        Each seed skips the coarse funnel entirely: it is evaluated at
        the deepest level's fidelity and competes directly in the
        confirmation pass.  Seeds from a *different* (but similar)
        scenario additionally refine the region around their nearest
        coarse grid point at the deepest level — the atlas neighbor
        already paid for the coarse exploration that would have located
        that region.
        """
        deep_level = max(0, self.config.max_resolution)
        fidelity = self._fidelity_for_level(deep_level)
        points: List[Point] = []
        exact_flags: List[bool] = []
        seen: Set[Tuple] = set()
        for raw_point, exact in self.atlas.seeds():
            try:
                point = self._normalize(dict(raw_point))
                self.space.validate_point(point)
            except Exception:
                continue  # seed from an incompatible space slice
            key = frozen_point(point)
            if key in seen:
                continue
            seen.add(key)
            points.append(point)
            exact_flags.append(bool(exact))
        if not points:
            return 0, 0
        with get_tracer().span(
            "search.seed", seeds=len(points), fidelity=fidelity
        ):
            evaluated = self.evaluator.evaluate_many(points, fidelity)
            for point, raw_metrics in zip(points, evaluated):
                metrics = self._apply_bayes(point, dict(raw_metrics))
                self._record_ranked(frozen_point(point), metrics)
            full = Region.full(self.space)
            grid = full.grid(0, DEFAULT_MAX_GRID_POINTS)
            for point, exact in zip(points, exact_flags):
                if exact:
                    continue  # its own frontier is already refined
                anchor = self._closest_grid_point(point, grid)
                if anchor is None:
                    continue
                try:
                    region = full.refine_around(anchor, grid.samples)
                except Exception:
                    continue
                self._search_region(region, deep_level)
        return len(points), len(points) * deep_level

    def _confirm_winner(
        self, ranked: Optional[Dict[Tuple, Metrics]] = None
    ) -> Tuple[Optional[Tuple], Optional[Metrics]]:
        """Re-price the top-ranked candidates at full fidelity.

        Cheap evaluations rank; expensive ones decide.  The top
        :data:`CONFIRM_TOP_K` candidates by the search's (possibly noisy)
        ranking are re-evaluated at the evaluator's highest fidelity
        and compared on the confirmed numbers.  ``ranked`` restricts
        the walk to an alternative candidate pool (the atlas warm
        start's cold-only differential pass).
        """
        if ranked is None:
            ranked = self._ranked
        if not ranked:
            return None, None
        ranked_keys = sorted(
            ranked,
            key=cmp_to_key(
                lambda a, b: self.goal.compare(ranked[a], ranked[b])
            ),
        )
        best_key: Optional[Tuple] = None
        best_metrics: Optional[Metrics] = None
        top_k = CONFIRM_TOP_K
        # The first top_k confirmations always happen — batch them so a
        # parallel evaluator overlaps the expensive full-fidelity runs.
        # The loop below then answers them from the cache; running this
        # prefetch unconditionally keeps the cache counters (and thus
        # the SearchResult) identical between serial and parallel modes.
        self.evaluator.evaluate_many(
            [dict(key) for key in ranked_keys[:top_k]],
            self.evaluator.max_fidelity,
        )
        # When the apparent winners turn out infeasible on confirmation
        # (noisy cheap estimates near a constraint boundary), keep
        # walking the ranked list a while before giving up — but only
        # while the misses are *near* misses; grossly infeasible
        # confirmations mean the spec is out of reach and further
        # expensive confirmations are wasted.
        extended_cap = 4 * top_k
        near_miss_violation = 0.5
        for index, key in enumerate(ranked_keys):
            if index >= top_k:
                if best_metrics is not None and self.goal.is_feasible(
                    best_metrics
                ):
                    break
                if index >= extended_cap:
                    break
                if (
                    best_metrics is not None
                    and self.goal.total_violation(best_metrics)
                    > near_miss_violation
                ):
                    break
            metrics = self.evaluator.evaluate(
                dict(key), self.evaluator.max_fidelity
            )
            if best_metrics is None or self.goal.compare(metrics, best_metrics) < 0:
                best_key, best_metrics = key, metrics
        return best_key, best_metrics

    # ------------------------------------------------------------------

    def _fidelity_for_level(self, level: int) -> int:
        return min(level, self.evaluator.max_fidelity)

    def _normalize(self, point: Point) -> Point:
        return self.normalizer(point) if self.normalizer else point

    def _evaluate_grid(
        self, grid: GridSample, fidelity: int
    ) -> List[Tuple[Point, Metrics]]:
        """Evaluate a grid, applying the Bayesian BER regularization.

        The whole grid round is handed to the evaluator as one batch —
        grid evaluations are independent (Sec. 4.4), so a parallel
        evaluator can fan them out over worker processes.  Bayesian
        regularization then runs in grid order, which keeps the
        predictor's state (and therefore the search) identical between
        serial and parallel runs.
        """
        points: List[Point] = []
        seen: Set[Tuple] = set()
        for raw_point in grid.points:
            point = self._normalize(dict(raw_point))
            key = frozen_point(point)
            if key in seen:
                continue  # normalization may collapse grid points
            seen.add(key)
            points.append(point)
        evaluated = self.evaluator.evaluate_many(points, fidelity)
        results: List[Tuple[Point, Metrics]] = []
        for point, raw_metrics in zip(points, evaluated):
            metrics = self._apply_bayes(point, dict(raw_metrics))
            self._record_ranked(frozen_point(point), metrics)
            results.append((point, metrics))
        return results

    def _apply_bayes(self, point: Point, metrics: Dict[str, float]) -> Dict[str, float]:
        """Replace a noisy short-simulation BER with its posterior.

        Evaluators publish Monte-Carlo counts (``ber_errors`` /
        ``ber_bits``) and the binding threshold (``ber_threshold``);
        analytic estimates publish ``ber`` only.  The posterior mean
        recomputes ``ber_violation`` so that ranking (and therefore
        pruning) is driven by the regularized value.
        """
        if not self.config.use_bayesian_ber or self.goal.ber_curve is None:
            return metrics
        threshold = metrics.get("ber_threshold")
        errors = metrics.get("ber_errors")
        bits = metrics.get("ber_bits")
        if errors is not None and bits:
            belief = self.predictor.add_measurement(
                point, int(errors), int(bits)
            )
        elif "ber" in metrics and math.isfinite(metrics["ber"]):
            belief = self.predictor.add_estimate(point, metrics["ber"])
        else:
            return metrics
        if threshold:
            posterior_ber = belief.ber
            metrics["ber_posterior"] = posterior_ber
            metrics["ber_violation"] = max(
                0.0, math.log10(max(posterior_ber, 1e-300) / threshold)
            )
        return metrics

    def _record_ranked(self, key: Tuple, metrics: Metrics) -> None:
        existing = self._ranked.get(key)
        if existing is None or self.goal.compare(metrics, existing) < 0:
            self._ranked[key] = metrics

    # ------------------------------------------------------------------

    def _search_region(self, region: Region, level: int) -> None:
        """One recursion of Fig. 6: evaluate grid, refine, descend."""
        # A coarse grid with two samples per axis can refine to its own
        # bounds, so identical bounds at a *finer* resolution are still
        # a new grid — key by (bounds, level).
        region_key = (region.bounds, level)
        if region_key in self._regions_seen:
            return
        self._regions_seen.add(region_key)
        registry = get_registry()
        registry.counter("search.regions").inc()
        with get_tracer().span("search.region", level=level) as region_span:
            resolution = level * RESOLUTION_INCREMENT
            grid = region.grid(resolution, DEFAULT_MAX_GRID_POINTS)
            fidelity = self._fidelity_for_level(level)
            evaluated = self._evaluate_grid(grid, fidelity)
            registry.counter("search.grid_points").inc(len(grid.points))
            region_span.set(
                grid_points=len(grid.points),
                evaluated=len(evaluated),
                fidelity=fidelity,
            )
            if level >= self.config.max_resolution:
                region_span.set(survivors=0)
                return
            ranked = sorted(
                evaluated,
                key=cmp_to_key(lambda a, b: self.goal.compare(a[1], b[1])),
            )
            survivors: List[Tuple[Point, Region]] = []
            for point, metrics in ranked[: self.config.refine_top_k]:
                if not math.isfinite(self.goal.primary.score(metrics)) and not math.isfinite(
                    self.goal.total_violation(metrics)
                ):
                    continue  # nothing to learn from a dead region
                # Refinement needs the *grid* point (pre-normalization) to
                # locate neighbors; reconstruct it if normalization moved it.
                grid_point = self._closest_grid_point(point, grid)
                if grid_point is None:
                    continue
                survivors.append(
                    (point, region.refine_around(grid_point, grid.samples))
                )
            region_span.set(survivors=len(survivors))
            registry.counter("search.survivors").inc(len(survivors))
        for _point, sub_region in survivors:
            self._search_region(sub_region, level + 1)

    @staticmethod
    def _closest_grid_point(point: Point, grid: GridSample) -> Optional[Point]:
        """The raw grid point matching a (possibly normalized) point."""
        for candidate in grid.points:
            if all(
                candidate[name] == value
                for name, value in point.items()
                if name in candidate
            ):
                return dict(candidate)
        # Normalization moved some coordinate off-grid: fall back to the
        # grid point agreeing on the most coordinates.
        best, best_score = None, -1
        for candidate in grid.points:
            score = sum(
                1 for name, value in point.items() if candidate.get(name) == value
            )
            if score > best_score:
                best, best_score = dict(candidate), score
        return best
