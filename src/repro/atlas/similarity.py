"""Scenario similarity for atlas warm-starts.

A scenario is one (specification, goal) pair, identified exactly by
its evaluator fingerprint.  Warm-starting a *new* scenario from the
library means finding stored scenarios whose specification is nearby —
"nearby" measured over a normalized numeric feature vector that the
spec's MetaCore definition extracts (throughput and BER curve for
Viterbi; sample period and filter edges/ripples for IIR).  Rates and
BERs span decades, so they enter the vector in log10.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.evalcache import evaluator_fingerprint
from repro.core.metacore import definition_for_spec
from repro.core.objectives import DesignGoal
from repro.core.parameters import Point, frozen_point
from repro.errors import ConfigurationError

#: Scenarios farther apart than this (RMS relative feature distance)
#: are not used to seed each other.  0.25 roughly means "specs agree
#: to within ~25% per feature" — e.g. a BER bound of 4e-2 vs 5e-2 at
#: the same SNR is well inside; a different SNR grid is not.
DEFAULT_SIMILARITY_THRESHOLD = 0.25


def spec_features(spec: object) -> Dict[str, float]:
    """Normalized numeric feature vector of a facade specification.

    Uses the feature extractor of the spec's MetaCore definition.
    Raises ``TypeError`` for specs without one — the caller should then
    fall back to exact-fingerprint matching only.
    """
    try:
        extractor = definition_for_spec(spec).features
    except ConfigurationError:
        extractor = None
    if extractor is None:
        raise TypeError(f"no feature extractor for spec {type(spec).__name__}")
    return extractor(spec)


def goal_signature(goal: DesignGoal) -> str:
    """A stable string identifying the *shape* of a goal.

    Two scenarios can only seed each other when they optimize the same
    metrics under the same kinds of constraints; the bound *values*
    live in the feature vector, not here.
    """
    objectives = ",".join(
        f"{objective.metric}:{objective.direction.value}"
        for objective in goal.objectives
    )
    constraints = ",".join(
        sorted(
            f"{constraint.metric}:{'u' if constraint.upper is not None else 'l'}"
            for constraint in goal.all_constraints()
        )
    )
    return f"obj[{objectives}] con[{constraints}]"


def scenario_distance(
    a: Mapping[str, float], b: Mapping[str, float]
) -> float:
    """RMS relative distance between two feature vectors.

    Each feature contributes ``(va - vb) / max(1, |va|, |vb|)`` so
    large-magnitude features (SNRs in dB) and unit-scale ones (log
    ratios) weigh comparably.  Vectors over different feature sets are
    incomparable: distance is +inf.
    """
    if set(a) != set(b):
        return math.inf
    if not a:
        return math.inf
    total = 0.0
    for key, va in a.items():
        vb = b[key]
        scale = max(1.0, abs(va), abs(vb))
        total += ((va - vb) / scale) ** 2
    return math.sqrt(total / len(a))


class AtlasSeeder:
    """Adapts a :class:`~repro.atlas.store.DesignAtlas` to the seed-source
    duck type ``MetacoreSearch`` consumes.

    ``replay()`` yields ``(frozen_point, fidelity, metrics)`` for every
    stored record of the *exact* scenario (same evaluator fingerprint),
    letting the search answer its grid walk from the library.
    ``seeds()`` yields ``(point_dict, exact)`` frontier designs: the
    exact scenario's own frontier plus the frontiers of neighboring
    scenarios within the similarity threshold.
    """

    def __init__(
        self,
        atlas,
        fingerprint: str,
        kind: str,
        features: Optional[Mapping[str, float]],
        goal: DesignGoal,
        threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
    ) -> None:
        self.atlas = atlas
        self.fingerprint = fingerprint
        self.kind = kind
        self.features = dict(features) if features is not None else None
        self.goal = goal
        self.threshold = threshold

    def replay(self) -> Iterable[Tuple[Tuple, int, Dict[str, float]]]:
        for record in self.atlas.replay(self.fingerprint):
            yield (
                frozen_point(dict(record.point)),
                record.fidelity,
                dict(record.metrics),
            )

    def seeds(self) -> List[Tuple[Point, bool]]:
        seeds: List[Tuple[Point, bool]] = []
        for record in self.atlas.frontier(self.fingerprint):
            seeds.append((dict(record.point), True))
        if self.features is None:
            return seeds
        signature = goal_signature(self.goal)
        for neighbor_fp, _distance in self.atlas.neighbors(
            self.kind, self.features, signature, self.threshold
        ):
            if neighbor_fp == self.fingerprint:
                continue
            for record in self.atlas.frontier(neighbor_fp):
                seeds.append((dict(record.point), False))
        return seeds


def seeder_for(
    atlas,
    evaluator,
    kind: str,
    spec: object,
    goal: DesignGoal,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> AtlasSeeder:
    """The seed source for one scenario (facade / serve wiring).

    ``evaluator`` is the *base* engine (not a parallel or resilient
    wrapper) so the fingerprint matches the persistent-cache key.
    Specs without a feature extractor degrade gracefully to
    exact-fingerprint matching only.
    """
    try:
        features: Optional[Dict[str, float]] = spec_features(spec)
    except TypeError:
        features = None
    return AtlasSeeder(
        atlas, evaluator_fingerprint(evaluator), kind, features, goal, threshold
    )


def ingest_result(atlas, seeder: AtlasSeeder, records, max_fidelity: int):
    """Fold a finished search's log into the seeder's scenario."""
    return atlas.ingest(
        seeder.fingerprint,
        seeder.kind,
        seeder.features,
        seeder.goal,
        records,
        max_fidelity,
    )
