"""Local sensitivity analysis of design points.

The paper classifies parameters as correlated/non-correlated and by
structure (monotonic, linear, quadratic, probabilistic) to steer the
search (Sec. 4.4).  This module measures those properties empirically:
around a given design point it perturbs one parameter at a time, prices
the neighbors, and reports per-parameter metric deltas — which both
validates a parameter classification and tells a designer which knobs
still have leverage at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.evaluation import Evaluator
from repro.core.parameters import (
    ContinuousParameter,
    DesignSpace,
    DiscreteParameter,
    Point,
)
from repro.core.search import PointNormalizer
from repro.errors import DesignSpaceError

#: Relative step used for continuous parameters.
_CONTINUOUS_STEP_FRACTION = 0.1


@dataclass(frozen=True)
class ParameterSensitivity:
    """Metric response to perturbing one parameter at one point."""

    parameter: str
    metric: str
    #: Metric value one step below / at / one step above the point
    #: (None at a domain boundary).
    below: Optional[float]
    center: float
    above: Optional[float]

    @property
    def gradient(self) -> Optional[float]:
        """Central (or one-sided) difference, in metric units/step."""
        if self.below is not None and self.above is not None:
            return (self.above - self.below) / 2.0
        if self.above is not None:
            return self.above - self.center
        if self.below is not None:
            return self.center - self.below
        return None


def _neighbors(
    space: DesignSpace, point: Point, name: str
) -> Tuple[Optional[Point], Optional[Point]]:
    """The points one step below/above ``point`` on one axis."""
    parameter = space[name]
    below: Optional[Point] = None
    above: Optional[Point] = None
    if isinstance(parameter, DiscreteParameter):
        index = parameter.index_of(point[name])
        if index > 0:
            below = dict(point)
            below[name] = parameter.values[index - 1]
        if index < parameter.size - 1:
            above = dict(point)
            above[name] = parameter.values[index + 1]
    elif isinstance(parameter, ContinuousParameter):
        span = parameter.upper - parameter.lower
        step = span * _CONTINUOUS_STEP_FRACTION
        if step == 0:
            return None, None
        value = float(point[name])
        if value - step >= parameter.lower:
            below = dict(point)
            below[name] = value - step
        if value + step <= parameter.upper:
            above = dict(point)
            above[name] = value + step
    return below, above


def analyze_sensitivity(
    space: DesignSpace,
    point: Point,
    evaluator: Evaluator,
    metric: str,
    fidelity: int = 0,
    normalizer: Optional[PointNormalizer] = None,
    parameters: Optional[List[str]] = None,
) -> List[ParameterSensitivity]:
    """Per-parameter sensitivities of ``metric`` around ``point``."""
    names = parameters if parameters is not None else [
        p.name for p in space.parameters if not p.is_fixed
    ]

    def price(candidate: Optional[Point]) -> Optional[float]:
        if candidate is None:
            return None
        if normalizer is not None:
            candidate = normalizer(dict(candidate))
        value = evaluator.evaluate(candidate, fidelity).get(metric)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return None
        return float(value)

    center_value = price(dict(point))
    if center_value is None:
        raise DesignSpaceError(
            f"metric {metric!r} not available at the center point"
        )
    results = []
    for name in names:
        if name not in space:
            raise DesignSpaceError(f"unknown parameter {name!r}")
        below_point, above_point = _neighbors(space, point, name)
        results.append(
            ParameterSensitivity(
                parameter=name,
                metric=metric,
                below=price(below_point),
                center=center_value,
                above=price(above_point),
            )
        )
    return results


def format_sensitivity_table(
    sensitivities: List[ParameterSensitivity],
) -> str:
    """Human-readable table of a sensitivity analysis."""
    if not sensitivities:
        return "(no free parameters)"
    metric = sensitivities[0].metric
    lines = [
        f"sensitivity of {metric}:",
        f"{'parameter':>16s} {'below':>12s} {'center':>12s} {'above':>12s} "
        f"{'gradient':>10s}",
    ]

    def fmt(value: Optional[float]) -> str:
        if value is None:
            return "-"
        if value == 0 or 1e-3 <= abs(value) < 1e5:
            return f"{value:.4g}"
        return f"{value:.2e}"

    for item in sensitivities:
        lines.append(
            f"{item.parameter:>16s} {fmt(item.below):>12s} "
            f"{fmt(item.center):>12s} {fmt(item.above):>12s} "
            f"{fmt(item.gradient):>10s}"
        )
    return "\n".join(lines)
