"""Normalized coordinates of design points (paper Sec. 4.4).

Design points live in a mixed discrete/continuous space.  Models that
reason about distances between points (the Bayesian BER predictor)
first map each point to normalized coordinates in the unit cube.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.parameters import (
    ContinuousParameter,
    DesignSpace,
    DiscreteParameter,
    Point,
)
from repro.errors import DesignSpaceError


def point_coordinates(space: DesignSpace, point: Point) -> np.ndarray:
    """Normalized [0, 1] coordinates of a design point.

    Discrete parameters map to their index position within the value
    list; categorical (non-correlated) dimensions still get coordinates
    but carry no metric meaning — callers typically hold them fixed.
    """
    coords: List[float] = []
    for parameter in space.parameters:
        value = point[parameter.name]
        if isinstance(parameter, DiscreteParameter):
            if parameter.size == 1:
                coords.append(0.0)
            else:
                coords.append(parameter.index_of(value) / (parameter.size - 1))
        elif isinstance(parameter, ContinuousParameter):
            span = parameter.upper - parameter.lower
            coords.append(
                0.0 if span == 0 else (float(value) - parameter.lower) / span
            )
        else:  # pragma: no cover - union is exhaustive
            raise DesignSpaceError(f"unknown parameter type {parameter!r}")
    return np.asarray(coords, dtype=float)
