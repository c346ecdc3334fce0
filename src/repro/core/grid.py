"""Multiresolution grids and region refinement (paper Fig. 6).

The search starts "on a fixed grid in the solution space" and refines
"regions enclosed by the points that are more likely to contain
promising solutions".  A :class:`Region` is an axis-aligned box in the
design space (index ranges over discrete parameters, intervals over
continuous ones); ``Region.grid`` samples it at a resolution, and
``refine_around`` builds the sub-region enclosed by a promising point's
grid neighbors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.parameters import (
    DesignSpace,
    DiscreteParameter,
    Point,
)
from repro.errors import DesignSpaceError

#: The paper's initial evaluation budget per grid.
DEFAULT_MAX_GRID_POINTS = 256

#: Per-free-dimension samples at resolution r (2 at the coarsest grid:
#: 8 free dimensions x 2 = 256 instances, the paper's initial budget).
BASE_SAMPLES_PER_DIM = 2

Bounds = Union[Tuple[int, int], Tuple[float, float]]


@dataclass(frozen=True)
class GridSample:
    """A sampled grid: the points plus the per-dimension sample lists
    (needed later to find a point's grid neighbors for refinement)."""

    points: Tuple[Point, ...]
    samples: Dict[str, Sequence[object]]


@dataclass(frozen=True)
class Region:
    """An axis-aligned box within a design space.

    ``bounds`` maps each parameter name to an inclusive (lo, hi) pair:
    value *indices* for discrete parameters, raw values for continuous
    ones.
    """

    space: DesignSpace
    bounds: Tuple[Tuple[str, Bounds], ...]

    @classmethod
    def full(cls, space: DesignSpace) -> "Region":
        bounds = []
        for parameter in space.parameters:
            if isinstance(parameter, DiscreteParameter):
                bounds.append((parameter.name, (0, parameter.size - 1)))
            else:
                bounds.append((parameter.name, (parameter.lower, parameter.upper)))
        return cls(space=space, bounds=tuple(bounds))

    def bound_of(self, name: str) -> Bounds:
        for bound_name, bound in self.bounds:
            if bound_name == name:
                return bound
        raise DesignSpaceError(f"region has no bound for {name!r}")

    def _with_bound(self, name: str, bound: Bounds) -> "Region":
        return Region(
            space=self.space,
            bounds=tuple(
                (n, bound if n == name else b) for n, b in self.bounds
            ),
        )

    # ------------------------------------------------------------------

    def grid(
        self,
        resolution: int,
        max_points: int = DEFAULT_MAX_GRID_POINTS,
    ) -> GridSample:
        """Sample the region at a resolution, within the point budget.

        Each non-fixed dimension gets ``BASE_SAMPLES_PER_DIM +
        resolution`` evenly spaced samples (clipped to what the region
        holds); if the Cartesian product exceeds ``max_points`` the
        largest dimensions lose samples first.
        """
        if resolution < 0:
            raise DesignSpaceError("resolution must be non-negative")
        if max_points < 1:
            raise DesignSpaceError("max_points must be positive")
        target = BASE_SAMPLES_PER_DIM + resolution
        counts: Dict[str, int] = {}
        for parameter in self.space.parameters:
            lo, hi = self.bound_of(parameter.name)
            if isinstance(parameter, DiscreteParameter):
                available = int(hi) - int(lo) + 1
                if not parameter.correlation.is_correlated:
                    # Non-correlated (categorical) parameters carry no
                    # neighborhood structure to refine: enumerate them
                    # fully (Sec. 4.4's parameter classification).
                    counts[parameter.name] = available
                    continue
            else:
                available = 1 if lo == hi else target
            counts[parameter.name] = min(target, available)
        counts = _apply_budget(counts, max_points)

        samples: Dict[str, Sequence[object]] = {}
        value_lists: List[Sequence[object]] = []
        for parameter in self.space.parameters:
            lo, hi = self.bound_of(parameter.name)
            count = counts[parameter.name]
            if isinstance(parameter, DiscreteParameter):
                indices = parameter.sample_indices(int(lo), int(hi), count)
                values = [parameter.values[i] for i in indices]
            else:
                values = parameter.sample(float(lo), float(hi), count)
            samples[parameter.name] = values
            value_lists.append(values)
        points = tuple(
            dict(zip(self.space.names, combo))
            for combo in itertools.product(*value_lists)
        )
        return GridSample(points=points, samples=samples)

    # ------------------------------------------------------------------

    def refine_around(self, point: Point, samples: Dict[str, Sequence[object]]) -> "Region":
        """The sub-region enclosed by ``point``'s grid neighbors.

        For each dimension, the new bounds run from the sample just
        below the point's value to the sample just above it (clipped to
        this region) — the paper's "regions enclosed by the points".
        """
        region = self
        for parameter in self.space.parameters:
            name = parameter.name
            sampled = list(samples[name])
            value = point[name]
            if value not in sampled:
                raise DesignSpaceError(
                    f"point value {value!r} for {name} was not a grid sample"
                )
            position = sampled.index(value)
            lo_sample = sampled[max(position - 1, 0)]
            hi_sample = sampled[min(position + 1, len(sampled) - 1)]
            if isinstance(parameter, DiscreteParameter):
                bound: Bounds = (
                    parameter.index_of(lo_sample),
                    parameter.index_of(hi_sample),
                )
            else:
                bound = (float(lo_sample), float(hi_sample))
            region = region._with_bound(name, bound)
        return region


def _apply_budget(counts: Dict[str, int], max_points: int) -> Dict[str, int]:
    """Trim per-dimension sample counts until their product fits."""
    counts = dict(counts)

    def product() -> int:
        total = 1
        for count in counts.values():
            total *= count
        return total

    while product() > max_points:
        name = max(
            (n for n, c in counts.items() if c > 1),
            key=lambda n: counts[n],
            default=None,
        )
        if name is None:
            break
        counts[name] -= 1
    return counts
