"""Tests for multiresolution grids and region refinement (Fig. 6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ContinuousParameter,
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Region,
)
from repro.errors import DesignSpaceError


def _space() -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter("k", tuple(range(3, 10))),
            DiscreteParameter("w", tuple(range(6, 25))),
            ContinuousParameter("gamma", 0.0, 1.0),
        ]
    )


class TestGrid:
    def test_coarse_grid_two_per_dim(self):
        grid = Region.full(_space()).grid(resolution=0)
        assert len(grid.points) == 8  # 2 * 2 * 2

    def test_resolution_increases_samples(self):
        region = Region.full(_space())
        coarse = region.grid(0)
        fine = region.grid(2)
        assert len(fine.points) > len(coarse.points)

    def test_budget_respected(self):
        space = DesignSpace(
            [DiscreteParameter(f"p{i}", tuple(range(10))) for i in range(6)]
        )
        grid = Region.full(space).grid(resolution=3, max_points=256)
        assert len(grid.points) <= 256

    def test_categorical_fully_enumerated(self):
        space = DesignSpace(
            [
                DiscreteParameter(
                    "s", ("a", "b", "c", "d", "e"), Correlation.NONE
                ),
                DiscreteParameter("w", tuple(range(20))),
            ]
        )
        grid = Region.full(space).grid(resolution=0)
        sampled = {p["s"] for p in grid.points}
        assert sampled == {"a", "b", "c", "d", "e"}

    def test_grid_endpoints_included(self):
        grid = Region.full(_space()).grid(0)
        ks = {p["k"] for p in grid.points}
        assert ks == {3, 9}

    def test_fixed_parameter_single_sample(self):
        space = DesignSpace(
            [DiscreteParameter("a", (1,)), DiscreteParameter("b", (1, 2, 3))]
        )
        grid = Region.full(space).grid(1)
        assert all(p["a"] == 1 for p in grid.points)

    def test_rejects_bad_args(self):
        region = Region.full(_space())
        with pytest.raises(DesignSpaceError):
            region.grid(-1)
        with pytest.raises(DesignSpaceError):
            region.grid(0, max_points=0)


class TestRefinement:
    def test_refined_region_contains_point(self):
        region = Region.full(_space())
        grid = region.grid(1)
        point = grid.points[len(grid.points) // 2]
        refined = region.refine_around(point, grid.samples)
        lo, hi = refined.bound_of("k")
        index = _space()["k"].index_of(point["k"])
        assert lo <= index <= hi

    def test_refined_region_shrinks(self):
        region = Region.full(_space())
        grid = region.grid(1)
        refined = region.refine_around(grid.points[0], grid.samples)
        for name in ("k", "w", "gamma"):
            lo, hi = refined.bound_of(name)
            full_lo, full_hi = region.bound_of(name)
            assert full_lo <= lo <= hi <= full_hi
        assert refined.bound_of("k") != region.bound_of("k")

    def test_refinement_is_nested(self):
        """A refined region's grid points stay inside the region."""
        region = Region.full(_space())
        grid = region.grid(0)
        refined = region.refine_around(grid.points[-1], grid.samples)
        inner = refined.grid(1)
        k_lo, k_hi = refined.bound_of("k")
        parameter = _space()["k"]
        for point in inner.points:
            assert k_lo <= parameter.index_of(point["k"]) <= k_hi

    def test_refine_rejects_off_grid_point(self):
        region = Region.full(_space())
        grid = region.grid(0)
        bogus = dict(grid.points[0])
        bogus["k"] = 5  # not among the resolution-0 samples {3, 9}
        with pytest.raises(DesignSpaceError):
            region.refine_around(bogus, grid.samples)

    def test_bound_of_unknown_raises(self):
        with pytest.raises(DesignSpaceError):
            Region.full(_space()).bound_of("zz")

    @given(st.integers(0, 3), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_any_refinement_contains_its_seed(self, resolution, index):
        region = Region.full(_space())
        grid = region.grid(resolution)
        point = grid.points[index % len(grid.points)]
        refined = region.refine_around(point, grid.samples)
        # The seed point is inside the refined bounds on every axis.
        for parameter in _space().parameters:
            lo, hi = refined.bound_of(parameter.name)
            if isinstance(parameter, DiscreteParameter):
                position = parameter.index_of(point[parameter.name])
                assert lo <= position <= hi
            else:
                assert lo <= point[parameter.name] <= hi
