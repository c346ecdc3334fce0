"""Tests for design-space parameterization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ContinuousParameter,
    Correlation,
    DesignSpace,
    DiscreteParameter,
    frozen_point,
)
from repro.errors import DesignSpaceError


def _space() -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter("k", (3, 5, 7)),
            DiscreteParameter("q", ("hard", "soft"), Correlation.NONE),
            ContinuousParameter("gamma", 0.2, 0.8),
        ]
    )


class TestDiscreteParameter:
    def test_rejects_empty(self):
        with pytest.raises(DesignSpaceError):
            DiscreteParameter("x", ())

    def test_rejects_duplicates(self):
        with pytest.raises(DesignSpaceError):
            DiscreteParameter("x", (1, 1))

    def test_index_of(self):
        parameter = DiscreteParameter("x", (2, 4, 8))
        assert parameter.index_of(4) == 1
        with pytest.raises(DesignSpaceError):
            parameter.index_of(3)

    def test_sample_indices_endpoints(self):
        parameter = DiscreteParameter("x", tuple(range(10)))
        samples = parameter.sample_indices(0, 9, 3)
        assert samples[0] == 0 and samples[-1] == 9

    def test_sample_indices_single(self):
        parameter = DiscreteParameter("x", tuple(range(10)))
        assert parameter.sample_indices(2, 8, 1) == [5]

    def test_sample_indices_capped_by_range(self):
        parameter = DiscreteParameter("x", tuple(range(10)))
        assert parameter.sample_indices(4, 5, 5) == [4, 5]

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 12))
    def test_sample_indices_always_in_range(self, a, b, count):
        lo, hi = min(a, b), max(a, b)
        parameter = DiscreteParameter("x", tuple(range(10)))
        samples = parameter.sample_indices(lo, hi, count)
        assert all(lo <= s <= hi for s in samples)
        assert samples == sorted(set(samples))


class TestContinuousParameter:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(DesignSpaceError):
            ContinuousParameter("x", 2.0, 1.0)

    def test_sample_endpoints(self):
        parameter = ContinuousParameter("x", 0.0, 1.0)
        samples = parameter.sample(0.0, 1.0, 5)
        assert samples[0] == 0.0 and samples[-1] == 1.0
        assert len(samples) == 5

    def test_sample_clipped_to_domain(self):
        parameter = ContinuousParameter("x", 0.0, 1.0)
        samples = parameter.sample(-5.0, 5.0, 3)
        assert min(samples) >= 0.0 and max(samples) <= 1.0

    def test_fixed_parameter(self):
        parameter = ContinuousParameter("x", 0.5, 0.5)
        assert parameter.is_fixed


class TestDesignSpace:
    def test_rejects_duplicate_names(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([DiscreteParameter("a", (1,)), DiscreteParameter("a", (2,))])

    def test_size(self):
        space = DesignSpace(
            [DiscreteParameter("a", (1, 2)), DiscreteParameter("b", (1, 2, 3))]
        )
        assert space.size() == 6

    def test_size_infinite_with_continuous(self):
        assert math.isinf(_space().size())

    def test_validate_point(self):
        space = _space()
        point = space.validate_point({"k": 5, "q": "hard", "gamma": 0.5})
        assert point["gamma"] == 0.5

    def test_validate_rejects_missing_and_extra(self):
        space = _space()
        with pytest.raises(DesignSpaceError):
            space.validate_point({"k": 5, "q": "hard"})
        with pytest.raises(DesignSpaceError):
            space.validate_point(
                {"k": 5, "q": "hard", "gamma": 0.5, "zz": 1}
            )

    def test_validate_rejects_out_of_range(self):
        space = _space()
        with pytest.raises(DesignSpaceError):
            space.validate_point({"k": 4, "q": "hard", "gamma": 0.5})
        with pytest.raises(DesignSpaceError):
            space.validate_point({"k": 5, "q": "hard", "gamma": 0.95})

    def test_iter_points_counts(self):
        space = DesignSpace(
            [DiscreteParameter("a", (1, 2)), DiscreteParameter("b", ("x", "y", "z"))]
        )
        points = list(space.iter_points())
        assert len(points) == 6
        assert len({frozen_point(p) for p in points}) == 6

    def test_iter_points_rejects_free_continuous(self):
        with pytest.raises(DesignSpaceError):
            list(_space().iter_points())

    def test_getitem_and_contains(self):
        space = _space()
        assert space["k"].name == "k"
        assert "gamma" in space and "zz" not in space
        with pytest.raises(DesignSpaceError):
            space["zz"]

    def test_describe_lists_all(self):
        text = _space().describe()
        assert "k" in text and "gamma" in text and "non-correlated" in text

    def test_frozen_point_order_independent(self):
        assert frozen_point({"a": 1, "b": 2}) == frozen_point({"b": 2, "a": 1})
