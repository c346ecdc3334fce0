"""Tests for local sensitivity analysis (repro.core.sensitivity)."""

from __future__ import annotations

import pytest

from repro.core import (
    ContinuousParameter,
    DesignSpace,
    DiscreteParameter,
    FunctionEvaluator,
)
from repro.core.sensitivity import (
    ParameterSensitivity,
    analyze_sensitivity,
    format_sensitivity_table,
)
from repro.errors import DesignSpaceError


def _space() -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter("a", tuple(range(0, 11))),
            ContinuousParameter("x", 0.0, 1.0),
            DiscreteParameter("fixed", (7,)),
        ]
    )


def _evaluator() -> FunctionEvaluator:
    def func(point, fidelity):
        a = float(point["a"])
        x = float(point["x"])
        return {"cost": (a - 4) ** 2 + 10.0 * x, "linear": 3.0 * a}

    return FunctionEvaluator(func, 0)


class TestAnalysis:
    def test_gradient_signs_around_minimum(self):
        results = analyze_sensitivity(
            _space(), {"a": 4, "x": 0.5, "fixed": 7}, _evaluator(), "cost"
        )
        by_name = {r.parameter: r for r in results}
        # At the quadratic minimum of a, central gradient ~ 0.
        assert by_name["a"].gradient == pytest.approx(0.0)
        # x contributes linearly with slope 10 per unit (step 0.1 -> 1.0).
        assert by_name["x"].gradient == pytest.approx(1.0)

    def test_monotonic_detection(self):
        results = analyze_sensitivity(
            _space(), {"a": 8, "x": 0.5, "fixed": 7}, _evaluator(), "linear"
        )
        by_name = {r.parameter: r for r in results}
        assert by_name["a"].gradient == pytest.approx(3.0)

    def test_boundary_one_sided(self):
        results = analyze_sensitivity(
            _space(), {"a": 0, "x": 0.0, "fixed": 7}, _evaluator(), "cost"
        )
        by_name = {r.parameter: r for r in results}
        assert by_name["a"].below is None
        assert by_name["a"].above is not None
        assert by_name["a"].gradient is not None
        assert by_name["x"].below is None

    def test_fixed_parameters_skipped(self):
        results = analyze_sensitivity(
            _space(), {"a": 4, "x": 0.5, "fixed": 7}, _evaluator(), "cost"
        )
        assert {r.parameter for r in results} == {"a", "x"}

    def test_explicit_parameter_list(self):
        results = analyze_sensitivity(
            _space(), {"a": 4, "x": 0.5, "fixed": 7}, _evaluator(), "cost",
            parameters=["x"],
        )
        assert len(results) == 1 and results[0].parameter == "x"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DesignSpaceError):
            analyze_sensitivity(
                _space(), {"a": 4, "x": 0.5, "fixed": 7}, _evaluator(),
                "cost", parameters=["zz"],
            )

    def test_missing_metric_rejected(self):
        with pytest.raises(DesignSpaceError):
            analyze_sensitivity(
                _space(), {"a": 4, "x": 0.5, "fixed": 7}, _evaluator(), "zz"
            )

    def test_normalizer_applied(self):
        seen = []

        def func(point, fidelity):
            seen.append(dict(point))
            return {"cost": float(point["a"])}

        def normalizer(point):
            point = dict(point)
            point["x"] = 0.0
            return point

        analyze_sensitivity(
            _space(), {"a": 4, "x": 0.5, "fixed": 7},
            FunctionEvaluator(func, 0), "cost", normalizer=normalizer,
        )
        # Every perturbed candidate passed through the normalizer
        # (the center point is priced as given).
        assert all(p["x"] == 0.0 for p in seen[1:])


class TestFormatting:
    def test_table_contents(self):
        results = analyze_sensitivity(
            _space(), {"a": 4, "x": 0.5, "fixed": 7}, _evaluator(), "cost"
        )
        text = format_sensitivity_table(results)
        assert "sensitivity of cost" in text
        assert " a " in text or "a" in text
        assert "gradient" in text

    def test_empty_table(self):
        assert "no free parameters" in format_sensitivity_table([])

    def test_dataclass_properties(self):
        item = ParameterSensitivity("p", "m", below=1.0, center=2.0, above=4.0)
        assert item.gradient == pytest.approx(1.5)
