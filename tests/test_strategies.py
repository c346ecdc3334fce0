"""Differential gates for the evolutionary search strategy.

The contract (``docs/search-strategies.md``): on the paper's own
Table 3 (Viterbi) and Table 4 (IIR) scenarios, ``evolve`` must find a
design **no worse** than the multiresolution grid while spending **at
most half** of the grid's evaluator calls, cold.

The strategy is seeded and batch-order deterministic, so serial,
parallel (``workers=2``), and checkpoint-resumed runs must select the
same design bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.core import (
    STRATEGIES,
    BERThresholdCurve,
    SearchConfig,
    validate_strategy,
)
from repro.errors import ConfigurationError
from repro.iir import IIRMetaCore, IIRSpec
from repro.resilience.session import RoundBudgetExceeded
from repro.viterbi import ViterbiMetaCore, ViterbiSpec

#: Evaluator-call ceiling relative to the grid baseline (ISSUE gate).
MAX_EVAL_FRACTION = 0.5


def _iir_config(strategy: str) -> SearchConfig:
    return SearchConfig(max_resolution=3, refine_top_k=4, strategy=strategy)


def _iir_metacore(strategy: str, **kwargs) -> IIRMetaCore:
    return IIRMetaCore(
        IIRSpec.paper(4.0), config=_iir_config(strategy), **kwargs
    )


def _viterbi_metacore(strategy: str, **kwargs) -> ViterbiMetaCore:
    spec = ViterbiSpec(
        throughput_bps=1e6,
        ber_curve=BERThresholdCurve.single(4.0, 2e-2),
    )
    return ViterbiMetaCore(
        spec,
        fixed={"G": "standard", "N": 1},
        config=SearchConfig(
            max_resolution=2, refine_top_k=3, strategy=strategy
        ),
        **kwargs,
    )


@pytest.fixture(scope="module")
def iir_grid():
    """Cold Table 4 grid baseline (shared across the gate tests)."""
    return _iir_metacore("grid").search()


@pytest.fixture(scope="module")
def viterbi_grid():
    """Cold Table 3 grid baseline."""
    return _viterbi_metacore("grid").search()


def _assert_gate(result, baseline, *, metric: str) -> None:
    """No-worse quality at <= half the baseline's evaluator calls."""
    assert result.feasible and baseline.feasible
    assert result.best_metrics[metric] <= baseline.best_metrics[metric]
    budget = MAX_EVAL_FRACTION * baseline.log.n_evaluations
    assert result.log.n_evaluations <= budget, (
        f"{result.strategy} spent {result.log.n_evaluations} evaluations; "
        f"gate is {budget:.0f} (50% of grid's "
        f"{baseline.log.n_evaluations})"
    )


class TestStrategyValidation:
    def test_known_strategies_pass(self):
        assert STRATEGIES == ("grid", "evolve")
        for name in STRATEGIES:
            assert validate_strategy(name) == name

    def test_unknown_strategy_rejected(self):
        for name in ("annealing", "surrogate"):
            with pytest.raises(ConfigurationError):
                validate_strategy(name)

    def test_search_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            _iir_metacore("hillclimb").search()


class TestIIRTable4Gates:
    """Cold differential on the paper's Table 4 scenario."""

    def test_grid_baseline_feasible(self, iir_grid):
        assert iir_grid.feasible
        assert iir_grid.strategy == "grid"
        assert iir_grid.log.n_evaluations > 0

    def test_evolve_gate(self, iir_grid):
        result = _iir_metacore("evolve").search()
        assert result.strategy == "evolve"
        _assert_gate(result, iir_grid, metric="area_mm2")


class TestViterbiTable3Gates:
    """Cold differential on the paper's Table 3 scenario."""

    def test_evolve_gate(self, viterbi_grid):
        result = _viterbi_metacore("evolve").search()
        _assert_gate(result, viterbi_grid, metric="area_mm2")


def _same_selection(a, b) -> bool:
    return (
        a.best_point == b.best_point
        and a.best_metrics == b.best_metrics
        and a.log.n_evaluations == b.log.n_evaluations
    )


@pytest.mark.parametrize("strategy", ["evolve"])
class TestDeterminism:
    """serial == parallel == resumed-from-checkpoint, bit-for-bit."""

    @staticmethod
    def _metacore(strategy: str, **kwargs) -> IIRMetaCore:
        return IIRMetaCore(
            IIRSpec.paper(4.0),
            config=SearchConfig(
                max_resolution=2, refine_top_k=2, strategy=strategy
            ),
            **kwargs,
        )

    def test_serial_matches_parallel(self, strategy):
        serial = self._metacore(strategy).search()
        parallel = self._metacore(strategy, workers=2).search()
        assert _same_selection(serial, parallel)

    def test_resume_matches_uninterrupted(self, strategy, tmp_path):
        reference = self._metacore(strategy).search()
        checkpoint = str(tmp_path / "checkpoint.json")
        with pytest.raises(RoundBudgetExceeded):
            self._metacore(
                strategy, checkpoint_path=checkpoint, max_rounds=3
            ).search()
        resumed = self._metacore(
            strategy, checkpoint_path=checkpoint, resume=True
        ).search()
        assert resumed.best_point == reference.best_point
        assert resumed.best_metrics == reference.best_metrics
