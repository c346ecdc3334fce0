"""Tests for the power-aware cost engine (repro.power).

Three layers of coverage:

1. unit behavior of the technology table, DVFS law, leakage model,
   and ``PowerModel`` reports;
2. the opt-in gating contract — with ``power=None`` every fingerprint
   and metric is byte-identical to the classic cost engine, and a
   nominal-Vdd power config changes *only* the energy metrics;
3. end-to-end: 3-objective goals, an energy-capped search, an
   energy-constrained atlas ``recommend()``, wire payloads, and the
   ``trace-report`` power line.
"""

from __future__ import annotations

import math

import pytest

from repro.core.objectives import (
    BERThresholdCurve,
    Constraint,
    DesignGoal,
    Objective,
)
from repro.core.search import SearchConfig
from repro.errors import ConfigurationError
from repro.hardware.clock import TR4101_FEATURE_UM, clock_mhz
from repro.iir.metacore import IIRMetacoreEvaluator, IIRSpec
from repro.power import (
    LEAKAGE_NW_PER_BIT,
    OperatingPoint,
    PowerConfig,
    PowerModel,
    TECHNOLOGY_NODES,
    VDD_REFERENCE_V,
    dvfs_bounds,
    frequency_scale,
    leakage_power_mw,
    max_frequency_mhz,
    technology_node,
)
from repro.viterbi.metacore import (
    VITERBI_DEFINITION,
    ViterbiMetaCore,
    ViterbiMetacoreEvaluator,
    ViterbiSpec,
    normalize_viterbi_point,
)

CURVE = BERThresholdCurve.single(2.0, 1e-2)

#: The Table-3-style golden scenario point (cheap, always feasible).
POINT = normalize_viterbi_point(
    {"G": "standard", "N": 1, "K": 3, "Q": "hard",
     "L_mult": 5, "R1": 3, "R2": 4, "M": 0}
)

IIR_POINT = {
    "structure": "cascade",
    "family": "elliptic",
    "word_length": 12,
    "ripple_allocation": 0.6,
}


class TestTechnologyTable:
    def test_anchor_rows_returned_verbatim(self):
        for node in TECHNOLOGY_NODES:
            assert technology_node(node.feature_um) is node

    def test_anchor_is_the_tr4101_generation(self):
        node = technology_node(TR4101_FEATURE_UM)
        assert node.vdd_nominal_v == VDD_REFERENCE_V
        assert node.leakage_factor == 1.0
        assert node.capacitance_factor == 1.0

    def test_interpolation_brackets_the_anchors(self):
        node = technology_node(0.30)
        above, below = technology_node(0.35), technology_node(0.25)
        assert below.vdd_nominal_v < node.vdd_nominal_v < above.vdd_nominal_v
        assert below.vth_v < node.vth_v < above.vth_v
        assert above.leakage_factor < node.leakage_factor < below.leakage_factor

    def test_out_of_span_rejected(self):
        with pytest.raises(ConfigurationError):
            technology_node(0.09)
        with pytest.raises(ConfigurationError):
            technology_node(2.0)
        with pytest.raises(ConfigurationError):
            technology_node(-1.0)

    def test_capacitance_factor_linear_in_feature(self):
        assert technology_node(0.18).capacitance_factor == pytest.approx(
            0.18 / 0.35
        )

    def test_invalid_node_rejected(self):
        from repro.power import TechnologyNode

        with pytest.raises(ConfigurationError):
            TechnologyNode(0.35, 3.3, 3.4, 1.0)  # vth above vdd
        with pytest.raises(ConfigurationError):
            TechnologyNode(0.35, 3.3, 0.6, -1.0)


class TestDVFS:
    def test_exactly_one_at_nominal(self):
        for node in TECHNOLOGY_NODES:
            assert frequency_scale(node, node.vdd_nominal_v) == 1.0

    def test_nominal_reproduces_clock_model(self):
        node = technology_node(0.35)
        assert max_frequency_mhz(node, node.vdd_nominal_v, 32) == clock_mhz(
            0.35, 32
        )

    def test_scale_monotone_in_vdd(self):
        node = technology_node(0.25)
        low, high = dvfs_bounds(node)
        vdds = [low + (high - low) * i / 10 for i in range(11)]
        scales = [frequency_scale(node, v) for v in vdds]
        assert scales == sorted(scales)
        assert scales[0] < 1.0 < scales[-1]

    def test_out_of_window_rejected(self):
        node = technology_node(0.35)
        low, high = dvfs_bounds(node)
        with pytest.raises(ConfigurationError):
            frequency_scale(node, low - 0.01)
        with pytest.raises(ConfigurationError):
            OperatingPoint(node, high + 0.01)

    def test_nominal_operating_point(self):
        node = technology_node(0.25)
        op = OperatingPoint.nominal(node)
        assert op.frequency_scale == 1.0
        assert op.frequency_mhz(32) == clock_mhz(0.25, 32)


class TestLeakage:
    def test_linear_in_bits_and_vdd(self):
        node = technology_node(0.35)
        base = leakage_power_mw(1000, node, node.vdd_nominal_v)
        assert base == pytest.approx(
            1000 * LEAKAGE_NW_PER_BIT * 1e-6
        )
        assert leakage_power_mw(2000, node, node.vdd_nominal_v) == (
            pytest.approx(2 * base)
        )
        half_v = leakage_power_mw(1000, node, node.vdd_nominal_v / 2)
        assert half_v == pytest.approx(base / 2)

    def test_deep_submicron_leaks_more(self):
        bits = 10_000
        coarse = leakage_power_mw(
            bits, technology_node(0.35), 3.3
        )
        fine = leakage_power_mw(bits, technology_node(0.13), 3.3 * 1.3)
        assert fine > coarse

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            leakage_power_mw(-1, technology_node(0.35), 3.3)


class TestPowerConfig:
    def test_defaults_resolve_to_spec_node_nominal(self):
        op = PowerConfig().operating_point(0.25)
        assert op.node.feature_um == 0.25
        assert op.vdd_v == op.node.vdd_nominal_v
        assert op.frequency_scale == 1.0

    def test_overrides(self):
        op = PowerConfig(tech_node_um=0.18, vdd_v=1.5).operating_point(0.25)
        assert op.node.feature_um == 0.18
        assert op.vdd_v == 1.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerConfig(tech_node_um=-0.1)
        with pytest.raises(ConfigurationError):
            PowerConfig(max_power_mw=0.0)
        with pytest.raises(ConfigurationError):
            PowerConfig(max_energy_nj=-5.0)

    def test_fingerprint_fragment_excludes_caps(self):
        # Caps shape the goal, not the metrics: configs that differ
        # only in caps must share a cache namespace.
        a = PowerConfig(max_energy_nj=1.0)
        b = PowerConfig(max_power_mw=2.0, objective=False)
        assert a.fingerprint_fragment() == b.fingerprint_fragment()
        assert (
            PowerConfig(vdd_v=2.0).fingerprint_fragment()
            != a.fingerprint_fragment()
        )

    def test_payload_round_trip(self):
        config = PowerConfig(
            tech_node_um=0.18, vdd_v=1.5, max_energy_nj=3.0, objective=False
        )
        assert PowerConfig.from_payload(config.to_payload()) == config
        assert PowerConfig.from_payload(None) is None


class TestPowerModel:
    def _model(self, **kwargs):
        return PowerModel.for_spec(0.25, PowerConfig(**kwargs))

    def test_viterbi_report_units(self):
        from repro.hardware.vliw import optimize_machine
        from repro.hardware.trace import viterbi_program
        from repro.viterbi.metacore import instance_params

        program = viterbi_program(instance_params(POINT))
        estimate = optimize_machine(program, 1e6, feature_um=0.25)
        report = self._model().viterbi_report(
            program, estimate.machine, bits_per_s=estimate.throughput_bps
        )
        assert report.dynamic_nj > 0
        assert report.leakage_nj > 0
        assert report.energy_nj == pytest.approx(
            report.dynamic_nj + report.leakage_nj
        )
        assert report.power_mw == pytest.approx(
            report.dynamic_power_mw + report.leakage_power_mw
        )
        # energy/item * items/s must equal the reported average power.
        assert report.power_mw == pytest.approx(
            report.energy_nj * estimate.throughput_bps * 1e-6
        )

    def test_lower_vdd_lower_energy(self):
        from repro.hardware.vliw import optimize_machine
        from repro.hardware.trace import viterbi_program
        from repro.viterbi.metacore import instance_params

        program = viterbi_program(instance_params(POINT))
        machine = optimize_machine(program, 1e6, feature_um=0.25).machine
        nominal = self._model().viterbi_report(program, machine, 1e6)
        scaled = self._model(vdd_v=2.0).viterbi_report(program, machine, 1e6)
        assert scaled.energy_nj < nominal.energy_nj
        assert scaled.frequency_mhz < nominal.frequency_mhz


class TestGatingBitIdentity:
    def test_power_off_fingerprint_has_no_power_fragment(self):
        spec = ViterbiSpec(1e6, CURVE)
        assert "power" not in ViterbiMetacoreEvaluator(spec).fingerprint()
        ispec = IIRSpec.paper(4.0)
        assert "power" not in IIRMetacoreEvaluator(ispec).fingerprint()

    def test_power_on_fingerprint_differs(self):
        off = ViterbiMetacoreEvaluator(ViterbiSpec(1e6, CURVE)).fingerprint()
        on = ViterbiMetacoreEvaluator(
            ViterbiSpec(1e6, CURVE, power=PowerConfig())
        ).fingerprint()
        assert on != off
        assert on.startswith(off)

    def test_viterbi_nominal_power_only_adds_energy_keys(self):
        off = ViterbiMetacoreEvaluator(ViterbiSpec(1e6, CURVE))
        on = ViterbiMetacoreEvaluator(
            ViterbiSpec(1e6, CURVE, power=PowerConfig())
        )
        m_off = off.evaluate(POINT, 0)
        m_on = on.evaluate(POINT, 0)
        assert set(m_on) == set(m_off) | {"energy_nj_per_bit", "power_mw"}
        for key, value in m_off.items():
            assert m_on[key] == value, key

    def test_iir_nominal_power_only_adds_energy_keys(self):
        off = IIRMetacoreEvaluator(IIRSpec.paper(4.0))
        on = IIRMetacoreEvaluator(
            IIRSpec.paper(4.0, power=PowerConfig())
        )
        m_off = off.evaluate(IIR_POINT, 0)
        m_on = on.evaluate(IIR_POINT, 0)
        assert set(m_on) == set(m_off) | {"energy_nj_per_sample", "power_mw"}
        for key, value in m_off.items():
            assert m_on[key] == value, key

    def test_goal_unchanged_with_power_off(self):
        goal = ViterbiSpec(1e6, CURVE).goal()
        assert [o.metric for o in goal.objectives] == ["area_mm2"]
        assert goal.constraints == []


class TestThreeObjectiveGoals:
    def test_viterbi_goal_gains_energy_axis(self):
        spec = ViterbiSpec(
            1e6, CURVE,
            power=PowerConfig(max_energy_nj=5.0, max_power_mw=100.0),
        )
        goal = spec.goal()
        assert [o.metric for o in goal.objectives] == [
            "area_mm2", "energy_nj_per_bit",
        ]
        bounds = {c.metric: c.upper for c in goal.all_constraints()}
        assert bounds["energy_nj_per_bit"] == 5.0
        assert bounds["power_mw"] == 100.0

    def test_constraint_only_mode(self):
        spec = IIRSpec.paper(
            4.0, power=PowerConfig(max_energy_nj=5.0, objective=False)
        )
        goal = spec.goal()
        assert [o.metric for o in goal.objectives] == ["area_mm2"]
        assert any(
            c.metric == "energy_nj_per_sample" for c in goal.constraints
        )

    def test_compare_breaks_area_ties_on_energy(self):
        goal = DesignGoal(
            objectives=[Objective("area_mm2"), Objective("energy_nj_per_bit")]
        )
        a = {"area_mm2": 1.0, "energy_nj_per_bit": 0.5}
        b = {"area_mm2": 1.0, "energy_nj_per_bit": 0.9}
        assert goal.compare(a, b) < 0
        assert goal.compare(b, a) > 0
        assert goal.compare(a, dict(a)) == 0

    def test_compare_primary_still_dominates(self):
        goal = DesignGoal(
            objectives=[Objective("area_mm2"), Objective("energy_nj_per_bit")]
        )
        small_hot = {"area_mm2": 1.0, "energy_nj_per_bit": 9.0}
        big_cool = {"area_mm2": 2.0, "energy_nj_per_bit": 0.1}
        assert goal.compare(small_hot, big_cool) < 0

    def test_frontier_spans_energy_axis(self):
        from repro.atlas.frontier import frontier_objectives

        goal = ViterbiSpec(
            1e6, CURVE, power=PowerConfig(max_power_mw=10.0)
        ).goal()
        metrics = [o.metric for o in frontier_objectives(goal)]
        assert "area_mm2" in metrics
        assert "energy_nj_per_bit" in metrics
        assert "power_mw" in metrics


class TestEndToEnd:
    CONFIG = SearchConfig(max_resolution=1, refine_top_k=1)
    FIXED = {"G": "standard", "N": 1, "K": 3, "Q": "hard"}

    def _search(self, power):
        spec = ViterbiSpec(1e6, CURVE, power=power)
        return ViterbiMetaCore(
            spec, fixed=dict(self.FIXED), config=self.CONFIG
        ).search()

    def test_power_off_selection_untouched_by_import(self):
        result = self._search(None)
        assert result.feasible
        assert "energy_nj_per_bit" not in result.best_metrics

    def test_energy_capped_search_feasible(self):
        baseline = self._search(PowerConfig())
        assert baseline.feasible
        cap = baseline.best_metrics["energy_nj_per_bit"] * 1.5
        result = self._search(PowerConfig(max_energy_nj=cap))
        assert result.feasible
        assert result.best_metrics["energy_nj_per_bit"] <= cap

    def test_impossible_energy_cap_infeasible(self):
        result = self._search(PowerConfig(max_energy_nj=1e-9))
        assert not result.feasible

    def test_atlas_recommend_with_energy_constraint(self, tmp_path):
        atlas = str(tmp_path / "atlas.jsonl")
        spec = ViterbiSpec(1e6, CURVE, power=PowerConfig())
        metacore = ViterbiMetaCore(
            spec, fixed=dict(self.FIXED), config=self.CONFIG,
            atlas_path=atlas,
        )
        result = metacore.search()
        assert result.feasible
        cap = result.best_metrics["energy_nj_per_bit"] * 1.2
        fresh = ViterbiMetaCore(
            spec, fixed=dict(self.FIXED), config=self.CONFIG,
            atlas_path=atlas,
        )
        recommendation = fresh.recommend({"energy_nj_per_bit": cap})
        assert recommendation.feasible
        assert recommendation.n_evaluations == 0
        assert recommendation.metrics["energy_nj_per_bit"] <= cap


class TestCommandLineSpec:
    """The power-aware searches of the command line's Table 3 example
    (``viterbi-search --ber 5e-2 --es-n0-db 4.0 --throughput 1e6
    --max-resolution 1 --top-k 1``, with and without ``--power``), run
    in-process on their result objects with the command line's pinned
    parameters."""

    CONFIG = SearchConfig(max_resolution=1, refine_top_k=1)

    @classmethod
    def _facade(cls, power, atlas_path=None):
        spec = ViterbiSpec(
            1e6, BERThresholdCurve.single(4.0, 5e-2), power=power
        )
        return ViterbiMetaCore(
            spec,
            fixed=dict(VITERBI_DEFINITION.default_fixed),
            config=cls.CONFIG,
            atlas_path=atlas_path,
        )

    @pytest.fixture(scope="class")
    def searches(self):
        """``viterbi-search`` without ``--power``, then with ``--power
        --max-energy-nj 10``."""
        off = self._facade(None).search()
        on = self._facade(PowerConfig(max_energy_nj=10)).search()
        return off, on

    def test_power_off_prices_no_energy(self, searches):
        off, _ = searches
        assert off.feasible
        assert off.best_point is not None
        assert not [
            key for key in off.best_metrics
            if "energy" in key or key == "power_mw"
        ]

    def test_energy_capped_search_keeps_the_winner(self, searches):
        off, on = searches
        assert on.feasible
        assert on.best_point == off.best_point
        assert 0 < on.best_metrics["energy_nj_per_bit"] <= 10
        assert on.best_metrics["power_mw"] > 0

    def test_swept_atlas_answers_recommend_without_evaluating(self, tmp_path):
        """``sweep --power --specs 5e-2:1e6``, then ``recommend --power
        --constraint energy_nj_per_bit=10`` on the same atlas."""
        atlas = str(tmp_path / "atlas.jsonl")
        prototype = self._facade(PowerConfig(), atlas)
        outcome = prototype.sweep([prototype.spec])
        assert outcome.atlas_stats["scenarios"] == 1
        assert outcome.atlas_stats["records"] >= 1
        recommendation = self._facade(PowerConfig(), atlas).recommend(
            {"energy_nj_per_bit": 10}
        )
        assert recommendation.source == "atlas"
        assert recommendation.n_evaluations == 0
        assert recommendation.feasible
        assert 0 < recommendation.metrics["energy_nj_per_bit"] <= 10


class TestWirePayloads:
    def test_power_off_payload_has_no_power_key(self):
        from repro.serve.protocol import spec_from_payload, spec_to_payload

        payload = spec_to_payload(ViterbiSpec(1e6, CURVE))
        assert "power" not in payload
        assert spec_to_payload(IIRSpec.paper(4.0)).get("power") is None
        assert spec_from_payload(payload).power is None

    def test_viterbi_round_trip(self):
        from repro.serve.protocol import spec_from_payload, spec_to_payload

        spec = ViterbiSpec(
            1e6, CURVE,
            power=PowerConfig(tech_node_um=0.18, vdd_v=1.5, max_energy_nj=2.0),
        )
        restored = spec_from_payload(spec_to_payload(spec))
        assert restored.power == spec.power

    def test_iir_round_trip(self):
        from repro.serve.protocol import spec_from_payload, spec_to_payload

        spec = IIRSpec.paper(
            4.0, power=PowerConfig(max_power_mw=5.0, objective=False)
        )
        restored = spec_from_payload(spec_to_payload(spec))
        assert restored.power == spec.power


class TestTraceReport:
    def test_power_line_when_priced(self):
        from repro.observability.export import (
            TraceSummary,
            format_trace_report,
        )

        summary = TraceSummary(
            metrics={
                "power.priced": {"type": "counter", "value": 8},
                "power.priced.f0": {"type": "counter", "value": 6},
                "power.priced.f3": {"type": "counter", "value": 2},
            },
        )
        report = format_trace_report(summary)
        assert "power: 8 evaluations energy-priced (f0=75%, f3=25%)" in report
        # power.* counters fold into the power line, not the generic dump.
        assert "power.priced" not in report

    def test_no_power_line_without_telemetry(self):
        from repro.observability.export import (
            TraceSummary,
            format_trace_report,
        )

        assert "power:" not in format_trace_report(TraceSummary())

    def test_counters_increment_on_priced_evaluations(self):
        from repro.observability.metrics import get_registry

        registry = get_registry()
        before = registry.counter("power.priced").value
        spec = ViterbiSpec(1e6, CURVE, power=PowerConfig())
        ViterbiMetacoreEvaluator(spec).evaluate(POINT, 0)
        assert registry.counter("power.priced").value == before + 1
