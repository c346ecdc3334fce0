"""Tests for the hardware cost models (Trimaran/TR4101 stand-in)."""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SynthesisError
from repro.hardware import (
    AreaBreakdown,
    LeveledProgram,
    MachineConfig,
    OperationCounts,
    ViterbiInstanceParams,
    clock_mhz,
    data_path_factor,
    estimate_area,
    evaluate_machine,
    feature_scale,
    optimize_machine,
    schedule,
    throughput_bps,
    viterbi_program,
    width_speed_factor,
)
from repro.hardware import vliw
from repro.hardware.vliw import MAX_ALUS, MAX_MEM_PORTS, MAX_MULTS, REGFILE_CHOICES


class TestOperationCounts:
    def test_addition(self):
        total = OperationCounts(alu=2, load=1) + OperationCounts(alu=3, store=4)
        assert total.alu == 5 and total.load == 1 and total.store == 4

    def test_scaled(self):
        assert OperationCounts(alu=4).scaled(0.5).alu == 2

    def test_memory_and_total(self):
        counts = OperationCounts(alu=1, load=2, store=3, branch=4, mult=5)
        assert counts.memory == 5
        assert counts.total == 15


class TestClockModel:
    def test_anchor_point(self):
        assert clock_mhz(0.35, 32) == pytest.approx(81.0)

    def test_linear_feature_scaling(self):
        assert clock_mhz(0.175, 32) == pytest.approx(162.0)

    def test_width_speedup_mild(self):
        assert 1.0 < width_speed_factor(8) < 1.25

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            clock_mhz(0.0)
        with pytest.raises(ConfigurationError):
            width_speed_factor(0)


class TestAreaModel:
    def test_quadratic_feature_scale(self):
        assert feature_scale(0.35) == pytest.approx(1.0)
        assert feature_scale(0.7) == pytest.approx(4.0)

    def test_data_path_factor_bounds(self):
        assert data_path_factor(32) == pytest.approx(1.0)
        assert 0.25 <= data_path_factor(1) < 0.3

    def test_area_monotone_in_alus(self):
        small = estimate_area(1, 1, 16, 1000, 0.25).total
        big = estimate_area(8, 1, 16, 1000, 0.25).total
        assert big > small

    def test_area_monotone_in_width(self):
        narrow = estimate_area(2, 1, 8, 1000, 0.25).total
        wide = estimate_area(2, 1, 32, 1000, 0.25).total
        assert wide > narrow

    def test_area_breakdown_sums(self):
        breakdown = estimate_area(4, 2, 16, 2048, 0.25, n_mults=1)
        parts = (
            breakdown.control
            + breakdown.alus
            + breakdown.mults
            + breakdown.bypass
            + breakdown.mem_ports
            + breakdown.regfile
            + breakdown.storage
        )
        assert breakdown.total == pytest.approx(parts)

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            estimate_area(0, 1, 16, 0, 0.25)
        with pytest.raises(ConfigurationError):
            estimate_area(1, 0, 16, 0, 0.25)


class TestScheduler:
    def _program(self) -> LeveledProgram:
        program = LeveledProgram(name="test", datapath_width=16)
        program.add_level("a", alu=8)
        program.add_level("b", alu=4, load=2)
        program.add_level("c", store=1, branch=1)
        return program

    def test_more_alus_fewer_cycles(self):
        program = self._program()
        slow = schedule(program, MachineConfig(n_alus=1))
        fast = schedule(program, MachineConfig(n_alus=4))
        assert fast.cycles < slow.cycles

    def test_levels_are_barriers(self):
        """A wide machine still pays one cycle per level plus overhead."""
        program = self._program()
        result = schedule(program, MachineConfig(n_alus=16, n_mem_ports=4))
        assert result.cycles >= len(program.levels) + 1

    def test_spill_penalty(self):
        program = self._program()
        program.live_words = 100
        no_spill = schedule(program, MachineConfig(n_alus=2, regfile_words=128))
        spilled = schedule(program, MachineConfig(n_alus=2, regfile_words=32))
        assert spilled.spill_ops > 0
        assert spilled.cycles > no_spill.cycles

    def test_mult_needs_mult_unit(self):
        program = LeveledProgram(name="m")
        program.add_level("mul", mult=4)
        assert throughput_bps(program, MachineConfig(n_alus=1, n_mults=0)) == 0.0
        assert throughput_bps(program, MachineConfig(n_alus=1, n_mults=1)) > 0.0

    def test_throughput_scales_with_clock(self):
        program = self._program()
        slow = throughput_bps(program, MachineConfig(n_alus=2, feature_um=0.35))
        fast = throughput_bps(program, MachineConfig(n_alus=2, feature_um=0.175))
        assert fast == pytest.approx(2 * slow)


class TestOptimizer:
    def test_min_area_meets_target(self):
        program = viterbi_program(ViterbiInstanceParams(5, 25, 1, 2, 3, 8, 1))
        estimate = optimize_machine(program, 1.0e6)
        assert estimate.throughput_bps >= 1.0e6

    def test_tighter_target_bigger_area(self):
        program = viterbi_program(ViterbiInstanceParams(5, 25, 3))
        loose = optimize_machine(program, 0.5e6)
        tight = optimize_machine(program, 4.0e6)
        assert tight.area_mm2 > loose.area_mm2

    def test_infeasible_raises(self):
        program = viterbi_program(ViterbiInstanceParams(9, 63, 4))
        with pytest.raises(SynthesisError):
            optimize_machine(program, 50.0e6)

    def test_rejects_nonpositive_target(self):
        program = viterbi_program(ViterbiInstanceParams(3, 6, 1))
        with pytest.raises(ConfigurationError):
            optimize_machine(program, 0.0)

    def test_evaluate_machine_consistent(self):
        program = viterbi_program(ViterbiInstanceParams(3, 9, 2))
        machine = MachineConfig(n_alus=2, datapath_width=program.datapath_width)
        estimate = evaluate_machine(program, machine)
        assert estimate.area_mm2 == pytest.approx(estimate.area.total)
        assert estimate.throughput_bps == throughput_bps(program, machine)


def _enumerated_machines(program, feature_um, needs_mults):
    """Every machine the optimizer may choose, in enumeration order."""
    mult_range = range(1, MAX_MULTS + 1) if needs_mults else (0,)
    return [
        evaluate_machine(
            program,
            MachineConfig(
                n_alus=n_alus,
                n_mem_ports=n_ports,
                n_mults=n_mults,
                regfile_words=regfile,
                feature_um=feature_um,
                datapath_width=program.datapath_width,
            ),
        )
        for n_alus, n_ports, n_mults, regfile in itertools.product(
            range(1, MAX_ALUS + 1),
            range(1, MAX_MEM_PORTS + 1),
            mult_range,
            REGFILE_CHOICES,
        )
    ]


def _exhaustive_optimum(program, estimates, target, feature_um):
    """Oracle: the full enumeration, keeping the first strictly smaller
    area among the machines meeting ``target``."""
    best = None
    for estimate in estimates:
        if estimate.throughput_bps < target:
            continue
        if best is None or estimate.area_mm2 < best.area_mm2:
            best = estimate
    if best is None:
        raise SynthesisError(
            f"{program.name}: no machine with <= {MAX_ALUS} ALUs reaches "
            f"{target:.3g} items/s at {feature_um} um"
        )
    return best


def _outcome(optimize):
    """What a caller can observe of one optimizer call."""
    try:
        estimate = optimize()
    except SynthesisError as exc:
        return ("infeasible", str(exc))
    return (
        estimate.machine,
        estimate.area_mm2,
        estimate.throughput_bps,
        estimate.schedule.cycles,
    )


def _mult_program() -> LeveledProgram:
    program = LeveledProgram(name="fir", storage_bits=512, live_words=40)
    program.add_level("load", load=4)
    program.add_level("mac", mult=8, alu=8)
    program.add_level("reduce", alu=7)
    program.add_level("store", store=1, branch=1)
    return program


_DIFF_PROGRAMS = [
    ViterbiInstanceParams(k, l_mult * k, r1)
    for k in range(3, 10)
    for l_mult, r1 in ((1, 1), (5, 3))
] + [
    ViterbiInstanceParams(k, 5 * k, r1, 2, r1 + 2, m, 1)
    for k, r1, m in ((3, 1, 2), (5, 2, 4), (7, 3, 8), (9, 1, 16))
]
def _params_id(params: ViterbiInstanceParams) -> str:
    return (
        f"K{params.constraint_length}L{params.traceback_depth}"
        f"R{params.low_resolution_bits}M{params.multires_paths}"
    )


_DIFF_TARGETS = (1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8)
_DIFF_FEATURES = (0.18, 0.25, 0.35)


class TestOptimizerMatchesEnumeration:
    """The vectorised optimizer returns exactly what full enumeration
    did: the same machine, area, throughput and cycles, or the same
    ``SynthesisError`` text."""

    def _assert_matches(self, program, needs_mults=None, features=_DIFF_FEATURES):
        mults = program.op_counts.mult > 0 if needs_mults is None else needs_mults
        outcomes = set()
        for feature_um in features:
            estimates = _enumerated_machines(program, feature_um, mults)
            for target in _DIFF_TARGETS:
                expected = _outcome(
                    lambda: _exhaustive_optimum(program, estimates, target, feature_um)
                )
                actual = _outcome(
                    lambda: optimize_machine(program, target, feature_um, needs_mults)
                )
                assert actual == expected, (program.name, target, feature_um)
                outcomes.add(expected[0] == "infeasible")
        return outcomes

    @pytest.mark.parametrize("params", _DIFF_PROGRAMS, ids=_params_id)
    def test_viterbi_programs(self, params):
        self._assert_matches(viterbi_program(params))

    def test_program_needing_multipliers(self):
        assert self._assert_matches(_mult_program()) == {True, False}

    def test_forced_multipliers_on_mult_free_program(self):
        program = viterbi_program(ViterbiInstanceParams(5, 25, 2))
        assert self._assert_matches(program, needs_mults=True) == {True, False}

    def test_area_ties_break_like_enumeration_order(self, monkeypatch):
        """With many equal areas across columns, the winner is the first
        tied machine in (ALUs, ports, multipliers, register) order."""

        def coarse_area(program, machine):
            units = float(machine.n_alus + machine.n_mem_ports + machine.n_mults)
            return AreaBreakdown(units, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(vliw, "_machine_area", coarse_area)
        multires = ViterbiInstanceParams(5, 25, 2, 2, 4, 4, 1)
        self._assert_matches(viterbi_program(multires))
        self._assert_matches(_mult_program())

    @pytest.mark.parametrize("feature_um", (0.13, 0.5, 0.8))
    def test_other_feature_sizes(self, feature_um):
        for params in (
            ViterbiInstanceParams(3, 15, 1),
            ViterbiInstanceParams(7, 35, 3, 2, 5, 8, 1),
        ):
            self._assert_matches(viterbi_program(params), features=(feature_um,))
        self._assert_matches(_mult_program(), features=(feature_um,))

    @pytest.mark.parametrize("live_words", (40, 100, 300))
    def test_register_spills(self, live_words):
        """Live words above some register-file choices (40, 100) or all
        of them (300) add a spill level to those columns only."""
        spilled = [r for r in REGFILE_CHOICES if live_words > r]
        assert spilled
        for program in (
            _mult_program(),
            viterbi_program(ViterbiInstanceParams(5, 25, 2)),
        ):
            program.live_words = live_words
            self._assert_matches(program)

    def test_mult_program_denied_multipliers(self):
        """Every machine without a multiplier prices a multiply level at
        infinite cycles, so nothing is feasible."""
        program = _mult_program()
        assert self._assert_matches(program, needs_mults=False) == {True}

    def test_infeasible_target_message(self):
        program = viterbi_program(ViterbiInstanceParams(9, 63, 4))
        with pytest.raises(SynthesisError) as info:
            optimize_machine(program, 5e7)
        assert str(info.value) == (
            "viterbi_K9: no machine with <= 32 ALUs reaches "
            "5e+07 items/s at 0.25 um"
        )

    def test_evaluates_only_column_minima(self, monkeypatch):
        """One ``evaluate_machine`` call per feasible (ports, multipliers,
        register file) column, on its fewest feasible ALUs."""
        calls = []
        original = vliw.evaluate_machine

        def counting(program, machine):
            calls.append(machine)
            return original(program, machine)

        monkeypatch.setattr(vliw, "evaluate_machine", counting)
        program = viterbi_program(ViterbiInstanceParams(7, 35, 3))
        optimize_machine(program, 2e6)
        columns = {
            (m.n_mem_ports, m.n_mults, m.regfile_words) for m in calls
        }
        assert 0 < len(calls) == len(columns) <= (
            MAX_MEM_PORTS * len(REGFILE_CHOICES)
        )
        for machine in calls:
            assert original(program, machine).throughput_bps >= 2e6
            if machine.n_alus > 1:
                fewer = dataclasses.replace(machine, n_alus=machine.n_alus - 1)
                assert original(program, fewer).throughput_bps < 2e6


def _slot_bound_program() -> LeveledProgram:
    """Levels where the issue-width bound, an empty level and a spill
    level each set the cycle count on some machines."""
    program = LeveledProgram(name="slots", live_words=100)
    program.add_level("wide", alu=4, load=1, branch=1)
    program.add_level("empty")
    program.add_level("mixed", alu=9, mult=3, store=2, branch=1)
    return program


class TestColumnCycles:
    """The optimizer's vector schedule prices every machine exactly as
    :func:`schedule` does, including infinite cycles for a multiply
    level without multipliers."""

    @pytest.mark.parametrize(
        "make_program",
        [
            _mult_program,
            _slot_bound_program,
            lambda: viterbi_program(ViterbiInstanceParams(7, 35, 3, 2, 5, 8, 1)),
        ],
        ids=["fir", "slots", "viterbi_K7"],
    )
    def test_every_machine_matches_schedule(self, make_program):
        program = make_program()
        columns = list(
            itertools.product(
                range(1, MAX_MEM_PORTS + 1), range(MAX_MULTS + 1),
                REGFILE_CHOICES,
            )
        )
        cycles = vliw._column_cycles(program, columns)
        assert cycles.shape == (len(columns), MAX_ALUS)
        for (ports, mults, regfile), row in zip(columns, cycles):
            for n_alus, value in enumerate(row, start=1):
                machine = MachineConfig(
                    n_alus=n_alus, n_mem_ports=ports, n_mults=mults,
                    regfile_words=regfile,
                )
                assert value == schedule(program, machine).cycles


class TestViterbiTrace:
    def test_states_property(self):
        assert ViterbiInstanceParams(7, 35, 1).n_states == 64

    def test_multires_requires_pairing(self):
        with pytest.raises(ConfigurationError):
            ViterbiInstanceParams(5, 25, 1, 2, high_resolution_bits=3)

    def test_multires_r2_above_r1(self):
        with pytest.raises(ConfigurationError):
            ViterbiInstanceParams(5, 25, 3, 2, 3, 4, 1)

    def test_n_range(self):
        with pytest.raises(ConfigurationError):
            ViterbiInstanceParams(5, 25, 1, 2, 3, 4, 5)
        with pytest.raises(ConfigurationError):
            ViterbiInstanceParams(5, 25, 3, normalization_count=1)

    def test_ops_grow_with_k(self):
        small = viterbi_program(ViterbiInstanceParams(3, 15, 1)).op_counts.total
        large = viterbi_program(ViterbiInstanceParams(7, 35, 1)).op_counts.total
        assert large > 4 * small

    def test_multires_adds_work_and_storage(self):
        pure = viterbi_program(ViterbiInstanceParams(5, 25, 1))
        multi = viterbi_program(ViterbiInstanceParams(5, 25, 1, 2, 3, 8, 1))
        assert multi.op_counts.total > pure.op_counts.total
        assert multi.storage_bits > pure.storage_bits
        assert multi.datapath_width > pure.datapath_width

    def test_storage_grows_with_depth(self):
        shallow = viterbi_program(ViterbiInstanceParams(5, 10, 1)).storage_bits
        deep = viterbi_program(ViterbiInstanceParams(5, 35, 1)).storage_bits
        assert deep > shallow

    @given(st.integers(3, 9), st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_area_monotone_in_k(self, k, l_mult):
        """Area at fixed throughput grows with constraint length."""
        if k >= 9:
            return
        small = optimize_machine(
            viterbi_program(ViterbiInstanceParams(k, l_mult * k, 2)), 1e6
        ).area_mm2
        big = optimize_machine(
            viterbi_program(ViterbiInstanceParams(k + 1, l_mult * (k + 1), 2)),
            1e6,
        ).area_mm2
        assert big > small
