"""Tests for the extension modules: channels, power, batch sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    DesignGoal,
    DesignSpace,
    DiscreteParameter,
    FunctionEvaluator,
    MetacoreSearch,
    Objective,
    Constraint,
    SearchConfig,
)
from repro.core.batch import SpecificationSweep
from repro.errors import ConfigurationError
from repro.hardware import MachineConfig, ViterbiInstanceParams, viterbi_program
from repro.power import EnergyEstimate, estimate_energy
from repro.viterbi import (
    AdaptiveQuantizer,
    BERSimulator,
    ConvolutionalEncoder,
    HardQuantizer,
    Trellis,
    ViterbiDecoder,
)
from repro.viterbi.channels import BinarySymmetricChannel, RayleighFadingChannel


class TestBinarySymmetricChannel:
    def test_flip_statistics(self):
        channel = BinarySymmetricChannel(0.1)
        symbols = np.zeros(100_000, dtype=np.int8)
        received = channel.transmit(symbols, rng=0)
        flipped = np.count_nonzero(received < 0)
        assert flipped / symbols.size == pytest.approx(0.1, abs=0.01)

    def test_zero_crossover_clean(self):
        channel = BinarySymmetricChannel(0.0)
        symbols = np.array([0, 1, 1, 0])
        assert np.array_equal(channel.transmit(symbols, rng=1),
                              [1.0, -1.0, -1.0, 1.0])

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            BinarySymmetricChannel(0.7)

    def test_equivalent_to_awgn(self):
        channel = BinarySymmetricChannel.equivalent_to_awgn(0.0)
        assert channel.crossover == pytest.approx(
            0.5 * math.erfc(1.0), rel=1e-12
        )

    def test_decoder_corrects_bsc_errors(self, encoder_k5, trellis_k5, rng):
        decoder = ViterbiDecoder(trellis_k5, HardQuantizer(), 25)
        channel = BinarySymmetricChannel(0.02)
        bits = rng.integers(0, 2, size=(8, 256), dtype=np.int8)
        received = channel.transmit(encoder_k5.encode(bits), rng)
        decoded = decoder.decode(received, sigma=channel.sigma)
        errors = np.count_nonzero(decoded != bits)
        assert errors / bits.size < 5e-3


class TestRayleighChannel:
    def test_fading_worse_than_awgn(self, encoder_k5, trellis_k5):
        from repro.viterbi import AWGNChannel

        decoder = ViterbiDecoder(trellis_k5, AdaptiveQuantizer(3), 25)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(16, 256), dtype=np.int8)
        symbols = encoder_k5.encode(bits)
        awgn = AWGNChannel(3.0)
        fading = RayleighFadingChannel(3.0)
        errors_awgn = np.count_nonzero(
            decoder.decode(awgn.transmit(symbols, rng), awgn.sigma) != bits
        )
        errors_fading = np.count_nonzero(
            decoder.decode(fading.transmit(symbols, rng), fading.sigma) != bits
        )
        assert errors_fading > errors_awgn

    def test_block_fading_bursts(self):
        channel = RayleighFadingChannel(10.0, coherence_symbols=64)
        symbols = np.zeros(512, dtype=np.int8)
        received = channel.transmit(symbols, rng=3)
        # With CSI equalization the signal level is constant but the
        # effective noise scale is per-block (sigma / h_block): the
        # blockwise standard deviations must differ visibly.
        blocks = received.reshape(8, 64)
        block_stds = blocks.std(axis=1)
        assert block_stds.max() / block_stds.min() > 1.5

    def test_uncoded_ber_formula_decreases(self):
        values = [
            RayleighFadingChannel(snr).average_uncoded_ber()
            for snr in (0.0, 10.0, 20.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_coherence(self):
        with pytest.raises(ConfigurationError):
            RayleighFadingChannel(3.0, coherence_symbols=0)

    def test_interleaving_value_shown_by_coherence(self, encoder_k5, trellis_k5):
        """Correlated fades (no interleaving) hurt the decoder more
        than independent per-symbol fades."""
        decoder = ViterbiDecoder(trellis_k5, AdaptiveQuantizer(3), 25)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(24, 256), dtype=np.int8)
        symbols = encoder_k5.encode(bits)
        fast = RayleighFadingChannel(6.0, coherence_symbols=1)
        slow = RayleighFadingChannel(6.0, coherence_symbols=128)
        errors_fast = np.count_nonzero(
            decoder.decode(fast.transmit(symbols, rng), fast.sigma) != bits
        )
        errors_slow = np.count_nonzero(
            decoder.decode(slow.transmit(symbols, rng), slow.sigma) != bits
        )
        assert errors_slow > errors_fast


class TestPowerModel:
    def _program(self):
        return viterbi_program(ViterbiInstanceParams(5, 25, 1))

    def test_energy_positive_and_decomposed(self):
        estimate = estimate_energy(self._program(), MachineConfig(n_alus=2))
        assert estimate.operation_pj > 0
        assert estimate.overhead_pj > 0
        assert estimate.total_pj == pytest.approx(
            estimate.operation_pj + estimate.overhead_pj
        )

    def test_smaller_feature_less_energy(self):
        program = self._program()
        big = estimate_energy(program, MachineConfig(n_alus=2, feature_um=0.35))
        small = estimate_energy(program, MachineConfig(n_alus=2, feature_um=0.18))
        assert small.total_pj < big.total_pj

    def test_wider_machine_more_overhead(self):
        program = self._program()
        narrow = estimate_energy(program, MachineConfig(n_alus=1))
        wide = estimate_energy(program, MachineConfig(n_alus=12))
        # Same work, but the wide machine burns more per-cycle overhead
        # relative to its shorter schedule only if slots are idle;
        # per-iteration overhead = cycles * issue width, which grows.
        assert wide.overhead_pj != narrow.overhead_pj

    def test_more_states_more_energy(self):
        small = estimate_energy(
            viterbi_program(ViterbiInstanceParams(3, 15, 1)),
            MachineConfig(n_alus=2),
        )
        large = estimate_energy(
            viterbi_program(ViterbiInstanceParams(7, 35, 1)),
            MachineConfig(n_alus=2),
        )
        assert large.total_pj > 4 * small.total_pj

    def test_power_at_throughput(self):
        estimate = EnergyEstimate(operation_pj=800.0, overhead_pj=200.0)
        # 1000 pJ per bit at 1 Mbps = 1 mW.
        assert estimate.power_mw(1e6) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            estimate.power_mw(0.0)

    def test_spills_cost_energy(self):
        program = self._program()
        program.live_words = 200
        no_spill = estimate_energy(
            program, MachineConfig(n_alus=2, regfile_words=256)
        )
        spilled = estimate_energy(
            program, MachineConfig(n_alus=2, regfile_words=32)
        )
        assert spilled.operation_pj > no_spill.operation_pj


class TestSpecificationSweep:
    def _runner(self):
        space = DesignSpace([DiscreteParameter("x", tuple(range(12)))])

        def make(threshold):
            def evaluate(point, fidelity):
                x = float(point["x"])
                return {
                    "area_mm2": 1.0 + x,
                    "spec_violation": 0.0 if x >= threshold else 1.0,
                }

            goal = DesignGoal(
                objectives=[Objective("area_mm2")],
                constraints=[Constraint("spec_violation", upper=0.0)],
            )
            return MetacoreSearch(
                space, goal, FunctionEvaluator(evaluate, 0),
                SearchConfig(max_resolution=3),
            ).run()

        return make

    def test_sweep_rows_and_reduction(self):
        sweep = SpecificationSweep(runner=self._runner())
        rows = sweep.run([2, 5, 8], labels=["easy", "mid", "hard"])
        assert [row.label for row in rows] == ["easy", "mid", "hard"]
        assert all(row.feasible for row in rows)
        bests = [row.best_objective("area_mm2") for row in rows]
        assert bests == sorted(bests)  # harder spec, bigger best
        for row in rows:
            reduction = row.reduction_percent("area_mm2")
            assert reduction is not None and reduction > 0

    def test_infeasible_row(self):
        sweep = SpecificationSweep(runner=self._runner())
        rows = sweep.run([99], labels=["impossible"])
        assert not rows[0].feasible
        assert rows[0].average_objective is None

    def test_format_table(self):
        sweep = SpecificationSweep(runner=self._runner())
        sweep.run([2, 99], labels=["ok", "impossible"])
        text = sweep.format_table(
            extra_columns={"note": lambda row: "yes" if row.feasible else "no"}
        )
        assert "ok" in text and "impossible" in text
        assert "NO" in text
        assert "note" in text

    def test_label_mismatch_rejected(self):
        sweep = SpecificationSweep(runner=self._runner())
        with pytest.raises(ValueError):
            sweep.run([1, 2], labels=["only-one"])
