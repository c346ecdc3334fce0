"""Tests for the AWGN channel and the quantizers (paper Fig. 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.viterbi import (
    AWGNChannel,
    AdaptiveQuantizer,
    FixedQuantizer,
    HardQuantizer,
    bpsk_modulate,
    es_n0_db_to_linear,
    es_n0_linear_to_db,
    make_quantizer,
    noise_sigma,
)


class TestChannel:
    def test_db_linear_round_trip(self):
        for db in (-3.0, 0.0, 1.0, 4.5):
            assert es_n0_linear_to_db(es_n0_db_to_linear(db)) == pytest.approx(db)

    def test_linear_one_is_zero_db(self):
        assert es_n0_linear_to_db(1.0) == pytest.approx(0.0)

    def test_noise_sigma_at_zero_db(self):
        assert noise_sigma(0.0) == pytest.approx(math.sqrt(0.5))

    def test_bpsk_mapping(self):
        out = bpsk_modulate(np.array([0, 1, 0]))
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_transmit_reproducible(self):
        channel = AWGNChannel(2.0)
        symbols = np.array([0, 1, 1, 0])
        a = channel.transmit(symbols, rng=11)
        b = channel.transmit(symbols, rng=11)
        assert np.array_equal(a, b)

    def test_transmit_noise_statistics(self):
        channel = AWGNChannel(0.0)
        symbols = np.zeros(200_000, dtype=np.int8)
        received = channel.transmit(symbols, rng=0)
        noise = received - 1.0
        assert abs(noise.mean()) < 0.01
        assert noise.std() == pytest.approx(channel.sigma, rel=0.01)

    def test_uncoded_ber_formula(self):
        # Q(sqrt(2)) at 0 dB.
        assert AWGNChannel(0.0).uncoded_ber() == pytest.approx(
            0.5 * math.erfc(1.0), rel=1e-12
        )


class TestQuantizers:
    def test_hard_is_sign(self):
        quantizer = HardQuantizer()
        out = quantizer.quantize(np.array([-0.2, 0.0, 0.7]))
        assert np.array_equal(out, [0, 1, 1])

    def test_hard_levels(self):
        quantizer = HardQuantizer()
        assert quantizer.n_levels == 2

    def test_fixed_three_bit_levels(self):
        """The 8-level uniform quantizer of the paper's Fig. 4."""
        quantizer = FixedQuantizer(3, decision_level=0.25)
        samples = np.array([-2.0, -0.6, -0.3, -0.1, 0.1, 0.3, 0.6, 2.0])
        out = quantizer.quantize(samples)
        assert np.array_equal(out, [0, 1, 2, 3, 4, 5, 6, 7])

    def test_thresholds_count_and_symmetry(self):
        quantizer = FixedQuantizer(3, decision_level=0.5)
        thresholds = quantizer.thresholds()
        assert thresholds.size == 7
        assert np.allclose(thresholds, -thresholds[::-1])

    def test_adaptive_tracks_sigma(self):
        quantizer = AdaptiveQuantizer(3)
        assert quantizer.decision_level(0.8) == pytest.approx(0.4)
        assert quantizer.decision_level(0.2) == pytest.approx(0.1)

    def test_adaptive_needs_sigma(self):
        with pytest.raises(ConfigurationError):
            AdaptiveQuantizer(3).quantize(np.array([0.5]))

    @given(st.integers(2, 6), st.floats(0.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_quantizer_monotonic(self, bits, step):
        quantizer = FixedQuantizer(bits, decision_level=step)
        samples = np.linspace(-4, 4, 201)
        levels = quantizer.quantize(samples)
        assert np.all(np.diff(levels) >= 0)

    @given(st.integers(1, 6))
    def test_noiseless_symbols_nearest_their_ideal(self, bits):
        """A clean symbol must land closer to its own ideal level than
        to the opposite bit's (saturation to the exact ideal only
        happens when the decision level is small enough)."""
        quantizer = (
            HardQuantizer() if bits == 1 else AdaptiveQuantizer(bits)
        )
        clean = bpsk_modulate(np.array([0, 1]))
        levels = quantizer.quantize(clean, sigma=0.3)
        # A noiseless 0 (BPSK +1) maps to the top level, a 1 to level 0.
        ideal = {0: quantizer.max_level, 1: 0}
        for index, bit in enumerate((0, 1)):
            own = abs(levels[index] - ideal[bit])
            other = abs(levels[index] - ideal[1 - bit])
            assert own < other

    def test_factory_aliases(self):
        assert isinstance(make_quantizer("A", 3), AdaptiveQuantizer)
        assert isinstance(make_quantizer("F", 3), FixedQuantizer)
        assert isinstance(make_quantizer("hard", 1), HardQuantizer)

    def test_factory_one_bit_soft_degenerates_to_hard(self):
        assert isinstance(make_quantizer("adaptive", 1), HardQuantizer)

    def test_factory_rejects_hard_multibit(self):
        with pytest.raises(ConfigurationError):
            make_quantizer("hard", 3)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_quantizer("fuzzy", 3)

    def test_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            FixedQuantizer(0)
        with pytest.raises(ConfigurationError):
            FixedQuantizer(9)
        with pytest.raises(ConfigurationError):
            FixedQuantizer(3, decision_level=-1.0)
