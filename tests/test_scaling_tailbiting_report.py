"""Tests for section scaling and tail-biting coding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, FilterDesignError
from repro.iir.design import LowpassSpec, design_filter
from repro.iir.scaling import linf_norm, scale_cascade
from repro.iir.structures import realize
from repro.viterbi import (
    AdaptiveQuantizer,
    ConvolutionalEncoder,
    HardQuantizer,
    Trellis,
    ViterbiDecoder,
    bpsk_modulate,
)
from repro.viterbi.tailbiting import decode_tailbiting, encode_tailbiting


@pytest.fixture(scope="module")
def cascade8():
    spec = LowpassSpec(0.25 * math.pi, 0.4 * math.pi, 0.03, 0.01)
    tf = design_filter(spec, "elliptic").to_tf()
    return realize("cascade", tf), tf


class TestScaling:
    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_transfer_function_preserved(self, cascade8, norm):
        cascade, tf = cascade8
        scaled, _ = scale_cascade(cascade, norm)
        omega = np.linspace(0.05, 3.0, 64)
        assert np.max(
            np.abs(scaled.to_tf().response(omega) - tf.response(omega))
        ) < 1e-9

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_internal_nodes_normalized(self, cascade8, norm):
        cascade, _ = cascade8
        _, report = scale_cascade(cascade, norm)
        assert all(
            n == pytest.approx(1.0, rel=1e-6) for n in report.node_norms_after
        )

    def test_headroom_saved_when_nodes_hot(self, cascade8):
        cascade, _ = cascade8
        _, report = scale_cascade(cascade, "linf")
        # The paper-style narrow filters have resonant internal nodes;
        # scaling buys headroom whenever the worst node exceeded 1.
        if report.worst_before > 1.0:
            assert report.worst_after < report.worst_before

    def test_single_section_noop(self):
        spec = LowpassSpec(0.3 * math.pi, 0.6 * math.pi, 0.1, 0.05)
        tf = design_filter(spec, "elliptic").to_tf()
        cascade = realize("cascade", tf)
        if len(cascade.sections) > 1:
            pytest.skip("design produced multiple sections")
        scaled, report = scale_cascade(cascade)
        assert report.node_norms_before == ()

    def test_unknown_norm_rejected(self, cascade8):
        cascade, _ = cascade8
        with pytest.raises(FilterDesignError):
            scale_cascade(cascade, "l7")

    def test_linf_norm_peak(self):
        from repro.iir.transfer import TransferFunction

        tf = TransferFunction([1.0], [1.0, -0.9])
        assert linf_norm(tf) == pytest.approx(10.0, rel=1e-3)


class TestTailbiting:
    def test_start_equals_end_state(self, encoder_k5, rng):
        bits = rng.integers(0, 2, size=64, dtype=np.int8)
        memory = encoder_k5.constraint_length - 1
        # Re-derive the initial state and walk the whole frame.
        state = 0
        for bit in bits[-memory:]:
            state = encoder_k5.next_state(state, int(bit))
        start = state
        for bit in bits:
            state = encoder_k5.next_state(state, int(bit))
        assert state == start

    def test_no_rate_overhead(self, encoder_k5, rng):
        bits = rng.integers(0, 2, size=64, dtype=np.int8)
        symbols = encode_tailbiting(encoder_k5, bits)
        assert symbols.shape == (64, 2)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_noiseless_round_trip(self, k, rng):
        encoder = ConvolutionalEncoder(k)
        decoder = ViterbiDecoder(
            Trellis.from_encoder(encoder), HardQuantizer(), 5 * k
        )
        bits = rng.integers(0, 2, size=(4, 96), dtype=np.int8)
        clean = bpsk_modulate(encode_tailbiting(encoder, bits))
        decoded = decode_tailbiting(decoder, clean, sigma=0.1)
        assert np.array_equal(decoded, bits)

    def test_noisy_decoding_reasonable(self, encoder_k5, rng):
        from repro.viterbi import AWGNChannel

        decoder = ViterbiDecoder(
            Trellis.from_encoder(encoder_k5), AdaptiveQuantizer(3), 25
        )
        channel = AWGNChannel(3.0)
        bits = rng.integers(0, 2, size=(16, 96), dtype=np.int8)
        received = channel.transmit(encode_tailbiting(encoder_k5, bits), rng)
        decoded = decode_tailbiting(decoder, received, sigma=channel.sigma)
        errors = np.count_nonzero(decoded != bits)
        assert errors / bits.size < 5e-3

    def test_frame_too_short_rejected(self, encoder_k5):
        with pytest.raises(ConfigurationError):
            encode_tailbiting(encoder_k5, np.array([1, 0]))

    def test_wraps_validated(self, encoder_k3):
        decoder = ViterbiDecoder(
            Trellis.from_encoder(encoder_k3), HardQuantizer(), 9
        )
        with pytest.raises(ConfigurationError):
            decode_tailbiting(decoder, np.zeros((8, 2)), wraps=1)
