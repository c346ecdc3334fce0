"""Tests for the union-bound BER estimator and distance spectra."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.viterbi import (
    ConvolutionalEncoder,
    distance_spectrum,
    estimate_ber,
    pairwise_error_hard,
    pairwise_error_multires,
    pairwise_error_soft,
)
from repro.viterbi.bounds import DistanceSpectrum, truncation_penalty


class TestDistanceSpectrum:
    def test_k3_matches_published_spectrum(self):
        """(7,5): T(D,N) derivative gives b_d = (d-4) 2^(d-5)."""
        spectrum = distance_spectrum(ConvolutionalEncoder(3))
        assert spectrum.free_distance == 5
        weights = spectrum.as_dict()
        for d in range(5, 11):
            assert weights[d] == (d - 4) * 2 ** (d - 5)

    def test_k5_matches_published_spectrum(self):
        """(23,35) published input-weight spectrum (Proakis Table 8.2)."""
        spectrum = distance_spectrum(ConvolutionalEncoder(5))
        assert spectrum.free_distance == 7
        weights = spectrum.as_dict()
        assert weights[7] == 4
        assert weights[8] == 12
        assert weights[9] == 20
        assert weights[10] == 72

    def test_k7_matches_published_spectrum(self):
        """(171,133): dfree=10, b10=36, b12=211, b14=1404."""
        spectrum = distance_spectrum(ConvolutionalEncoder(7))
        assert spectrum.free_distance == 10
        weights = spectrum.as_dict()
        assert weights[10] == 36
        assert weights[12] == 211
        assert weights[14] == 1404
        # Odd distances are absent for this code.
        assert weights.get(11, 0) == 0

    def test_longer_constraint_larger_dfree(self):
        dfrees = [
            distance_spectrum(ConvolutionalEncoder(k)).free_distance
            for k in (3, 5, 7, 9)
        ]
        assert dfrees == sorted(dfrees)
        assert dfrees[0] < dfrees[-1]

    #: The spectra of the default codes, frozen from the state-by-state
    #: trellis walk: every count is an integer-valued double, so any
    #: order of the sums gives these exact values.
    FROZEN_SPECTRA = {
        3: (5, ((5, 1.0), (6, 4.0), (7, 12.0), (8, 32.0), (9, 80.0),
                (10, 192.0))),
        4: (6, ((6, 2.0), (7, 7.0), (8, 18.0), (9, 49.0), (10, 130.0),
                (11, 333.0))),
        5: (7, ((7, 4.0), (8, 12.0), (9, 20.0), (10, 72.0), (11, 225.0),
                (12, 500.0))),
        6: (8, ((8, 2.0), (9, 36.0), (10, 32.0), (11, 62.0), (12, 332.0),
                (13, 701.0))),
        7: (10, ((10, 36.0), (12, 211.0), (14, 1404.0))),
        8: (10, ((10, 2.0), (11, 22.0), (12, 60.0), (13, 148.0),
                 (14, 340.0), (15, 1008.0))),
        9: (12, ((12, 33.0), (14, 281.0), (16, 2179.0))),
    }

    @pytest.mark.parametrize("k", sorted(FROZEN_SPECTRA))
    def test_default_code_spectra_frozen(self, k):
        assert distance_spectrum(ConvolutionalEncoder(k)) == DistanceSpectrum(
            *self.FROZEN_SPECTRA[k]
        )

    @pytest.mark.parametrize(
        "k,polynomials,extra",
        [
            (3, (0o7, 0o5, 0o7), 6),
            (5, (0o25, 0o33, 0o37), 4),
            (6, (0o65, 0o57), 9),
            (7, (0o155, 0o117), 1),
        ],
    )
    def test_matches_state_by_state_walk(self, k, polynomials, extra):
        encoder = ConvolutionalEncoder(k, polynomials)
        assert distance_spectrum(encoder, extra) == _walked_spectrum(
            encoder, extra
        )


def _walked_spectrum(encoder, extra_terms):
    """The reference: the same DP one state and one input bit at a time."""
    dfree = distance_spectrum(encoder, 1).free_distance
    dmax = dfree + extra_terms - 1
    counts = {}
    merged = [0] * (dmax + 1)
    start = sum(encoder.output_symbols(0, 1))
    if start <= dmax:
        counts[encoder.next_state(0, 1), start] = (1, 1)
    for _ in range(64 * encoder.constraint_length + 256):
        if not counts:
            break
        following = {}
        for (state, dist), (count, weight) in counts.items():
            for bit in (0, 1):
                nxt = encoder.next_state(state, bit)
                d = dist + sum(encoder.output_symbols(state, bit))
                if d > dmax:
                    continue
                if nxt == 0:
                    merged[d] += weight + bit * count
                else:
                    c, w = following.get((nxt, d), (0, 0))
                    following[nxt, d] = (c + count, w + weight + bit * count)
        counts = following
    return DistanceSpectrum(
        dfree,
        tuple(
            (d, float(merged[d]))
            for d in range(dfree, dmax + 1)
            if merged[d] > 0 or d == dfree
        ),
    )


class TestPairwiseError:
    def test_soft_decreases_with_distance(self):
        p = [pairwise_error_soft(d, 2.0, 3) for d in (5, 7, 10)]
        assert p[0] > p[1] > p[2]

    def test_hard_worse_than_soft(self):
        for d in (5, 7, 10):
            assert pairwise_error_hard(d, 2.0) > pairwise_error_soft(d, 2.0, 3)

    def test_hard_even_distance_half_term(self):
        # For even d the tie case counts half.
        p_even = pairwise_error_hard(6, 100.0)
        assert p_even >= 0.0

    def test_multires_between_hard_and_soft(self):
        hard = pairwise_error_hard(7, 2.0)
        soft = pairwise_error_soft(7, 2.0, 3)
        for m in (1, 4, 8):
            mid = pairwise_error_multires(7, 2.0, 3, m, 16)
            assert soft <= mid <= hard

    def test_multires_monotone_in_m(self):
        values = [
            pairwise_error_multires(7, 2.0, 3, m, 16) for m in (1, 2, 4, 8, 16)
        ]
        assert values == sorted(values, reverse=True)

    def test_multires_full_paths_equals_soft(self):
        full = pairwise_error_multires(7, 2.0, 3, 16, 16)
        assert full == pytest.approx(pairwise_error_soft(7, 2.0, 3), rel=1e-9)

    def test_multires_rejects_bad_m(self):
        with pytest.raises(ConfigurationError):
            pairwise_error_multires(7, 2.0, 3, 0, 16)

    def test_soft_rejects_one_bit(self):
        with pytest.raises(ConfigurationError):
            pairwise_error_soft(7, 2.0, 1)


class TestEstimator:
    def test_truncation_penalty_vanishes_past_7k(self):
        assert truncation_penalty(7 * 5, 5) < 1.05
        assert truncation_penalty(2 * 5, 5) > 2.0

    def test_estimate_monotone_in_snr(self):
        values = [
            estimate_ber(5, (0o35, 0o23), snr, 3, 25) for snr in (0.0, 2.0, 4.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_estimate_clamped(self):
        assert estimate_ber(3, (0o7, 0o5), -10.0, 1, 15) == 0.5

    def test_estimate_matches_measurement_at_moderate_snr(self, encoder_k5):
        """Union bound vs Monte-Carlo within a small factor at 2 dB."""
        from repro.viterbi import BERSimulator, HardQuantizer, Trellis, ViterbiDecoder

        decoder = ViterbiDecoder(
            Trellis.from_encoder(encoder_k5), HardQuantizer(), 25
        )
        simulator = BERSimulator(encoder_k5, frame_length=256)
        measured = simulator.measure(
            decoder, 2.0, max_bits=80_000, target_errors=400
        ).ber
        estimated = estimate_ber(5, (0o35, 0o23), 2.0, 1, 25)
        assert measured / 4 < estimated < measured * 4

    def test_estimate_orders_decoders(self):
        hard = estimate_ber(5, (0o35, 0o23), 2.0, 1, 25)
        m4 = estimate_ber(5, (0o35, 0o23), 2.0, 1, 25, high_bits=3, multires_paths=4)
        m8 = estimate_ber(5, (0o35, 0o23), 2.0, 1, 25, high_bits=3, multires_paths=8)
        soft = estimate_ber(5, (0o35, 0o23), 2.0, 3, 25)
        assert hard > m4 > m8 > soft

    def test_estimate_multires_needs_high_bits(self):
        with pytest.raises(ConfigurationError):
            estimate_ber(5, (0o35, 0o23), 2.0, 1, 25, multires_paths=4)

    def test_larger_k_estimates_better_ber(self):
        from repro.viterbi.polynomials import default_polynomials

        values = [
            estimate_ber(k, default_polynomials(k), 3.0, 3, 7 * k)
            for k in (3, 5, 7)
        ]
        assert values == sorted(values, reverse=True)
