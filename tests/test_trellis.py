"""Tests for the decoding trellis (paper Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.viterbi import ConvolutionalEncoder, Trellis


class TestTrellisStructure:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_two_regular(self, k):
        """Every state has exactly two predecessors and two successors."""
        try:
            encoder = ConvolutionalEncoder(k)
        except Exception:
            encoder = ConvolutionalEncoder(k, (3, 1) if k == 2 else None)
        trellis = Trellis.from_encoder(encoder)
        assert trellis.predecessors.shape == (encoder.n_states, 2)
        successors = {}
        for state in range(encoder.n_states):
            for bit in (0, 1):
                nxt = encoder.next_state(state, bit)
                successors.setdefault(nxt, []).append(state)
        for state in range(encoder.n_states):
            assert sorted(successors[state]) == sorted(
                trellis.predecessors[state].tolist()
            )

    def test_branch_consistency(self, encoder_k5, trellis_k5):
        """Trellis branch symbols match the encoder's forward tables."""
        for state in range(trellis_k5.n_states):
            for slot in range(2):
                pred = int(trellis_k5.predecessors[state, slot])
                bit = int(trellis_k5.branch_inputs[state, slot])
                assert encoder_k5.next_state(pred, bit) == state
                assert encoder_k5.output_symbols(pred, bit) == tuple(
                    trellis_k5.branch_symbols[state, slot]
                )

    def test_figure3_k3_trellis(self, trellis_k3):
        """Spot-check the 4-state trellis the paper's Fig. 3 draws."""
        assert trellis_k3.n_states == 4
        assert trellis_k3.n_symbols == 2
        # State 0 is reachable from 0 (input 0) and 1 (input 0).
        assert sorted(trellis_k3.predecessors[0].tolist()) == [0, 1]
        # State 2 is reachable from 0 and 1 on input 1.
        assert sorted(trellis_k3.predecessors[2].tolist()) == [0, 1]

    def test_input_bit_of_state(self, trellis_k5):
        states = np.arange(trellis_k5.n_states)
        # Top bit of the state is the most recent input: both branches
        # into a state carry that bit.
        for slot in range(2):
            assert np.array_equal(
                trellis_k5.branch_inputs[:, slot], states >> 3
            )

    def test_describe_lists_all_branches(self, trellis_k3):
        text = trellis_k3.describe()
        assert text.count("-->") == 2 * trellis_k3.n_states

    def test_branch_inputs_equal_top_bit(self, trellis_k5):
        for state in range(trellis_k5.n_states):
            for slot in range(2):
                assert trellis_k5.branch_inputs[state, slot] == state >> 3
