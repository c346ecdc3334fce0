"""Trellis precomputation for Viterbi decoding (paper Sec. 3.2, Fig. 3).

The trellis is the encoder state-transition diagram unrolled in time.
For decoding we need the *backward* view: for every state, its two
predecessor states, the input bit that caused each transition, and the
channel symbols the encoder would have emitted on that branch.  All of
this is precomputed once per code here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.viterbi.encoder import ConvolutionalEncoder


@dataclass(frozen=True)
class Trellis:
    """Backward-oriented trellis tables for one convolutional code.

    Attributes
    ----------
    n_states:
        Number of trellis states, ``2**(K-1)``.
    n_symbols:
        Channel symbols per branch (``n`` of the rate ``1/n`` code).
    predecessors:
        ``(n_states, 2)`` — the two states with a branch into each state.
    branch_inputs:
        ``(n_states, 2)`` — the encoder input bit on each such branch.
        With the register convention used here this is the same for both
        branches of a state (it is the state's most significant bit),
        but it is stored per-branch for clarity and generality.
    branch_symbols:
        ``(n_states, 2, n_symbols)`` — expected channel symbols per branch.
    """

    constraint_length: int
    polynomials: Tuple[int, ...]
    n_states: int
    n_symbols: int
    predecessors: np.ndarray = field(repr=False)
    branch_inputs: np.ndarray = field(repr=False)
    branch_symbols: np.ndarray = field(repr=False)

    @classmethod
    def from_encoder(cls, encoder: ConvolutionalEncoder) -> "Trellis":
        """Build the backward trellis from an encoder's forward tables."""
        n_states = encoder.n_states
        n_symbols = encoder.n_outputs
        predecessors = np.empty((n_states, 2), dtype=np.int64)
        branch_inputs = np.empty((n_states, 2), dtype=np.int8)
        branch_symbols = np.empty((n_states, 2, n_symbols), dtype=np.int8)
        fill = np.zeros(n_states, dtype=np.int64)
        for state in range(n_states):
            for bit in (0, 1):
                nxt = encoder.next_state(state, bit)
                slot = fill[nxt]
                predecessors[nxt, slot] = state
                branch_inputs[nxt, slot] = bit
                branch_symbols[nxt, slot] = encoder.output_symbols(state, bit)
                fill[nxt] += 1
        if not np.all(fill == 2):
            raise AssertionError("trellis is not 2-regular; encoder tables broken")
        return cls(
            constraint_length=encoder.constraint_length,
            polynomials=encoder.polynomials,
            n_states=n_states,
            n_symbols=n_symbols,
            predecessors=predecessors,
            branch_inputs=branch_inputs,
            branch_symbols=branch_symbols,
        )

    def cache_key(self) -> Tuple[int, Tuple[int, ...]]:
        """The identity of this trellis for memoization purposes."""
        return self.constraint_length, self.polynomials

    def describe(self) -> str:
        """Human-readable branch table (the textual form of Fig. 3)."""
        lines = [
            f"Trellis: K={self.constraint_length}, "
            f"{self.n_states} states, {self.n_symbols} symbols/branch"
        ]
        for state in range(self.n_states):
            for slot in range(2):
                pred = self.predecessors[state, slot]
                bit = self.branch_inputs[state, slot]
                sym = "".join(str(s) for s in self.branch_symbols[state, slot])
                lines.append(
                    f"  {pred:>3} --{bit}/{sym}--> {state:>3}"
                )
        return "\n".join(lines)


@lru_cache(maxsize=64)
def _trellis_for_cached(
    constraint_length: int, polynomials: Tuple[int, ...]
) -> Trellis:
    encoder = ConvolutionalEncoder(constraint_length, polynomials)
    return Trellis.from_encoder(encoder)


def trellis_for(
    constraint_length: int, polynomials: Sequence[int]
) -> Trellis:
    """The (memoized) trellis of a convolutional code.

    Many design points of a search differ only in ``L``/``M`` and share
    a code; building the trellis once per ``(K, polynomials)`` pair
    avoids rebuilding identical tables on every evaluation.  The
    returned :class:`Trellis` is frozen and its arrays are treated as
    read-only by the decoders, so sharing one instance is safe.
    """
    return _trellis_for_cached(int(constraint_length), tuple(polynomials))
