"""Classic Viterbi decoder (paper Sec. 3.2).

The decoder performs the two tasks the paper describes: *trellis
update* (add-compare-select over all states for every received symbol
tuple) and *trace-back* (following survivor branches for ``L`` steps
from the state with the smallest accumulated error).

The implementation is vectorized along two axes: all trellis states are
updated with numpy array operations, and many independent frames are
decoded simultaneously (the Monte-Carlo BER simulator feeds batches of
frames).  Trace-back with a genuine sliding depth ``L`` — the design
parameter the paper's search explores — is vectorized over emission
times, so its cost is ``L`` numpy gathers per frame batch rather than
``L`` per decoded bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.viterbi import kernels
from repro.viterbi.metrics import shared_metric_table
from repro.viterbi.quantize import Quantizer
from repro.viterbi.trellis import Trellis

#: Accumulated-error value used for "impossible" initial states.
_UNREACHABLE = 1.0e12


class ViterbiDecoder:
    """Hard- or soft-decision Viterbi decoder.

    Parameters
    ----------
    trellis:
        Precomputed code trellis.
    quantizer:
        Symbol quantizer; its resolution decides hard vs. soft decoding.
    traceback_depth:
        ``L`` — the number of trellis steps followed back from the best
        state before a bit is emitted.  The paper searches multiples of
        ``K`` and observes depths beyond ``7K`` stop improving BER.

    Decodes run the compiled loops of :mod:`repro.viterbi.kernels` or
    the step-by-step reference loops, as :meth:`active_kernel` decides
    from the host and the decoder's state; both give the same bits.
    """

    def __init__(
        self,
        trellis: Trellis,
        quantizer: Quantizer,
        traceback_depth: int,
    ) -> None:
        if traceback_depth < 1:
            raise ConfigurationError("traceback depth must be at least 1")
        self.trellis = trellis
        self.quantizer = quantizer
        self.traceback_depth = int(traceback_depth)
        self.metric_table = shared_metric_table(trellis, quantizer)
        #: Optional fault-injection hook (see :mod:`repro.resilience`).
        #: When set, the decoder routes its branch-metric, path-metric,
        #: and survivor-memory words through it every trellis step.
        self.fault_hook = None

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------

    def _initial_metrics(self, n_frames: int) -> np.ndarray:
        """Accumulated error metrics before any symbol: state 0 known."""
        acc = np.full((n_frames, self.trellis.n_states), _UNREACHABLE)
        acc[:, 0] = 0.0
        return acc

    def _fused_available(self) -> bool:
        """Whether the precomputed lookup tables exist for this code."""
        return self.metric_table.combo_lut() is not None

    def active_kernel(self) -> str:
        """The loops the next decode runs: ``"fused"`` or ``"reference"``.

        ``"fused"`` means the compiled ``acs.c`` loops of
        :mod:`repro.viterbi.kernels`.  The decoder runs the reference
        loops instead when an active fault hook is attached, when the
        metric tables are too large to precompute, or when the library
        does not load (no ``cc``; the first call builds or loads it).
        The forward pass, the trace-back and the BER simulator's kernel
        label all follow this one answer, so a decode runs entirely
        compiled or entirely on the reference loops.
        """
        hook = self.fault_hook
        if (
            (hook is None or not getattr(hook, "active", True))
            and self._fused_available()
            and kernels.native_library() is not None
        ):
            return "fused"
        return "reference"

    def _forward(
        self, received: np.ndarray, sigma: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run add-compare-select over a batch of frames.

        ``received`` has shape ``(frames, steps, n_symbols)`` (analog
        samples).  Returns ``(decisions, best)`` where ``decisions`` has
        shape ``(steps, frames, states)`` holding the winning
        predecessor slot (0/1) per state, and ``best`` has shape
        ``(steps, frames)`` holding the state with the smallest
        accumulated error after each step.

        Runs the compiled loop when :meth:`active_kernel` says so; the
        two paths are bit-identical (tested exhaustively), so which one
        ran is unobservable from the outputs.
        """
        if self.active_kernel() == "fused":
            out = self._forward_fused(received, sigma)
            if out is not None:
                return out
        return self._forward_reference(received, sigma)

    def _forward_fused(
        self, received: np.ndarray, sigma: Optional[float]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return kernels.fused_forward(self, received, sigma)

    def _forward_reference(
        self, received: np.ndarray, sigma: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The hookable step-by-step loop (ground truth for the kernels)."""
        n_frames, n_steps, _ = received.shape
        levels = self.quantizer.quantize(received, sigma)
        predecessors = self.trellis.predecessors
        acc = self._initial_metrics(n_frames)
        decisions = np.empty(
            (n_steps, n_frames, self.trellis.n_states), dtype=np.uint8
        )
        best = np.empty((n_steps, n_frames), dtype=np.int64)
        hook = self.fault_hook
        if hook is not None and not getattr(hook, "active", True):
            hook = None  # inert injector: skip the per-step calls entirely
        for t in range(n_steps):
            metrics = self.metric_table.compute(levels[:, t, :])
            if hook is not None:
                metrics = hook.on_branch_metrics(metrics)
            candidates = acc[:, predecessors] + metrics
            slots = np.argmin(candidates, axis=2)
            acc = np.take_along_axis(
                candidates, slots[:, :, np.newaxis], axis=2
            )[:, :, 0]
            if hook is not None:
                acc = hook.on_path_metrics(acc)
            decisions[t] = slots.astype(np.uint8)
            best[t] = np.argmin(acc, axis=1)
            # Renormalize so accumulated errors stay bounded over long
            # frames (the hardware analogue is metric rescaling).
            acc -= acc.min(axis=1, keepdims=True)
        self._final_metrics = acc
        return decisions, best

    # ------------------------------------------------------------------
    # Trace-back
    # ------------------------------------------------------------------

    def _input_bits(self, states: np.ndarray) -> np.ndarray:
        """Input bit that led into each state (top state bit)."""
        shift = max(self.trellis.constraint_length - 2, 0)
        return ((states >> shift) & 1).astype(np.int8)

    def _traceback(
        self, decisions: np.ndarray, best: np.ndarray
    ) -> np.ndarray:
        """Dispatch trace-back to the compiled or reference walk.

        Mirrors the :meth:`_forward` dispatch; the two trace-backs walk
        identical survivor branches and return identical bits.
        """
        if self.active_kernel() == "fused":
            bits = kernels.fused_traceback(self, decisions, best)
            if bits is not None:
                return bits
        return self._traceback_reference(decisions, best)

    def _traceback_reference(
        self, decisions: np.ndarray, best: np.ndarray
    ) -> np.ndarray:
        """Sliding trace-back with depth ``L`` over a decoded batch.

        Bit ``u_tau`` is the top bit of the survivor state at time
        ``tau + 1``; for ``tau <= steps - L`` that state is found by
        walking ``L - 1`` survivor branches back from the best state
        after step ``tau + L - 1``; the trailing ``L - 1`` bits come
        from one final walk from the best end state.
        """
        n_steps, n_frames, _ = decisions.shape
        depth = min(self.traceback_depth, n_steps)
        predecessors = self.trellis.predecessors
        bits = np.empty((n_frames, n_steps), dtype=np.int8)
        frame_idx = np.arange(n_frames)

        n_lead = n_steps - depth + 1
        if n_lead > 0:
            taus = np.arange(n_lead)
            states = best[taus + depth - 1]  # (n_lead, frames)
            for j in range(depth - 1):
                t_idx = taus + depth - 1 - j
                slots = decisions[
                    t_idx[:, np.newaxis], frame_idx[np.newaxis, :], states
                ]
                states = predecessors[states, slots]
            bits[:, :n_lead] = self._input_bits(states).T

        # Final walk for the last depth-1 bits (or all bits when the
        # frame is shorter than the trace-back depth).
        states = best[n_steps - 1]
        stop = max(n_lead, 0)
        for tau in range(n_steps - 1, stop - 1, -1):
            bits[:, tau] = self._input_bits(states)
            slots = decisions[tau, frame_idx, states]
            states = predecessors[states, slots]
        return bits

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def decode(
        self, received: np.ndarray, sigma: Optional[float] = None
    ) -> np.ndarray:
        """Decode analog received symbols back to data bits.

        ``received`` has shape ``(steps, n_symbols)`` for a single frame
        or ``(frames, steps, n_symbols)`` for a batch; the result
        mirrors the leading shape with one bit per step.  ``sigma`` is
        the channel noise level, required by adaptive quantizers.
        A batch of zero frames decodes to an empty ``(0, steps)`` int8
        array; zero steps is a :class:`ConfigurationError`.
        """
        received = np.asarray(received, dtype=float)
        squeeze = received.ndim == 2
        if squeeze:
            received = received[np.newaxis]
        if received.ndim != 3 or received.shape[2] != self.trellis.n_symbols:
            raise ConfigurationError(
                "received must have shape (frames, steps, "
                f"{self.trellis.n_symbols})"
            )
        n_frames, n_steps, _ = received.shape
        if n_steps == 0:
            raise ConfigurationError("received must hold at least one step")
        if n_frames == 0:
            return np.empty((0, n_steps), dtype=np.int8)
        hook = self.fault_hook
        if hook is not None:
            hook.begin_block(received)
        decisions, best = self._forward(received, sigma)
        if hook is not None:
            decisions = hook.on_traceback(decisions)
        bits = self._traceback(decisions, best)
        return bits[0] if squeeze else bits

    def describe(self) -> str:
        """One-line summary used in experiment reports."""
        return (
            f"Viterbi(K={self.trellis.constraint_length}, "
            f"L={self.traceback_depth}, "
            f"R={self.quantizer.bits}bit)"
        )
