"""Multiresolution Viterbi decoding — the paper's new algorithm (Sec. 3.3).

The key observation: at any instant only a few trellis states are
realistic trace-back candidates.  The decoder therefore updates the
whole trellis with cheap *low-resolution* branch metrics (``R1`` bits,
typically hard 1-bit decisions) and then *recomputes* the branch metrics
of the ``M`` states with the smallest accumulated errors using
*high-resolution* quantization (``R2`` bits, fixed or adaptive).  This
buys most of the BER benefit of soft decoding while the wide datapath
only ever touches ``M`` of the ``2**(K-1)`` states.

Because low- and high-resolution metrics live on different scales, a
*correction term* keeps the accumulated errors of recomputed and
non-recomputed states comparable.  Following the paper, the correction
at each step is the difference between the best high-resolution and the
best low-resolution branch metric, optionally averaged over the ``N``
best candidates (the design-space parameter ``N``); we additionally
implement a scale-then-offset variant and a no-normalization ablation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.viterbi import kernels
from repro.viterbi.decoder import ViterbiDecoder
from repro.viterbi.metrics import shared_metric_table
from repro.viterbi.quantize import Quantizer
from repro.viterbi.trellis import Trellis

#: Supported normalization methods for the ``N`` design parameter.
NORMALIZATION_METHODS = ("offset", "scale-offset", "none")


class MultiresolutionViterbiDecoder(ViterbiDecoder):
    """Viterbi decoder with per-step high-resolution path recomputation.

    Parameters
    ----------
    trellis:
        Precomputed code trellis.
    low_quantizer:
        ``R1``-bit quantizer used for the full trellis update.
    high_quantizer:
        ``R2``-bit quantizer used to recompute the best paths.
    traceback_depth:
        ``L``, as in :class:`ViterbiDecoder`.
    multires_paths:
        ``M`` — how many of the best states are recomputed each step
        (``1 <= M <= 2**(K-1)``).
    normalization_count:
        ``N`` — how many of the best branch-metric differences are
        averaged into the correction term (``1 <= N <= M``).
    normalization_method:
        ``"scale-offset"`` (default: rescale high-res metrics to the
        low-res range, then apply the paper's difference-of-best
        correction), ``"offset"`` (the difference-of-best correction
        alone), or ``"none"`` (ablation; demonstrably catastrophic,
        which is why the paper insists on the correction term).
    """

    def __init__(
        self,
        trellis: Trellis,
        low_quantizer: Quantizer,
        high_quantizer: Quantizer,
        traceback_depth: int,
        multires_paths: int,
        normalization_count: int = 1,
        normalization_method: str = "scale-offset",
    ) -> None:
        super().__init__(trellis, low_quantizer, traceback_depth)
        if high_quantizer.bits <= low_quantizer.bits:
            raise ConfigurationError(
                "high-resolution quantizer must use more bits than the "
                "low-resolution one"
            )
        if not 1 <= multires_paths <= trellis.n_states:
            raise ConfigurationError(
                f"multires paths must lie in [1, {trellis.n_states}]"
            )
        if not 1 <= normalization_count <= multires_paths:
            raise ConfigurationError(
                "normalization count must lie in [1, multires_paths]"
            )
        if normalization_method not in NORMALIZATION_METHODS:
            raise ConfigurationError(
                f"normalization method must be one of {NORMALIZATION_METHODS}"
            )
        self.low_quantizer = low_quantizer
        self.high_quantizer = high_quantizer
        self.multires_paths = int(multires_paths)
        self.normalization_count = int(normalization_count)
        self.normalization_method = normalization_method
        self.high_metric_table = shared_metric_table(trellis, high_quantizer)
        # Static scale aligning the high-resolution metric range with
        # the low-resolution one (used by the "scale-offset" method).
        self._scale = (
            self.metric_table.max_branch_metric
            / self.high_metric_table.max_branch_metric
        )

    # ------------------------------------------------------------------

    def _correction(
        self,
        low_best: np.ndarray,
        high_best: np.ndarray,
        order: np.ndarray,
    ) -> np.ndarray:
        """Per-frame correction term from the N best candidates.

        ``low_best``/``high_best`` have shape ``(frames, M)`` holding the
        winning branch metric of each recomputed state under each
        resolution; ``order`` ranks the M states by accumulated error.

        ``order`` comes from ``np.argsort`` with its default, unstable
        kind, so among states with tied accumulated errors which ones
        count as the N best is numpy's choice, not the lowest index:
        with numpy 2.4.6 on an AVX-512 Intel Xeon, ``argsort(a)[0]``
        differs from ``argmin(a)`` in 29 to 50 of 200 random arrays with
        a two-way tie at the minimum, for 4 to 64 states (never for 2).
        The mean reduces each frame's contiguous row of N terms; numpy
        sums 8 or more terms pairwise, so a mean over the other axis
        would round differently.  Both rules are part of the decoder's
        behaviour, and the fused kernel reproduces them bit for bit.
        """
        n = self.normalization_count
        take = np.take_along_axis
        low_sel = take(low_best, order[:, :n], axis=1)
        high_sel = take(high_best, order[:, :n], axis=1)
        return (high_sel - low_sel).mean(axis=1, keepdims=True)

    def _fused_available(self) -> bool:
        """Both resolutions need their lookup tables precomputed."""
        return (
            self.metric_table.combo_lut() is not None
            and self.high_metric_table.combo_lut(erasure_masked=False)
            is not None
        )

    def _forward_fused(
        self, received: np.ndarray, sigma: Optional[float]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return kernels.fused_forward_multires(self, received, sigma)

    def _forward_reference(
        self, received: np.ndarray, sigma: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The hookable step-by-step loop (ground truth for the kernel).

        Each step: low-resolution update of the full trellis, the M-set
        by ``np.argpartition`` and its ranking by ``np.argsort`` (both
        default kinds), high-resolution recomputation of the M states
        with the :meth:`_correction` term, then the merge.

        The selection's tie order is numpy's: ``argpartition`` and
        ``argsort`` are not stable, so when accumulated errors tie, the
        M-set and the N best follow the order of the numpy build's sort
        routines, not the state index.  A stable selection would be a
        different decoder: in the second Table 3 search at
        ``max_resolution=1`` it changes the measured BER of 14 of 163
        evaluations (the winner stays), while ``tests/test_golden.py``
        still passes.  This is also why the compiled step of the fused
        kernel (``acs_multires_step`` in ``acs.c``) leaves the ranking
        to numpy: each step its Python loop calls ``argpartition`` and
        ``argsort`` on the C step's metrics, and C does the rest.
        """
        n_frames, n_steps, _ = received.shape
        low_levels = self.low_quantizer.quantize(received, sigma)
        high_levels = self.high_quantizer.quantize(received, sigma)
        predecessors = self.trellis.predecessors
        n_states = self.trellis.n_states
        m = self.multires_paths
        acc = self._initial_metrics(n_frames)
        decisions = np.empty((n_steps, n_frames, n_states), dtype=np.uint8)
        best = np.empty((n_steps, n_frames), dtype=np.int64)
        frame_col = np.arange(n_frames)[:, np.newaxis]
        if m == n_states:
            # Every state is recomputed: the selection is a constant.
            all_states = np.broadcast_to(
                np.arange(n_states), (n_frames, n_states)
            ).copy()
        hook = self.fault_hook
        if hook is not None and not getattr(hook, "active", True):
            hook = None  # inert injector: skip the per-step calls entirely
        for t in range(n_steps):
            # --- low-resolution update of the full trellis ------------
            low_metrics = self.metric_table.compute(low_levels[:, t, :])
            if hook is not None:
                low_metrics = hook.on_branch_metrics(low_metrics)
            candidates = acc[:, predecessors] + low_metrics
            slots = np.argmin(candidates, axis=2)
            new_acc = np.take_along_axis(
                candidates, slots[:, :, np.newaxis], axis=2
            )[:, :, 0]

            # --- select the M most promising states -------------------
            if m < n_states:
                chosen = np.argpartition(new_acc, m - 1, axis=1)[:, :m]
            else:
                chosen = all_states
            # Rank the chosen states so the correction can use the N best.
            chosen_acc = np.take_along_axis(new_acc, chosen, axis=1)
            order = np.argsort(chosen_acc, axis=1)

            # --- high-resolution recomputation -------------------------
            high_metrics = self.high_metric_table.compute_for_states(
                high_levels[:, t, :], chosen
            )  # (frames, m, 2)
            if hook is not None:
                high_metrics = hook.on_branch_metrics(high_metrics)
            if self.normalization_method == "scale-offset":
                high_metrics = high_metrics * self._scale
            low_chosen = np.take_along_axis(
                low_metrics,
                chosen[:, :, np.newaxis].repeat(2, axis=2),
                axis=1,
            )
            if self.normalization_method != "none":
                correction = self._correction(
                    low_chosen.min(axis=2), high_metrics.min(axis=2), order
                )
                high_metrics = high_metrics - correction[:, :, np.newaxis]

            prev_chosen = predecessors[chosen]  # (frames, m, 2)
            cand_high = acc[frame_col, prev_chosen.reshape(n_frames, -1)]
            cand_high = cand_high.reshape(n_frames, m, 2) + high_metrics
            slot_high = np.argmin(cand_high, axis=2)
            val_high = np.take_along_axis(
                cand_high, slot_high[:, :, np.newaxis], axis=2
            )[:, :, 0]

            # --- merge recomputed states back --------------------------
            np.put_along_axis(new_acc, chosen, val_high, axis=1)
            slots_merged = slots.astype(np.uint8)
            np.put_along_axis(
                slots_merged, chosen, slot_high.astype(np.uint8), axis=1
            )

            if hook is not None:
                new_acc = hook.on_path_metrics(new_acc)
            decisions[t] = slots_merged
            best[t] = np.argmin(new_acc, axis=1)
            new_acc -= new_acc.min(axis=1, keepdims=True)
            acc = new_acc
        self._final_metrics = acc
        return decisions, best

    def describe(self) -> str:
        """One-line summary used in experiment reports and seeds."""
        return (
            f"MultiresViterbi(K={self.trellis.constraint_length}, "
            f"L={self.traceback_depth}, "
            f"R1={self.low_quantizer.bits}bit, "
            f"R2={self.high_quantizer.bits}bit, "
            f"M={self.multires_paths}, N={self.normalization_count}, "
            f"norm={self.normalization_method})"
        )
