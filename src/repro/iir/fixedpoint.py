"""Fixed-point verification of realized filters.

The word length is one of the paper's IIR degrees of freedom: each
realization structure needs a different minimum number of coefficient
bits to still meet the frequency-domain spec (Sec. 3.4's "word length"
hardware requirement).  This module quantizes a realization, re-derives
the transfer function *from the quantized coefficients*, and measures
it against the specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FilterDesignError
from repro.iir.design import FilterSpec
from repro.iir.structures.base import Realization
from repro.iir.transfer import band_levels

#: Default measurement grid density (the fidelity knob).
DEFAULT_GRID_POINTS = 512


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of checking one realization at one word length."""

    word_length: int
    stable: bool
    passband_ripple: float
    stopband_level: float
    realizable: bool

    def meets(self, spec: FilterSpec) -> bool:
        """Spec compliance of the quantized filter."""
        return (
            self.realizable
            and self.stable
            and self.passband_ripple <= spec.passband_ripple
            and self.stopband_level <= spec.stopband_ripple
        )

    def violation(self, spec: FilterSpec) -> float:
        """Relative spec violation (0 when compliant)."""
        if not self.realizable or not self.stable:
            return float("inf")
        ripple_excess = max(
            0.0, self.passband_ripple / spec.passband_ripple - 1.0
        )
        stop_excess = max(
            0.0, self.stopband_level / spec.stopband_ripple - 1.0
        )
        return ripple_excess + stop_excess


def check_quantized(
    realization: Realization,
    spec: FilterSpec,
    word_length: int,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> QuantizationReport:
    """Quantize, reconstruct, and measure one realization."""
    try:
        quantized = realization.quantized(word_length)
        tf = quantized.to_tf()
    except FilterDesignError:
        return QuantizationReport(
            word_length=word_length,
            stable=False,
            passband_ripple=float("inf"),
            stopband_level=float("inf"),
            realizable=False,
        )
    stable = tf.is_stable()
    if not stable:
        return QuantizationReport(
            word_length=word_length,
            stable=False,
            passband_ripple=float("inf"),
            stopband_level=float("inf"),
            realizable=True,
        )
    ripple, level = band_levels(
        tf, spec.passbands, spec.stopbands, grid_points=grid_points
    )
    return QuantizationReport(
        word_length=word_length,
        stable=True,
        passband_ripple=ripple,
        stopband_level=level,
        realizable=True,
    )


def minimum_word_length(
    realization: Realization,
    spec: FilterSpec,
    max_word_length: int = 24,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> Optional[int]:
    """Smallest word length at which the realization still meets spec.

    Returns ``None`` when even ``max_word_length`` bits do not suffice
    (e.g. a direct form of a high-order narrow-band filter).
    """
    for word_length in range(4, max_word_length + 1):
        report = check_quantized(realization, spec, word_length, grid_points)
        if report.meets(spec):
            return word_length
    return None
