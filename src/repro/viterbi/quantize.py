"""Channel-symbol quantizers (paper Sec. 3.2 and Fig. 4).

Received analog symbols must be quantized before branch-metric
computation.  The paper's design space exposes three methods through
its ``Q`` parameter:

``hard``
    1-bit sign decisions.  Fast, small, worst BER.
``fixed``
    Uniform soft quantization with a decision level ``D`` fixed at
    design time, independent of channel conditions.
``adaptive``
    Uniform soft quantization whose decision level is derived from the
    channel's Es/N0 (the AHA application-note scheme of Fig. 4): the
    level spacing tracks the noise standard deviation.

All quantizers output integer levels in ``[0, 2**bits - 1]``, with the
top level meaning "confidently bit 0" (transmitted +1) and level 0
meaning "confidently bit 1" (transmitted -1).  One-bit quantization of
any method degenerates to a hard sign decision, which is how the
decoder treats ``R1 = 1`` low-resolution updates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Default ratio between the quantizer decision level and the noise
#: standard deviation for adaptive quantization.  Half a sigma per step
#: is the classic choice from the AHA soft-decision application note.
ADAPTIVE_SPACING_FACTOR = 0.5

#: Decision level used by fixed quantizers when none is specified.  With
#: unit-amplitude BPSK this spreads the levels across [-1, +1].
DEFAULT_FIXED_DECISION_LEVEL = 0.35

#: Sentinel level marking an erased (depunctured) channel symbol.
ERASURE_LEVEL = -1


class Quantizer(ABC):
    """Base class: maps analog samples to integer levels."""

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ConfigurationError("quantizer needs at least 1 bit")
        if bits > 8:
            raise ConfigurationError("more than 8 quantization bits is unsupported")
        self.bits = int(bits)
        self.n_levels = 1 << self.bits
        self.max_level = self.n_levels - 1

    @abstractmethod
    def decision_level(self, sigma: Optional[float]) -> float:
        """The level spacing ``D`` used for the given channel noise."""

    @property
    def lut_base(self) -> int:
        """Radix of the per-symbol index used by the fused decode kernels.

        One slot per quantized level plus one for the erasure sentinel
        (:data:`ERASURE_LEVEL`), so a received symbol tuple maps to a
        unique integer in ``[0, lut_base**n_symbols)`` — the row index
        of the precomputed branch-metric lookup table (see
        :meth:`repro.viterbi.metrics.BranchMetricTable.combo_lut`).
        """
        return self.n_levels + 1

    def cache_key(self) -> Optional[Tuple]:
        """A hashable spec identifying this quantizer's exact behavior.

        Used to memoize derived tables (branch metrics) across design
        points that share a quantizer configuration.  Subclasses whose
        behavior is fully captured by their constructor arguments return
        those; unknown subclasses return ``None``, which disables
        sharing rather than risking a false match.
        """
        return None

    def quantize(self, samples: np.ndarray, sigma: Optional[float] = None) -> np.ndarray:
        """Quantize analog samples to integer levels.

        ``sigma`` is the channel noise standard deviation; adaptive
        quantizers require it, others ignore it.  NaN samples denote
        *erasures* (depunctured positions) and map to the sentinel
        level :data:`ERASURE_LEVEL`, which branch metrics ignore.
        """
        samples = np.asarray(samples, dtype=float)
        erased = np.isnan(samples)
        if self.bits == 1:
            levels = (samples >= 0.0).astype(np.int64)
        else:
            step = self.decision_level(sigma)
            # Uniform mid-rise quantizer centred on zero: thresholds at
            # multiples of D, 2**(bits-1) levels per polarity.
            with np.errstate(invalid="ignore"):
                shifted = np.floor(samples / step) + (self.n_levels // 2)
                shifted = np.nan_to_num(shifted, nan=0.0)
            levels = np.clip(shifted, 0, self.max_level).astype(np.int64)
        if erased.any():
            levels = levels.copy()
            levels[erased] = ERASURE_LEVEL
        return levels

    def thresholds(self, sigma: Optional[float] = None) -> np.ndarray:
        """The decision thresholds separating adjacent levels.

        This is the data behind the paper's Fig. 4 — ``n_levels - 1``
        thresholds at integer multiples of ``D`` centred on zero.
        """
        if self.bits == 1:
            return np.array([0.0])
        step = self.decision_level(sigma)
        half = self.n_levels // 2
        return step * np.arange(-(half - 1), half)


class HardQuantizer(Quantizer):
    """1-bit sign quantization (hard decision decoding)."""

    def __init__(self) -> None:
        super().__init__(bits=1)

    def decision_level(self, sigma: Optional[float]) -> float:
        return 0.0

    def cache_key(self) -> Tuple:
        return ("hard", 1)


class FixedQuantizer(Quantizer):
    """Uniform quantizer with a channel-independent decision level."""

    def __init__(
        self, bits: int, decision_level: float = DEFAULT_FIXED_DECISION_LEVEL
    ) -> None:
        super().__init__(bits)
        if decision_level <= 0:
            raise ConfigurationError("decision level must be positive")
        self._decision_level = float(decision_level)

    def decision_level(self, sigma: Optional[float]) -> float:
        return self._decision_level

    def cache_key(self) -> Tuple:
        return ("fixed", self.bits, self._decision_level)


class AdaptiveQuantizer(Quantizer):
    """Uniform quantizer whose decision level tracks the channel noise.

    ``D = spacing_factor * sigma`` where ``sigma`` comes from the
    channel's Es/N0 — this is the adaptive scheme of the paper's Fig. 4.
    """

    def __init__(
        self, bits: int, spacing_factor: float = ADAPTIVE_SPACING_FACTOR
    ) -> None:
        super().__init__(bits)
        if spacing_factor <= 0:
            raise ConfigurationError("spacing factor must be positive")
        self.spacing_factor = float(spacing_factor)

    def cache_key(self) -> Tuple:
        return ("adaptive", self.bits, self.spacing_factor)

    def decision_level(self, sigma: Optional[float]) -> float:
        if sigma is None:
            raise ConfigurationError(
                "adaptive quantization needs the channel noise sigma"
            )
        return self.spacing_factor * float(sigma)


def make_quantizer(
    method: str,
    bits: int,
    decision_level: Optional[float] = None,
    spacing_factor: Optional[float] = None,
) -> Quantizer:
    """Factory keyed by the paper's ``Q`` parameter values.

    ``method`` is one of ``"hard"``, ``"fixed"``, ``"adaptive"`` (the
    single-letter forms ``"H"/"F"/"A"`` used in Table 3 also work).
    """
    key = method.strip().lower()
    aliases = {"h": "hard", "f": "fixed", "a": "adaptive"}
    key = aliases.get(key, key)
    if key == "hard":
        if bits != 1:
            raise ConfigurationError("hard quantization is 1-bit by definition")
        return HardQuantizer()
    if bits == 1:
        # A 1-bit "soft" quantizer is a hard decision regardless of method.
        return HardQuantizer()
    if key == "fixed":
        level = DEFAULT_FIXED_DECISION_LEVEL if decision_level is None else decision_level
        return FixedQuantizer(bits, level)
    if key == "adaptive":
        factor = ADAPTIVE_SPACING_FACTOR if spacing_factor is None else spacing_factor
        return AdaptiveQuantizer(bits, factor)
    raise ConfigurationError(f"unknown quantization method: {method!r}")
