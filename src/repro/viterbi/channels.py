"""Channel models: BPSK over AWGN, plus harsher channels beyond it.

The paper measures decoder BER by software simulation of an additive
white Gaussian noise channel (the model for atmospheric/environmental
noise in satellite and cable links, Sec. 3.1).  Channel quality is
parameterized by the per-symbol energy-to-noise-density ratio
``Es/N0``; Table 3 specifies BER targets "at Es/N0 = 1.0" (linear, i.e.
0 dB), so both linear and dB entry points are provided.

A deployable Viterbi MetaCore also gets characterized on harsher
channels; this module adds the two standard ones:

- :class:`BinarySymmetricChannel` — the hard abstraction: each channel
  symbol flips with probability p.  Useful for analytic cross-checks
  (the union bound's binomial P2 is exact here).
- :class:`RayleighFadingChannel` — flat Rayleigh fading with AWGN and
  perfect channel-state information at the receiver: each symbol is
  scaled by a Rayleigh amplitude; with CSI the receiver divides it out,
  which leaves Gaussian noise of per-symbol varying variance.  An
  optional block-fading mode holds the amplitude constant over bursts.

All channels share the AWGN channel's interface (``transmit`` + a
``sigma`` the adaptive quantizer reads), so every decoder in the
library runs on them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, make_rng


def es_n0_db_to_linear(es_n0_db: float) -> float:
    """Convert an Es/N0 value in dB to the linear ratio."""
    return 10.0 ** (es_n0_db / 10.0)


def es_n0_linear_to_db(es_n0: float) -> float:
    """Convert a linear Es/N0 ratio to dB."""
    if es_n0 <= 0:
        raise ConfigurationError("Es/N0 must be positive")
    return 10.0 * math.log10(es_n0)


def noise_sigma(es_n0_db: float) -> float:
    """Noise standard deviation for unit-energy BPSK symbols.

    With symbol energy ``Es = 1`` and two-sided noise density ``N0/2``,
    the per-sample Gaussian noise variance is ``N0/2 = 1/(2 Es/N0)``.
    """
    return math.sqrt(1.0 / (2.0 * es_n0_db_to_linear(es_n0_db)))


def bpsk_modulate(symbols: np.ndarray) -> np.ndarray:
    """Map channel bits to antipodal amplitudes: 0 -> +1, 1 -> -1."""
    symbols = np.asarray(symbols)
    return 1.0 - 2.0 * symbols.astype(float)


@dataclass
class AWGNChannel:
    """An additive white Gaussian noise channel at a fixed Es/N0.

    The channel knows its own noise level; decoders with *adaptive*
    quantization read :attr:`sigma` to place their decision levels
    (paper Fig. 4), while *fixed* quantization ignores it.
    """

    es_n0_db: float

    def __post_init__(self) -> None:
        self.sigma = noise_sigma(self.es_n0_db)

    def transmit(self, symbols: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Modulate 0/1 channel symbols and add Gaussian noise."""
        generator = make_rng(rng)
        clean = bpsk_modulate(symbols)
        return clean + generator.normal(0.0, self.sigma, size=clean.shape)

    def uncoded_ber(self) -> float:
        """Theoretical uncoded BPSK bit error rate ``Q(sqrt(2 Es/N0))``.

        Useful as a sanity reference for the coded simulations.
        """
        ratio = es_n0_db_to_linear(self.es_n0_db)
        return 0.5 * math.erfc(math.sqrt(ratio))



@dataclass
class BinarySymmetricChannel:
    """Flip each channel symbol independently with probability p.

    Outputs antipodal levels (+1/−1) so hard quantization recovers the
    flipped bits; soft decoders see it as a clipped channel.
    """

    crossover: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.crossover <= 0.5:
            raise ConfigurationError("crossover probability outside [0, 0.5]")
        #: No meaningful noise scale: hard levels only.
        self.sigma = 1e-3

    def transmit(self, symbols: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Transmit 0/1 symbols, flipping each with the crossover rate."""
        generator = make_rng(rng)
        symbols = np.asarray(symbols)
        flips = generator.random(symbols.shape) < self.crossover
        return bpsk_modulate(symbols ^ flips.astype(symbols.dtype))

    @classmethod
    def equivalent_to_awgn(cls, es_n0_db: float) -> "BinarySymmetricChannel":
        """The BSC a hard-quantized AWGN channel at Es/N0 becomes."""
        ratio = es_n0_db_to_linear(es_n0_db)
        crossover = 0.5 * math.erfc(math.sqrt(ratio))
        return cls(crossover)


@dataclass
class RayleighFadingChannel:
    """Flat Rayleigh fading + AWGN with perfect CSI equalization.

    ``es_n0_db`` is the *average* symbol energy to noise density ratio;
    the Rayleigh amplitudes are normalized to unit mean-square power.
    ``coherence_symbols`` > 1 selects block fading: the amplitude holds
    for bursts of that many symbols (correlated deep fades are what
    make fading hard for convolutional codes).
    """

    es_n0_db: float
    coherence_symbols: int = 1

    def __post_init__(self) -> None:
        if self.coherence_symbols < 1:
            raise ConfigurationError("coherence length must be >= 1 symbol")
        self.sigma = noise_sigma(self.es_n0_db)

    def _amplitudes(
        self, shape: tuple, generator: np.random.Generator
    ) -> np.ndarray:
        n_total = int(np.prod(shape))
        n_blocks = -(-n_total // self.coherence_symbols)
        # Rayleigh with E[h^2] = 1  =>  scale = 1/sqrt(2).
        block_amps = generator.rayleigh(
            scale=1.0 / math.sqrt(2.0), size=n_blocks
        )
        amps = np.repeat(block_amps, self.coherence_symbols)[:n_total]
        return amps.reshape(shape)

    def transmit(self, symbols: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Fade, add noise, and equalize with the known amplitude.

        With perfect CSI the receiver computes ``y / h``; the result is
        the clean antipodal symbol plus noise of variance
        ``sigma^2 / h^2`` — deep fades show up as locally huge noise,
        which is exactly what the decoder must ride out.
        """
        generator = make_rng(rng)
        clean = bpsk_modulate(np.asarray(symbols))
        amplitudes = self._amplitudes(clean.shape, generator)
        # Guard against pathological zero fades (probability ~0, but a
        # divide-by-zero would poison the batch).
        amplitudes = np.maximum(amplitudes, 1e-6)
        noise = generator.normal(0.0, self.sigma, size=clean.shape)
        return clean + noise / amplitudes

    def average_uncoded_ber(self) -> float:
        """Closed-form uncoded BPSK BER on Rayleigh with matched CSI.

        ``0.5 (1 - sqrt(g/(1+g)))`` with g the average Es/N0 — decaying
        only as 1/SNR, vs exponentially on AWGN.
        """
        gamma = es_n0_db_to_linear(self.es_n0_db)
        return 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
