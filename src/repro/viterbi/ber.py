"""Monte-Carlo bit-error-rate simulation (paper Sec. 4.2).

The paper measures the application-level performance of every Viterbi
instance by software simulation of the full encode → AWGN → quantize →
decode chain under varying signal-to-noise ratios.  This module provides
that simulator with reproducible seeding, batched frame decoding, early
termination once enough errors have been observed, and Wilson
confidence intervals on every estimate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer, trace_event
from repro.utils.rng import derive_seed, make_rng
from repro.utils.stats import binomial_confidence_interval, mean_improvement_percent
from repro.viterbi.channels import AWGNChannel
from repro.viterbi.decoder import ViterbiDecoder
from repro.viterbi.encoder import ConvolutionalEncoder
from repro.viterbi.puncture import PuncturePattern

#: Default master seed so example scripts and benchmarks are repeatable.
DEFAULT_SEED = 20010618  # DAC 2001 opened June 18, 2001.

#: Upper bound on the frames decoded in one call when adaptive batching
#: grows the group.  It keeps the decoder's per-step working set
#: (accumulated metrics, candidates, branch metrics) cache-resident;
#: growing the group further is measurably slower, not faster.
MAX_BATCH_FRAMES = 256


@dataclass(frozen=True)
class BERPoint:
    """One measured point of a BER curve."""

    es_n0_db: float
    bits: int
    errors: int

    @property
    def ber(self) -> float:
        """The measured bit error rate."""
        return self.errors / self.bits if self.bits else float("nan")

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson confidence interval on the error rate."""
        return binomial_confidence_interval(self.errors, self.bits, z)

    def __str__(self) -> str:
        lo, hi = self.confidence_interval()
        return (
            f"Es/N0={self.es_n0_db:+.1f} dB: BER={self.ber:.3e} "
            f"[{lo:.2e}, {hi:.2e}] ({self.errors}/{self.bits})"
        )


@dataclass
class BERSweep:
    """A BER curve: one decoder measured across an SNR sweep."""

    label: str
    points: List[BERPoint] = field(default_factory=list)

    @property
    def es_n0_db(self) -> List[float]:
        return [p.es_n0_db for p in self.points]

    @property
    def ber(self) -> List[float]:
        return [p.ber for p in self.points]

    def at(self, es_n0_db: float) -> BERPoint:
        """The measured point closest to the requested Es/N0."""
        if not self.points:
            raise ConfigurationError("sweep has no points")
        return min(self.points, key=lambda p: abs(p.es_n0_db - es_n0_db))

    def improvement_over(self, baseline: "BERSweep") -> float:
        """Mean per-point BER improvement (%) relative to ``baseline``.

        This is the statistic behind the paper's "M=4 results in a 64%
        improvement in BER over pure hard-decision decoding".
        """
        return mean_improvement_percent(baseline.ber, self.ber)


class BERSimulator:
    """Monte-Carlo BER measurement for Viterbi decoders.

    Parameters
    ----------
    encoder:
        The convolutional encoder under test.
    frame_length:
        Data bits per simulated frame.  Frames are decoded in parallel
        batches, so this mostly trades memory for vectorization.
    frames_per_batch:
        How many independent frames are decoded simultaneously.
    seed:
        Master seed; every (decoder, Es/N0, batch) tuple derives its own
        independent, reproducible stream from it.
    adaptive_batching:
        When on (default), consecutive seed-batches are generated ahead
        and decoded as one larger frame batch, with the group size
        growing geometrically up to :data:`MAX_BATCH_FRAMES` frames.  Frame
        decoding is per-frame independent and every seed-batch keeps its
        own RNG stream, so measurements are *exactly* those of
        batch-at-a-time simulation — grouping only amortizes the fixed
        per-trellis-step cost, which is what dominates high-SNR points
        that decode many error-free batches.  Decoders with a fault
        hook attached always run batch-at-a-time (fault streams are
        derived per decoded block).
    """

    def __init__(
        self,
        encoder: ConvolutionalEncoder,
        frame_length: int = 512,
        frames_per_batch: int = 32,
        seed: int = DEFAULT_SEED,
        puncture: Optional[PuncturePattern] = None,
        adaptive_batching: bool = True,
    ) -> None:
        if frame_length < 8:
            raise ConfigurationError("frame length must be at least 8 bits")
        if frames_per_batch < 1:
            raise ConfigurationError("need at least one frame per batch")
        self.encoder = encoder
        self.frame_length = int(frame_length)
        self.frames_per_batch = int(frames_per_batch)
        self.seed = int(seed)
        self.puncture = puncture
        self.adaptive_batching = bool(adaptive_batching)
        if puncture is not None:
            if puncture.n_symbols != encoder.n_outputs:
                raise ConfigurationError(
                    "puncture pattern width does not match the encoder"
                )
            # Whole puncturing cycles per frame.
            remainder = self.frame_length % puncture.period
            if remainder:
                self.frame_length += puncture.period - remainder

    def _generate_frames(
        self, channel: AWGNChannel, batch_seed: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate one seed-batch; return (data bits, received samples).

        The whole encode → puncture → AWGN chain runs off one RNG stream
        derived from ``batch_seed``, so a seed-batch's frames are the
        same whether it is decoded alone or concatenated with others.
        """
        rng = make_rng(batch_seed)
        bits = rng.integers(
            0, 2, size=(self.frames_per_batch, self.frame_length), dtype=np.int8
        )
        # Terminate every frame (K-1 zero flush bits) so frame tails do
        # not impose an artificial error floor; only the data bits are
        # counted.
        flushed = self.encoder.terminate(bits)
        symbols = self.encoder.encode(flushed)
        steps = flushed.shape[-1]
        if self.puncture is not None:
            pad = (-steps) % self.puncture.period
            if pad:
                symbols = np.concatenate(
                    [symbols, np.zeros(symbols.shape[:-2] + (pad, symbols.shape[-1]), dtype=symbols.dtype)],
                    axis=-2,
                )
                steps += pad
            punctured = self.puncture.puncture(symbols)
            received = channel.transmit(punctured, rng)
            received = self.puncture.depuncture(received, steps)
        else:
            received = channel.transmit(symbols, rng)
        return bits, received

    def measure(
        self,
        decoder: ViterbiDecoder,
        es_n0_db: float,
        max_bits: int = 100_000,
        target_errors: Optional[int] = 100,
        seed: Optional[int] = None,
    ) -> BERPoint:
        """Measure BER at one Es/N0.

        Batches are simulated until ``target_errors`` bit errors have
        been seen or ``max_bits`` data bits have been decoded, whichever
        comes first.  Early termination keeps high-SNR points (where
        errors are rare but the estimate is already noisy) from
        dominating run time, exactly like the paper's short low-accuracy
        simulations on the coarse search grid.

        With :attr:`adaptive_batching` on, consecutive seed-batches are
        decoded together in geometrically growing groups; the group is
        accounted seed-batch by seed-batch against the same stop
        conditions, so the returned point (bits, errors, and therefore
        BER) is identical to batch-at-a-time simulation — group sizing
        only changes wall-clock, never the measurement.
        """
        if max_bits < self.frame_length:
            raise ConfigurationError("max_bits smaller than one frame")
        channel = AWGNChannel(es_n0_db)
        master = self.seed if seed is None else int(seed)
        registry = get_registry()
        hook = getattr(decoder, "fault_hook", None)
        # Fault streams derive from each decoded block's content, so a
        # hooked decoder (even an inert one, conservatively) always
        # simulates batch-at-a-time.
        adaptive = self.adaptive_batching and hook is None
        kernel_name = decoder.active_kernel()
        max_group = max(1, MAX_BATCH_FRAMES // self.frames_per_batch)
        batch_bits = self.frames_per_batch * self.frame_length
        total_errors = 0
        total_bits = 0
        batch = 0
        early_stop = False
        decoded_frames = 0
        trellis_steps = 0
        decode_s = 0.0
        growth = 1
        with get_tracer().span(
            "ber.measure", es_n0_db=es_n0_db, max_bits=max_bits
        ) as measure_span:
            while total_bits < max_bits:
                size = 1
                if adaptive:
                    # Grow geometrically, but never decode more batches
                    # than the bit budget admits or than the observed
                    # error rate suggests the target still needs.
                    remaining = -((total_bits - max_bits) // batch_bits)
                    size = min(growth, max_group, remaining)
                    if target_errors is not None and total_errors > 0:
                        per_batch = total_errors / batch
                        needed = target_errors - total_errors
                        size = min(size, max(1, math.ceil(needed / per_batch)))
                    if batch > 0 and total_errors == 0:
                        # Error-free so far: an early stop is unlikely,
                        # so bet on decoding the remaining bit budget in
                        # the largest groups the cap allows (the waste
                        # if errors do appear is bounded by one group).
                        growth = max_group
                    else:
                        growth = min(growth * 2, max_group)
                group_bits = []
                group_received = []
                for i in range(size):
                    batch_seed = derive_seed(
                        master,
                        "ber",
                        decoder.describe(),
                        round(es_n0_db, 6),
                        batch + i,
                    )
                    bits_i, received_i = self._generate_frames(
                        channel, batch_seed
                    )
                    group_bits.append(bits_i)
                    group_received.append(received_i)
                received = (
                    group_received[0]
                    if size == 1
                    else np.concatenate(group_received, axis=0)
                )
                start = time.perf_counter()
                decoded = decoder.decode(received, sigma=channel.sigma)
                decode_s += time.perf_counter() - start
                decoded_frames += received.shape[0]
                trellis_steps += received.shape[0] * received.shape[1]
                data = decoded[..., : self.frame_length]
                target_reached = False
                for i, bits_i in enumerate(group_bits):
                    rows = data[
                        i * self.frames_per_batch : (i + 1) * self.frames_per_batch
                    ]
                    total_errors += int(np.count_nonzero(rows != bits_i))
                    total_bits += bits_i.size
                    batch += 1
                    if (
                        target_errors is not None
                        and total_errors >= target_errors
                    ):
                        early_stop = total_bits < max_bits
                        target_reached = True
                        break
                    if total_bits >= max_bits:
                        break  # trailing group batches are discarded
                if target_reached:
                    break
            registry.counter("ber.frames").inc(batch * self.frames_per_batch)
            registry.counter("ber.bits").inc(total_bits)
            registry.counter("ber.decoded_frames").inc(decoded_frames)
            registry.counter("ber.decode_s").inc(decode_s)
            registry.counter("ber.trellis_steps").inc(trellis_steps)
            prefix = f"ber.kernel.{kernel_name}"
            registry.counter(prefix + ".frames").inc(decoded_frames)
            registry.counter(prefix + ".steps").inc(trellis_steps)
            registry.counter(prefix + ".decode_s").inc(decode_s)
            frames_per_sec = (
                decoded_frames / decode_s if decode_s > 0.0 else 0.0
            )
            if frames_per_sec:
                registry.gauge("ber.frames_per_sec").set(frames_per_sec)
            measure_span.set(
                batches=batch,
                bits=total_bits,
                errors=total_errors,
                early_stop=early_stop,
                kernel=kernel_name,
                decoded_frames=decoded_frames,
                frames_per_sec=round(frames_per_sec, 3),
            )
            if early_stop:
                registry.counter("ber.early_stops").inc()
                trace_event(
                    "ber.early_stop",
                    es_n0_db=es_n0_db,
                    bits=total_bits,
                    errors=total_errors,
                )
        return BERPoint(es_n0_db=es_n0_db, bits=total_bits, errors=total_errors)

    def sweep(
        self,
        decoder: ViterbiDecoder,
        es_n0_db_values: Sequence[float],
        max_bits: int = 100_000,
        target_errors: Optional[int] = 100,
        label: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> BERSweep:
        """Measure a full BER curve over an Es/N0 sweep."""
        sweep = BERSweep(label=label or decoder.describe())
        for es_n0_db in es_n0_db_values:
            sweep.points.append(
                self.measure(
                    decoder,
                    es_n0_db,
                    max_bits=max_bits,
                    target_errors=target_errors,
                    seed=seed,
                )
            )
        return sweep
