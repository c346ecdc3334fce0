"""Analytic BER estimation via the union bound.

The multiresolution search evaluates coarse grids with "simulation
times kept short" (Sec. 4.4).  The cheapest evaluation of all is an
analytic one: the classic union bound over the code's distance
spectrum,

    BER  <=  sum_d  B_d * P2(d)

where ``B_d`` is the total input weight of error events at output
distance ``d`` (computed exactly from the trellis here) and ``P2(d)``
the pairwise error probability of an event at distance ``d`` under the
decoder's quantization.  The estimator is smooth in the design
parameters, instantaneous to evaluate, and accurate at moderate-to-high
SNR — exactly what the coarse search grid needs; Monte-Carlo simulation
(:mod:`repro.viterbi.ber`) remains the high-resolution evaluation.

Quantization enters through calibrated efficiency factors (hard
decisions use the exact binomial pairwise error probability), the
multiresolution decoder through a geometric interpolation between the
hard and soft pairwise probabilities weighted by the recomputed path
fraction, and finite trace-back depth through a calibrated truncation
penalty that vanishes beyond ``L = 7K`` (the paper's observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.viterbi.channels import es_n0_db_to_linear
from repro.viterbi.encoder import ConvolutionalEncoder
from repro.viterbi.trellis import Trellis

#: Quantization efficiency (fraction of the soft-decision Es/N0
#: retained) per resolution; hard decisions are handled exactly.
QUANTIZATION_EFFICIENCY: Dict[int, float] = {
    2: 0.86,
    3: 0.96,
    4: 0.99,
}

#: Spectrum depth: distances dfree .. dfree + SPECTRUM_TERMS - 1.
SPECTRUM_TERMS = 6

#: Trace-back truncation penalty constants: a multiplicative BER factor
#: ``1 + TRUNC_SCALE * exp(-TRUNC_RATE * L / K)``, calibrated so the
#: penalty is ~3x at L = 2K and gone past L = 7K (Sec. 4.1).
TRUNC_SCALE = 12.0
TRUNC_RATE = 0.9


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def quantization_efficiency(bits: int) -> float:
    """Soft-decision efficiency of a ``bits``-bit quantizer."""
    if bits < 2:
        raise ConfigurationError("use the binomial formula for hard decisions")
    return QUANTIZATION_EFFICIENCY.get(bits, 1.0)


@dataclass(frozen=True)
class DistanceSpectrum:
    """Free distance and input-weight spectrum of a convolutional code."""

    free_distance: int
    #: ``weights[d]`` = total input weight of error events at distance d.
    weights: Tuple[Tuple[int, float], ...]

    def as_dict(self) -> Dict[int, float]:
        return dict(self.weights)


def distance_spectrum(
    encoder: ConvolutionalEncoder, extra_terms: int = SPECTRUM_TERMS
) -> DistanceSpectrum:
    """Exact distance spectrum via dynamic programming on the trellis.

    Counts all paths that diverge from state 0 and remerge into it
    without touching it in between, accumulating the number of paths and
    their total input weight per output Hamming distance.  Each step
    updates every state at once: a state's two incoming branches gather
    their predecessors' rows, shifted along the distance axis by the
    branch's output weight.  Counts and weights are integer-valued
    doubles far below 2**53, so the sums are exact in any order.
    """
    trellis = Trellis.from_encoder(encoder)
    # First find the free distance with a Dijkstra-style search, so the
    # DP can bound its distance axis.
    dfree = _free_distance(encoder)
    dmax = dfree + extra_terms - 1
    # counts[s, d] / weight[s, d]: paths 0 -> s (s != 0) at distance d.
    counts = np.zeros((encoder.n_states, dmax + 1))
    weight = np.zeros_like(counts)
    merged_weight = np.zeros(dmax + 1)
    # Diverge: the input-1 branch out of state 0.
    start_state = encoder.next_state(0, 1)
    start_dist = sum(encoder.output_symbols(0, 1))
    if start_dist <= dmax:
        counts[start_state, start_dist] = 1.0
        weight[start_state, start_dist] = 1.0
    # Per incoming slot: the predecessor rows and, for every distance
    # d, the column d - (branch weight) of those rows in the
    # zero-padded tables below (the pad absorbs d < branch weight).
    pad = encoder.n_outputs
    branch_dist = trellis.branch_symbols.sum(axis=2, dtype=np.int64)
    rows = trellis.predecessors[:, :, np.newaxis]
    cols = pad + np.arange(dmax + 1) - branch_dist[:, :, np.newaxis]
    bits = trellis.branch_inputs[:, :, np.newaxis].astype(np.float64)
    padded_counts = np.zeros((encoder.n_states, pad + dmax + 1))
    padded_weight = np.zeros_like(padded_counts)
    max_steps = 64 * encoder.constraint_length + 256
    for _ in range(max_steps):
        if not counts.any():
            break
        padded_counts[:, pad:] = counts
        padded_weight[:, pad:] = weight
        # (states, slot, distance): each incoming branch's paths.
        shifted_counts = padded_counts[rows, cols]
        shifted_weight = padded_weight[rows, cols] + bits * shifted_counts
        counts = shifted_counts.sum(axis=1)
        weight = shifted_weight.sum(axis=1)
        merged_weight += weight[0]
        counts[0] = 0.0
        weight[0] = 0.0
    weights = tuple(
        (d, float(merged_weight[d]))
        for d in range(dfree, dmax + 1)
        if merged_weight[d] > 0 or d == dfree
    )
    return DistanceSpectrum(free_distance=dfree, weights=weights)


def _free_distance(encoder: ConvolutionalEncoder) -> int:
    """Minimum output distance of any error event (Dijkstra on states)."""
    import heapq

    n_states = encoder.n_states
    start = encoder.next_state(0, 1)
    start_dist = sum(encoder.output_symbols(0, 1))
    best = {start: start_dist}
    heap = [(start_dist, start)]
    dfree = math.inf
    while heap:
        dist, state = heapq.heappop(heap)
        if dist > best.get(state, math.inf) or dist >= dfree:
            continue
        for bit in (0, 1):
            nxt = encoder.next_state(state, bit)
            ndist = dist + sum(encoder.output_symbols(state, bit))
            if nxt == 0:
                dfree = min(dfree, ndist)
            elif ndist < best.get(nxt, math.inf):
                best[nxt] = ndist
                heapq.heappush(heap, (ndist, nxt))
    if not math.isfinite(dfree):
        raise ConfigurationError("code has no remerging path (degenerate)")
    return int(dfree)


# ---------------------------------------------------------------------------
# Pairwise error probabilities
# ---------------------------------------------------------------------------


def pairwise_error_soft(distance: int, es_n0_db: float, bits: int) -> float:
    """P2(d) for soft decoding with a ``bits``-bit quantizer."""
    ratio = es_n0_db_to_linear(es_n0_db) * quantization_efficiency(bits)
    return _q_function(math.sqrt(2.0 * distance * ratio))


def pairwise_error_hard(distance: int, es_n0_db: float) -> float:
    """Exact P2(d) for hard decisions (binomial over symbol errors)."""
    p = _q_function(math.sqrt(2.0 * es_n0_db_to_linear(es_n0_db)))
    total = 0.0
    if distance % 2 == 1:
        lo = (distance + 1) // 2
    else:
        half = distance // 2
        total += 0.5 * math.comb(distance, half) * p**half * (1 - p) ** half
        lo = half + 1
    for k in range(lo, distance + 1):
        total += math.comb(distance, k) * p**k * (1 - p) ** (distance - k)
    return total


def pairwise_error_multires(
    distance: int,
    es_n0_db: float,
    high_bits: int,
    multires_paths: int,
    n_states: int,
) -> float:
    """P2(d) for the multiresolution decoder.

    Geometric interpolation between the hard and high-resolution soft
    pairwise error probabilities, weighted by ``sqrt(M / 2**(K-1))`` —
    the calibrated fraction of the hard-to-soft gap the recomputation
    recovers.  Exact at both endpoints (M=0 hard, M=S full soft).
    """
    if not 1 <= multires_paths <= n_states:
        raise ConfigurationError("M out of range")
    hard = pairwise_error_hard(distance, es_n0_db)
    soft = pairwise_error_soft(distance, es_n0_db, high_bits)
    w = math.sqrt(multires_paths / n_states)
    if hard <= 0.0 or soft <= 0.0:
        return 0.0
    return math.exp((1.0 - w) * math.log(hard) + w * math.log(soft))


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _cached_spectrum(constraint_length: int, polynomials: Tuple[int, ...]):
    encoder = ConvolutionalEncoder(constraint_length, polynomials)
    return distance_spectrum(encoder)


def truncation_penalty(traceback_depth: int, constraint_length: int) -> float:
    """Multiplicative BER penalty of a finite trace-back depth."""
    ratio = traceback_depth / float(constraint_length)
    return 1.0 + TRUNC_SCALE * math.exp(-TRUNC_RATE * ratio)


def estimate_ber(
    constraint_length: int,
    polynomials: Tuple[int, ...],
    es_n0_db: float,
    quantizer_bits: int,
    traceback_depth: int,
    high_bits: Optional[int] = None,
    multires_paths: Optional[int] = None,
) -> float:
    """Union-bound BER estimate for one decoder instance.

    ``quantizer_bits`` is R1; pass ``high_bits``/``multires_paths`` for
    the multiresolution decoder.  The result is clamped to [0, 0.5]
    (the bound diverges at very low SNR, where 0.5 is the honest
    answer anyway).
    """
    spectrum = _cached_spectrum(constraint_length, tuple(polynomials))
    n_states = 1 << (constraint_length - 1)
    total = 0.0
    for distance, b_d in spectrum.weights:
        if multires_paths is not None:
            if high_bits is None:
                raise ConfigurationError("multires estimate needs high_bits")
            p2 = pairwise_error_multires(
                distance, es_n0_db, high_bits, multires_paths, n_states
            )
        elif quantizer_bits == 1:
            p2 = pairwise_error_hard(distance, es_n0_db)
        else:
            p2 = pairwise_error_soft(distance, es_n0_db, quantizer_bits)
        total += b_d * p2
    total *= truncation_penalty(traceback_depth, constraint_length)
    return min(total, 0.5)
