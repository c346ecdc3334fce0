"""Differential tests: compiled decode kernels vs the reference loops.

The compiled kernels in :mod:`repro.viterbi.kernels` promise
*bit-identical* outputs to the reference forward passes — same
decisions, same survivor selections, same decoded bits, same final
metrics.  These tests enforce that promise over randomized
configurations (hypothesis), through the BER simulator's adaptive frame
batching, and up through a whole search.  Each differential decodes the
same input twice: once as the host runs it (the compiled ``acs.c``
loops) and once with the library memo set to ``None``, which is how a
host without ``cc`` runs (:func:`_reference_loops`); the ``_forward``
comparisons call ``_forward_reference`` directly.  On a host where the
library does not load, both sides take the reference loops
(:class:`TestNativeLoader` pins that fallback), and
``test_compiler_on_path_means_native_loop`` fails a host with ``cc``
that gets there.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BERThresholdCurve, SearchConfig
from repro.errors import ConfigurationError
from repro.observability.export import (
    format_trace_report,
    install_tracing,
    read_trace,
    shutdown_tracing,
    summarize_trace,
)
from repro.observability.metrics import get_registry
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.viterbi import (
    AdaptiveQuantizer,
    BERSimulator,
    BranchMetricTable,
    ConvolutionalEncoder,
    FixedQuantizer,
    HardQuantizer,
    MultiresolutionViterbiDecoder,
    Trellis,
    ViterbiDecoder,
    ViterbiMetaCore,
    ViterbiSpec,
    standard_pattern,
)
from repro.viterbi import kernels
from repro.viterbi.kernels import symbol_indices
from repro.viterbi.metrics import MAX_COMBO_LUT_ENTRIES

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every function ``acs.c`` exports to the loader.
NATIVE_SYMBOLS = (
    b"acs_forward", b"acs_traceback", b"acs_multires_step", b"acs_row_means",
)


def _fused_kernel() -> str:
    """The loops a hook-free decoder runs on this host: ``"fused"``
    (compiled) when ``acs.c`` loads, else ``"reference"``."""
    return "fused" if kernels.native_library() is not None else "reference"


@contextlib.contextmanager
def _reference_loops():
    """Decode on the reference loops inside the block, as a host whose
    library does not load: the memo answers ``None``, then is restored."""
    saved = kernels._native
    kernels._native = None
    try:
        yield
    finally:
        kernels._native = saved


#: Both loop sets: the host's own choice, and the reference loops.
BOTH_LOOPS = pytest.mark.parametrize(
    "loops", [contextlib.nullcontext, _reference_loops],
    ids=["fused", "reference"],
)


def _received(rng, n_frames, n_steps, n_symbols, erasure_rate=0.0):
    """Random analog samples, optionally with NaN erasures mixed in."""
    samples = rng.normal(0.0, 1.0, size=(n_frames, n_steps, n_symbols))
    if erasure_rate > 0.0:
        mask = rng.random(samples.shape) < erasure_rate
        samples[mask] = np.nan
    return samples


def _pair(decoder_cls, *args, **kwargs):
    """The same decoder twice: one to decode on the host's loops, one to
    decode on the reference loops."""
    return decoder_cls(*args, **kwargs), decoder_cls(*args, **kwargs)


def _assert_identical_decode(fused, reference, received, sigma):
    decoded_fused = fused.decode(received, sigma=sigma)
    metrics_fused = fused._final_metrics.copy()
    with _reference_loops():
        assert reference.active_kernel() == "reference"
        decoded_ref = reference.decode(received, sigma=sigma)
    assert np.array_equal(decoded_fused, decoded_ref)
    assert np.array_equal(metrics_fused, reference._final_metrics)


class TestSymbolIndices:
    def test_round_trip_all_combos(self):
        base = 5  # 4 levels + erasure slot
        n = 2
        combos = base**n
        index = np.arange(combos)
        levels = np.empty((combos, n), dtype=np.int64)
        work = index.copy()
        for k in range(n - 1, -1, -1):
            levels[:, k] = work % base - 1
            work = work // base
        assert np.array_equal(symbol_indices(levels, base), index)

    def test_symbol_zero_is_most_significant(self):
        # (level0=1, level1=-1) must differ from (level0=-1, level1=1).
        a = symbol_indices(np.array([1, -1]), base=3)
        b = symbol_indices(np.array([-1, 1]), base=3)
        assert a == (1 + 1) * 3 + 0
        assert b == 0 * 3 + (1 + 1)
        assert a != b


class TestComboLut:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_masked_lut_matches_compute(self, trellis_k5, bits):
        table = BranchMetricTable(trellis_k5, AdaptiveQuantizer(bits))
        lut = table.combo_lut()
        assert lut is not None
        base = table.quantizer.lut_base
        n = trellis_k5.n_symbols
        rng = np.random.default_rng(7)
        levels = rng.integers(-1, base - 1, size=(64, n))
        rows = symbol_indices(levels, base)
        assert np.array_equal(lut[rows], table.compute(levels))

    def test_unmasked_lut_matches_compute_for_states(self, trellis_k5):
        """compute_for_states does NOT erasure-mask; nor must this LUT."""
        table = BranchMetricTable(trellis_k5, AdaptiveQuantizer(3))
        lut = table.combo_lut(erasure_masked=False)
        assert lut is not None
        rng = np.random.default_rng(11)
        levels = rng.integers(-1, table.quantizer.lut_base - 1, size=(8, 2))
        states = np.tile(np.arange(trellis_k5.n_states), (8, 1))
        subset = table.compute_for_states(levels, states)
        rows = symbol_indices(levels, table.quantizer.lut_base)
        assert np.array_equal(lut[rows], subset)

    def test_luts_are_cached(self, trellis_k3):
        table = BranchMetricTable(trellis_k3, HardQuantizer())
        assert table.combo_lut() is table.combo_lut()
        assert table.combo_lut(erasure_masked=False) is table.combo_lut(
            erasure_masked=False
        )

    def test_oversized_table_falls_back(self, monkeypatch):
        import repro.viterbi.metrics as metrics_mod

        monkeypatch.setattr(metrics_mod, "MAX_COMBO_LUT_ENTRIES", 1)
        encoder = ConvolutionalEncoder(3)
        trellis = Trellis.from_encoder(encoder)
        table = BranchMetricTable(trellis, AdaptiveQuantizer(3))
        table._combo_luts.clear()
        assert table.combo_lut() is None
        decoder = ViterbiDecoder(trellis, AdaptiveQuantizer(3), 15)
        decoder.metric_table = table
        assert decoder.active_kernel() == "reference"
        # And the decode still works (via the reference loop).
        rng = np.random.default_rng(3)
        bits = decoder.decode(
            _received(rng, 2, 40, trellis.n_symbols), sigma=0.7
        )
        assert bits.shape == (2, 40)

    def test_real_tables_fit_the_cap(self, trellis_k7):
        table = BranchMetricTable(trellis_k7, AdaptiveQuantizer(3))
        lut = table.combo_lut()
        assert lut is not None
        assert lut.size <= MAX_COMBO_LUT_ENTRIES


@pytest.fixture(scope="session")
def trellis_k7():
    return Trellis.from_encoder(ConvolutionalEncoder(7))


class TestFusedSingleResolution:
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize(
        "quantizer", [HardQuantizer(), AdaptiveQuantizer(2), FixedQuantizer(3, 1.5)]
    )
    def test_bit_identical(self, k, quantizer):
        trellis = Trellis.from_encoder(ConvolutionalEncoder(k))
        fused, reference = _pair(
            ViterbiDecoder, trellis, quantizer, 5 * k
        )
        assert fused.active_kernel() == _fused_kernel()
        rng = np.random.default_rng(100 + k)
        received = _received(rng, 6, 96, trellis.n_symbols, erasure_rate=0.15)

        dec_f, best_f = fused._forward(received, 0.8)
        dec_r, best_r = reference._forward_reference(received, 0.8)
        assert np.array_equal(dec_f, dec_r)
        assert np.array_equal(best_f, best_r)
        assert (
            fused._final_metrics.tobytes()
            == reference._final_metrics.tobytes()
        )
        _assert_identical_decode(fused, reference, received, sigma=0.8)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=7),
        bits=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=4, max_value=48),
        n_frames=st.integers(min_value=1, max_value=5),
        n_steps=st.integers(min_value=8, max_value=80),
        erasures=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_differential_random_configs(
        self, k, bits, depth, n_frames, n_steps, erasures, seed
    ):
        trellis = Trellis.from_encoder(ConvolutionalEncoder(k))
        fused, reference = _pair(
            ViterbiDecoder, trellis, AdaptiveQuantizer(bits), depth
        )
        rng = np.random.default_rng(seed)
        received = _received(rng, n_frames, n_steps, trellis.n_symbols, erasures)
        _assert_identical_decode(fused, reference, received, sigma=0.9)

    def test_tie_break_prefers_slot_zero(self, trellis_k3):
        """Equal candidate metrics must select predecessor slot 0."""
        fused, reference = _pair(ViterbiDecoder, trellis_k3, HardQuantizer(), 8)
        # All-zero received levels make every branch metric symmetric,
        # a tie factory for the compare-select.
        received = np.zeros((1, 24, trellis_k3.n_symbols))

        dec_f, best_f = fused._forward(received, None)
        dec_r, best_r = reference._forward_reference(received, None)
        assert np.array_equal(dec_f, dec_r)
        assert np.array_equal(best_f, best_r)


class TestFusedMultiresolution:
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=6),
        low_bits=st.integers(min_value=1, max_value=2),
        extra_bits=st.integers(min_value=1, max_value=2),
        paths=st.sampled_from(["one", "half", "all"]),
        method=st.sampled_from(["offset", "scale-offset", "none"]),
        n_frames=st.integers(min_value=1, max_value=4),
        n_steps=st.integers(min_value=8, max_value=64),
        erasures=st.floats(min_value=0.0, max_value=0.25),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_differential_random_configs(
        self, k, low_bits, extra_bits, paths, method, n_frames, n_steps,
        erasures, seed,
    ):
        trellis = Trellis.from_encoder(ConvolutionalEncoder(k))
        m = {"one": 1, "half": max(1, trellis.n_states // 2),
             "all": trellis.n_states}[paths]
        fused, reference = _pair(
            MultiresolutionViterbiDecoder,
            trellis,
            AdaptiveQuantizer(low_bits),
            AdaptiveQuantizer(low_bits + extra_bits),
            5 * k,
            m,
            normalization_count=1,
            normalization_method=method,
        )
        assert fused.active_kernel() == _fused_kernel()
        rng = np.random.default_rng(seed)
        received = _received(rng, n_frames, n_steps, trellis.n_symbols, erasures)
        _assert_identical_decode(fused, reference, received, sigma=0.9)

    def test_normalization_count_above_one(self, trellis_k5):
        fused, reference = _pair(
            MultiresolutionViterbiDecoder,
            trellis_k5,
            AdaptiveQuantizer(1),
            AdaptiveQuantizer(3),
            25,
            8,
            normalization_count=4,
            normalization_method="scale-offset",
        )
        rng = np.random.default_rng(21)
        received = _received(rng, 4, 80, trellis_k5.n_symbols, 0.1)
        _assert_identical_decode(fused, reference, received, sigma=0.7)


#: Deterministic multiresolution cases: (K, M, N, normalization, frames,
#: steps, low-resolution bits, erasure rate).  The K=3, M=4 rows are the
#: shapes the search decodes (the selection is every state); a 1-bit
#: low quantizer makes many accumulated metrics tie.  N >= 8 rows matter
#: because numpy sums 8 or more terms pairwise, so only they catch a
#: correction mean reduced over a different axis than the reference's,
#: or a compiled mean adding its terms in another order; N = 64 sums
#: eight accumulators over eight rounds.
MULTIRES_CASES = [
    (3, 4, 1, "scale-offset", 32, 96, 1, 0.0),
    (3, 4, 1, "scale-offset", 256, 48, 1, 0.0),
    (3, 4, 2, "offset", 256, 48, 1, 0.1),
    (5, 8, 1, "offset", 24, 80, 1, 0.0),
    (5, 8, 3, "none", 24, 80, 2, 0.1),
    (7, 16, 4, "scale-offset", 12, 64, 2, 0.0),
    (5, 16, 9, "scale-offset", 16, 64, 1, 0.0),
    (5, 16, 16, "scale-offset", 16, 64, 1, 0.1),
    (7, 16, 9, "scale-offset", 12, 64, 1, 0.0),
    (7, 64, 16, "scale-offset", 12, 64, 1, 0.0),
    (7, 64, 64, "scale-offset", 12, 64, 1, 0.0),
]


class TestFusedMultiresolutionShapes:
    @pytest.mark.parametrize(
        "k, m, n, method, n_frames, n_steps, low_bits, erasures",
        MULTIRES_CASES,
        ids=[
            f"K{c[0]}-M{c[1]}-N{c[2]}-{c[3]}-F{c[4]}" for c in MULTIRES_CASES
        ],
    )
    def test_bit_identical(
        self, k, m, n, method, n_frames, n_steps, low_bits, erasures,
    ):
        trellis = Trellis.from_encoder(ConvolutionalEncoder(k))
        fused, reference = _pair(
            MultiresolutionViterbiDecoder,
            trellis,
            AdaptiveQuantizer(low_bits),
            AdaptiveQuantizer(3),
            5 * k,
            m,
            normalization_count=n,
            normalization_method=method,
        )
        assert fused.active_kernel() == _fused_kernel()
        rng = np.random.default_rng(1000 * k + 10 * m + n)
        received = _received(
            rng, n_frames, n_steps, trellis.n_symbols, erasures
        )

        dec_f, best_f = fused._forward(received, 0.8)
        dec_r, best_r = reference._forward_reference(received, 0.8)
        assert np.array_equal(dec_f, dec_r)
        assert np.array_equal(best_f, best_r)
        assert np.array_equal(
            fused._final_metrics, reference._final_metrics
        )
        _assert_identical_decode(fused, reference, received, sigma=0.8)


class TestSelectionOrder:
    """Every loop follows the order numpy's selection hands back, not
    a sorted one: with ``np.argpartition`` patched to reverse its M-set
    (still a valid partition), the compiled loop still equals the
    reference.  On hosts whose ``argpartition`` happens to return the
    M-set sorted, this is the only check that the N best are read
    through the ranking."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_reversed_partition(self, monkeypatch, n):
        argpartition = np.argpartition

        def reversed_partition(a, kth, axis=-1, **kwargs):
            index = argpartition(a, kth, axis=axis, **kwargs)
            head = [slice(None)] * index.ndim
            head[axis] = slice(0, kth + 1)
            index[tuple(head)] = np.flip(index[tuple(head)], axis=axis)
            return index

        monkeypatch.setattr(np, "argpartition", reversed_partition)
        trellis = Trellis.from_encoder(ConvolutionalEncoder(5))
        fused, reference = _pair(
            MultiresolutionViterbiDecoder, trellis, AdaptiveQuantizer(2),
            AdaptiveQuantizer(4), 25, 8, normalization_count=n,
        )
        rng = np.random.default_rng(31 + n)
        received = _received(rng, 16, 64, trellis.n_symbols)
        _assert_identical_decode(fused, reference, received, sigma=0.8)


class TestCorrectionMean:
    """The compiled correction averages a frame's N terms exactly as
    ``ndarray.mean(axis=1)`` does on a contiguous row: add's identity
    plus numpy's pairwise sum, over N; compared byte for byte."""

    @pytest.fixture
    def row_means(self):
        lib = kernels.native_library()
        if lib is None:
            pytest.skip("compiled loops unavailable")

        def means(terms):
            terms = np.ascontiguousarray(terms, dtype=np.float64)
            out = np.empty(terms.shape[0])
            lib.acs_row_means(
                terms.shape[0], terms.shape[1],
                kernels._ptr(terms), kernels._ptr(out),
            )
            return out

        return means

    @pytest.mark.parametrize(
        "n", [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 129, 200, 300]
    )
    def test_pairwise_order(self, row_means, n):
        """Terms spanning 16 decades, so any other order of the adds
        rounds differently (below 8, from 8 to 128 and past 128 terms)."""
        rng = np.random.default_rng(n)
        terms = rng.normal(size=(64, n)) * 10.0 ** rng.integers(
            -8, 9, size=(64, n)
        )
        assert row_means(terms).tobytes() == terms.mean(axis=1).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8, 9, 64])
    def test_signed_zeros(self, row_means, n):
        rows = np.array(
            [
                np.full(n, -0.0),
                np.full(n, 0.0),
                np.resize([-0.0, 0.0], n),
                np.resize([0.0, -0.0], n),
                np.resize([-0.0, 1.5, -1.5], n),
            ]
        )
        expected = rows.mean(axis=1)
        assert row_means(rows).tobytes() == expected.tobytes()


class TestEmptyBatches:
    @pytest.fixture(params=["classic", "multires"])
    def decoder_cls_args(self, request, trellis_k3):
        if request.param == "classic":
            return ViterbiDecoder, (trellis_k3, HardQuantizer(), 9)
        return MultiresolutionViterbiDecoder, (
            trellis_k3, HardQuantizer(), AdaptiveQuantizer(3), 9, 4
        )

    @BOTH_LOOPS
    def test_zero_frames_decode_to_empty(
        self, decoder_cls_args, loops
    ):
        decoder_cls, args = decoder_cls_args
        decoder = decoder_cls(*args)

        with loops():
            bits = decoder.decode(np.zeros((0, 12, 2)), sigma=0.5)
        assert bits.shape == (0, 12)
        assert bits.dtype == np.int8

    @BOTH_LOOPS
    @pytest.mark.parametrize("shape", [(3, 0, 2), (0, 2)])
    def test_zero_steps_rejected(
        self, decoder_cls_args, loops, shape
    ):
        decoder_cls, args = decoder_cls_args
        decoder = decoder_cls(*args)

        with loops(), pytest.raises(ConfigurationError):
            decoder.decode(np.zeros(shape), sigma=0.5)


class TestKernelDispatch:
    def test_active_hook_forces_reference_loop(self, trellis_k3, monkeypatch):
        decoder = ViterbiDecoder(trellis_k3, HardQuantizer(), 10)
        decoder.fault_hook = FaultInjector(
            FaultSpec(model="seu", rate=0.01), instance="t"
        )
        assert decoder.fault_hook.active
        assert decoder.active_kernel() == "reference"

        def boom(received, sigma):  # pragma: no cover - must not run
            raise AssertionError("fused kernel ran under an active hook")

        monkeypatch.setattr(decoder, "_forward_fused", boom)
        rng = np.random.default_rng(5)
        decoder.decode(_received(rng, 2, 32, trellis_k3.n_symbols), sigma=0.5)

    def test_inert_hook_keeps_fused_path(self, trellis_k3, monkeypatch):
        decoder = ViterbiDecoder(trellis_k3, HardQuantizer(), 10)
        decoder.fault_hook = FaultInjector(
            FaultSpec(model="seu", rate=0.0), instance="t"
        )
        assert not decoder.fault_hook.active
        assert decoder.active_kernel() == _fused_kernel()
        calls = []
        original = decoder._forward_fused

        def spy(received, sigma):
            calls.append(1)
            return original(received, sigma)

        monkeypatch.setattr(decoder, "_forward_fused", spy)
        rng = np.random.default_rng(6)
        decoder.decode(_received(rng, 2, 32, trellis_k3.n_symbols), sigma=0.5)
        assert len(calls) == (1 if _fused_kernel() == "fused" else 0)

    def test_reference_kernel_never_fuses(self, trellis_k3, monkeypatch):
        """Without the library a decoder runs the reference loops only."""
        decoder = ViterbiDecoder(trellis_k3, HardQuantizer(), 10)

        def boom(*args):  # pragma: no cover - must not run
            raise AssertionError("compiled loops ran without the library")

        monkeypatch.setattr(decoder, "_forward_fused", boom)
        monkeypatch.setattr(kernels, "fused_traceback", boom)
        rng = np.random.default_rng(7)
        with _reference_loops():
            assert decoder.active_kernel() == "reference"
            decoder.decode(
                _received(rng, 1, 24, trellis_k3.n_symbols), sigma=0.5
            )


class TestAdaptiveBatching:
    def _measure_pair(self, encoder, decoder, snr, **measure_kwargs):
        adaptive = BERSimulator(
            encoder, frame_length=128, frames_per_batch=8, seed=99,
            adaptive_batching=True,
        )
        fixed = BERSimulator(
            encoder, frame_length=128, frames_per_batch=8, seed=99,
            adaptive_batching=False,
        )
        a = adaptive.measure(decoder, snr, **measure_kwargs)
        b = fixed.measure(decoder, snr, **measure_kwargs)
        assert (a.bits, a.errors) == (b.bits, b.errors)
        assert a.ber == b.ber
        return a

    @pytest.mark.parametrize(
        "snr,max_bits,target_errors",
        [(0.0, 20_000, 60), (4.0, 30_000, 25), (6.0, 20_000, None)],
    )
    def test_point_identical_to_fixed_batching(
        self, encoder_k3, trellis_k3, snr, max_bits, target_errors
    ):
        decoder = ViterbiDecoder(trellis_k3, AdaptiveQuantizer(2), 15)
        self._measure_pair(
            encoder_k3, decoder, snr,
            max_bits=max_bits, target_errors=target_errors,
        )

    def test_point_identical_with_puncturing(self, encoder_k3, trellis_k3):
        pattern = standard_pattern("3/4")
        decoder = ViterbiDecoder(trellis_k3, AdaptiveQuantizer(2), 15)
        adaptive = BERSimulator(
            encoder_k3, frame_length=126, frames_per_batch=6, seed=42,
            puncture=pattern, adaptive_batching=True,
        )
        fixed = BERSimulator(
            encoder_k3, frame_length=126, frames_per_batch=6, seed=42,
            puncture=pattern, adaptive_batching=False,
        )
        a = adaptive.measure(decoder, 3.0, max_bits=24_000, target_errors=50)
        b = fixed.measure(decoder, 3.0, max_bits=24_000, target_errors=50)
        assert (a.bits, a.errors) == (b.bits, b.errors)

    def test_point_identical_multires(self, encoder_k5, trellis_k5):
        decoder = MultiresolutionViterbiDecoder(
            trellis_k5, AdaptiveQuantizer(1), AdaptiveQuantizer(3), 25, 4
        )
        self._measure_pair(
            encoder_k5, decoder, 2.0, max_bits=16_000, target_errors=40
        )

    def test_reference_kernel_decoder_under_adaptive_sim(
        self, encoder_k3, trellis_k3
    ):
        decoder = ViterbiDecoder(trellis_k3, AdaptiveQuantizer(2), 15)
        with _reference_loops():
            self._measure_pair(
                encoder_k3, decoder, 2.0, max_bits=16_000, target_errors=40
            )

    def test_active_hook_disables_adaptive_grouping(
        self, encoder_k3, trellis_k3
    ):
        """Fault streams are per-block; grouping must never change them."""
        decoder = ViterbiDecoder(trellis_k3, HardQuantizer(), 15)
        decoder.fault_hook = FaultInjector(
            FaultSpec(model="seu", rate=0.005, seed=1), instance="t"
        )
        adaptive = BERSimulator(
            encoder_k3, frame_length=128, frames_per_batch=8, seed=13,
            adaptive_batching=True,
        )
        fixed = BERSimulator(
            encoder_k3, frame_length=128, frames_per_batch=8, seed=13,
            adaptive_batching=False,
        )
        a = adaptive.measure(decoder, 4.0, max_bits=8_000, target_errors=None)
        b = fixed.measure(decoder, 4.0, max_bits=8_000, target_errors=None)
        assert (a.bits, a.errors) == (b.bits, b.errors)

    def test_throughput_metrics_recorded(
        self, encoder_k3, trellis_k3, tmp_path
    ):
        """Counters, the ``ber.measure`` span and trace-report's kernel
        line name the loops both decoders ran, and only those: the
        compiled ones exactly when the library loads."""
        registry = get_registry()
        sim = BERSimulator(encoder_k3, frame_length=128, frames_per_batch=8)
        decoders = [
            ViterbiDecoder(trellis_k3, HardQuantizer(), 15),
            MultiresolutionViterbiDecoder(
                trellis_k3, AdaptiveQuantizer(1), AdaptiveQuantizer(3), 15, 2
            ),
        ]
        for i, decoder in enumerate(decoders):
            kernel = decoder.active_kernel()
            assert kernel == _fused_kernel()
            registry.reset()
            path = tmp_path / f"trace{i}.jsonl"
            sink = install_tracing(path)
            try:
                sim.measure(decoder, 4.0, max_bits=8_000, target_errors=None)
            finally:
                shutdown_tracing(sink, registry)
            snapshot = registry.snapshot()
            assert snapshot["ber.decoded_frames"]["value"] > 0
            assert "ber.frames_per_sec" in snapshot
            frames = int(snapshot[f"ber.kernel.{kernel}.frames"]["value"])
            assert frames > 0
            assert [
                name for name in snapshot
                if name.startswith("ber.kernel.") and name.endswith(".frames")
            ] == [f"ber.kernel.{kernel}.frames"]
            (span,) = [
                r for r in read_trace(path)
                if r.get("type") == "span" and r["name"] == "ber.measure"
            ]
            assert span["attrs"]["kernel"] == kernel
            report = format_trace_report(summarize_trace(path))
            assert (
                f"kernel: {kernel} — {frames} frames decoded in " in report
            )
        registry.reset()


class TestSearchParity:
    def test_search_results_identical_across_kernels(self):
        """A cold search with the library loaded equals the same search
        with it unloaded, as a host without ``cc`` runs it."""
        spec = ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(4.0, 2e-2),
        )
        config = SearchConfig(max_resolution=1, refine_top_k=2)

        def search():
            return ViterbiMetaCore(
                spec, fixed={"G": "standard", "N": 1}, config=config,
            ).search()

        with _reference_loops():
            reference = search()
        fused = search()
        assert fused.feasible == reference.feasible
        assert fused.best_point == reference.best_point
        assert fused.best_metrics == reference.best_metrics


def _decode_case():
    """A K=5 soft-decision pair and a batch with erasures."""
    trellis = Trellis.from_encoder(ConvolutionalEncoder(5))
    fused, reference = _pair(ViterbiDecoder, trellis, AdaptiveQuantizer(3), 25)
    rng = np.random.default_rng(77)
    received = _received(rng, 8, 120, trellis.n_symbols, erasure_rate=0.1)
    return fused, reference, received


def _multires_decode_case():
    """A K=5 multiresolution pair (M < states, N = 3) and a batch with
    erasures."""
    trellis = Trellis.from_encoder(ConvolutionalEncoder(5))
    fused, reference = _pair(
        MultiresolutionViterbiDecoder, trellis, AdaptiveQuantizer(1),
        AdaptiveQuantizer(3), 25, 8, normalization_count=3,
    )
    rng = np.random.default_rng(78)
    received = _received(rng, 8, 120, trellis.n_symbols, erasure_rate=0.1)
    return fused, reference, received


RACE_SCRIPT = """
import hashlib
import numpy as np
from repro.viterbi import (
    AdaptiveQuantizer, ConvolutionalEncoder, Trellis, ViterbiDecoder, kernels,
)
lib = kernels.native_library()
trellis = Trellis.from_encoder(ConvolutionalEncoder(5))
decoder = ViterbiDecoder(trellis, AdaptiveQuantizer(3), 25)
received = np.random.default_rng(5).normal(0.0, 1.0, (8, 120, 2))
bits = decoder.decode(received, sigma=0.8)
print(lib is not None, hashlib.sha256(bits.tobytes()).hexdigest())
"""


class TestNativeLoader:
    """Building, caching and falling back; every fallback still decodes
    bit-identically, on the reference loops, and raises nothing."""

    @pytest.fixture
    def fresh_loader(self, monkeypatch, tmp_path):
        """An unloaded memo and an empty cache directory for one test."""
        monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        return tmp_path / "cache" / "repro"

    def _assert_reference_fallback(self):
        """Hook-free decoders of both kinds take the reference loops,
        bit-identically."""
        assert kernels.native_library() is None
        for fused, reference, received in (
            _decode_case(), _multires_decode_case()
        ):
            assert fused.active_kernel() == "reference"
            _assert_identical_decode(fused, reference, received, sigma=0.8)

    def test_no_compiler_on_path(self, fresh_loader, monkeypatch, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        self._assert_reference_fallback()
        assert not fresh_loader.exists()

    def test_failing_compiler(self, fresh_loader, monkeypatch, tmp_path):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\necho 'cc: broken' >&2\nexit 1\n")
        cc.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        self._assert_reference_fallback()
        # The failed build leaves no temporary file behind.
        assert list(fresh_loader.iterdir()) == []

    def test_read_only_cache_directory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
        cache = tmp_path / "ro"
        cache.mkdir()
        cache.chmod(0o555)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        try:
            if os.access(cache, os.W_OK):
                # Permission bits do not bind this user (root): the build
                # may succeed, and the decode must still be identical.
                fused, reference, received = _decode_case()
                _assert_identical_decode(fused, reference, received, 0.8)
            else:
                self._assert_reference_fallback()
        finally:
            cache.chmod(0o755)

    def test_cache_path_not_a_directory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        self._assert_reference_fallback()

    def test_no_home_directory(self, monkeypatch):
        """No HOME, no XDG_CACHE_HOME and no passwd entry: ``Path.home``
        raises ``RuntimeError``, and the decode still runs on the
        reference loops."""
        monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)

        def no_home(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(Path, "home", classmethod(no_home))
        self._assert_reference_fallback()

    def test_library_without_the_symbols(self, fresh_loader, monkeypatch):
        """A library lacking any one of the loops falls back entirely,
        so no decode mixes a compiled pass with a missing one."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        unrelated = b"int unrelated(void) { return 0; }\n"
        sources = [unrelated] + [
            b"".join(
                b"void %s(void) {}\n" % name
                for name in NATIVE_SYMBOLS if name != missing
            )
            for missing in NATIVE_SYMBOLS
        ]
        for source in sources:
            monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
            monkeypatch.setattr(kernels, "native_source", lambda: source)
            self._assert_reference_fallback()

    def test_source_edit_changes_the_cache_key(
        self, fresh_loader, monkeypatch
    ):
        """An edited ``acs.c`` builds a library of its own; until then
        each decode loads the cached build."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        assert kernels.native_library() is not None
        (built,) = fresh_loader.iterdir()
        monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
        assert kernels.native_library() is not None
        assert list(fresh_loader.iterdir()) == [built]
        edited = kernels.native_source() + b"\n/* edited */\n"
        monkeypatch.setattr(kernels, "native_source", lambda: edited)
        monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
        assert kernels.native_library() is not None
        assert len(list(fresh_loader.iterdir())) == 2
        fused, reference, received = _multires_decode_case()
        _assert_identical_decode(fused, reference, received, sigma=0.8)

    def test_portable_loop_without_sse2(self, fresh_loader, monkeypatch):
        """The scalar loop that hosts without SSE2 run, over whole
        batches (on x86-64 it otherwise only takes odd-frame tails)."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(
            kernels, "NATIVE_CFLAGS", kernels.NATIVE_CFLAGS + ("-U__SSE2__",)
        )
        assert kernels.native_library() is not None
        fused, reference, received = _decode_case()
        dec_f, best_f = fused._forward(received, 0.8)
        dec_r, best_r = reference._forward_reference(received, 0.8)
        assert np.array_equal(dec_f, dec_r)
        assert np.array_equal(best_f, best_r)
        assert (
            fused._final_metrics.tobytes()
            == reference._final_metrics.tobytes()
        )
        _assert_identical_decode(fused, reference, received, sigma=0.8)

    def test_concurrent_builds_share_one_library(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path),
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            ),
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", RACE_SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(out.split())
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == "True"
        # The reference loops decode the same bits in this process.
        trellis = Trellis.from_encoder(ConvolutionalEncoder(5))
        decoder = ViterbiDecoder(trellis, AdaptiveQuantizer(3), 25)
        received = np.random.default_rng(5).normal(0.0, 1.0, (8, 120, 2))
        with _reference_loops():
            bits = decoder.decode(received, sigma=0.8)
        assert outputs[0][1] == hashlib.sha256(bits.tobytes()).hexdigest()
        built = sorted(p.name for p in (tmp_path / "repro").iterdir())
        assert len(built) == 1 and built[0].endswith(".so"), built

    def test_compiler_on_path_means_native_loop(self):
        """Fails, not skips: CI with a compiler must not fall back to
        the reference loops."""
        if shutil.which("cc") is not None:
            assert kernels.native_library() is not None
            fused, _, _ = _decode_case()
            assert fused.active_kernel() == "fused"

    def test_source_ships_with_the_package(self):
        source = kernels.native_source()
        on_disk = (SRC / "repro" / "viterbi" / "acs.c").read_bytes()
        assert source == on_disk
        for name in NATIVE_SYMBOLS:
            assert name in source
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        assert "[tool.setuptools.package-data]" in pyproject
        assert '"repro.viterbi" = ["acs.c"]' in pyproject

    def test_decoder_pickles_after_native_decode(self):
        fused, reference, received = _decode_case()
        fused.decode(received, sigma=0.8)
        clone = pickle.loads(pickle.dumps(fused))
        with _reference_loops():
            expected = reference.decode(received, sigma=0.8)
        assert np.array_equal(clone.decode(received, sigma=0.8), expected)
