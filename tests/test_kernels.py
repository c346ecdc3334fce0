"""Differential tests: fused decode kernels vs the reference loops.

The fused kernels in :mod:`repro.viterbi.kernels` promise *bit-identical*
outputs to the reference forward passes — same decisions, same survivor
selections, same decoded bits, same final metrics.  These tests enforce
that promise over randomized configurations (hypothesis), through the
BER simulator's adaptive frame batching, and up through a whole search.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BERThresholdCurve, SearchConfig
from repro.errors import ConfigurationError
from repro.observability.metrics import get_registry
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.viterbi import (
    AdaptiveQuantizer,
    BERSimulator,
    BranchMetricTable,
    ConvolutionalEncoder,
    DECODE_KERNELS,
    FixedQuantizer,
    HardQuantizer,
    MultiresolutionViterbiDecoder,
    Trellis,
    ViterbiDecoder,
    ViterbiMetaCore,
    ViterbiSpec,
    standard_pattern,
)
from repro.viterbi.kernels import symbol_indices
from repro.viterbi.metrics import MAX_COMBO_LUT_ENTRIES


def _received(rng, n_frames, n_steps, n_symbols, erasure_rate=0.0):
    """Random analog samples, optionally with NaN erasures mixed in."""
    samples = rng.normal(0.0, 1.0, size=(n_frames, n_steps, n_symbols))
    if erasure_rate > 0.0:
        mask = rng.random(samples.shape) < erasure_rate
        samples[mask] = np.nan
    return samples


def _pair(decoder_cls, *args, **kwargs):
    """The same decoder twice: fused kernel and reference kernel."""
    fused = decoder_cls(*args, kernel="fused", **kwargs)
    reference = decoder_cls(*args, kernel="reference", **kwargs)
    return fused, reference


def _assert_identical_decode(fused, reference, received, sigma):
    decoded_fused = fused.decode(received, sigma=sigma)
    metrics_fused = fused._final_metrics.copy()
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
        assert fused.active_kernel() == "fused"
        rng = np.random.default_rng(100 + k)
        received = _received(rng, 6, 96, trellis.n_symbols, erasure_rate=0.15)
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
        dec_r, best_r = reference._forward(received, None)
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
        assert fused.active_kernel() == "fused"
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
#: correction mean reduced over a different axis than the reference's.
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
        self, k, m, n, method, n_frames, n_steps, low_bits, erasures
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
        assert fused.active_kernel() == "fused"
        rng = np.random.default_rng(1000 * k + 10 * m + n)
        received = _received(
            rng, n_frames, n_steps, trellis.n_symbols, erasures
        )
        dec_f, best_f = fused._forward(received, 0.8)
        dec_r, best_r = reference._forward(received, 0.8)
        assert np.array_equal(dec_f, dec_r)
        assert np.array_equal(best_f, best_r)
        assert np.array_equal(fused._final_metrics, reference._final_metrics)
        _assert_identical_decode(fused, reference, received, sigma=0.8)


class TestEmptyBatches:
    @pytest.fixture(params=["classic", "multires"])
    def decoder_cls_args(self, request, trellis_k3):
        if request.param == "classic":
            return ViterbiDecoder, (trellis_k3, HardQuantizer(), 9)
        return MultiresolutionViterbiDecoder, (
            trellis_k3, HardQuantizer(), AdaptiveQuantizer(3), 9, 4
        )

    @pytest.mark.parametrize("kernel", DECODE_KERNELS)
    def test_zero_frames_decode_to_empty(self, decoder_cls_args, kernel):
        decoder_cls, args = decoder_cls_args
        decoder = decoder_cls(*args, kernel=kernel)
        bits = decoder.decode(np.zeros((0, 12, 2)), sigma=0.5)
        assert bits.shape == (0, 12)
        assert bits.dtype == np.int8

    @pytest.mark.parametrize("kernel", DECODE_KERNELS)
    @pytest.mark.parametrize("shape", [(3, 0, 2), (0, 2)])
    def test_zero_steps_rejected(self, decoder_cls_args, kernel, shape):
        decoder_cls, args = decoder_cls_args
        decoder = decoder_cls(*args, kernel=kernel)
        with pytest.raises(ConfigurationError):
            decoder.decode(np.zeros(shape), sigma=0.5)


class TestKernelDispatch:
    def test_rejects_unknown_kernel(self, trellis_k3):
        with pytest.raises(ConfigurationError):
            ViterbiDecoder(trellis_k3, HardQuantizer(), 10, kernel="turbo")
        assert "fused" in DECODE_KERNELS and "reference" in DECODE_KERNELS

    def test_active_hook_forces_reference_loop(self, trellis_k3, monkeypatch):
        decoder = ViterbiDecoder(trellis_k3, HardQuantizer(), 10)
        decoder.fault_hook = FaultInjector(
            FaultSpec(model="seu", rate=0.01), instance="t"
        )
        assert decoder.fault_hook.active

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
        calls = []
        original = decoder._forward_fused

        def spy(received, sigma):
            calls.append(1)
            return original(received, sigma)

        monkeypatch.setattr(decoder, "_forward_fused", spy)
        rng = np.random.default_rng(6)
        decoder.decode(_received(rng, 2, 32, trellis_k3.n_symbols), sigma=0.5)
        assert calls

    def test_reference_kernel_never_fuses(self, trellis_k3, monkeypatch):
        decoder = ViterbiDecoder(
            trellis_k3, HardQuantizer(), 10, kernel="reference"
        )
        assert decoder.active_kernel() == "reference"

        def boom(received, sigma):  # pragma: no cover - must not run
            raise AssertionError("fused kernel ran with kernel='reference'")

        monkeypatch.setattr(decoder, "_forward_fused", boom)
        rng = np.random.default_rng(7)
        decoder.decode(_received(rng, 1, 24, trellis_k3.n_symbols), sigma=0.5)


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
        decoder = ViterbiDecoder(
            trellis_k3, AdaptiveQuantizer(2), 15, kernel="reference"
        )
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

    def test_throughput_metrics_recorded(self, encoder_k3, trellis_k3):
        registry = get_registry()
        registry.reset()
        decoder = ViterbiDecoder(trellis_k3, HardQuantizer(), 15)
        sim = BERSimulator(encoder_k3, frame_length=128, frames_per_batch=8)
        sim.measure(decoder, 4.0, max_bits=8_000, target_errors=None)
        snapshot = registry.snapshot()
        assert snapshot["ber.decoded_frames"]["value"] > 0
        assert "ber.frames_per_sec" in snapshot
        kernel = decoder.active_kernel()
        assert snapshot[f"ber.kernel.{kernel}.frames"]["value"] > 0
        registry.reset()


class TestSearchParity:
    def test_search_results_identical_across_kernels(self):
        spec = ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(4.0, 2e-2),
        )
        config = SearchConfig(max_resolution=1, refine_top_k=2)
        results = {}
        for kernel in DECODE_KERNELS:
            metacore = ViterbiMetaCore(
                spec, fixed={"G": "standard", "N": 1},
                config=config, kernel=kernel,
            )
            results[kernel] = metacore.search()
        fused, reference = results["fused"], results["reference"]
        assert fused.feasible == reference.feasible
        assert fused.best_point == reference.best_point
        assert fused.best_metrics == reference.best_metrics

    def test_kernel_not_in_fingerprint(self):
        from repro.viterbi import ViterbiMetacoreEvaluator

        spec = ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(3.0, 1e-3),
        )
        fused = ViterbiMetacoreEvaluator(spec, kernel="fused")
        reference = ViterbiMetacoreEvaluator(spec, kernel="reference")
        assert fused.fingerprint() == reference.fingerprint()
