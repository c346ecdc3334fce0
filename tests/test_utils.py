"""Tests for repro.utils: RNG derivation, statistics, fixed point."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.fixed import (
    from_fixed,
    needed_integer_bits,
    quantize_array,
    quantize_mantissa,
    quantize_real,
    to_fixed,
)
from repro.utils.rng import derive_seed, make_rng, spawn_rng
from repro.utils.stats import (
    binomial_confidence_interval,
    geometric_mean,
    improvement_percent,
    mean_improvement_percent,
)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(7).integers(0, 1 << 30, size=8)
        b = make_rng(7).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_make_rng_passes_generator_through(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_distinct_labels(self):
        seeds = {derive_seed(1, "x", i) for i in range(100)}
        assert len(seeds) == 100

    def test_derive_seed_distinct_masters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_spawn_rng_streams_differ(self):
        a = spawn_rng(3, "one").random()
        b = spawn_rng(3, "two").random()
        assert a != b


class TestStats:
    def test_wilson_interval_brackets_estimate(self):
        lo, hi = binomial_confidence_interval(10, 1000)
        assert lo < 0.01 < hi

    def test_wilson_zero_errors_nonzero_upper(self):
        lo, hi = binomial_confidence_interval(0, 1000)
        assert lo == 0.0
        assert hi > 0.0

    def test_wilson_all_errors(self):
        lo, hi = binomial_confidence_interval(1000, 1000)
        assert hi == 1.0
        assert lo < 1.0

    def test_wilson_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_confidence_interval(5, 0)
        with pytest.raises(ValueError):
            binomial_confidence_interval(-1, 10)
        with pytest.raises(ValueError):
            binomial_confidence_interval(11, 10)

    @given(st.integers(0, 200), st.integers(1, 10_000))
    def test_wilson_is_a_valid_interval(self, errors, trials):
        errors = min(errors, trials)
        lo, hi = binomial_confidence_interval(errors, trials)
        assert 0.0 <= lo <= hi <= 1.0

    def test_geometric_mean_simple(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_geometric_mean_zero(self):
        assert geometric_mean([0.0, 5.0]) == 0.0

    def test_geometric_mean_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_improvement_percent(self):
        assert improvement_percent(1e-2, 3.6e-3) == pytest.approx(64.0)

    def test_improvement_percent_negative_when_worse(self):
        assert improvement_percent(1e-3, 2e-3) == pytest.approx(-100.0)

    def test_mean_improvement_skips_zero_baseline(self):
        value = mean_improvement_percent([0.0, 1e-2], [1e-3, 5e-3])
        assert value == pytest.approx(50.0)

    def test_mean_improvement_all_zero_raises(self):
        with pytest.raises(ValueError):
            mean_improvement_percent([0.0], [0.0])


class TestFixedPoint:
    def test_round_trip_exact_values(self):
        assert quantize_real(0.5, 8, 6) == 0.5
        assert quantize_real(-1.0, 8, 6) == -1.0

    def test_saturation_high(self):
        # 8-bit, 6 fractional: max code 127 -> 127/64.
        assert quantize_real(5.0, 8, 6) == pytest.approx(127 / 64)

    def test_saturation_low(self):
        assert quantize_real(-5.0, 8, 6) == pytest.approx(-2.0)

    def test_to_fixed_rejects_bad_word(self):
        with pytest.raises(ValueError):
            to_fixed(0.5, 1, 0)
        with pytest.raises(ValueError):
            to_fixed(0.5, 8, 8)

    @given(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.integers(4, 16),
    )
    def test_quantization_error_bounded(self, value, word):
        frac = word - 2
        result = quantize_real(value, word, frac)
        assert abs(result - value) <= 2.0 ** (-frac - 1) + 1e-12

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=8))
    def test_quantize_array_idempotent(self, values):
        arr = np.asarray(values)
        bits = needed_integer_bits(arr)
        once = quantize_array(arr, 16, 14 - bits if bits <= 14 else 0)
        twice = quantize_array(once, 16, 14 - bits if bits <= 14 else 0)
        assert np.allclose(once, twice)

    def test_needed_integer_bits(self):
        assert needed_integer_bits(np.array([0.0])) == 0
        assert needed_integer_bits(np.array([0.99])) == 0
        assert needed_integer_bits(np.array([1.0])) == 1
        assert needed_integer_bits(np.array([-3.5])) == 2
        assert needed_integer_bits(np.array([70.0])) == 7

    def test_quantize_mantissa_preserves_zero(self):
        out = quantize_mantissa(np.array([0.0, 0.5]), 8)
        assert out[0] == 0.0

    @given(
        st.floats(1e-6, 1e6, allow_nan=False),
        st.integers(4, 20),
    )
    def test_quantize_mantissa_relative_error(self, value, word):
        out = quantize_mantissa(np.array([value]), word)[0]
        assert abs(out - value) / value <= 2.0 ** (-(word - 1)) + 1e-12

    def test_quantize_mantissa_signs(self):
        out = quantize_mantissa(np.array([-0.3, 0.3]), 10)
        assert out[0] == -out[1]

    def test_from_fixed_matches_scale(self):
        codes = to_fixed(np.array([0.25, 0.75]), 10, 8)
        back = from_fixed(codes, 8)
        assert np.allclose(back, [0.25, 0.75])
