"""Tests for transfer functions and band measurements."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import FilterDesignError
from repro.iir.transfer import TransferFunction, ZPK, measure_bands


class TestTransferFunction:
    def test_normalizes_leading_coefficient(self):
        tf = TransferFunction([2.0, 4.0], [2.0, 1.0])
        assert tf.a[0] == 1.0
        assert tf.b[0] == 1.0

    def test_rejects_zero_leading_denominator(self):
        with pytest.raises(FilterDesignError):
            TransferFunction([1.0], [0.0, 1.0])

    def test_dc_gain(self):
        tf = TransferFunction([0.5, 0.5], [1.0])  # moving average
        assert abs(tf.response(np.array([0.0]))[0]) == pytest.approx(1.0)

    def test_nyquist_null_of_averager(self):
        tf = TransferFunction([0.5, 0.5], [1.0])
        assert abs(tf.response(np.array([math.pi]))[0]) < 1e-12

    def test_one_pole_filter_response(self):
        # H(z) = 1 / (1 - 0.5 z^-1): |H(0)| = 2.
        tf = TransferFunction([1.0], [1.0, -0.5])
        assert abs(tf.response(np.array([0.0]))[0]) == pytest.approx(2.0)

    def test_stability(self):
        assert TransferFunction([1.0], [1.0, -0.5]).is_stable()
        assert not TransferFunction([1.0], [1.0, -1.5]).is_stable()

    def test_impulse_response_one_pole(self):
        tf = TransferFunction([1.0], [1.0, -0.5])
        imp = tf.impulse_response(6)
        assert np.allclose(imp, [0.5**n for n in range(6)])

    def test_filter_matches_convolution_for_fir(self, rng):
        b = np.array([0.2, -0.3, 0.5])
        tf = TransferFunction(b, [1.0])
        x = rng.normal(size=50)
        y = tf.filter(x)
        ref = np.convolve(x, b)[:50]
        assert np.allclose(y, ref)

    def test_multiplication_composes(self):
        a = TransferFunction([1.0], [1.0, -0.5])
        b = TransferFunction([1.0, 1.0], [1.0])
        product = a * b
        omega = np.linspace(0.1, 3.0, 16)
        assert np.allclose(
            product.response(omega), a.response(omega) * b.response(omega)
        )

    def test_zpk_round_trip(self):
        tf = TransferFunction([1.0, 0.4], [1.0, -0.9, 0.5])
        back = tf.to_zpk().to_tf()
        omega = np.linspace(0.1, 3.0, 16)
        assert np.allclose(back.response(omega), tf.response(omega))

    def test_zpk_gain(self):
        zpk = ZPK(zeros=(), poles=(0.5 + 0j,), gain=2.0)
        tf = zpk.to_tf()
        assert tf.b[0] == pytest.approx(2.0)


class TestMeasurement:
    def test_ideal_lowpass_measurements(self, bandpass_tf):
        from repro.iir.design import paper_bandpass_spec

        spec = paper_bandpass_spec()
        measurement = measure_bands(bandpass_tf, spec.passbands, spec.stopbands)
        assert measurement.passband_ripple <= spec.passband_ripple * 1.02
        assert measurement.stopband_level <= spec.stopband_ripple * 1.02
        assert measurement.peak_gain == pytest.approx(1.0, abs=0.02)

    def test_three_db_bandwidth_brackets_passband(self, bandpass_tf):
        from repro.iir.design import paper_bandpass_spec

        spec = paper_bandpass_spec()
        measurement = measure_bands(bandpass_tf, spec.passbands, spec.stopbands)
        assert measurement.three_db_low is not None
        assert measurement.three_db_low < spec.passband_low
        assert measurement.three_db_high > spec.passband_high

    def test_stopband_attenuation_db(self, bandpass_tf):
        from repro.iir.design import paper_bandpass_spec

        spec = paper_bandpass_spec()
        measurement = measure_bands(bandpass_tf, spec.passbands, spec.stopbands)
        assert measurement.stopband_attenuation_db >= 36.0

    def test_grid_points_guard(self, bandpass_tf):
        with pytest.raises(FilterDesignError):
            measure_bands(bandpass_tf, [(0.1, 0.2)], [], grid_points=4)

    def test_no_three_db_edges_for_allstop(self):
        tf = TransferFunction([1e-6], [1.0])
        measurement = measure_bands(tf, [(0.5, 1.0)], [])
        assert measurement.three_db_low is None
        assert measurement.three_db_high is None
