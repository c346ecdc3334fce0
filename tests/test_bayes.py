"""Tests for the Bayesian BER predictor (paper Sec. 4.4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BayesianBERPredictor,
    DesignSpace,
    DiscreteParameter,
    Gaussian,
    observation_from_counts,
)
from repro.errors import ConfigurationError


def _space() -> DesignSpace:
    return DesignSpace([DiscreteParameter("x", tuple(range(11)))])


class TestGaussian:
    def test_combination_between_means(self):
        a = Gaussian(-2.0, 0.5)
        b = Gaussian(-4.0, 0.5)
        combined = a.combined_with(b)
        assert -4.0 < combined.mean < -2.0
        assert combined.std < 0.5

    def test_precision_weighting(self):
        tight = Gaussian(-2.0, 0.1)
        loose = Gaussian(-6.0, 2.0)
        combined = tight.combined_with(loose)
        assert abs(combined.mean - tight.mean) < 0.05

    def test_ber_clamped(self):
        assert Gaussian(0.0, 1.0).ber == 0.5
        assert Gaussian(-3.0, 1.0).ber == pytest.approx(1e-3)


class TestObservation:
    def test_mean_matches_counts(self):
        obs = observation_from_counts(10, 10_000)
        assert obs.mean == pytest.approx(math.log10(1e-3))

    def test_more_errors_tighter(self):
        loose = observation_from_counts(4, 10_000)
        tight = observation_from_counts(400, 1_000_000)
        assert tight.std < loose.std

    def test_zero_errors_is_vague_upper_bound(self):
        obs = observation_from_counts(0, 10_000)
        assert obs.std >= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            observation_from_counts(5, 0)
        with pytest.raises(ConfigurationError):
            observation_from_counts(-1, 10)
        with pytest.raises(ConfigurationError):
            observation_from_counts(11, 10)


class TestPredictor:
    def test_empty_predictor_has_no_prior(self):
        predictor = BayesianBERPredictor(_space())
        assert predictor.prior({"x": 5}) is None
        with pytest.raises(ConfigurationError):
            predictor.predict({"x": 5})

    def test_prior_interpolates_neighbors(self):
        predictor = BayesianBERPredictor(_space())
        predictor.add_measurement({"x": 0}, errors=1000, bits=10_000)  # 1e-1
        predictor.add_measurement({"x": 10}, errors=10, bits=10_000)  # 1e-3
        prior = predictor.prior({"x": 5})
        assert -3.0 < prior.mean < -1.0

    def test_prior_vaguer_far_from_data(self):
        predictor = BayesianBERPredictor(_space())
        predictor.add_measurement({"x": 0}, errors=100, bits=10_000)
        near = predictor.prior({"x": 1})
        far = predictor.prior({"x": 10})
        assert far.std > near.std

    def test_posterior_regularizes_short_run(self):
        """A noisy 2-error measurement gets pulled toward neighbors."""
        predictor = BayesianBERPredictor(_space())
        for x in (4, 6):
            predictor.add_measurement({"x": x}, errors=500, bits=100_000)  # 5e-3
        posterior = predictor.predict({"x": 5}, errors=2, bits=1_000)  # 2e-3 noisy
        raw = observation_from_counts(2, 1_000)
        neighbor_mean = math.log10(5e-3)
        assert abs(posterior.mean - neighbor_mean) < abs(raw.mean - neighbor_mean)

    def test_long_run_dominates_prior(self):
        predictor = BayesianBERPredictor(_space())
        predictor.add_measurement({"x": 4}, errors=10, bits=1_000)  # 1e-2
        posterior = predictor.predict({"x": 5}, errors=10_000, bits=10_000_000)
        assert posterior.mean == pytest.approx(-3.0, abs=0.15)

    def test_add_estimate(self):
        predictor = BayesianBERPredictor(_space())
        predictor.add_estimate({"x": 5}, ber=1e-4)
        assert predictor.prior({"x": 5}).mean == pytest.approx(-4.0, abs=0.5)

    def test_add_estimate_clamps(self):
        predictor = BayesianBERPredictor(_space())
        belief = predictor.add_estimate({"x": 5}, ber=2.0)
        assert belief.mean <= math.log10(0.5) + 1e-9

    @given(st.integers(1, 500), st.integers(1_000, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_posterior_between_prior_and_observation(self, errors, bits):
        errors = min(errors, bits)
        predictor = BayesianBERPredictor(_space())
        predictor.add_measurement({"x": 0}, errors=100, bits=10_000)
        prior = predictor.prior({"x": 5})
        observation = observation_from_counts(errors, bits)
        posterior = predictor.predict({"x": 5}, errors=errors, bits=bits)
        lo = min(prior.mean, observation.mean) - 1e-9
        hi = max(prior.mean, observation.mean) + 1e-9
        assert lo <= posterior.mean <= hi
