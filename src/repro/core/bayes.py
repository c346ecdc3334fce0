"""Bayesian BER prediction from grid neighbors (paper Sec. 4.4).

"BER is probabilistic by nature and interpolation can lead to
inaccurate conclusions especially if simulation times are kept short.
We use Bayesian probabilistic techniques to assign a BER probability to
each point, based on the BER values of its neighbors."

The model works in log10-BER space, where Monte-Carlo noise is
approximately Gaussian:

- the *prior* at a point is an inverse-distance-weighted Gaussian built
  from already-evaluated neighbors (mean = weighted neighbor mean,
  variance = weighted spread plus a base uncertainty that grows with
  distance to the nearest neighbor);
- a short simulation contributes a Gaussian *likelihood* whose variance
  follows from the binomial error count (few observed errors = wide);
- the posterior combines both by precision weighting.

The search uses the posterior mean to rank sparse-grid points whose
simulations were short, and the posterior variance to decide which
points deserve a longer run — [Stu91]'s Bayesian global search adapted
to the BER metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.interpolate import point_coordinates
from repro.core.parameters import DesignSpace, Point
from repro.errors import ConfigurationError

#: log10 conversion constant for binomial error-count variance.
_LOG10_E = 1.0 / math.log(10.0)

#: Base prior standard deviation (decades) at zero neighbor distance,
#: and its growth per unit of normalized distance.
PRIOR_BASE_STD = 0.3
PRIOR_DISTANCE_STD = 2.0


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian belief over log10(BER)."""

    mean: float
    std: float

    def combined_with(self, other: "Gaussian") -> "Gaussian":
        """Precision-weighted posterior of two Gaussian beliefs."""
        pa = 1.0 / (self.std**2)
        pb = 1.0 / (other.std**2)
        mean = (self.mean * pa + other.mean * pb) / (pa + pb)
        return Gaussian(mean=mean, std=math.sqrt(1.0 / (pa + pb)))

    @property
    def ber(self) -> float:
        """The belief's point estimate back on the BER scale."""
        return min(10.0**self.mean, 0.5)


def observation_from_counts(errors: int, bits: int) -> Gaussian:
    """Gaussian log10-BER likelihood of a Monte-Carlo measurement.

    Zero observed errors are handled with half a pseudo-error (the BER
    is *at most* around 1/bits); the standard deviation shrinks with
    the square root of the error count, so short simulations are
    automatically down-weighted in the posterior.
    """
    if bits <= 0:
        raise ConfigurationError("bits must be positive")
    if errors < 0 or errors > bits:
        raise ConfigurationError("errors outside [0, bits]")
    effective = max(errors, 0.5)
    mean = math.log10(effective / bits)
    std = _LOG10_E / math.sqrt(effective)
    if errors == 0:
        std = max(std, 1.0)  # an upper bound, not a measurement
    return Gaussian(mean=mean, std=std)


class BayesianBERPredictor:
    """Neighbor-based prior + measurement posterior over log10(BER)."""

    def __init__(self, space: DesignSpace, power: float = 2.0) -> None:
        self.space = space
        self.power = power
        self._coords: List[np.ndarray] = []
        self._beliefs: List[Gaussian] = []

    # ------------------------------------------------------------------

    def add_measurement(
        self, point: Point, errors: int, bits: int
    ) -> Gaussian:
        """Record a Monte-Carlo measurement at a point.

        The stored belief is the posterior of the measurement with the
        neighbor prior available at insertion time, so early noisy
        measurements are already regularized by their neighborhood.
        """
        observation = observation_from_counts(errors, bits)
        prior = self.prior(point) if self._beliefs else None
        belief = observation if prior is None else prior.combined_with(observation)
        self._coords.append(point_coordinates(self.space, point))
        self._beliefs.append(belief)
        return belief

    def add_estimate(self, point: Point, ber: float, std: float = 0.5) -> Gaussian:
        """Record an analytic estimate (e.g. a union bound) directly."""
        if not 0.0 < ber <= 0.5:
            ber = min(max(ber, 1e-300), 0.5)
        belief = Gaussian(mean=math.log10(ber), std=std)
        self._coords.append(point_coordinates(self.space, point))
        self._beliefs.append(belief)
        return belief

    # ------------------------------------------------------------------

    def prior(self, point: Point) -> Optional[Gaussian]:
        """Neighbor-based prior at a point (None with no data)."""
        if not self._beliefs:
            return None
        query = point_coordinates(self.space, point)
        coords = np.vstack(self._coords)
        distances = np.linalg.norm(coords - query[np.newaxis, :], axis=1)
        nearest = float(distances.min())
        weights = (distances + 1e-9) ** (-self.power)
        weights /= weights.sum()
        means = np.array([b.mean for b in self._beliefs])
        mean = float(np.dot(weights, means))
        spread = float(np.sqrt(np.dot(weights, (means - mean) ** 2)))
        std = math.sqrt(
            PRIOR_BASE_STD**2
            + spread**2
            + (PRIOR_DISTANCE_STD * nearest) ** 2
        )
        return Gaussian(mean=mean, std=std)

    def predict(
        self,
        point: Point,
        errors: Optional[int] = None,
        bits: Optional[int] = None,
    ) -> Gaussian:
        """Posterior belief at a point, optionally folding in counts.

        With no measurement this is just the neighbor prior; with one,
        the precision-weighted posterior.
        """
        prior = self.prior(point)
        if errors is None or bits is None:
            if prior is None:
                raise ConfigurationError("no data to predict from")
            return prior
        observation = observation_from_counts(errors, bits)
        return observation if prior is None else prior.combined_with(observation)
