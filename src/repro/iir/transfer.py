"""Transfer functions, frequency responses, and spec measurements.

The paper measures each IIR candidate's "gain, 3-dB bandwidth, pass
band ripple, and stop band attenuation" by simulation (Sec. 4.5); this
module provides those measurements on top of a small transfer-function
algebra (zpk and polynomial forms, evaluation on the unit circle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import FilterDesignError


@dataclass(frozen=True)
class ZPK:
    """Zeros/poles/gain form of a rational transfer function."""

    zeros: Tuple[complex, ...]
    poles: Tuple[complex, ...]
    gain: float

    def to_tf(self) -> "TransferFunction":
        b = np.atleast_1d(np.poly(np.asarray(self.zeros))) * self.gain
        a = np.atleast_1d(np.poly(np.asarray(self.poles)))
        return TransferFunction(np.real_if_close(b, tol=1e6).real, a.real)


class TransferFunction:
    """A digital filter ``H(z) = B(z^-1) / A(z^-1)``.

    Coefficients are stored highest-order-first numpy arrays with
    ``a[0]`` normalized to 1.
    """

    def __init__(self, b: Sequence[float], a: Sequence[float]) -> None:
        b = np.atleast_1d(np.asarray(b, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a.size == 0 or a[0] == 0.0:
            raise FilterDesignError("leading denominator coefficient is zero")
        self.b = b / a[0]
        self.a = a / a[0]

    @property
    def order(self) -> int:
        return max(self.b.size, self.a.size) - 1

    def poles(self) -> np.ndarray:
        if self.a.size <= 1:
            return np.array([], dtype=complex)
        return np.roots(self.a)

    def zeros(self) -> np.ndarray:
        if self.b.size <= 1:
            return np.array([], dtype=complex)
        return np.roots(self.b)

    def to_zpk(self) -> ZPK:
        gain = float(self.b[0]) if self.b.size else 0.0
        return ZPK(
            zeros=tuple(self.zeros()),
            poles=tuple(self.poles()),
            gain=gain,
        )

    def is_stable(self, margin: float = 0.0) -> bool:
        """All poles strictly inside the unit circle (minus ``margin``)."""
        poles = self.poles()
        if poles.size == 0:
            return True
        return bool(np.all(np.abs(poles) < 1.0 - margin))

    # ------------------------------------------------------------------

    def response(self, omega: np.ndarray) -> np.ndarray:
        """Complex frequency response at radian frequencies ``omega``."""
        omega = np.asarray(omega, dtype=float)
        z_inv = np.exp(-1j * omega)
        num = np.polyval(self.b[::-1], z_inv)
        den = np.polyval(self.a[::-1], z_inv)
        return num / den

    def magnitude(self, omega: np.ndarray) -> np.ndarray:
        return np.abs(self.response(omega))

    def magnitude_db(self, omega: np.ndarray) -> np.ndarray:
        mag = self.magnitude(omega)
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def impulse_response(self, length: int) -> np.ndarray:
        """First ``length`` samples of the impulse response."""
        if length < 1:
            raise FilterDesignError("length must be positive")
        x = np.zeros(length)
        x[0] = 1.0
        return self.filter(x)

    def filter(self, x: np.ndarray, state_hook=None) -> np.ndarray:
        """Direct-form II transposed filtering of a signal.

        ``state_hook(state, i) -> state`` — when given — sees (and may
        corrupt, for fault-injection studies) the delay-line state words
        after every sample update.
        """
        x = np.asarray(x, dtype=float)
        n_state = max(self.b.size, self.a.size) - 1
        b = np.zeros(n_state + 1)
        a = np.zeros(n_state + 1)
        b[: self.b.size] = self.b
        a[: self.a.size] = self.a
        state = np.zeros(n_state)
        y = np.empty_like(x)
        for i, sample in enumerate(x):
            out = b[0] * sample + (state[0] if n_state else 0.0)
            for j in range(n_state - 1):
                state[j] = b[j + 1] * sample + state[j + 1] - a[j + 1] * out
            if n_state:
                state[n_state - 1] = b[n_state] * sample - a[n_state] * out
            if state_hook is not None and n_state:
                state = state_hook(state, i)
            y[i] = out
        return y

    def __mul__(self, other: "TransferFunction") -> "TransferFunction":
        return TransferFunction(
            np.convolve(self.b, other.b), np.convolve(self.a, other.a)
        )


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandMeasurement:
    """Measured characteristics of a (band-pass or low-pass) filter."""

    passband_ripple: float
    stopband_level: float
    peak_gain: float
    three_db_low: Optional[float]
    three_db_high: Optional[float]

    @property
    def stopband_attenuation_db(self) -> float:
        return -20.0 * math.log10(max(self.stopband_level, 1e-300))


def measure_bands(
    tf: TransferFunction,
    passbands: Sequence[Tuple[float, float]],
    stopbands: Sequence[Tuple[float, float]],
    grid_points: int = 512,
) -> BandMeasurement:
    """Measure ripple/attenuation/3-dB edges over frequency bands.

    ``passbands``/``stopbands`` are (low, high) radian-frequency pairs.
    Passband ripple is the largest deviation of the magnitude from 1;
    stopband level is the largest magnitude inside any stopband.
    ``grid_points`` controls measurement resolution — the search's
    fidelity knob ("longer run times" = denser grids).
    """
    ripple, level = band_levels(tf, passbands, stopbands, grid_points)
    peak = 0.0
    for low, high in passbands:
        mag = tf.magnitude(np.linspace(low, high, grid_points))
        peak = max(peak, float(np.max(mag)))
    low3, high3 = _three_db_edges(tf, passbands, grid_points)
    return BandMeasurement(
        passband_ripple=ripple,
        stopband_level=level,
        peak_gain=peak,
        three_db_low=low3,
        three_db_high=high3,
    )


def band_levels(
    tf: TransferFunction,
    passbands: Sequence[Tuple[float, float]],
    stopbands: Sequence[Tuple[float, float]],
    grid_points: int = 512,
) -> Tuple[float, float]:
    """(passband ripple, stopband level), as :func:`measure_bands` has them.

    The part of the measurement a quantization check reads, which
    :func:`measure_bands` computes through this function: no peak gain
    and no 3-dB edges (a 4x-denser grid of ``log10`` work).
    """
    if grid_points < 16:
        raise FilterDesignError("need at least 16 grid points")
    ripple = 0.0
    for low, high in passbands:
        mag = tf.magnitude(np.linspace(low, high, grid_points))
        ripple = max(ripple, float(np.max(np.abs(mag - 1.0))))
    level = 0.0
    for low, high in stopbands:
        omega = np.linspace(low, high, grid_points)
        level = max(level, float(np.max(tf.magnitude(omega))))
    return ripple, level


def _three_db_edges(
    tf: TransferFunction,
    passbands: Sequence[Tuple[float, float]],
    grid_points: int,
) -> Tuple[Optional[float], Optional[float]]:
    """The outermost frequencies where the response crosses -3 dB."""
    if not passbands:
        return None, None
    low = min(band[0] for band in passbands)
    high = max(band[1] for band in passbands)
    center = (low + high) / 2.0
    span = max(high - low, 1e-3)
    omega = np.linspace(
        max(low - 2 * span, 1e-6), min(high + 2 * span, math.pi - 1e-6),
        grid_points * 4,
    )
    mag_db = tf.magnitude_db(omega)
    above = mag_db >= -3.0
    if not np.any(above):
        return None, None
    center_idx = int(np.argmin(np.abs(omega - center)))
    if not above[center_idx]:
        center_idx = int(np.argmax(mag_db))
    lo_idx = center_idx
    while lo_idx > 0 and above[lo_idx - 1]:
        lo_idx -= 1
    hi_idx = center_idx
    while hi_idx < len(omega) - 1 and above[hi_idx + 1]:
        hi_idx += 1
    return float(omega[lo_idx]), float(omega[hi_idx])
