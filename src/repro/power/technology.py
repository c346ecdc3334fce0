"""Technology-node scaling tables (feature size -> electrical knobs).

The area and energy models scale everything off the TR4101's 0.35 um
generation with closed-form exponents; what they cannot express is that
each fabrication generation also fixes *electrical* operating
conditions — the nominal supply, the threshold voltage, and how leaky
a stored bit is.  This module pins those per-node values the way lumos
pins its ``vdd_scl``/``vth_base`` tables: a small anchored table over
the generations our cost models span (HYPER's 1.2 um library down to
0.13 um), log-interpolated for feature sizes between the anchors.

The 0.35 um row is the anchor of the whole power subsystem: its
nominal supply (3.3 V) is the reference voltage of the per-operation
energies in :mod:`repro.power.model`, and its leakage factor is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.hardware.clock import TR4101_FEATURE_UM

#: Nominal supply of the anchor generation — the voltage the
#: per-operation energy constants in ``power/model.py`` are quoted
#: at (LSI Logic's 0.35 um process ran at 3.3 V).
VDD_REFERENCE_V = 3.3


@dataclass(frozen=True)
class TechnologyNode:
    """Electrical operating conditions of one fabrication generation.

    ``leakage_factor`` is the per-bit standby leakage relative to the
    0.35 um anchor: essentially flat in the 5 V generations, growing
    steeply below 0.25 um as thresholds drop (the classic subthreshold
    trend the cacti-p style storage models capture).
    """

    feature_um: float
    vdd_nominal_v: float
    vth_v: float
    leakage_factor: float

    def __post_init__(self) -> None:
        if self.feature_um <= 0:
            raise ConfigurationError("feature size must be positive")
        if not 0 < self.vth_v < self.vdd_nominal_v:
            raise ConfigurationError(
                "threshold voltage must lie below the nominal supply"
            )
        if self.leakage_factor <= 0:
            raise ConfigurationError("leakage factor must be positive")

    @property
    def capacitance_factor(self) -> float:
        """Switched capacitance per operation relative to 0.35 um.

        Gate/wire capacitance shrinks linearly with feature size
        (constant-field scaling), which is the same assumption the
        cube-law in ``power/model.py`` decomposes into C * V^2.
        """
        return self.feature_um / TR4101_FEATURE_UM


#: The anchored generations, largest feature first.  Voltages are the
#: textbook nominal supplies of each era; thresholds follow the
#: roughly-constant vth/vdd ratio until the deep-submicron rows.
TECHNOLOGY_NODES: Tuple[TechnologyNode, ...] = (
    TechnologyNode(1.2, 5.0, 0.90, 0.20),
    TechnologyNode(0.8, 5.0, 0.80, 0.40),
    TechnologyNode(0.6, 3.3, 0.70, 0.60),
    TechnologyNode(TR4101_FEATURE_UM, VDD_REFERENCE_V, 0.60, 1.00),
    TechnologyNode(0.25, 2.5, 0.55, 2.50),
    TechnologyNode(0.18, 1.8, 0.45, 6.00),
    TechnologyNode(0.13, 1.3, 0.35, 20.00),
)

_MIN_FEATURE = TECHNOLOGY_NODES[-1].feature_um
_MAX_FEATURE = TECHNOLOGY_NODES[0].feature_um


def _log_interpolate(
    feature: float, lo: TechnologyNode, hi: TechnologyNode, attr: str
) -> float:
    """Log-log interpolation between two anchor rows (exact at both)."""
    a, b = getattr(hi, attr), getattr(lo, attr)
    if a == b:
        return a
    t = (math.log(feature) - math.log(hi.feature_um)) / (
        math.log(lo.feature_um) - math.log(hi.feature_um)
    )
    return math.exp((1.0 - t) * math.log(a) + t * math.log(b))


def technology_node(feature_um: float) -> TechnologyNode:
    """The electrical conditions at ``feature_um``.

    Anchor features return their table row verbatim; features between
    anchors are log-log interpolated (monotone between rows, exact at
    them).  Features outside the covered 0.13-1.2 um span are an
    error — the models are not calibrated there.
    """
    if feature_um <= 0:
        raise ConfigurationError("feature size must be positive")
    if not _MIN_FEATURE <= feature_um <= _MAX_FEATURE:
        raise ConfigurationError(
            f"feature size {feature_um} um outside the calibrated "
            f"{_MIN_FEATURE}-{_MAX_FEATURE} um technology span"
        )
    # The table is sorted largest-feature first: the last row above the
    # query and the first row below it bracket the interpolation.
    above = TECHNOLOGY_NODES[0]
    for node in TECHNOLOGY_NODES:
        if node.feature_um == feature_um:
            return node
        if node.feature_um > feature_um:
            above = node
        else:
            below = node
            break
    return TechnologyNode(
        feature_um=feature_um,
        vdd_nominal_v=_log_interpolate(
            feature_um, below, above, "vdd_nominal_v"
        ),
        vth_v=_log_interpolate(feature_um, below, above, "vth_v"),
        leakage_factor=_log_interpolate(
            feature_um, below, above, "leakage_factor"
        ),
    )
