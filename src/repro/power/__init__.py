"""Power-aware cost engine: technology scaling, DVFS, energy pricing.

The subsystem turns the cost engine 3-objective: technology-node
tables pin per-generation electrical conditions
(:mod:`repro.power.technology`), DVFS operating points trade supply
voltage against clock frequency (:mod:`repro.power.dvfs`), a storage
model charges standby leakage (:mod:`repro.power.storage`), and
:class:`PowerModel` prices whole implementations into
energy-per-item / average-power metrics the search layer can
optimize and constrain (:mod:`repro.power.model`, which also holds
the per-operation dynamic-energy model :func:`estimate_energy` of the
VLIW machine).
"""

from repro.power.dvfs import (
    ALPHA,
    DVFS_UPPER_RATIO,
    NEAR_THRESHOLD_MARGIN_V,
    OperatingPoint,
    dvfs_bounds,
    frequency_scale,
    max_frequency_mhz,
)
from repro.power.model import (
    EnergyEstimate,
    PowerConfig,
    PowerModel,
    PowerReport,
    estimate_energy,
)
from repro.power.storage import LEAKAGE_NW_PER_BIT, leakage_power_mw
from repro.power.technology import (
    TECHNOLOGY_NODES,
    VDD_REFERENCE_V,
    TechnologyNode,
    technology_node,
)

__all__ = [
    "ALPHA",
    "DVFS_UPPER_RATIO",
    "EnergyEstimate",
    "LEAKAGE_NW_PER_BIT",
    "NEAR_THRESHOLD_MARGIN_V",
    "OperatingPoint",
    "PowerConfig",
    "PowerModel",
    "PowerReport",
    "TECHNOLOGY_NODES",
    "TechnologyNode",
    "VDD_REFERENCE_V",
    "dvfs_bounds",
    "estimate_energy",
    "frequency_scale",
    "leakage_power_mw",
    "max_frequency_mhz",
    "technology_node",
]
