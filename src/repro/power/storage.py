"""Storage/leakage power for survivor memory and register files.

Dynamic energy is priced per executed operation by
:func:`repro.power.model.estimate_energy`; what that misses is the standby power of
the bits a design keeps alive whether or not it is switching — the
Viterbi survivor memory and register file, the IIR state registers.
In the style of cacti-p's per-cell leakage model, we charge a constant
per-bit leakage at the 0.35 um anchor and scale it by the technology
node's leakage factor (subthreshold current grows steeply as
thresholds drop) and linearly by the supply voltage.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.power.technology import TechnologyNode

#: Standby leakage per stored bit at the 0.35 um anchor node's nominal
#: supply, in nanowatts.  Deep-submicron nodes multiply this by their
#: ``leakage_factor``.
LEAKAGE_NW_PER_BIT = 0.02


def leakage_power_mw(
    bits: float, node: TechnologyNode, vdd_v: float
) -> float:
    """Standby power (mW) of ``bits`` stored bits at an operating point.

    Linear in the bit count and the supply; the node's leakage factor
    carries the exponential threshold-voltage dependence.
    """
    if bits < 0:
        raise ConfigurationError("stored bit count must be non-negative")
    per_bit_nw = (
        LEAKAGE_NW_PER_BIT
        * node.leakage_factor
        * (vdd_v / node.vdd_nominal_v)
    )
    return bits * per_bit_nw * 1e-6
