"""Power configuration and the implementation-to-energy model.

``PowerConfig`` is the opt-in knob a spec carries: *which* technology
node and supply to price at, and *what* energy/power budget the search
must respect.  ``PowerModel`` does the pricing — it combines the
per-operation dynamic energies of :func:`estimate_energy` (re-quoted
at the 0.35 um / 3.3 V anchor, then scaled by the node's capacitance
factor and the classic V^2 supply dependence) with the storage leakage
of :mod:`repro.power.storage`, and reports energy-per-item and
average-power metrics for both kernel families.

The per-operation energy model of the VLIW machine lives here too.
Trimaran-era studies reported per-operation energies alongside cycle
counts; an algorithm-level optimizer cares because area and energy pull
in different directions (a wide machine finishes sooner but burns more
per cycle).  :func:`estimate_energy` prices a leveled program the same
way the area model prices the machine: per-operation energies by
resource class, scaled with datapath width (linear) and supply/feature
size (the classic ~alpha^3 dynamic-energy scaling when voltage tracks
feature size), plus per-cycle clock-tree and leakage overheads.
Constants are representative of late-1990s embedded cores (anchored,
like the area model, at the TR4101's 0.35 um generation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.hardware.clock import TR4101_FEATURE_UM, TR4101_WIDTH_BITS
from repro.hardware.synthesis import DataflowStats, SynthesisEstimate
from repro.hardware.vliw import LeveledProgram, MachineConfig, schedule
from repro.power.dvfs import OperatingPoint
from repro.power.storage import leakage_power_mw
from repro.power.technology import (
    VDD_REFERENCE_V,
    technology_node,
)

# Per-operation energies at 0.35 um, 32-bit datapath, in picojoules.
ALU_ENERGY_PJ = 35.0
MULT_ENERGY_PJ = 220.0
MEMORY_ENERGY_PJ = 110.0
BRANCH_ENERGY_PJ = 25.0

#: Clock tree + idle-datapath energy per machine cycle, pJ per issue slot.
CYCLE_OVERHEAD_PJ_PER_SLOT = 6.0

#: Voltage is assumed to scale with feature size (constant-field
#: scaling), so dynamic energy scales with the cube of the feature.
ENERGY_FEATURE_EXPONENT = 3.0


def _scale(feature_um: float, width_bits: int) -> float:
    if feature_um <= 0:
        raise ConfigurationError("feature size must be positive")
    if width_bits < 1:
        raise ConfigurationError("datapath width must be positive")
    feature = (feature_um / TR4101_FEATURE_UM) ** ENERGY_FEATURE_EXPONENT
    width = min(width_bits, TR4101_WIDTH_BITS) / TR4101_WIDTH_BITS
    return feature * width


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy breakdown for one iteration of a kernel (e.g. per bit)."""

    operation_pj: float
    overhead_pj: float

    @property
    def total_pj(self) -> float:
        return self.operation_pj + self.overhead_pj

    @property
    def total_nj(self) -> float:
        return self.total_pj / 1000.0

    def power_mw(self, throughput_per_s: float) -> float:
        """Average power at a given iteration rate."""
        if throughput_per_s <= 0:
            raise ConfigurationError("throughput must be positive")
        return self.total_pj * 1e-12 * throughput_per_s * 1e3


def estimate_energy(
    program: LeveledProgram, machine: MachineConfig
) -> EnergyEstimate:
    """Energy of one program iteration on a machine.

    Operation energy counts the work actually executed; overhead
    charges the clock tree and idle slots for every scheduled cycle —
    which is how an over-wide machine loses on energy even when it wins
    on throughput.
    """
    counts = program.op_counts
    scale = _scale(machine.feature_um, machine.datapath_width)
    operation = (
        counts.alu * ALU_ENERGY_PJ
        + counts.mult * MULT_ENERGY_PJ
        + counts.memory * MEMORY_ENERGY_PJ
        + counts.branch * BRANCH_ENERGY_PJ
    ) * scale
    result = schedule(program, machine)
    # Spill traffic is memory work the register file couldn't hold.
    operation += result.spill_ops * MEMORY_ENERGY_PJ * scale
    overhead = (
        result.cycles * machine.issue_width * CYCLE_OVERHEAD_PJ_PER_SLOT * scale
    )
    return EnergyEstimate(operation_pj=operation, overhead_pj=overhead)



@dataclass(frozen=True)
class PowerConfig:
    """Opt-in power pricing for a spec.

    ``tech_node_um`` / ``vdd_v`` default to the spec's own feature size
    and that node's nominal supply; caps are optional constraints and
    ``objective`` controls whether energy also becomes a search
    objective (it always becomes a reported metric).
    """

    tech_node_um: Optional[float] = None
    vdd_v: Optional[float] = None
    max_power_mw: Optional[float] = None
    max_energy_nj: Optional[float] = None
    objective: bool = True

    def __post_init__(self) -> None:
        if self.tech_node_um is not None and self.tech_node_um <= 0:
            raise ConfigurationError("technology node must be positive")
        if self.vdd_v is not None and self.vdd_v <= 0:
            raise ConfigurationError("supply voltage must be positive")
        if self.max_power_mw is not None and self.max_power_mw <= 0:
            raise ConfigurationError("power cap must be positive")
        if self.max_energy_nj is not None and self.max_energy_nj <= 0:
            raise ConfigurationError("energy cap must be positive")

    def operating_point(self, feature_um: float) -> OperatingPoint:
        """Resolve the configured (node, supply) for a spec feature."""
        node = technology_node(
            self.tech_node_um if self.tech_node_um is not None else feature_um
        )
        vdd = self.vdd_v if self.vdd_v is not None else node.vdd_nominal_v
        return OperatingPoint(node=node, vdd_v=vdd)

    def fingerprint_fragment(self) -> str:
        """Cache-key fragment — only the knobs that change metric values.

        Caps and the objective flag shape the *goal*, not the metrics,
        so they are deliberately excluded to avoid splitting caches.
        """
        return f":power=node:{self.tech_node_um!r},vdd:{self.vdd_v!r}"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "tech_node_um": self.tech_node_um,
            "vdd_v": self.vdd_v,
            "max_power_mw": self.max_power_mw,
            "max_energy_nj": self.max_energy_nj,
            "objective": self.objective,
        }

    @classmethod
    def from_payload(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["PowerConfig"]:
        if payload is None:
            return None
        return cls(
            tech_node_um=payload.get("tech_node_um"),
            vdd_v=payload.get("vdd_v"),
            max_power_mw=payload.get("max_power_mw"),
            max_energy_nj=payload.get("max_energy_nj"),
            objective=bool(payload.get("objective", True)),
        )


@dataclass(frozen=True)
class PowerReport:
    """Energy and power of one implementation at one operating point."""

    energy_nj: float
    dynamic_nj: float
    leakage_nj: float
    power_mw: float
    dynamic_power_mw: float
    leakage_power_mw: float
    vdd_v: float
    frequency_mhz: float


@dataclass(frozen=True)
class PowerModel:
    """Prices implementations at a fixed operating point."""

    operating_point: OperatingPoint

    @classmethod
    def for_spec(
        cls, feature_um: float, config: PowerConfig
    ) -> "PowerModel":
        return cls(operating_point=config.operating_point(feature_um))

    @property
    def frequency_scale(self) -> float:
        """DVFS clock ratio vs nominal (exactly 1.0 at nominal Vdd)."""
        return self.operating_point.frequency_scale

    def _report(
        self,
        dynamic_nj: float,
        stored_bits: float,
        items_per_s: float,
        frequency_mhz: float,
    ) -> PowerReport:
        if items_per_s <= 0:
            raise ConfigurationError("item rate must be positive")
        op = self.operating_point
        leak_mw = leakage_power_mw(stored_bits, op.node, op.vdd_v)
        leak_nj = leak_mw * 1e6 / items_per_s
        dyn_mw = dynamic_nj * items_per_s * 1e-6
        return PowerReport(
            energy_nj=dynamic_nj + leak_nj,
            dynamic_nj=dynamic_nj,
            leakage_nj=leak_nj,
            power_mw=dyn_mw + leak_mw,
            dynamic_power_mw=dyn_mw,
            leakage_power_mw=leak_mw,
            vdd_v=op.vdd_v,
            frequency_mhz=frequency_mhz,
        )

    def _supply_scale(self) -> float:
        """Capacitance x V^2 scaling from the 0.35 um / 3.3 V anchor."""
        op = self.operating_point
        return (
            op.node.capacitance_factor
            * (op.vdd_v / VDD_REFERENCE_V) ** 2
        )

    def viterbi_report(
        self,
        program: LeveledProgram,
        machine: MachineConfig,
        bits_per_s: float,
    ) -> PowerReport:
        """Energy per decoded bit and average power of a VLIW decoder.

        Dynamic energy re-quotes :func:`estimate_energy` at the anchor
        feature (stripping its built-in cube-law, which bakes in an
        implied voltage) and applies the node's capacitance factor and
        the explicit V^2 of the configured supply.
        """
        anchor = replace(machine, feature_um=TR4101_FEATURE_UM)
        base = estimate_energy(program, anchor)
        dynamic_nj = base.total_nj * self._supply_scale()
        stored_bits = (
            program.storage_bits
            + machine.regfile_words * machine.datapath_width
        )
        return self._report(
            dynamic_nj=dynamic_nj,
            stored_bits=stored_bits,
            items_per_s=bits_per_s,
            frequency_mhz=self.operating_point.frequency_mhz(
                machine.datapath_width
            ),
        )

    def iir_report(
        self,
        stats: DataflowStats,
        word_length: int,
        estimate: SynthesisEstimate,
    ) -> PowerReport:
        """Energy per output sample and average power of an IIR datapath.

        Multiplies scale quadratically with the word length (array
        multiplier), additions linearly; every scheduled cycle charges
        the clock tree of each functional unit.
        """
        width = word_length / TR4101_WIDTH_BITS
        units = estimate.n_multipliers + estimate.n_adders
        operation_pj = (
            stats.multiplies * MULT_ENERGY_PJ * width**2
            + stats.additions * ALU_ENERGY_PJ * width
        )
        overhead_pj = (
            estimate.cycles_per_sample
            * units
            * CYCLE_OVERHEAD_PJ_PER_SLOT
            * width
        )
        dynamic_nj = (
            (operation_pj + overhead_pj) / 1000.0 * self._supply_scale()
        )
        return self._report(
            dynamic_nj=dynamic_nj,
            stored_bits=estimate.n_registers * word_length,
            items_per_s=estimate.throughput_samples_per_s,
            frequency_mhz=1000.0 / estimate.clock_ns,
        )
