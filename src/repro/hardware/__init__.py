"""Hardware cost-evaluation substrate (Trimaran / TR4101 / HYPER stand-ins).

Provides the area and throughput halves of the paper's cost-evaluation
engine: a VLIW machine model with a resource-constrained scheduler fed
by analytic operation traces (for the Viterbi MetaCore), and a
HYPER-style behavioral-synthesis estimator (for the IIR MetaCore).
The per-operation energy model of the VLIW machine
(:func:`repro.power.estimate_energy`) lives with the power-aware cost
engine in :mod:`repro.power`, which adds technology/DVFS scaling and
storage leakage on top.
"""

from repro.hardware.opcounts import OperationCounts
from repro.hardware.clock import clock_mhz, width_speed_factor
from repro.hardware.area import (
    AreaBreakdown,
    data_path_factor,
    estimate_area,
    feature_scale,
)
from repro.hardware.vliw import (
    ImplementationEstimate,
    LeveledProgram,
    MachineConfig,
    ProgramLevel,
    ScheduleResult,
    evaluate_machine,
    optimize_machine,
    schedule,
    throughput_bps,
)
from repro.hardware.trace import ViterbiInstanceParams, viterbi_program
from repro.hardware.listsched import (
    DataflowGraph,
    DFGNode,
    ListSchedule,
    dfg_from_sections,
    list_schedule,
    minimum_resources,
)
from repro.hardware.synthesis import (
    DataflowStats,
    SynthesisEstimate,
    add_delay_ns,
    estimate_iir_implementation,
    mult_delay_ns,
)

__all__ = [
    "OperationCounts",
    "clock_mhz",
    "width_speed_factor",
    "AreaBreakdown",
    "data_path_factor",
    "estimate_area",
    "feature_scale",
    "ImplementationEstimate",
    "LeveledProgram",
    "MachineConfig",
    "ProgramLevel",
    "ScheduleResult",
    "evaluate_machine",
    "optimize_machine",
    "schedule",
    "throughput_bps",
    "ViterbiInstanceParams",
    "viterbi_program",
    "DataflowGraph",
    "DFGNode",
    "ListSchedule",
    "dfg_from_sections",
    "list_schedule",
    "minimum_resources",
    "DataflowStats",
    "SynthesisEstimate",
    "add_delay_ns",
    "estimate_iir_implementation",
    "mult_delay_ns",
]
