"""The cost-evaluation engine up close.

Walks one Viterbi instance through the full hardware pipeline: the
analytic operation trace, machine optimization at a throughput target,
the area breakdown, the energy estimate — and, for the IIR side, a true
node-level list schedule compared against the calibrated count-based
estimator.

Run:  python examples/hardware_models.py
"""

from __future__ import annotations

from repro.hardware import (
    MachineConfig,
    ViterbiInstanceParams,
    dfg_from_sections,
    evaluate_machine,
    list_schedule,
    minimum_resources,
    optimize_machine,
    viterbi_program,
)
from repro.hardware.synthesis import estimate_iir_implementation
from repro.iir.design import design_filter, paper_bandpass_spec
from repro.iir.structures import realize
from repro.power import estimate_energy


def viterbi_side() -> None:
    print("=== Viterbi: trace -> machine -> area/energy ===")
    params = ViterbiInstanceParams(
        constraint_length=5, traceback_depth=25, low_resolution_bits=1,
        n_symbols=2, high_resolution_bits=3, multires_paths=8,
        normalization_count=1,
    )
    program = viterbi_program(params)
    counts = program.op_counts
    print(f"instance: K=5 multires M=8  ->  {counts}")
    print(f"datapath width {program.datapath_width} bits, "
          f"storage {program.storage_bits} bits, "
          f"live registers ~{program.live_words}")

    for target in (1e6, 4e6):
        estimate = optimize_machine(program, target)
        machine = estimate.machine
        energy = estimate_energy(program, machine)
        print(f"\n  target {target / 1e6:g} Mbps -> "
              f"{machine.n_alus} ALUs, {machine.n_mem_ports} ports, "
              f"regfile {machine.regfile_words}")
        print(f"    {estimate.schedule.cycles:.0f} cycles/bit at "
              f"{machine.clock_mhz:.0f} MHz = "
              f"{estimate.throughput_bps / 1e6:.2f} Mbps")
        print(f"    area {estimate.area}")
        print(f"    energy {energy.total_nj:.2f} nJ/bit "
              f"({energy.power_mw(estimate.throughput_bps):.1f} mW at speed)")

    # Feature-size scaling dominates energy: the same machine at a
    # finer geometry (voltage tracking feature size) is far cheaper
    # per bit, while width barely matters — the classic argument for
    # migrating a core rather than widening it.
    base = MachineConfig(n_alus=3, datapath_width=program.datapath_width)
    shrunk = MachineConfig(n_alus=3, feature_um=0.18,
                           datapath_width=program.datapath_width)
    e_base = estimate_energy(program, base)
    e_shrunk = estimate_energy(program, shrunk)
    print(f"\n  0.25 um: {e_base.total_nj:.2f} nJ/bit   "
          f"0.18 um: {e_shrunk.total_nj:.2f} nJ/bit "
          "(constant-field scaling)")


def iir_side() -> None:
    print("\n=== IIR: count-based estimate vs node-level schedule ===")
    tf = design_filter(paper_bandpass_spec(), "elliptic").to_tf()
    cascade = realize("cascade", tf)
    estimate = estimate_iir_implementation(
        cascade.dataflow(), word_length=12, sample_period_us=2.0
    )
    print(f"count-based: {estimate.n_multipliers} mult, "
          f"{estimate.n_adders} add units, "
          f"{estimate.cycles_per_sample} cycles/sample, "
          f"{estimate.area_mm2:.2f} mm^2, latency {estimate.latency_us:.3f} us")

    graph = dfg_from_sections(cascade.sections)
    deadline = max(estimate.cycles_per_sample, graph.critical_path())
    resources = minimum_resources(graph, deadline)
    schedule = list_schedule(graph, resources)
    print(f"node-level:  {len(graph.nodes)} DFG nodes, critical path "
          f"{graph.critical_path()} cycles")
    print(f"             minimum units for the deadline: {resources}, "
          f"schedule length {schedule.cycles} cycles")
    print(f"             multiplier utilization "
          f"{schedule.utilization(graph, 'mult'):.0%}")


if __name__ == "__main__":
    viterbi_side()
    iir_side()
