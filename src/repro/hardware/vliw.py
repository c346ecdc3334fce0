"""VLIW machine model and scheduler — the Trimaran stand-in.

The paper compiles each candidate decoder with Trimaran onto a
parameterized VLIW/EPIC machine (register file size, number of ALUs,
memory ports, ...) and reads off the cycles needed per decoded bit.
Here the same role is played by a *leveled program*: the candidate's
inner loop expressed as a dependence chain of operation groups, which a
resource-constrained scheduler packs onto a machine description.  The
resulting cycle count, together with the clock model, yields throughput;
together with the area model, yields mm^2.

``optimize_machine`` performs the "fixed throughput" evaluation of
Sec. 4.2: among the machine configurations meeting the throughput
target, return the smallest-area one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SynthesisError
from repro.hardware.area import AreaBreakdown, estimate_area
from repro.hardware.clock import clock_mhz
from repro.hardware.opcounts import OperationCounts

#: Enumeration limits for machine optimization: beyond this the model
#: (a single-cluster VLIW) stops being credible, which is what makes
#: aggressive specs infeasible (paper Table 3, last row).
MAX_ALUS = 32
MAX_MULTS = 8
MAX_MEM_PORTS = 6
REGFILE_CHOICES = (32, 64, 128, 256)

#: Per-iteration loop overhead (induction update + compare), cycles.
LOOP_OVERHEAD_CYCLES = 2


@dataclass(frozen=True)
class MachineConfig:
    """One point in Trimaran's hardware parameter space."""

    n_alus: int
    n_mem_ports: int = 1
    n_mults: int = 0
    regfile_words: int = 32
    feature_um: float = 0.25
    datapath_width: int = 32

    def __post_init__(self) -> None:
        if self.n_alus < 1 or self.n_mem_ports < 1 or self.n_mults < 0:
            raise ConfigurationError("machine needs >=1 ALU and memory port")
        if self.regfile_words < 8:
            raise ConfigurationError("register file unrealistically small")

    @property
    def issue_width(self) -> int:
        """Total issue slots (functional units + one branch slot)."""
        return self.n_alus + self.n_mults + self.n_mem_ports + 1

    @property
    def clock_mhz(self) -> float:
        return clock_mhz(self.feature_um, self.datapath_width)


@dataclass(frozen=True)
class ProgramLevel:
    """One dependence level: all its ops may run in parallel, but only
    after every op of the previous level has completed."""

    label: str
    counts: OperationCounts


@dataclass
class LeveledProgram:
    """A kernel's inner loop as a chain of operation levels.

    ``storage_bits`` is the on-chip state the kernel needs (path memory,
    coefficient tables, ...), ``live_words`` its register pressure, and
    ``datapath_width`` the widest value it computes with.
    """

    name: str
    levels: List[ProgramLevel] = field(default_factory=list)
    storage_bits: int = 0
    live_words: int = 8
    datapath_width: int = 32

    def add_level(self, label: str, **counts: float) -> None:
        self.levels.append(ProgramLevel(label, OperationCounts(**counts)))

    @property
    def op_counts(self) -> OperationCounts:
        total = OperationCounts()
        for level in self.levels:
            total = total + level.counts
        return total


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a program onto a machine."""

    cycles: float
    spill_ops: float
    level_cycles: Tuple[float, ...]


def _level_cycles(counts: OperationCounts, machine: MachineConfig) -> float:
    """Cycles to drain one level on the machine (resource bound)."""
    if counts.mult > 0 and machine.n_mults == 0:
        return math.inf
    bounds = [
        counts.alu / machine.n_alus,
        counts.memory / machine.n_mem_ports,
        counts.branch / 1.0,
        counts.total / machine.issue_width,
    ]
    if machine.n_mults:
        bounds.append(counts.mult / machine.n_mults)
    return max(1.0, math.ceil(max(bounds)))


def schedule(program: LeveledProgram, machine: MachineConfig) -> ScheduleResult:
    """Resource-constrained schedule of one loop iteration.

    Levels are packed in dependence order; register pressure beyond the
    machine's register file adds spill traffic (Trimaran's "dynamic
    register allocation overhead" statistic) as an extra memory-bound
    level.
    """
    level_cycles = [_level_cycles(level.counts, machine) for level in program.levels]
    spill_ops = 0.0
    if program.live_words > machine.regfile_words:
        spill_ops = 2.0 * (program.live_words - machine.regfile_words)
        level_cycles.append(
            _level_cycles(OperationCounts(load=spill_ops / 2, store=spill_ops / 2), machine)
        )
    cycles = sum(level_cycles) + LOOP_OVERHEAD_CYCLES
    return ScheduleResult(
        cycles=cycles, spill_ops=spill_ops, level_cycles=tuple(level_cycles)
    )


def throughput_bps(
    program: LeveledProgram, machine: MachineConfig, work_per_iteration: float = 1.0
) -> float:
    """Work items (e.g. decoded bits) per second on ``machine``."""
    return _throughput(machine, schedule(program, machine), work_per_iteration)


def _throughput(
    machine: MachineConfig, result: ScheduleResult, work_per_iteration: float = 1.0
) -> float:
    if not math.isfinite(result.cycles):
        return 0.0
    return machine.clock_mhz * 1.0e6 * work_per_iteration / result.cycles


@dataclass(frozen=True)
class ImplementationEstimate:
    """A machine choice with its schedule, area, and throughput."""

    machine: MachineConfig
    schedule: ScheduleResult
    area: AreaBreakdown
    throughput_bps: float

    @property
    def area_mm2(self) -> float:
        return self.area.total


def _machine_area(program: LeveledProgram, machine: MachineConfig) -> AreaBreakdown:
    return estimate_area(
        n_alus=machine.n_alus,
        n_mem_ports=machine.n_mem_ports,
        datapath_width=machine.datapath_width,
        storage_bits=program.storage_bits,
        feature_um=machine.feature_um,
        n_mults=machine.n_mults,
        regfile_words=machine.regfile_words,
    )


def evaluate_machine(
    program: LeveledProgram, machine: MachineConfig
) -> ImplementationEstimate:
    """Schedule + area + throughput for one explicit machine choice."""
    sched = schedule(program, machine)
    area = _machine_area(program, machine)
    return ImplementationEstimate(machine, sched, area, _throughput(machine, sched))


def _column_cycles(
    program: LeveledProgram, columns: List[Tuple[int, int, int]]
) -> np.ndarray:
    """``schedule(program, machine).cycles`` of every machine at once.

    ``columns`` lists (memory ports, multipliers, register file)
    choices; the result is ``(columns, MAX_ALUS)``, one entry per ALU
    count 1..``MAX_ALUS``.  The vector form of :func:`schedule`: every
    machine is priced against the program's levels as one
    ``(levels, columns, ALUs)`` array, with the float operations of
    ``_level_cycles``.  The level cycles are integer-valued floats, so
    their sum is exact in any order and equals the scalar one.
    """
    ports, mults, regfile = (
        np.array(values, dtype=float)[:, np.newaxis] for values in zip(*columns)
    )
    alus = np.arange(1, MAX_ALUS + 1, dtype=float)
    issue_width = alus + mults + ports + 1.0

    def level_cycles(alu, mult, memory, branch, total):
        bound = np.maximum(
            np.maximum(alu / alus, memory / ports),
            np.maximum(branch / 1.0, total / issue_width),
        )
        mult_bound = np.divide(
            mult, mults, out=np.zeros(np.broadcast(mult, mults).shape),
            where=mults > 0,
        )
        cycles = np.maximum(1.0, np.ceil(np.maximum(bound, mult_bound)))
        return np.where((mult > 0) & (mults == 0), np.inf, cycles)

    counts = np.array(
        [
            (c.alu, c.mult, c.memory, c.branch, c.total)
            for c in (level.counts for level in program.levels)
        ],
        dtype=float,
    ).reshape(-1, 5, 1, 1)
    cycles = level_cycles(*counts.transpose(1, 0, 2, 3)).sum(axis=0)
    spilled = program.live_words > regfile
    if spilled.any():
        spill_ops = 2.0 * (program.live_words - regfile)
        spill = OperationCounts(load=spill_ops / 2, store=spill_ops / 2)
        cycles = cycles + np.where(
            spilled,
            level_cycles(
                spill.alu, spill.mult, spill.memory, spill.branch, spill.total
            ),
            0.0,
        )
    return cycles + LOOP_OVERHEAD_CYCLES


def optimize_machine(
    program: LeveledProgram,
    target_throughput_bps: float,
    feature_um: float = 0.25,
    needs_mults: Optional[bool] = None,
) -> ImplementationEstimate:
    """Smallest-area machine meeting a throughput target.

    Searches ALU count, memory ports, multiplier count and register
    file size (the Trimaran architecture parameters of Sec. 4.2) and
    returns the feasible configuration with minimum area, ties going to
    the fewest ALUs, then memory ports, multipliers and register words.
    Raises :class:`SynthesisError` when even the largest machine cannot
    reach the target — the mechanism behind "Not Feasible" verdicts.

    The search is exact without evaluating every machine: within one
    (memory ports, multipliers, register file) column, cycles never rise
    and area strictly rises as ALUs are added, so the column's smallest
    machine is its smallest feasible ALU count.  All columns are priced
    at every ALU count at once (:func:`_column_cycles`, with
    :func:`_throughput`'s arithmetic), and only each column's minimum
    goes through :func:`evaluate_machine`.
    """
    if target_throughput_bps <= 0:
        raise ConfigurationError("throughput target must be positive")
    if needs_mults is None:
        needs_mults = program.op_counts.mult > 0
    mult_range = range(1, MAX_MULTS + 1) if needs_mults else (0,)
    columns = list(
        itertools.product(
            range(1, MAX_MEM_PORTS + 1), mult_range, REGFILE_CHOICES
        )
    )
    clock = clock_mhz(feature_um, program.datapath_width)
    feasible = (
        clock * 1.0e6 * 1.0 / _column_cycles(program, columns)
        >= target_throughput_bps
    )
    column_minima = [
        evaluate_machine(
            program,
            MachineConfig(
                n_alus=int(np.argmax(row)) + 1,
                n_mem_ports=n_ports,
                n_mults=n_mults,
                regfile_words=regfile,
                feature_um=feature_um,
                datapath_width=program.datapath_width,
            ),
        )
        for (n_ports, n_mults, regfile), row in zip(columns, feasible)
        if row.any()
    ]
    if not column_minima:
        raise SynthesisError(
            f"{program.name}: no machine with <= {MAX_ALUS} ALUs reaches "
            f"{target_throughput_bps:.3g} items/s at {feature_um} um"
        )
    return min(column_minima, key=_rank)


def _rank(estimate: ImplementationEstimate) -> Tuple[float, int, int, int, int]:
    """Area, then the nesting order of a full enumeration, so equal
    areas go to the machine that enumeration would have met first."""
    machine = estimate.machine
    return (
        estimate.area_mm2,
        machine.n_alus,
        machine.n_mem_ports,
        machine.n_mults,
        machine.regfile_words,
    )
