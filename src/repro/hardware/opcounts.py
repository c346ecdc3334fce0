"""Operation-count records.

The Trimaran flow in the paper "collects several statistics for each
solution instance including the total number of operations executed
(load, store, ALU, branch, etc.)" (Sec. 4.2).  This module defines the
record those statistics live in, grouped by the resource class that
executes them on the VLIW machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class OperationCounts:
    """Operations executed per unit of work (e.g. per decoded bit).

    ``alu`` covers adds/subtracts/compares/logic, ``mult`` full
    multiplications (a separate, larger functional unit), ``load`` and
    ``store`` memory accesses, and ``branch`` control transfers.
    """

    alu: float = 0.0
    mult: float = 0.0
    load: float = 0.0
    store: float = 0.0
    branch: float = 0.0

    def __add__(self, other: "OperationCounts") -> "OperationCounts":
        return OperationCounts(
            self.alu + other.alu,
            self.mult + other.mult,
            self.load + other.load,
            self.store + other.store,
            self.branch + other.branch,
        )

    def scaled(self, factor: float) -> "OperationCounts":
        """All counts multiplied by ``factor`` (e.g. amortization)."""
        return OperationCounts(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )

    @property
    def memory(self) -> float:
        """Combined memory operations (loads + stores)."""
        return self.load + self.store

    @property
    def total(self) -> float:
        """All operations of any class (summed in field order)."""
        return self.alu + self.mult + self.load + self.store + self.branch

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name):.1f}" for f in fields(self)
        )
        return f"OperationCounts({parts})"
