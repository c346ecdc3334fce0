"""Dynamic-range scaling of cascade realizations.

Fixed-point datapaths overflow when internal nodes swing beyond the
register range.  The classic remedy scales each section of a cascade so
the signal level at every internal node is normalized — under the L2
norm (energy; overflow rare for wide-band signals) or the L-infinity
norm of the frequency response (hard guarantee for sinusoids).  The
overall transfer function is unchanged: each scale factor applied to a
section is undone in the next.

This completes the implementation picture behind the structure
trade-offs of Sec. 3.4: a structure's word length pays for coefficient
sensitivity (fixedpoint.py), round-off noise (noise.py), *and* the
headroom scaling demands (this module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import FilterDesignError
from repro.iir.noise import l2_norm_squared
from repro.iir.structures.cascade import Cascade
from repro.iir.transfer import TransferFunction

SCALING_NORMS = ("l2", "linf")


def linf_norm(tf: TransferFunction, grid_points: int = 1024) -> float:
    """Peak magnitude of the frequency response."""
    omega = np.linspace(0.0, math.pi, grid_points)
    return float(np.max(tf.magnitude(omega)))


def _node_norm(tf: TransferFunction, norm: str) -> float:
    if norm == "l2":
        return math.sqrt(l2_norm_squared(tf))
    if norm == "linf":
        return linf_norm(tf)
    raise FilterDesignError(f"unknown scaling norm {norm!r}")


@dataclass(frozen=True)
class ScalingReport:
    """Node signal levels of a cascade before and after scaling."""

    norm: str
    node_norms_before: Tuple[float, ...]
    node_norms_after: Tuple[float, ...]

    @property
    def worst_before(self) -> float:
        return max(self.node_norms_before, default=0.0)

    @property
    def worst_after(self) -> float:
        return max(self.node_norms_after, default=0.0)


def _cumulative_sections(cascade: Cascade) -> List[TransferFunction]:
    """Transfer functions from the input to each internal node."""
    nodes = []
    running = TransferFunction([1.0], [1.0])
    for b, a in cascade.sections:
        running = running * TransferFunction(b, a)
        nodes.append(running)
    return nodes


def scale_cascade(
    cascade: Cascade, norm: str = "l2"
) -> Tuple[Cascade, ScalingReport]:
    """Scale a cascade's sections to normalize internal node levels.

    Returns the scaled cascade (same overall transfer function) and a
    report of node norms before/after.  The nodes are the outputs of
    sections 1..k-1; the filter output itself keeps its designed level.
    """
    if norm not in SCALING_NORMS:
        raise FilterDesignError(f"norm must be one of {SCALING_NORMS}")
    sections = [(b.copy(), a.copy()) for b, a in cascade.sections]
    if len(sections) <= 1:
        return Cascade(sections), ScalingReport(norm, (), ())
    before = [
        _node_norm(node, norm)
        for node in _cumulative_sections(cascade)[:-1]
    ]
    scaled: List[Tuple[np.ndarray, np.ndarray]] = []
    previous_factor = 1.0
    for index, (b, a) in enumerate(sections):
        if index < len(sections) - 1:
            target = before[index]
            if target <= 0:
                raise FilterDesignError("degenerate section with zero norm")
            factor = 1.0 / target
        else:
            factor = 1.0  # the output keeps its level
        scaled.append((b * factor / previous_factor, a))
        previous_factor = factor
    result = Cascade(scaled)
    after = [
        _node_norm(node, norm)
        for node in _cumulative_sections(result)[:-1]
    ]
    return result, ScalingReport(
        norm=norm,
        node_norms_before=tuple(before),
        node_norms_after=tuple(after),
    )
