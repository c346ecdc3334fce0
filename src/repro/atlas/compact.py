"""Atlas compaction: rewrite the append-only JSONL without its history.

An atlas file only ever grows — repeated searches of the same scenario
append every improved record, cluster replicas append their own copies
of shared work, and superseded low-fidelity prices stay on disk
forever.  Compaction (``metacores atlas-compact``) rewrites the file
to the canonical deduped stream: one scenario descriptor per
fingerprint plus its max-fidelity surviving records, optionally
trimmed further to just each scenario's Pareto frontier
(``--frontier-only``, which drops exact-scenario replay history but
keeps everything ``recommend`` and warm-starting use).

The rewrite is atomic and holds the same exclusive advisory lock
writers use, so a live cluster loses nothing: a replica appending
concurrently blocks until the swap is done, then finds the new inode
and re-merges before writing (see :mod:`repro.core.jsonlog`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Union

from repro.atlas.store import DesignAtlas
from repro.errors import ConfigurationError


def compact_atlas(
    path: Union[str, Path], frontier_only: bool = False
) -> Dict[str, Any]:
    """Rewrite an atlas file in place; returns a size/count report."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no atlas file at {path}")
    bytes_before = path.stat().st_size
    atlas = DesignAtlas(path)
    records_before = atlas.compact(frontier_only)

    # Reload the rewritten file so the report counts what is actually
    # on disk (frontier_only drops records the old in-memory view still
    # holds).
    stats_after = DesignAtlas(path).stats()
    bytes_after = path.stat().st_size
    return {
        "path": str(path),
        "frontier_only": bool(frontier_only),
        "scenarios": stats_after["scenarios"],
        "records_before": records_before,
        "records_after": stats_after["records"],
        "frontier": stats_after["frontier"],
        "corrupt_dropped": atlas.n_skipped,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "bytes_reclaimed": bytes_before - bytes_after,
    }


def format_compact_report(report: Dict[str, Any]) -> str:
    """Human-readable compaction summary (``atlas-compact`` output)."""
    lines = [
        f"compacted design atlas: {report['path']}",
        f"  scenarios: {report['scenarios']}"
        f"  records: {report['records_before']} -> {report['records_after']}"
        f"  frontier designs: {report['frontier']}",
        f"  bytes: {report['bytes_before']} -> {report['bytes_after']}"
        f"  (reclaimed {report['bytes_reclaimed']})",
    ]
    if report["frontier_only"]:
        lines.append("  retention: frontier designs only (replay history dropped)")
    if report["corrupt_dropped"]:
        lines.append(f"  corrupt lines dropped: {report['corrupt_dropped']}")
    return "\n".join(lines)
