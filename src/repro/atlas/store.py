"""The persistent design atlas: a cross-run Pareto library.

Where :class:`~repro.core.evalcache.PersistentEvalCache` remembers
*point prices*, the atlas remembers *answers*: for every scenario
(evaluator fingerprint) it keeps all priced design points plus the
Pareto frontier of the exact-fidelity ones, and alongside each
fingerprint a descriptor — driver kind, normalized spec features, goal
signature, frontier axes — so future scenarios can find their nearest
stored neighbors without ever reconstructing the original spec.

The on-disk format is append-only JSONL: one ``scenario`` descriptor
line per fingerprint and one ``record`` line per priced point, eagerly
flushed.

**Shared across processes.**  A cluster's replicas point at one atlas
file, so every query first merges the lines other writers appended
since this process last looked, and every ingest appends whole lines
under an exclusive lock.  How the file is locked, read from a byte
offset, re-read after a rewrite (``atlas-compact``), and how corrupt
lines and torn tails are handled is :mod:`repro.core.jsonlog`, the
same contract as the persistent evaluation cache.  Merging is
idempotent (max-fidelity-wins dedup, first scenario descriptor wins),
so two nodes ingesting the same search converge to one state.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.atlas.frontier import ParetoFrontier, frontier_objectives
from repro.atlas.similarity import goal_signature, scenario_distance
from repro.core.evaluation import FAILED_METRIC, EvaluationRecord
from repro.core.jsonlog import JsonLog
from repro.core.objectives import DesignGoal, Direction, Objective

PointKey = Tuple[Tuple[str, Any], ...]

#: Bump to orphan every existing atlas file (schema migrations).
ATLAS_SCHEMA_VERSION = 1


class _Scenario:
    """In-memory state of one stored scenario."""

    def __init__(
        self,
        kind: str,
        features: Optional[Dict[str, float]],
        signature: str,
        axes: List[Objective],
    ) -> None:
        self.kind = kind
        self.features = features
        self.signature = signature
        self.axes = axes
        #: point key -> (fidelity, metrics, exact)
        self.records: Dict[PointKey, Tuple[int, Dict[str, float], bool]] = {}
        self.frontier = ParetoFrontier(axes)

    def offer(self, key: PointKey, fidelity: int, metrics: Dict[str, float], exact: bool) -> bool:
        """Max-fidelity-wins dedup; returns True when state improved."""
        existing = self.records.get(key)
        if existing is not None and existing[0] >= fidelity:
            return False
        self.records[key] = (fidelity, metrics, exact)
        if exact:
            self.frontier.add(
                EvaluationRecord(point=key, fidelity=fidelity, metrics=metrics)
            )
        return True


class DesignAtlas:
    """Append-only JSONL library of scenarios, records, and frontiers.

    Thread-safe.  Holds no open file between calls: every read and
    append opens the file under its lock, so there is nothing to close
    and a crash loses no appended record.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._scenarios: Dict[str, _Scenario] = {}
        #: Raw record lines read from the current file, including
        #: entries a later higher-fidelity append superseded — the
        #: on-disk count compaction reports against the deduped view.
        self.n_record_lines = 0
        self._log = JsonLog(
            self.path,
            "design atlas",
            ATLAS_SCHEMA_VERSION,
            self._load_entry,
            on_rewrite=self._reset_line_count,
        )
        self.refresh()

    @property
    def n_skipped(self) -> int:
        """Corrupt lines skipped; schema-version mismatches are not counted."""
        return self._log.n_skipped

    # -- loading ---------------------------------------------------------

    def refresh(self) -> int:
        """Pull in other writers' appends; returns lines merged."""
        with self._lock:
            return self._log.refresh()

    def _reset_line_count(self) -> None:
        self.n_record_lines = 0

    def _load_entry(self, entry: Mapping[str, Any]) -> None:
        kind = entry.get("type")
        if kind == "scenario":
            self._load_scenario(entry)
        elif kind == "record":
            self._load_record(entry)
            self.n_record_lines += 1
        else:
            raise ValueError(f"unknown line type {kind!r}")

    def _load_scenario(self, entry: Mapping[str, Any]) -> None:
        fingerprint = str(entry["fp"])
        if fingerprint in self._scenarios:
            # A concurrent writer registered the same fingerprint; the
            # fingerprint covers everything behavior-relevant, so keep
            # the existing scenario (and its already-merged records).
            return
        raw_features = entry["features"]
        features = (
            {str(k): float(v) for k, v in raw_features.items()}
            if raw_features is not None
            else None
        )
        axes = [
            Objective(str(metric), Direction(str(direction)))
            for metric, direction in entry["axes"]
        ]
        if not axes:
            raise ValueError("scenario without frontier axes")
        self._scenarios[fingerprint] = _Scenario(
            kind=str(entry["kind"]),
            features=features,
            signature=str(entry["goal"]),
            axes=axes,
        )

    def _load_record(self, entry: Mapping[str, Any]) -> None:
        fingerprint = str(entry["fp"])
        scenario = self._scenarios.get(fingerprint)
        if scenario is None:
            raise ValueError("record before its scenario descriptor")
        key = tuple((str(k), v) for k, v in entry["point"])
        fidelity = int(entry["fid"])
        metrics = {str(k): float(v) for k, v in entry["metrics"].items()}
        scenario.offer(key, fidelity, metrics, bool(entry["exact"]))

    # -- writing ---------------------------------------------------------

    @staticmethod
    def _scenario_entry(fingerprint: str, scenario: _Scenario) -> Dict[str, Any]:
        return {
            "schema": ATLAS_SCHEMA_VERSION,
            "type": "scenario",
            "fp": fingerprint,
            "kind": scenario.kind,
            "features": scenario.features,
            "goal": scenario.signature,
            "axes": [
                [objective.metric, objective.direction.value]
                for objective in scenario.axes
            ],
        }

    @staticmethod
    def _record_entry(
        fingerprint: str,
        key: PointKey,
        fidelity: int,
        metrics: Dict[str, float],
        exact: bool,
    ) -> Dict[str, Any]:
        return {
            "schema": ATLAS_SCHEMA_VERSION,
            "type": "record",
            "fp": fingerprint,
            "point": [[k, v] for k, v in key],
            "fid": fidelity,
            "metrics": metrics,
            "exact": exact,
        }

    def register_scenario(
        self,
        fingerprint: str,
        kind: str,
        features: Optional[Mapping[str, float]],
        goal: DesignGoal,
    ) -> None:
        """Record (once) what a fingerprint *means*.

        Idempotent: a fingerprint seen before keeps its stored
        descriptor — the fingerprint covers everything that could
        change behavior, so a matching fingerprint implies a matching
        scenario.
        """
        with self._lock:
            if fingerprint in self._scenarios:
                return
            axes = frontier_objectives(goal)
            scenario = _Scenario(
                kind=str(kind),
                features=dict(features) if features is not None else None,
                signature=goal_signature(goal),
                axes=axes,
            )
            self._scenarios[fingerprint] = scenario
            self._log.append([self._scenario_entry(fingerprint, scenario)])

    def ingest(
        self,
        fingerprint: str,
        kind: str,
        features: Optional[Mapping[str, float]],
        goal: DesignGoal,
        records: Iterable[EvaluationRecord],
        max_fidelity: int,
    ) -> Dict[str, int]:
        """Fold one search's evaluation log into the library.

        Every record is kept for exact-scenario replay; only records at
        ``max_fidelity`` (exact) feed the Pareto frontier.  Records
        standing in for a failed evaluation (:data:`FAILED_METRIC`) are
        skipped.  Returns ``{"ingested": new-or-improved records,
        "frontier": size}``.
        """
        self.register_scenario(fingerprint, kind, features, goal)
        ingested = 0
        with self._lock:
            scenario = self._scenarios[fingerprint]
            entries: List[Dict[str, Any]] = []
            for record in records:
                if FAILED_METRIC in record.metrics:
                    continue
                key = tuple((str(k), v) for k, v in record.point)
                metrics = {
                    str(k): float(v) for k, v in record.metrics.items()
                }
                exact = record.fidelity >= max_fidelity
                if not scenario.offer(key, record.fidelity, metrics, exact):
                    continue
                ingested += 1
                entries.append(
                    self._record_entry(
                        fingerprint, key, record.fidelity, metrics, exact
                    )
                )
            self._log.append(entries)
            frontier_size = len(scenario.frontier)
        return {"ingested": ingested, "frontier": frontier_size}

    # -- queries ---------------------------------------------------------

    def replay(self, fingerprint: str) -> List[EvaluationRecord]:
        """Every stored record of one scenario (all fidelities)."""
        with self._lock:
            self._log.refresh()
            scenario = self._scenarios.get(fingerprint)
            if scenario is None:
                return []
            return [
                EvaluationRecord(point=key, fidelity=fidelity, metrics=dict(metrics))
                for key, (fidelity, metrics, _exact) in scenario.records.items()
            ]

    def frontier(self, fingerprint: str) -> Tuple[EvaluationRecord, ...]:
        """The exact-fidelity Pareto frontier of one scenario."""
        with self._lock:
            self._log.refresh()
            scenario = self._scenarios.get(fingerprint)
            if scenario is None:
                return ()
            return scenario.frontier.records

    def scenario_info(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            self._log.refresh()
            scenario = self._scenarios.get(fingerprint)
            if scenario is None:
                return None
            return {
                "kind": scenario.kind,
                "features": dict(scenario.features)
                if scenario.features is not None
                else None,
                "goal": scenario.signature,
                "records": len(scenario.records),
                "frontier": len(scenario.frontier),
            }

    def neighbors(
        self,
        kind: str,
        features: Mapping[str, float],
        signature: str,
        threshold: float,
    ) -> List[Tuple[str, float]]:
        """Stored scenarios near a query, sorted by (distance, fp).

        Only scenarios of the same driver kind and goal signature are
        comparable; the deterministic fingerprint tie-break keeps seed
        order — and therefore warm-started searches — reproducible.
        """
        out: List[Tuple[str, float]] = []
        with self._lock:
            self._log.refresh()
            for fingerprint, scenario in self._scenarios.items():
                if scenario.kind != kind or scenario.signature != signature:
                    continue
                if scenario.features is None:
                    continue
                distance = scenario_distance(dict(features), scenario.features)
                if distance <= threshold:
                    out.append((fingerprint, distance))
        out.sort(key=lambda item: (item[1], item[0]))
        return out

    def fingerprints(self) -> List[str]:
        with self._lock:
            self._log.refresh()
            return sorted(self._scenarios)

    def stats(self) -> Dict[str, Any]:
        """Plain-dict accounting (for status endpoints/reports)."""
        with self._lock:
            self._log.refresh()
            records = sum(len(s.records) for s in self._scenarios.values())
            return {
                "path": str(self.path),
                "scenarios": len(self._scenarios),
                "records": records,
                "frontier": sum(
                    len(s.frontier) for s in self._scenarios.values()
                ),
                "loaded": records,
                "skipped": self.n_skipped,
            }

    # -- compaction / lifecycle ------------------------------------------

    def _canonical_entries(self, frontier_only: bool) -> List[Dict[str, Any]]:
        """One scenario line per fingerprint followed by its records.

        Max-fidelity survivors only, in a deterministic order; with
        ``frontier_only``, just the exact-fidelity Pareto frontier of
        each scenario (replay history is dropped).
        """
        entries: List[Dict[str, Any]] = []
        for fingerprint in sorted(self._scenarios):
            scenario = self._scenarios[fingerprint]
            entries.append(self._scenario_entry(fingerprint, scenario))
            if frontier_only:
                rows = [
                    (
                        tuple((str(k), v) for k, v in record.point),
                        (record.fidelity, dict(record.metrics), True),
                    )
                    for record in scenario.frontier.records
                ]
            else:
                rows = list(scenario.records.items())
            rows.sort(key=lambda item: json.dumps(list(item[0])))
            for key, (fidelity, metrics, exact) in rows:
                entries.append(
                    self._record_entry(fingerprint, key, fidelity, metrics, exact)
                )
        return entries

    def compact(self, frontier_only: bool = False) -> int:
        """Rewrite the file to its canonical deduped stream (``atlas-compact``).

        Returns the record lines the file held before the rewrite.  This
        atlas keeps its in-memory view; reopen the file to see exactly
        what the rewrite kept.
        """
        with self._lock:
            self._log.rewrite(lambda: self._canonical_entries(frontier_only))
            # The rewrite merged the old file's tail under its lock; the
            # count resets when this atlas next reads the new file.
            return self.n_record_lines

    def close(self) -> None:
        """Nothing to release; kept so ``with DesignAtlas(...)`` reads well."""

    def __enter__(self) -> "DesignAtlas":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def format_atlas_report(atlas: DesignAtlas) -> str:
    """Human-readable library summary (``repro atlas-report``)."""
    stats = atlas.stats()
    lines = [
        f"design atlas: {stats['path']}",
        f"  scenarios: {stats['scenarios']}  records: {stats['records']}"
        f"  frontier designs: {stats['frontier']}",
    ]
    if stats["skipped"]:
        lines.append(f"  corrupt lines skipped: {stats['skipped']}")
    for fingerprint in atlas.fingerprints():
        info = atlas.scenario_info(fingerprint)
        label = fingerprint if len(fingerprint) <= 60 else fingerprint[:57] + "..."
        lines.append(
            f"  [{info['kind']}] {label}\n"
            f"    goal: {info['goal']}\n"
            f"    records: {info['records']}  frontier: {info['frontier']}"
        )
        for record in atlas.frontier(fingerprint):
            lines.append(f"      {record}")
    return "\n".join(lines)
