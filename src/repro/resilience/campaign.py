"""Dependability campaigns: fault-rate × design-point sweeps.

A campaign measures how gracefully a set of Viterbi design points
degrades under injected hardware faults, DAVOS-style: every cell of the
(design point × storage class × fault rate × Es/N0) grid runs a BER
measurement with a deterministic :class:`~repro.resilience.faults.\
FaultInjector` attached to the decoder, paired against the fault-free
reference of the same cell (same noise realizations, since the noise
streams are derived from the decoder description, not the injector).

Each cell is priced through the standard evaluator machinery —
:class:`~repro.core.parallel.ParallelEvaluator` fans cells out over
worker processes and :class:`~repro.core.evalcache.PersistentEvalCache`
warm-starts re-runs — so a campaign scales exactly like a search.

Per faulty cell the campaign reports the classic failure-mode
classification:

- **masked** — the injected faults did not measurably degrade BER
  (within counting noise of the reference);
- **degraded** — BER got worse but the code still delivers coding gain;
- **decode_failure** — coded BER at or above the uncoded channel BER:
  the decoder output is no better than not decoding at all.

The *critical-bit fraction* of a storage class is the fraction of its
faulty cells that were not masked — which storage needs hardening
(TMR, parity) first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.evalcache import PersistentEvalCache
from repro.core.evaluation import CachingEvaluator, EvaluationLog
from repro.core.parallel import ParallelEvaluator, worker_pool
from repro.core.parameters import Point, frozen_point
from repro.errors import ConfigurationError
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer
from repro.resilience.faults import (
    BRANCH_METRICS,
    FAULT_MODELS,
    NO_TARGET,
    PATH_METRICS,
    STORAGE_CLASSES,
    TRACEBACK,
    FaultInjector,
    FaultSpec,
)
from repro.viterbi.ber import BERSimulator, DEFAULT_SEED
from repro.viterbi.channels import AWGNChannel
from repro.viterbi.encoder import ConvolutionalEncoder
from repro.viterbi.metacore import (
    build_decoder,
    describe_point,
    normalize_viterbi_point,
    polynomials_for_point,
)

#: Cell keys that carry the fault configuration (the rest of a cell
#: point is the Viterbi design point).
CELL_KEYS = ("fault_rate", "fault_target", "es_n0_db")

#: Relative BER margin below which an injected cell counts as masked.
MASKED_MARGIN = 0.10

#: Campaign file schema version.
CAMPAIGN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CampaignConfig:
    """The fault grid and measurement budget of one campaign."""

    model: str = "seu"
    #: Fault intensities to sweep (the 0.0 reference is added implicitly).
    rates: Tuple[float, ...] = (1e-4, 1e-3)
    #: Storage classes injected (one class per cell, so criticality is
    #: attributable per class).
    targets: Tuple[str, ...] = (PATH_METRICS, BRANCH_METRICS, TRACEBACK)
    #: Channel qualities of the BER degradation curves.
    es_n0_db: Tuple[float, ...] = (0.0, 2.0)
    #: Data bits decoded per cell measurement.
    max_bits: int = 24_000
    word_bits: int = 16
    frac_bits: int = 8
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.model not in FAULT_MODELS:
            raise ConfigurationError(
                f"unknown fault model {self.model!r}; expected {FAULT_MODELS}"
            )
        for target in self.targets:
            if target not in STORAGE_CLASSES:
                raise ConfigurationError(
                    f"unknown storage class {target!r}; "
                    f"expected one of {STORAGE_CLASSES}"
                )
        if any(rate <= 0 or rate > 1 for rate in self.rates):
            raise ConfigurationError("campaign rates must lie in (0, 1]")
        if self.max_bits < 512:
            raise ConfigurationError("campaign needs at least 512 bits per cell")

    def describe(self) -> str:
        """Stable string for evaluator fingerprints."""
        return (
            f"model={self.model}"
            f":rates={','.join(f'{r:.6g}' for r in self.rates)}"
            f":targets={','.join(self.targets)}"
            f":snr={','.join(f'{s:.6g}' for s in self.es_n0_db)}"
            f":bits={self.max_bits}"
            f":word={self.word_bits}.{self.frac_bits}"
            f":seed={self.seed}"
        )


class CampaignEvaluator:
    """Price one campaign cell: a faulty (or reference) BER measurement.

    Implements the standard evaluator protocol so the parallel and
    persistent-cache layers apply unchanged.  A cell point is a Viterbi
    design point plus ``fault_rate``/``fault_target``/``es_n0_db``
    coordinates; fidelity is ignored (the campaign budget is fixed).

    Deterministic by construction: the noise stream derives from
    (seed, decoder description, Es/N0, batch) and the fault stream from
    (seed, fault spec, instance, block content), so a cell's metrics do
    not depend on which worker prices it or in what order.
    """

    max_fidelity = 0

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self._decoders: Dict[Tuple, Any] = {}
        self._simulators: Dict[Tuple, BERSimulator] = {}

    def fingerprint(self) -> str:
        import repro

        return f"campaign:v{repro.__version__}:{self.config.describe()}"

    @staticmethod
    def split_cell(cell: Point) -> Tuple[Point, float, str, float]:
        """Separate a cell point into (design point, rate, target, snr)."""
        design = {k: v for k, v in cell.items() if k not in CELL_KEYS}
        return (
            design,
            float(cell["fault_rate"]),
            str(cell["fault_target"]),
            float(cell["es_n0_db"]),
        )

    def _decoder(self, design: Point):
        key = frozen_point(design)
        decoder = self._decoders.get(key)
        if decoder is None:
            decoder = self._decoders[key] = build_decoder(design)
        return decoder

    def _simulator(self, design: Point) -> BERSimulator:
        k = int(design["K"])
        polys = polynomials_for_point(design)
        key = (k, polys)
        simulator = self._simulators.get(key)
        if simulator is None:
            simulator = self._simulators[key] = BERSimulator(
                ConvolutionalEncoder(k, polys), seed=self.config.seed
            )
        return simulator

    def evaluate(self, cell: Point, fidelity: int) -> Dict[str, float]:
        design, rate, target, es_n0_db = self.split_cell(cell)
        design = normalize_viterbi_point(design)
        decoder = self._decoder(design)
        injector: Optional[FaultInjector] = None
        if rate > 0.0 and target != NO_TARGET:
            spec = FaultSpec(
                model=self.config.model,
                rate=rate,
                targets=(target,),
                word_bits=self.config.word_bits,
                frac_bits=self.config.frac_bits,
                seed=self.config.seed,
            )
            injector = FaultInjector(spec, instance=describe_point(design))
            decoder.fault_hook = injector
        try:
            # Full budget, no early stop: faulty and reference cells see
            # identical noise realizations, so their BERs pair exactly.
            measured = self._simulator(design).measure(
                decoder,
                es_n0_db,
                max_bits=self.config.max_bits,
                target_errors=None,
            )
        finally:
            decoder.fault_hook = None
        metrics: Dict[str, float] = {
            "ber": measured.errors / measured.bits,
            "errors": float(measured.errors),
            "bits": float(measured.bits),
            "n_injected": 0.0,
        }
        if injector is not None:
            metrics["n_injected"] = float(sum(injector.n_injected.values()))
        return metrics


@dataclass(frozen=True)
class CampaignCell:
    """One priced campaign cell, with its dependability classification."""

    design: Tuple[Tuple[str, Any], ...]
    label: str
    fault_rate: float
    fault_target: str
    es_n0_db: float
    ber: float
    errors: int
    bits: int
    n_injected: int
    ref_ber: float
    uncoded_ber: float
    #: "reference" | "masked" | "degraded" | "decode_failure"
    classification: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": [[k, v] for k, v in self.design],
            "label": self.label,
            "fault_rate": self.fault_rate,
            "fault_target": self.fault_target,
            "es_n0_db": self.es_n0_db,
            "ber": self.ber,
            "errors": self.errors,
            "bits": self.bits,
            "n_injected": self.n_injected,
            "ref_ber": self.ref_ber,
            "uncoded_ber": self.uncoded_ber,
            "classification": self.classification,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignCell":
        return cls(
            design=tuple((str(k), v) for k, v in data["design"]),
            label=str(data["label"]),
            fault_rate=float(data["fault_rate"]),
            fault_target=str(data["fault_target"]),
            es_n0_db=float(data["es_n0_db"]),
            ber=float(data["ber"]),
            errors=int(data["errors"]),
            bits=int(data["bits"]),
            n_injected=int(data["n_injected"]),
            ref_ber=float(data["ref_ber"]),
            uncoded_ber=float(data["uncoded_ber"]),
            classification=str(data["classification"]),
        )


@dataclass
class CampaignResult:
    """All cells of a campaign plus sweep-level accounting."""

    config: CampaignConfig
    cells: List[CampaignCell] = field(default_factory=list)
    persistent_hits: int = 0
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0

    @property
    def faulty_cells(self) -> List[CampaignCell]:
        return [c for c in self.cells if c.classification != "reference"]

    def classification_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cell in self.faulty_cells:
            counts[cell.classification] = counts.get(cell.classification, 0) + 1
        return counts

    def critical_fraction(self) -> Dict[str, float]:
        """Non-masked fraction of injected cells, per storage class."""
        totals: Dict[str, int] = {}
        critical: Dict[str, int] = {}
        for cell in self.faulty_cells:
            totals[cell.fault_target] = totals.get(cell.fault_target, 0) + 1
            if cell.classification != "masked":
                critical[cell.fault_target] = (
                    critical.get(cell.fault_target, 0) + 1
                )
        return {
            target: critical.get(target, 0) / total
            for target, total in sorted(totals.items())
        }

    def degradation_curves(
        self,
    ) -> Dict[Tuple[str, str], Dict[float, Dict[float, float]]]:
        """(design label, target) -> {rate -> {Es/N0 -> BER}} curves.

        Rate 0.0 rows are the fault-free references.
        """
        curves: Dict[Tuple[str, str], Dict[float, Dict[float, float]]] = {}
        for cell in self.cells:
            if cell.classification == "reference":
                # The reference row belongs to every target of the design.
                targets = sorted(
                    {c.fault_target for c in self.faulty_cells if c.label == cell.label}
                ) or [NO_TARGET]
            else:
                targets = [cell.fault_target]
            for target in targets:
                curve = curves.setdefault((cell.label, target), {})
                curve.setdefault(cell.fault_rate, {})[cell.es_n0_db] = cell.ber
        return curves

    def total_injected(self) -> int:
        return sum(cell.n_injected for cell in self.cells)

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "config": {
                "model": self.config.model,
                "rates": list(self.config.rates),
                "targets": list(self.config.targets),
                "es_n0_db": list(self.config.es_n0_db),
                "max_bits": self.config.max_bits,
                "word_bits": self.config.word_bits,
                "frac_bits": self.config.frac_bits,
                "seed": self.config.seed,
            },
            "cells": [cell.to_dict() for cell in self.cells],
            "persistent_hits": self.persistent_hits,
            "wall_time_s": round(self.wall_time_s, 6),
            "cpu_time_s": round(self.cpu_time_s, 6),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignResult":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("schema") != CAMPAIGN_SCHEMA_VERSION:
            raise ConfigurationError(
                f"campaign file {path} has unsupported schema "
                f"{data.get('schema')!r}"
            )
        raw = data["config"]
        config = CampaignConfig(
            model=str(raw["model"]),
            rates=tuple(float(r) for r in raw["rates"]),
            targets=tuple(str(t) for t in raw["targets"]),
            es_n0_db=tuple(float(s) for s in raw["es_n0_db"]),
            max_bits=int(raw["max_bits"]),
            word_bits=int(raw["word_bits"]),
            frac_bits=int(raw["frac_bits"]),
            seed=int(raw["seed"]),
        )
        return cls(
            config=config,
            cells=[CampaignCell.from_dict(c) for c in data["cells"]],
            persistent_hits=int(data.get("persistent_hits", 0)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            cpu_time_s=float(data.get("cpu_time_s", 0.0)),
        )


@dataclass
class Campaign:
    """A fault-injection campaign over a set of Viterbi design points."""

    points: List[Point]
    config: CampaignConfig = field(default_factory=CampaignConfig)
    #: Worker processes for cell evaluation (1 = serial in-process).
    workers: int = 1
    #: Persistent cross-run cache path (None = cold).
    cache_path: Optional[str] = None

    def cells(self) -> List[Point]:
        """The full cell grid, one reference cell per (design, Es/N0)."""
        if not self.points:
            raise ConfigurationError("campaign needs at least one design point")
        cells: List[Point] = []
        for raw in self.points:
            design = normalize_viterbi_point(dict(raw))
            for es_n0_db in self.config.es_n0_db:
                cells.append(
                    {
                        **design,
                        "fault_rate": 0.0,
                        "fault_target": NO_TARGET,
                        "es_n0_db": float(es_n0_db),
                    }
                )
                for target in self.config.targets:
                    for rate in self.config.rates:
                        cells.append(
                            {
                                **design,
                                "fault_rate": float(rate),
                                "fault_target": target,
                                "es_n0_db": float(es_n0_db),
                            }
                        )
        return cells

    def run(self) -> CampaignResult:
        """Price every cell (parallel, cached) and classify the results."""
        evaluator: Any = CampaignEvaluator(self.config)
        parallel: Optional[ParallelEvaluator] = None
        store: Optional[PersistentEvalCache] = None
        log = EvaluationLog()
        registry = get_registry()
        try:
            parallel = worker_pool(evaluator, self.workers)
            if parallel is not None:
                evaluator = parallel
            if self.cache_path:
                store = PersistentEvalCache(self.cache_path)
            caching = CachingEvaluator(evaluator, log, store=store)
            cells = self.cells()
            with get_tracer().span(
                "campaign.run", cells=len(cells), model=self.config.model
            ) as campaign_span:
                priced = caching.evaluate_many(cells, 0)
                result = self._classify(cells, priced)
                result.persistent_hits = caching.persistent_hits
                result.wall_time_s = log.wall_time_s
                result.cpu_time_s = log.cpu_time_s
                counts = result.classification_counts()
                campaign_span.set(
                    injected=result.total_injected(),
                    persistent_hits=result.persistent_hits,
                    **counts,
                )
            registry.counter("campaign.cells").inc(len(cells))
            registry.counter("campaign.injected").inc(result.total_injected())
            for name, count in counts.items():
                registry.counter(f"campaign.{name}").inc(count)
            return result
        finally:
            if parallel is not None:
                parallel.close()
            if store is not None:
                store.close()

    # ------------------------------------------------------------------

    def _classify(
        self, cells: List[Point], priced: List[Dict[str, float]]
    ) -> CampaignResult:
        """Pair every faulty cell with its reference and classify it."""
        refs: Dict[Tuple, Dict[str, float]] = {}
        for cell, metrics in zip(cells, priced):
            design, rate, _target, es_n0_db = CampaignEvaluator.split_cell(cell)
            if rate == 0.0:
                refs[(frozen_point(design), es_n0_db)] = metrics
        result = CampaignResult(config=self.config)
        for cell, metrics in zip(cells, priced):
            design, rate, target, es_n0_db = CampaignEvaluator.split_cell(cell)
            key = frozen_point(design)
            uncoded = AWGNChannel(es_n0_db).uncoded_ber()
            ber = float(metrics["ber"])
            bits = int(metrics["bits"])
            if rate == 0.0:
                ref_ber = ber
                classification = "reference"
            else:
                ref = refs.get((key, es_n0_db))
                ref_ber = float(ref["ber"]) if ref else math.nan
                classification = self._classify_cell(ber, ref_ber, uncoded, bits)
            result.cells.append(
                CampaignCell(
                    design=key,
                    label=describe_point(design),
                    fault_rate=rate,
                    fault_target=target,
                    es_n0_db=es_n0_db,
                    ber=ber,
                    errors=int(metrics["errors"]),
                    bits=bits,
                    n_injected=int(metrics.get("n_injected", 0.0)),
                    ref_ber=ref_ber,
                    uncoded_ber=uncoded,
                    classification=classification,
                )
            )
        return result

    @staticmethod
    def _classify_cell(
        ber: float, ref_ber: float, uncoded_ber: float, bits: int
    ) -> str:
        """DAVOS-style masked / degraded / decode-failure verdict."""
        # Counting slack: two extra bit errors are within Monte-Carlo
        # noise at these budgets, never evidence of degradation.
        slack = 2.0 / max(bits, 1)
        if math.isnan(ref_ber) or ber <= ref_ber * (1.0 + MASKED_MARGIN) + slack:
            return "masked"
        if ber >= uncoded_ber:
            return "decode_failure"
        return "degraded"
