"""Fault injection, dependability campaigns, and crash-tolerant sessions."""

from __future__ import annotations

import hashlib
import json
import warnings
from typing import Dict

import numpy as np
import pytest

from repro.core.evalcache import PersistentEvalCache
from repro.core.objectives import DesignGoal, Objective
from repro.core.parameters import Correlation, DesignSpace, DiscreteParameter, Point
from repro.core.search import MetacoreSearch, SearchConfig
from repro.iir.structures.base import realize
from repro.iir.transfer import TransferFunction
from repro.observability import (
    format_trace_report,
    install_tracing,
    shutdown_tracing,
    summarize_trace,
)
from repro.resilience import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    DEFAULT_FAILURE_METRICS,
    FaultInjector,
    FaultSpec,
    CheckpointingEvaluator,
    ResilientEvaluator,
    RoundBudgetExceeded,
    format_campaign_report,
    simulate_with_faults,
)
from repro.resilience.session import CHECKPOINT_SCHEMA_VERSION
from repro.viterbi import BERSimulator, ConvolutionalEncoder, build_decoder


# ---------------------------------------------------------------------------
# shared fixtures


class DeterministicEvaluator:
    """Picklable evaluator with metrics a pure function of the point."""

    def __init__(self, version: int = 1) -> None:
        self.max_fidelity = 2
        self.version = version

    def fingerprint(self) -> str:
        return f"deterministic:v{self.version}"

    def evaluate(self, point: Point, fidelity: int) -> Dict[str, float]:
        digest = hashlib.md5(
            repr(sorted(point.items())).encode("utf-8")
        ).digest()
        return {
            "area_mm2": 1.0 + int.from_bytes(digest[:4], "big") / 2**32,
            "fidelity_seen": float(fidelity),
        }


def small_space() -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter("a", (1, 2, 3, 4, 5), Correlation.MONOTONIC),
            DiscreteParameter("b", (10, 20, 30, 40), Correlation.MONOTONIC),
        ]
    )


GOAL = DesignGoal(objectives=[Objective("area_mm2")])
CONFIG = SearchConfig(max_resolution=2, refine_top_k=2)


def run_plain_search(evaluator):
    return MetacoreSearch(
        small_space(), GOAL, evaluator, config=CONFIG
    ).run()


def search_signature(result):
    return (
        result.best_point,
        result.best_metrics,
        result.feasible,
        result.regions_explored,
        [(r.point, r.fidelity, dict(r.metrics)) for r in result.log.records],
    )


DESIGN = {"K": 3, "L_mult": 3, "G": "standard", "R1": 1, "R2": 3,
          "Q": "hard", "N": 1, "M": 0}


def measure(decoder, injector=None, bits=4096, es_n0_db=2.0):
    simulator = BERSimulator(ConvolutionalEncoder(3), seed=7)
    decoder.fault_hook = injector
    try:
        return simulator.measure(
            decoder, es_n0_db, max_bits=bits, target_errors=None
        )
    finally:
        decoder.fault_hook = None


# ---------------------------------------------------------------------------
# fault models


class TestFaultInjector:
    def test_rate_zero_is_bit_identical_to_uninstrumented(self):
        decoder = build_decoder(DESIGN)
        bare = measure(decoder)
        inert = FaultInjector(
            FaultSpec(model="seu", rate=0.0, targets=("traceback",)),
            instance="test",
        )
        instrumented = measure(decoder, inert)
        assert not inert.active
        assert instrumented.errors == bare.errors
        assert instrumented.bits == bare.bits
        assert sum(inert.n_injected.values()) == 0

    @pytest.mark.parametrize("model", ["seu", "stuck"])
    @pytest.mark.parametrize(
        "target", ["path_metrics", "branch_metrics", "traceback"]
    )
    def test_injection_is_deterministic_across_instances(self, model, target):
        spec = FaultSpec(model=model, rate=0.01, targets=(target,), seed=3)
        decoder = build_decoder(DESIGN)
        runs = [
            measure(decoder, FaultInjector(spec, instance="cell"))
            for _ in range(2)
        ]
        assert runs[0].errors == runs[1].errors

    def test_seu_on_traceback_degrades_ber(self):
        decoder = build_decoder(DESIGN)
        clean = measure(decoder)
        spec = FaultSpec(model="seu", rate=0.05, targets=("traceback",))
        injector = FaultInjector(spec, instance="cell")
        faulty = measure(decoder, injector)
        assert sum(injector.n_injected.values()) > 0
        assert faulty.errors > clean.errors

    def test_distinct_instances_draw_distinct_fault_streams(self):
        spec = FaultSpec(model="seu", rate=0.5, targets=("iir_state",))
        state = np.linspace(-0.9, 0.9, 64)
        a = FaultInjector(spec, instance="a").iir_state_hook(state.copy(), 0)
        b = FaultInjector(spec, instance="b").iir_state_hook(state.copy(), 0)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("structure", ["direct2", "ladder", "statespace"])
    def test_iir_state_faults_are_deterministic(self, structure):
        tf = TransferFunction([0.2, 0.1], [1.0, -0.5, 0.06])
        realization = realize(structure, tf)
        x = np.sin(np.linspace(0.0, 20.0, 256))
        clean = realization.simulate(x)
        spec = FaultSpec(model="seu", rate=0.02, targets=("iir_state",))
        outs = [
            simulate_with_faults(
                realization, x, FaultInjector(spec, instance=structure)
            )
            for _ in range(2)
        ]
        assert realization.fault_hook is None  # restored afterwards
        assert np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[0], clean)

    def test_invalid_specs_are_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FaultSpec(rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(model="gamma-ray")
        with pytest.raises(ConfigurationError):
            FaultSpec(targets=("cache",))


# ---------------------------------------------------------------------------
# campaigns


def tiny_config() -> CampaignConfig:
    return CampaignConfig(
        rates=(0.002,),
        targets=("traceback",),
        es_n0_db=(2.0,),
        max_bits=2048,
    )


class TestCampaign:
    def test_cells_pair_each_reference_with_its_faulty_cells(self):
        campaign = Campaign([dict(DESIGN)], tiny_config())
        result = campaign.run()
        refs = [c for c in result.cells if c.classification == "reference"]
        assert len(refs) == 1
        assert refs[0].fault_rate == 0.0
        assert refs[0].ber == refs[0].ref_ber
        for cell in result.faulty_cells:
            assert cell.ref_ber == refs[0].ber
            assert cell.classification in {
                "masked", "degraded", "decode_failure"
            }
            assert cell.n_injected > 0

    def test_parallel_campaign_matches_serial(self):
        serial = Campaign([dict(DESIGN)], tiny_config()).run()
        parallel = Campaign([dict(DESIGN)], tiny_config(), workers=2).run()
        assert [c.to_dict() for c in parallel.cells] == [
            c.to_dict() for c in serial.cells
        ]

    def test_persistent_cache_answers_warm_rerun(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        cold = Campaign([dict(DESIGN)], tiny_config(), cache_path=path).run()
        assert cold.persistent_hits == 0
        warm = Campaign([dict(DESIGN)], tiny_config(), cache_path=path).run()
        assert warm.persistent_hits == len(warm.cells)
        assert [c.to_dict() for c in warm.cells] == [
            c.to_dict() for c in cold.cells
        ]

    def test_result_round_trips_through_json(self, tmp_path):
        result = Campaign([dict(DESIGN)], tiny_config()).run()
        path = tmp_path / "result.json"
        result.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.config == result.config
        assert [c.to_dict() for c in loaded.cells] == [
            c.to_dict() for c in result.cells
        ]
        report = format_campaign_report(loaded)
        assert "fault-injection campaign report" in report
        assert "critical-bit fraction" in report


# ---------------------------------------------------------------------------
# crash-tolerant sessions


def run_checkpointed(path, evaluator=None, **kwargs):
    """(result, checkpointer) of one search over a checkpoint layer."""
    checkpointer = CheckpointingEvaluator(
        evaluator or DeterministicEvaluator(), path, **kwargs
    )
    result = MetacoreSearch(
        small_space(), GOAL, checkpointer, config=CONFIG
    ).run()
    return result, checkpointer


def checkpoint_lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


class TestSearchSession:
    """Searches over a :class:`CheckpointingEvaluator` layer."""

    def test_killed_search_resumes_to_the_same_selection(self, tmp_path):
        reference = run_plain_search(DeterministicEvaluator())
        path = tmp_path / "run.ckpt"
        with pytest.raises(RoundBudgetExceeded) as stop:
            run_checkpointed(path, max_rounds=2)
        assert stop.value.rounds == 2
        assert path.exists()
        resumed, checkpointer = run_checkpointed(path, resume=True)
        assert checkpointer.restored_rounds == 2
        assert checkpointer.restored_records > 0
        assert search_signature(resumed) == search_signature(reference)

    def test_cold_session_matches_plain_search(self, tmp_path):
        reference = run_plain_search(DeterministicEvaluator())
        result, checkpointer = run_checkpointed(tmp_path / "cold.ckpt")
        assert checkpointer.restored_rounds == 0
        assert search_signature(result) == search_signature(reference)

    def test_completed_checkpoint_replays_without_reevaluating(self, tmp_path):
        path = tmp_path / "done.ckpt"
        first, done = run_checkpointed(path)
        replayed, checkpointer = run_checkpointed(path, resume=True)
        assert checkpointer.restored_records > 0
        # Full replay: nothing recomputed, so no new rounds were added.
        assert checkpointer.rounds_completed == done.rounds_completed
        assert checkpointer.restored_rounds == done.rounds_completed
        assert search_signature(replayed) == search_signature(first)

    def test_fingerprint_mismatch_starts_fresh_with_warning(self, tmp_path):
        path = tmp_path / "run.ckpt"
        run_checkpointed(path)
        with pytest.warns(RuntimeWarning, match="different evaluator"):
            _result, checkpointer = run_checkpointed(
                path, DeterministicEvaluator(version=2), resume=True
            )
        assert checkpointer.restored_rounds == 0

    def test_corrupt_checkpoint_starts_fresh_with_warning(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt line"):
            _result, checkpointer = run_checkpointed(path, resume=True)
        assert checkpointer.restored_rounds == 0
        # ... and the bad file was replaced by a valid checkpoint.
        assert checkpoint_lines(path)[0]["rounds"] > 0

    def test_file_is_a_header_and_one_line_per_record(self, tmp_path):
        path = tmp_path / "run.ckpt"
        _result, checkpointer = run_checkpointed(path)
        header, *records = checkpoint_lines(path)
        assert header == {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": "deterministic:v1",
            "rounds": checkpointer.rounds_completed,
        }
        assert len(records) == len(checkpointer._records)
        assert set(records[0]) == {
            "schema", "point", "fid", "metrics", "elapsed_s"
        }

    def test_torn_last_line_resumes_with_the_complete_records(self, tmp_path):
        reference = run_plain_search(DeterministicEvaluator())
        path = tmp_path / "run.ckpt"
        with pytest.raises(RoundBudgetExceeded):
            run_checkpointed(path, max_rounds=2)
        complete = len(checkpoint_lines(path)) - 2  # header, torn record
        with path.open("r+b") as handle:  # a kill mid-line
            handle.truncate(path.stat().st_size - 7)
        resumed, checkpointer = run_checkpointed(path, resume=True)
        assert checkpointer.restored_rounds == 2
        assert checkpointer.restored_records == complete
        assert search_signature(resumed) == search_signature(reference)

    def test_cold_run_never_merges_the_existing_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        run_checkpointed(path)
        header, *records = checkpoint_lines(path)
        stray = {**records[0], "point": [["a", 99], ["b", 99]]}
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in [header, stray, *records]),
            encoding="utf-8",
        )
        with pytest.raises(RoundBudgetExceeded):
            run_checkpointed(path, max_rounds=1)
        header, *records = checkpoint_lines(path)
        assert header["rounds"] == 1
        assert [["a", 99], ["b", 99]] not in [r["point"] for r in records]
        _result, checkpointer = run_checkpointed(path, resume=True)
        assert checkpointer.restored_records == len(records)


# ---------------------------------------------------------------------------
# the retry / quarantine shim


class FlakyEvaluator:
    """Fails the first two attempts on selected points; others always.

    Two failures, not one: the shim's first recovery path is the batch
    call itself, so a point must also fail the per-point fallback's
    first attempt before a counted *retry* happens.
    """

    def __init__(self, flaky=(), broken=()) -> None:
        self.max_fidelity = 0
        self.flaky = set(flaky)
        self.broken = set(broken)
        self.attempts: Dict[int, int] = {}

    def evaluate(self, point: Point, fidelity: int) -> Dict[str, float]:
        a = int(point["a"])
        self.attempts[a] = self.attempts.get(a, 0) + 1
        if a in self.broken:
            raise RuntimeError(f"evaluator died on a={a}")
        if a in self.flaky and self.attempts[a] <= 2:
            raise RuntimeError(f"transient failure on a={a}")
        return {"area_mm2": float(a)}


class TestResilientEvaluator:
    def test_transient_failures_are_retried(self):
        inner = FlakyEvaluator(flaky={2})
        shim = ResilientEvaluator(inner, max_retries=2, backoff_s=0.0)
        results = shim.evaluate_many([{"a": 1}, {"a": 2}], 0)
        assert [r["area_mm2"] for r in results] == [1.0, 2.0]
        assert shim.n_retries == 1
        assert inner.attempts[2] == 3  # batch + fallback + one retry
        assert not shim.quarantine

    def test_persistent_failures_are_quarantined(self):
        inner = FlakyEvaluator(broken={3})
        shim = ResilientEvaluator(inner, max_retries=1, backoff_s=0.0)
        results = shim.evaluate_many([{"a": 1}, {"a": 3}], 0)
        assert results[0]["area_mm2"] == 1.0
        assert results[1] == DEFAULT_FAILURE_METRICS
        assert inner.attempts[3] == 3  # batch + fallback + one retry
        summary = shim.quarantine_summary()
        assert len(summary) == 1 and "a=3" in summary[0]
        # Quarantined points are answered locally, never re-attempted.
        shim.evaluate_many([{"a": 3}], 0)
        assert inner.attempts[3] == 3

    def test_retries_and_quarantine_appear_in_trace_summary(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        sink = install_tracing(trace_path)
        try:
            shim = ResilientEvaluator(
                FlakyEvaluator(flaky={1}, broken={2}),
                max_retries=1,
                backoff_s=0.0,
            )
            shim.evaluate_many([{"a": 1}, {"a": 2}], 0)
        finally:
            shutdown_tracing(sink)
        report = format_trace_report(summarize_trace(trace_path))
        assert "resilience.retry" in report
        assert "resilience.quarantine" in report


# ---------------------------------------------------------------------------
# persistent cache corruption (regression for the silent-skip behaviour)


class TestEvalCacheCorruption:
    def test_corrupt_lines_are_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        store = PersistentEvalCache(path)
        store.put("fp", (("a", 1),), 0, {"m": 1.0})
        store.put("fp", (("a", 2),), 0, {"m": 2.0})
        store.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, '{"schema":1,"fp":"fp","poi')  # torn mid-file
        lines.append('{"schema":1,"fp":"fp","fid":0}')  # missing fields
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt line"):
            reloaded = PersistentEvalCache(path)
        assert reloaded.n_loaded == 2
        assert reloaded.n_skipped == 2
        assert reloaded.get("fp", (("a", 1),), 0) == (0, {"m": 1.0})
        assert reloaded.get("fp", (("a", 2),), 0) == (0, {"m": 2.0})

    def test_corrupt_lines_warn_once_per_store(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        PersistentEvalCache(path).put("fp", (("a", 1),), 0, {"m": 1.0})
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n[1, 2]\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reloaded = PersistentEvalCache(path)
        assert reloaded.n_skipped == 2
        assert len(caught) == 1 and "corrupt line" in str(caught[0].message)

    def test_schema_mismatch_is_silent_by_design(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = {"schema": 999, "fp": "fp", "point": [["a", 1]],
                  "fid": 0, "metrics": {"m": 1.0}}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            reloaded = PersistentEvalCache(path)
        assert reloaded.n_loaded == 0
        assert reloaded.n_skipped == 0
