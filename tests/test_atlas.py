"""Design-atlas tests: store, frontier, warm starts, recommend, serve.

The load-bearing properties:

- **zero-evaluation recommendation** — a constraint query covered by a
  stored frontier never touches the evaluator (asserted by poisoning
  ``evaluate``), and falls back to a search on a miss;
- **warm >= cold** — a warm-started search is bit-reproducible given
  the same atlas state and never selects a design worse than the cold
  search at the same round budget (the differential guarantee in
  ``MetacoreSearch.run``);
- **store robustness** — corrupt JSONL lines are skipped and counted
  with a single warning, mirroring the persistent evaluation cache.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
import threading
import warnings

import pytest

from repro.atlas import (
    DesignAtlas,
    ParetoFrontier,
    format_atlas_report,
    frontier_objectives,
    goal_signature,
    query_frontier,
    scenario_distance,
    spec_features,
)
from repro.core import BERThresholdCurve, SearchConfig
from repro.core.evaluation import EvaluationRecord
from repro.core.objectives import Constraint, DesignGoal, Objective
from repro.core.pareto import pareto_front
from repro.errors import ConfigurationError
from repro.viterbi import ViterbiMetaCore, ViterbiSpec
from repro.viterbi.metacore import ViterbiMetacoreEvaluator

#: Tiny deterministic scenario: only L_mult/R1/R2/M remain searchable.
FIXED = {"G": "standard", "N": 1, "K": 3, "Q": "hard"}
CONFIG = SearchConfig(max_resolution=1, refine_top_k=1)


def tiny_metacore(tmp_path, max_ber=5e-2, atlas_name="atlas.jsonl"):
    spec = ViterbiSpec(1e6, BERThresholdCurve.single(4.0, max_ber))
    return ViterbiMetaCore(
        spec,
        fixed=dict(FIXED),
        config=CONFIG,
        atlas_path=str(tmp_path / atlas_name),
    )


def toy_goal() -> DesignGoal:
    return DesignGoal(
        objectives=[Objective("area_mm2")],
        constraints=[Constraint("spec_violation", upper=0.0)],
    )


def toy_record(x, area, violation, fidelity=2) -> EvaluationRecord:
    return EvaluationRecord(
        point=(("x", x),),
        fidelity=fidelity,
        metrics={"area_mm2": area, "spec_violation": violation},
    )


class TestStore:
    def test_roundtrip_and_index(self, tmp_path):
        path = tmp_path / "atlas.jsonl"
        goal = toy_goal()
        with DesignAtlas(path) as atlas:
            stats = atlas.ingest(
                "fp1",
                "custom",
                {"f": 1.0},
                goal,
                [
                    toy_record(1, 10.0, 0.0),
                    toy_record(2, 8.0, 0.0),
                    toy_record(3, 9.0, 0.0, fidelity=1),  # inexact
                ],
                max_fidelity=2,
            )
            assert stats == {"ingested": 3, "frontier": 1}
        reopened = DesignAtlas(path)
        assert reopened.n_skipped == 0
        assert len(reopened.replay("fp1")) == 3
        front = reopened.frontier("fp1")
        assert [dict(r.point)["x"] for r in front] == [2]
        info = reopened.scenario_info("fp1")
        assert info["records"] == 3 and info["frontier"] == 1
        assert "fp1" in format_atlas_report(reopened)

    def test_max_fidelity_wins_dedup(self, tmp_path):
        with DesignAtlas(tmp_path / "a.jsonl") as atlas:
            goal = toy_goal()
            atlas.ingest(
                "fp", "custom", None, goal,
                [toy_record(1, 10.0, 0.0, fidelity=2)], max_fidelity=2,
            )
            stats = atlas.ingest(
                "fp", "custom", None, goal,
                [toy_record(1, 11.0, 0.0, fidelity=1)], max_fidelity=2,
            )
            assert stats["ingested"] == 0  # lower fidelity never replaces
            (record,) = atlas.replay("fp")
            assert record.metrics["area_mm2"] == 10.0

    def test_corrupt_lines_skipped_with_one_warning(self, tmp_path):
        path = tmp_path / "atlas.jsonl"
        with DesignAtlas(path) as atlas:
            atlas.ingest(
                "fp", "custom", None, toy_goal(),
                [toy_record(1, 10.0, 0.0)], max_fidelity=2,
            )
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write('{"schema": 1, "type": "record", "fp": "fp"}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            atlas = DesignAtlas(path)
        assert atlas.n_skipped == 2
        assert len(caught) == 1  # warn once, count the rest silently
        assert "corrupt" in str(caught[0].message)
        # The intact records still load.
        assert len(atlas.replay("fp")) == 1

    def test_append_after_kill_at_every_offset_loses_nothing(self, tmp_path):
        # A writer killed mid-line leaves a fragment; the next ingest
        # must end it, not glue its first record onto it.
        path = tmp_path / "atlas.jsonl"
        records = [toy_record(x, 10.0 + x, 0.0) for x in range(3)]
        with DesignAtlas(path) as atlas:
            atlas.ingest("fp", "custom", None, toy_goal(), records, max_fidelity=2)
        data = path.read_bytes()
        last_line = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last_line, len(data)):
            path.write_bytes(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with DesignAtlas(path) as atlas:
                    stats = atlas.ingest(
                        "fp", "custom", None, toy_goal(),
                        [toy_record(99, 1.0, 0.0)], max_fidelity=2,
                    )
                assert stats["ingested"] == 1
                reloaded = DesignAtlas(path)
            assert reloaded.n_skipped <= 1, cut
            points = {dict(r.point)["x"] for r in reloaded.replay("fp")}
            assert {0, 1, 99} <= points, cut

    def test_concurrent_writers_keep_every_line_whole(self, tmp_path):
        # Three handles on one file contend on the advisory lock exactly
        # like replicas do; a lost or torn append drops a record.
        path = tmp_path / "atlas.jsonl"
        writers = [DesignAtlas(path) for _ in range(3)]

        def ingest_all(atlas, base):
            for x in range(base, base + 30):
                atlas.ingest(
                    "fp", "custom", None, toy_goal(),
                    [toy_record(x, float(x), 0.0)], max_fidelity=2,
                )

        threads = [
            threading.Thread(target=ingest_all, args=(atlas, 100 * index))
            for index, atlas in enumerate(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        reloaded = DesignAtlas(path)
        assert reloaded.n_skipped == 0
        assert len(reloaded.replay("fp")) == 90
        for atlas in writers:  # each merged the others' appends
            assert len(atlas.replay("fp")) == 90

    def test_schema_mismatch_is_silent(self, tmp_path):
        path = tmp_path / "atlas.jsonl"
        path.write_text('{"schema": 999, "type": "record"}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            atlas = DesignAtlas(path)
        assert atlas.n_skipped == 0 and not caught


class TestFrontier:
    def test_incremental_matches_batch_pareto(self):
        goal = toy_goal()
        axes = frontier_objectives(goal)
        rng = random.Random(7)
        records = [
            toy_record(i, rng.choice([6.0, 8.0, 10.0]), rng.choice([0.0, 0.5]))
            for i in range(30)
        ]
        expected = pareto_front(records, axes)
        for seed in (0, 1, 2):
            shuffled = records[:]
            random.Random(seed).shuffle(shuffled)
            frontier = ParetoFrontier(axes)
            for record in shuffled:
                frontier.add(record)
            assert list(frontier.records) == expected

    def test_constraint_metrics_become_axes(self):
        goal = ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 1e-2)).goal()
        axes = frontier_objectives(goal)
        assert [a.metric for a in axes] == ["area_mm2", "ber_violation"]

    def test_higher_fidelity_replaces_same_point(self):
        axes = frontier_objectives(toy_goal())
        frontier = ParetoFrontier(axes)
        assert frontier.add(toy_record(1, 10.0, 0.0, fidelity=1))
        assert frontier.add(toy_record(1, 12.0, 0.0, fidelity=2))
        assert not frontier.add(toy_record(1, 5.0, 0.0, fidelity=1))
        (record,) = frontier.records
        assert record.fidelity == 2 and record.metrics["area_mm2"] == 12.0


class TestSimilarity:
    def test_near_specs_within_threshold(self):
        a = spec_features(ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 5e-2)))
        b = spec_features(ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 4e-2)))
        assert 0 < scenario_distance(a, b) < 0.25

    def test_different_curve_shapes_incomparable(self):
        a = spec_features(ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 5e-2)))
        b = spec_features(
            ViterbiSpec(
                1e6,
                BERThresholdCurve(points=((2.0, 1e-2), (4.0, 1e-3))),
            )
        )
        assert scenario_distance(a, b) == float("inf")

    def test_goal_signature_stable(self):
        spec = ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 5e-2))
        assert goal_signature(spec.goal()) == goal_signature(spec.goal())


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A tiny atlas populated by one cold facade search."""
    tmp_path = tmp_path_factory.mktemp("atlas")
    metacore = tiny_metacore(tmp_path)
    cold = metacore.search()
    assert cold.feasible and cold.atlas_replayed == 0
    return tmp_path, metacore, cold


class TestWarmStart:
    def test_warm_rerun_is_bit_reproducible_and_free(self, populated):
        _, metacore, cold = populated
        warm = metacore.search()
        assert warm.atlas_replayed > 0 and warm.atlas_seeds > 0
        assert warm.log.n_evaluations == 0  # fully answered from the library
        assert warm.best_point == cold.best_point
        assert dict(warm.best_metrics) == dict(cold.best_metrics)
        # Same atlas state -> same selection, run after run.
        again = metacore.search()
        assert again.best_point == warm.best_point

    def test_neighbor_scenario_warm_never_worse_than_cold(
        self, populated, tmp_path
    ):
        populated_path, metacore, _ = populated
        spec_b = ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 4e-2))
        cold_b = ViterbiMetaCore(
            spec_b, fixed=dict(FIXED), config=CONFIG
        ).search()
        warm_b = dataclasses.replace(metacore, spec=spec_b).search()
        # The neighbor's frontier seeded the search at the deep level.
        assert warm_b.atlas_seeds > 0
        assert warm_b.atlas_replayed == 0  # different fingerprint
        assert warm_b.atlas_levels_skipped > 0
        goal = spec_b.goal()
        assert warm_b.feasible >= cold_b.feasible
        # Differential guarantee: warm selection never worse than cold.
        assert goal.compare(warm_b.best_metrics, cold_b.best_metrics) <= 0

    def test_search_summary_mentions_atlas(self, populated):
        _, metacore, _ = populated
        warm = metacore.search()
        assert "atlas:" in warm.summary()


class TestRecommend:
    def test_hit_answers_with_zero_evaluations(self, populated, monkeypatch):
        _, metacore, cold = populated

        def poisoned(*args, **kwargs):
            raise AssertionError("recommend hit must not evaluate")

        monkeypatch.setattr(ViterbiMetacoreEvaluator, "evaluate", poisoned)
        recommendation = metacore.recommend()
        assert recommendation.source == "atlas"
        assert recommendation.n_evaluations == 0
        assert recommendation.feasible
        assert recommendation.point == cold.best_point

    def test_unsatisfiable_constraint_reports_infeasible(self, populated):
        _, metacore, _ = populated
        recommendation = metacore.recommend({"area_mm2": 1e-9})
        assert recommendation.source == "search"
        assert not recommendation.feasible

    def test_miss_falls_back_to_search_then_hits(self, tmp_path, monkeypatch):
        metacore = tiny_metacore(tmp_path, atlas_name="fresh.jsonl")
        first = metacore.recommend()
        assert first.source == "search"
        assert first.n_evaluations > 0
        assert first.feasible
        # The fallback search's log was ingested: now it's a library hit.
        monkeypatch.setattr(
            ViterbiMetacoreEvaluator,
            "evaluate",
            lambda *args, **kwargs: pytest.fail("should not evaluate"),
        )
        second = metacore.recommend()
        assert second.source == "atlas" and second.n_evaluations == 0
        assert second.point == first.point

    def test_requires_atlas_path(self):
        metacore = ViterbiMetaCore(
            ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 5e-2))
        )
        with pytest.raises(ConfigurationError):
            metacore.recommend()

    def test_query_frontier_is_pure(self):
        goal = toy_goal()
        frontier = [toy_record(1, 10.0, 0.0), toy_record(2, 8.0, 0.0)]
        best = query_frontier(frontier, goal)
        assert dict(best.point)["x"] == 2
        assert query_frontier(frontier, goal, {"area_mm2": 9.0}) is best
        assert query_frontier(frontier, goal, {"area_mm2": 1.0}) is None


class TestSweep:
    def test_portfolio_populates_atlas(self, tmp_path):
        metacore = tiny_metacore(tmp_path, atlas_name="sweep.jsonl")
        specs = [
            ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 5e-2)),
            ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 4e-2)),
        ]
        outcome = metacore.sweep(specs, labels=["a", "b"])
        assert len(outcome.rows) == 2
        assert all(row.feasible for row in outcome.rows)
        assert outcome.atlas_stats["scenarios"] == 2
        # The second scenario warm-started from the first's frontier.
        assert outcome.rows[1].result.atlas_seeds > 0
        table = outcome.format_table()
        assert "atlas-warm" in table and "2 scenarios" in table


class TestServeRecommend:
    def test_recommend_op_and_status_counters(self, populated):
        tmp_path, metacore, cold = populated
        from repro.serve import spec_to_payload

        with metacore.serve() as handle:
            with handle.client() as client:
                result = client.recommend(
                    spec=spec_to_payload(metacore.spec),
                    config={"max_resolution": 1, "refine_top_k": 1},
                    fixed=dict(FIXED),
                )
                assert result["source"] == "atlas"
                assert result["n_evaluations"] == 0
                assert result["feasible"]
                assert result["point"] == cold.best_point
                status = client.status()
                assert status["recommends"] == 1
                assert status["atlas"]["hits"] == 1
                assert status["atlas"]["misses"] == 0
                assert status["atlas"]["scenarios"] >= 1

    def test_recommend_without_atlas_is_an_error(self):
        from repro.serve import (
            ServeHandle,
            ServeRequestError,
            ServiceConfig,
            spec_to_payload,
        )

        spec = ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 5e-2))
        with ServeHandle(ServiceConfig()).start() as handle:
            with handle.client() as client:
                with pytest.raises(ServeRequestError):
                    client.recommend(spec=spec_to_payload(spec))


class TestServedMatchesFacade:
    """A served search or recommendation is the facade's, on one atlas.

    One cold facade search populates an atlas; each later query then
    runs twice, on two copies of that file: once through the service,
    once through ``MetaCore``.
    """

    SPEC_B = ViterbiSpec(1e6, BERThresholdCurve.single(4.0, 4e-2))

    @pytest.fixture(scope="class")
    def seeded_atlas(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("served-vs-facade")
        tiny_metacore(tmp_path).search()
        return tmp_path / "atlas.jsonl"

    @staticmethod
    def _copies(seeded_atlas, tmp_path):
        paths = [tmp_path / "served.jsonl", tmp_path / "facade.jsonl"]
        for path in paths:
            shutil.copyfile(seeded_atlas, path)
        return [str(path) for path in paths]

    @staticmethod
    def _served(atlas_path, op, spec, **fields):
        from repro.serve import ServeHandle, ServiceConfig, spec_to_payload

        with ServeHandle(ServiceConfig(atlas_path=atlas_path)) as handle:
            with handle.client() as client:
                return getattr(client, op)(
                    spec=spec_to_payload(spec),
                    config={"max_resolution": 1, "refine_top_k": 1},
                    fixed=dict(FIXED),
                    **fields,
                )

    @staticmethod
    def _facade(atlas_path, spec):
        from repro.core.metacore import MetaCore

        return MetaCore(
            spec, fixed=dict(FIXED), config=CONFIG, atlas_path=atlas_path
        )

    @pytest.mark.parametrize("neighbor", [False, True], ids=["same", "near"])
    def test_second_search(self, seeded_atlas, tmp_path, neighbor):
        spec = self.SPEC_B if neighbor else tiny_metacore(tmp_path).spec
        served_path, facade_path = self._copies(seeded_atlas, tmp_path)
        served = self._served(served_path, "search", spec)
        direct = self._facade(facade_path, spec).search()
        assert served["best_point"] == direct.best_point
        assert json.dumps(served["best_metrics"], sort_keys=True) == (
            json.dumps(dict(direct.best_metrics), sort_keys=True)
        )
        assert served["n_evaluations"] == direct.log.n_evaluations
        assert served["atlas_seeds"] == direct.atlas_seeds > 0
        assert served["atlas_replayed"] == direct.atlas_replayed
        assert (direct.atlas_replayed > 0) != neighbor
        # Both ingested the same log into their copy.
        assert (
            DesignAtlas(served_path).stats() | {"path": None}
            == DesignAtlas(facade_path).stats() | {"path": None}
        )

    @pytest.mark.parametrize(
        "neighbor, constraints",
        [(False, {}), (True, {}), (False, {"area_mm2": 1e-9})],
        ids=["hit", "miss", "infeasible"],
    )
    def test_recommend(self, seeded_atlas, tmp_path, neighbor, constraints):
        spec = self.SPEC_B if neighbor else tiny_metacore(tmp_path).spec
        served_path, facade_path = self._copies(seeded_atlas, tmp_path)
        served = self._served(
            served_path, "recommend", spec, constraints=constraints
        )
        direct = self._facade(facade_path, spec).recommend(constraints)
        assert served["source"] == direct.source
        assert served["point"] == direct.point
        assert served["metrics"] == direct.metrics
        assert served["n_evaluations"] == direct.n_evaluations
        assert served["feasible"] == direct.feasible
        assert (direct.source == "atlas") == (not neighbor and not constraints)


class TestCompact:
    def _populate(self, path, n=20):
        goal = toy_goal()
        with DesignAtlas(path) as atlas:
            # Same points first at fidelity 1, then upgraded to
            # fidelity 2: the log keeps both generations, the
            # in-memory view only the upgrade — exactly the bloat
            # compaction exists to drop.
            for fidelity in (1, 2):
                atlas.ingest(
                    "fp1",
                    "custom",
                    {"f": 1.0},
                    goal,
                    [
                        toy_record(x, 10.0 + x, 0.0, fidelity=fidelity)
                        for x in range(n)
                    ],
                    max_fidelity=2,
                )
            atlas.ingest(
                "fp2",
                "custom",
                {"f": 2.0},
                goal,
                [toy_record(99, 1.0, 0.0)],
                max_fidelity=2,
            )

    def test_dedup_rewrite_preserves_view(self, tmp_path):
        from repro.atlas import compact_atlas

        path = tmp_path / "atlas.jsonl"
        self._populate(path)
        before = DesignAtlas(path)
        replay_before = {
            fp: [canonical_entry(r) for r in before.replay(fp)]
            for fp in ("fp1", "fp2")
        }
        before.close()
        bytes_before = path.stat().st_size

        report = compact_atlas(path)

        assert report["records_before"] == 41  # two generations + 1
        assert report["records_after"] == 21  # deduped view
        assert report["bytes_reclaimed"] > 0
        assert path.stat().st_size < bytes_before
        after = DesignAtlas(path)
        assert after.n_skipped == 0
        # The rewrite canonicalises record order (sorted by point);
        # replay feeds a keyed cache, so only the set must survive.
        for fp in ("fp1", "fp2"):
            assert sorted(
                canonical_entry(r) for r in after.replay(fp)
            ) == sorted(replay_before[fp])
        assert all(r.fidelity == 2 for r in after.replay("fp1"))

    def test_frontier_only_drops_dominated(self, tmp_path):
        from repro.atlas import compact_atlas

        path = tmp_path / "atlas.jsonl"
        self._populate(path)
        report = compact_atlas(path, frontier_only=True)
        assert report["frontier_only"] is True
        assert report["records_after"] == 2  # one per scenario
        atlas = DesignAtlas(path)
        front = atlas.frontier("fp1")
        assert [dict(r.point)["x"] for r in front] == [0]
        assert len(atlas.replay("fp1")) == 1

    def test_stale_handle_survives_compaction(self, tmp_path):
        from repro.atlas import compact_atlas

        path = tmp_path / "atlas.jsonl"
        self._populate(path)
        stale = DesignAtlas(path)  # opened before the rewrite
        assert len(stale.replay("fp1")) == 20
        compact_atlas(path, frontier_only=True)
        # The rewrite swaps the inode under the stale handle.  Its
        # refresh re-merges from the new file without crashing; the
        # already-loaded records stay visible (the in-memory view is
        # a union — compaction reclaims disk, not reader state).
        stale.refresh()
        assert len(stale.replay("fp1")) == 20
        # ...and the stale handle can still append afterwards, to the
        # NEW inode, where fresh readers find it.
        stale.ingest(
            "fp3",
            "custom",
            {"f": 3.0},
            toy_goal(),
            [toy_record(7, 5.0, 0.0)],
            max_fidelity=2,
        )
        stale.close()
        fresh = DesignAtlas(path)
        assert len(fresh.replay("fp3")) == 1
        assert len(fresh.replay("fp1")) == 1  # compacted view

    def test_cli_reports_and_rejects_missing(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "atlas.jsonl"
        self._populate(path)
        assert main(["atlas-compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compacted design atlas" in out
        assert "41 -> 21" in out
        assert main(["atlas-compact", str(tmp_path / "none.jsonl")]) == 1
        assert "cannot compact atlas" in capsys.readouterr().err


def canonical_entry(record):
    return (
        tuple(sorted((str(k), v) for k, v in record.point)),
        record.fidelity,
        json.dumps(dict(record.metrics), sort_keys=True),
    )
