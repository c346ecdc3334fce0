"""Cluster serving tests: sharding, failover, drain.

The load-bearing property is unchanged from the serve layer: a request
routed through the cluster — across failover and replica loss
mid-run — must answer **byte-identically** to the same request on
a single in-process facade.  Everything the router adds (consistent
hashing, health ejection, retry, drain fan-out) exists to preserve
that guarantee while the topology misbehaves underneath it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict

import pytest

from repro.cluster import (
    ClusterHandle,
    HashRing,
    Replica,
    RouterConfig,
    RouterHandle,
    Topology,
    load_topology,
    topology_from_flags,
)
from repro.errors import ConfigurationError
from repro.serve import (
    ServeRequestError,
    ServiceConfig,
    spec_to_payload,
)
from repro.serve.protocol import (
    decode_message,
    encode_message,
    error_response,
    ok_response,
)


def canonical(record) -> bytes:
    """The byte-level form differential comparisons use."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def iir_spec():
    from repro.iir import IIRSpec

    return IIRSpec.paper(4.0)


SEARCH_CONFIG = {"max_resolution": 1, "refine_top_k": 2}


def direct_search():
    from repro.core import SearchConfig
    from repro.iir import IIRMetaCore

    return IIRMetaCore(
        iir_spec(), config=SearchConfig(max_resolution=1, refine_top_k=2)
    ).search()


# ---------------------------------------------------------------------------
# Topology files and flags
# ---------------------------------------------------------------------------


class TestTopology:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(
            json.dumps(
                {
                    "replicas": [
                        {"name": "r0", "host": "127.0.0.1", "port": 7777},
                        {"name": "r1", "unix": "/tmp/r1.sock"},
                    ]
                }
            )
        )
        topology = load_topology(path)
        assert topology.names() == ["r0", "r1"]
        assert topology.replicas[0].address == "127.0.0.1:7777"
        assert topology.replicas[1].address == "/tmp/r1.sock"

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"no_replicas": true}',
            '{"replicas": []}',
            '{"replicas": [42]}',
            '{"replicas": [{"host": "h", "port": 1}]}',  # missing name
            '{"replicas": [{"name": "a"}]}',  # no address at all
            '{"replicas": [{"name": "a", "host": "h"}]}',  # no port
            '{"replicas": [{"name": "a", "host": "h", "port": "x"}]}',
            '{"replicas": [{"name": "a", "host": "h", "port": 70000}]}',
            '{"replicas": [{"name": "a", "unix": "/s", "port": 1}]}',
            '{"replicas": [{"name": "a", "host": "h", "port": 1, "x": 2}]}',
            '{"replicas": [{"name": "a", "host": "h", "port": 1},'
            ' {"name": "a", "host": "h", "port": 2}]}',  # duplicate name
        ],
    )
    def test_corrupt_or_partial_file_rejected(self, tmp_path, content):
        path = tmp_path / "topo.json"
        path.write_text(content)
        with pytest.raises(ConfigurationError):
            load_topology(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_topology(tmp_path / "absent.json")

    def test_corrupt_file_rejected_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "topo.json"
        path.write_text('{"replicas": [{"name": "a"}]}')
        assert main(["cluster", "--topology", str(path)]) == 1
        assert "invalid topology" in capsys.readouterr().err

    def test_flags(self):
        topology = topology_from_flags(
            ["127.0.0.1:7777", "unix:/tmp/r.sock"]
        )
        assert topology.names() == ["replica-0", "replica-1"]
        assert topology.replicas[1].unix_path == "/tmp/r.sock"

    @pytest.mark.parametrize("flag", ["nocolon", ":123", "host:notaport"])
    def test_bad_flags_rejected(self, flag):
        with pytest.raises(ConfigurationError):
            topology_from_flags([flag])


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_preference_covers_all_replicas_once(self):
        ring = HashRing(["a", "b", "c", "d"])
        for i in range(50):
            preference = ring.preference(f"key-{i}")
            assert sorted(preference) == ["a", "b", "c", "d"]

    def test_deterministic_across_instances(self):
        names = ["r0", "r1", "r2"]
        first = HashRing(names)
        second = HashRing(list(reversed(names)))
        for i in range(50):
            key = f"fp-{i}"
            assert first.preference(key) == second.preference(key)

    def test_spread(self):
        ring = HashRing(["a", "b", "c"])
        owners = [ring.owner(f"key-{i}") for i in range(300)]
        counts = {name: owners.count(name) for name in "abc"}
        # md5 spreading: no replica should own (almost) everything.
        assert all(count > 30 for count in counts.values()), counts

    def test_backup_is_second_preference(self):
        ring = HashRing(["a", "b"])
        preference = ring.preference("some-fingerprint")
        assert len(preference) == 2
        assert preference[0] != preference[1]


# ---------------------------------------------------------------------------
# Differential: cluster == direct facade, bit for bit
# ---------------------------------------------------------------------------


class TestClusterDifferential:
    def test_eval_byte_identical_through_cluster(self):
        from repro.iir.metacore import IIRMetacoreEvaluator

        spec = iir_spec()
        point = {
            "structure": "cascade",
            "family": "elliptic",
            "word_length": 12,
            "ripple_allocation": 0.85,
        }
        serial = IIRMetacoreEvaluator(spec).evaluate(point, 0)
        with ClusterHandle(ServiceConfig(), replicas=2) as cluster:
            with cluster.client() as client:
                served = client.eval(
                    point, fidelity=0, spec=spec_to_payload(spec)
                )
        assert canonical(served) == canonical(dict(serial))

    def test_search_selects_same_design_as_direct(self):
        direct = direct_search()
        with ClusterHandle(ServiceConfig(), replicas=2) as cluster:
            with cluster.client() as client:
                served = client.search(
                    spec=spec_to_payload(iir_spec()), config=SEARCH_CONFIG
                )
        assert served["best_point"] == direct.best_point
        assert canonical(served["best_metrics"]) == canonical(
            dict(direct.best_metrics)
        )
        assert served["n_evaluations"] == direct.log.n_evaluations

    def test_search_with_replica_killed_mid_run_matches_direct(self):
        direct = direct_search()
        cluster = ClusterHandle(
            ServiceConfig(),
            replicas=2,
            router_config=RouterConfig(
                retry_backoff_s=0.01,
                probe_interval_s=0.1,
                eject_after=1,
            ),
        )
        with cluster:
            router = cluster.router
            spec_payload = spec_to_payload(iir_spec())
            fingerprint = cluster.session_for_spec(spec_payload)
            owner = router.ring.owner(fingerprint)
            owner_index = int(owner.rsplit("-", 1)[1])
            owner_handle = cluster.replica_handles[owner_index]

            result: Dict[str, object] = {}

            def run_search():
                with cluster.client(timeout_s=120.0) as client:
                    result["served"] = client.search(
                        spec=spec_payload, config=SEARCH_CONFIG
                    )

            searcher = threading.Thread(target=run_search)
            searcher.start()
            # Wait until the owning replica is actually mid-search,
            # then kill it: the router must fail the request over and
            # the survivor must produce the identical answer.
            deadline = time.time() + 30.0
            while (
                owner_handle.service.status()["searches"] == 0
                and time.time() < deadline
            ):
                time.sleep(0.002)
            assert owner_handle.service.status()["searches"] > 0
            owner_handle.stop()
            searcher.join(timeout=120.0)
            assert not searcher.is_alive()

            served = result["served"]
            assert served["best_point"] == direct.best_point
            assert canonical(served["best_metrics"]) == canonical(
                dict(direct.best_metrics)
            )
            assert served["n_evaluations"] == direct.log.n_evaluations
            failovers = router.metrics.counter("cluster.failovers").value
            assert failovers >= 1

    def test_replica_down_from_start_is_routed_around(self):
        from repro.iir.metacore import IIRMetacoreEvaluator

        spec = iir_spec()
        point = {
            "structure": "cascade",
            "family": "elliptic",
            "word_length": 10,
            "ripple_allocation": 0.8,
        }
        serial = IIRMetacoreEvaluator(spec).evaluate(point, 0)
        cluster = ClusterHandle(
            ServiceConfig(),
            replicas=2,
            router_config=RouterConfig(
                retry_backoff_s=0.01,
                probe_interval_s=0.1,
                eject_after=1,
                connect_timeout_s=1.0,
            ),
        )
        with cluster:
            # Kill one replica before any traffic; every request must
            # still be answered (by the survivor), bit-identically.
            cluster.replica_handles[0].stop()
            with cluster.client() as client:
                served = client.eval(
                    point, fidelity=0, spec=spec_to_payload(spec)
                )
        assert canonical(served) == canonical(dict(serial))


    def test_transport_failure_named_in_unavailable_answer(self):
        """When every attempt fails to connect, the ``unavailable``
        answer says which replica failed and how."""
        topology = Topology(
            replicas=tuple(
                Replica(name=f"replica-{port}", host="127.0.0.1", port=port)
                for port in (1, 2)
            )
        )
        handle = RouterHandle(
            topology, RouterConfig(retry_backoff_s=0.0, probe_interval_s=60.0)
        ).start()
        try:
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as caught:
                    client.eval({"x": 1}, session="key")
        finally:
            handle.stop()
        assert caught.value.code == "unavailable"
        message = str(caught.value)
        assert "eval failed after 3 attempts: replica 'replica-" in message
        assert "unavailable: " in message
        assert "no replicas available" not in message


# ---------------------------------------------------------------------------
# One replica per request (fake replicas with controllable latency)
# ---------------------------------------------------------------------------


class FakeReplica:
    """Minimal protocol server with a configurable eval/search delay."""

    def __init__(self, tag: str, delay_s: float = 0.0) -> None:
        self.tag = tag
        self.delay_s = delay_s
        self.port = 0
        self.n_evals = 0
        #: ``search``/``recommend`` requests received, by op.
        self.n_slow_ops: Dict[str, int] = {}
        self._thread: threading.Thread = None
        self._loop = None
        self._server = None
        self._ready = threading.Event()

    async def _handle(self, reader, writer):
        try:
            await self._serve(reader, writer)
        except asyncio.CancelledError:
            pass  # stop() cancels in-flight handlers; that's clean

    async def _serve(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            message = decode_message(line)
            op = message.get("op")
            request_id = message.get("id")
            if op == "status":
                response = ok_response(
                    request_id, {"draining": False, "node": self.tag}
                )
            elif op == "eval":
                self.n_evals += 1
                if self.delay_s:
                    await asyncio.sleep(self.delay_s)
                response = ok_response(
                    request_id,
                    {"metrics": {"answered_by": self.tag}, "session": "s"},
                )
            elif op in ("search", "recommend"):
                self.n_slow_ops[op] = self.n_slow_ops.get(op, 0) + 1
                if self.delay_s:
                    await asyncio.sleep(self.delay_s)
                response = ok_response(request_id, {"answered_by": self.tag})
            else:
                response = error_response(
                    request_id, "bad_request", f"fake has no {op!r}"
                )
            writer.write(encode_message(response))
            await writer.drain()
        writer.close()

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot():
            self._server = await asyncio.start_server(
                self._handle, "127.0.0.1", 0
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._ready.set()
            async with self._server:
                await self._server.serve_forever()

        try:
            loop.run_until_complete(boot())
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    def start(self) -> "FakeReplica":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(10.0)
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            def cancel_all():
                for task in asyncio.all_tasks(self._loop):
                    task.cancel()
            self._loop.call_soon_threadsafe(cancel_all)
        if self._thread is not None:
            self._thread.join(timeout=10.0)


class TestOneReplicaPerRequest:
    @pytest.mark.parametrize("op", ["eval", "search", "recommend"])
    def test_slow_primary_is_the_only_replica_asked(self, op):
        """Every routed operation is deterministic, so a duplicate on a
        second replica could not change the answer, only price it
        twice: a slow primary is waited for, never raced."""
        fakes = {
            "replica-0": FakeReplica("replica-0").start(),
            "replica-1": FakeReplica("replica-1").start(),
        }
        topology = Topology(
            replicas=tuple(
                Replica(name=name, host="127.0.0.1", port=fake.port)
                for name, fake in fakes.items()
            )
        )
        handle = RouterHandle(topology).start()
        try:
            key = "session-key"
            primary, backup = handle.router.ring.preference(key)[:2]
            fakes[primary].delay_s = 0.6
            with handle.client() as client:
                if op == "eval":
                    result = client.eval({"x": 1}, session=key)
                else:
                    result = getattr(client, op)(session=key)
            assert result == {"answered_by": primary}
            if op == "eval":
                assert fakes[primary].n_evals == 1
            else:
                assert fakes[primary].n_slow_ops == {op: 1}
            assert fakes[backup].n_evals == 0
            assert fakes[backup].n_slow_ops == {}
        finally:
            handle.stop()
            for fake in fakes.values():
                fake.stop()


# ---------------------------------------------------------------------------
# Drain semantics
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drained_server_rejects_new_work(self):
        from repro.serve import ServeHandle

        spec_payload = spec_to_payload(iir_spec())
        with ServeHandle(ServiceConfig()) as handle:
            with handle.client() as client:
                client.eval(
                    {
                        "structure": "cascade",
                        "family": "elliptic",
                        "word_length": 10,
                        "ripple_allocation": 0.8,
                    },
                    spec=spec_payload,
                )
                drained = client.drain()
                assert drained["draining"] is True
                assert client.status()["draining"] is True
                with pytest.raises(ServeRequestError) as excinfo:
                    client.eval(
                        {
                            "structure": "cascade",
                            "family": "elliptic",
                            "word_length": 11,
                            "ripple_allocation": 0.8,
                        },
                        spec=spec_payload,
                    )
                assert excinfo.value.code == "draining"

    def test_cluster_drain_fans_out(self):
        with ClusterHandle(ServiceConfig(), replicas=2) as cluster:
            with cluster.client() as client:
                result = client.drain()
                assert result["draining"] is True
                assert set(result["replicas"].values()) == {True}
                for handle in cluster.replica_handles:
                    assert handle.service.status()["draining"] is True


# ---------------------------------------------------------------------------
# ServeClient reconnect/backoff
# ---------------------------------------------------------------------------


class TestClientReconnect:
    def test_reconnects_after_server_restart_on_same_address(self, tmp_path):
        from repro.iir.metacore import IIRMetacoreEvaluator
        from repro.serve import ServeClient, ServeHandle

        spec = iir_spec()
        point = {
            "structure": "cascade",
            "family": "elliptic",
            "word_length": 12,
            "ripple_allocation": 0.85,
        }
        serial = IIRMetacoreEvaluator(spec).evaluate(point, 0)
        path = str(tmp_path / "serve.sock")
        first = ServeHandle(ServiceConfig(), unix_path=path).start()
        client = ServeClient(
            unix_path=path, max_retries=4, backoff_s=0.02
        )
        try:
            served = client.eval(point, spec=spec_to_payload(spec))
            assert canonical(served) == canonical(dict(serial))
            first.stop()
            second = ServeHandle(ServiceConfig(), unix_path=path).start()
            try:
                served = client.eval(point, spec=spec_to_payload(spec))
                assert canonical(served) == canonical(dict(serial))
                assert client.n_reconnects >= 1
                assert client.n_retries >= 1
            finally:
                second.stop()
        finally:
            client.close()

    def test_retries_exhausted_surfaces_connection_error(self, tmp_path):
        from repro.serve import ServeClient
        from repro.serve.client import ServeConnectionError

        with pytest.raises(ServeConnectionError):
            ServeClient(
                unix_path=str(tmp_path / "nobody-home.sock"),
                max_retries=1,
                backoff_s=0.01,
            )


# ---------------------------------------------------------------------------
# Router status aggregation
# ---------------------------------------------------------------------------


class TestClusterStatus:
    def test_status_aggregates_replicas(self):
        with ClusterHandle(ServiceConfig(), replicas=2) as cluster:
            with cluster.client() as client:
                status = client.status()
        assert status["router"] is True
        assert status["n_replicas"] == 2
        names = {row["name"] for row in status["replicas"]}
        assert names == {"replica-0", "replica-1"}
        states = {row["state"] for row in status["replicas"]}
        assert states == {"healthy"}
        nodes = {row["status"]["node"] for row in status["replicas"]}
        assert nodes == {"replica-0", "replica-1"}

    def test_trace_report_shows_cluster_line(self):
        from repro.observability.export import TraceSummary, format_trace_report

        summary = TraceSummary(
            metrics={
                "cluster.requests": {"type": "counter", "value": 7},
                "cluster.failovers": {"type": "counter", "value": 1},
            },
        )
        report = format_trace_report(summary)
        assert "cluster: 7 routed / 1 failovers" in report
        # cluster.* counters fold into the cluster line, not the
        # generic counters dump.
        assert "cluster.requests" not in report
