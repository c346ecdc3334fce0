"""Differential and behavioral tests of the evaluation service.

The load-bearing property is the **bit-identical guarantee**: whatever
the service does — micro-batching, shuffled arrival order, forced batch
splits, concurrent clients, worker threads — every evaluation record it
answers must be *byte-identical* (compared as canonical JSON) to a
serial one-shot evaluation of the same (point, fidelity).  The
remaining tests cover the service mechanics the guarantee rides on:
admission control, timeouts, resilience, the wire protocol, status,
and shutdown.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, List

import pytest

from hypothesis import given, seed, settings, strategies as st

from repro.core import BERThresholdCurve, SearchConfig
from repro.errors import ConfigurationError
from repro.serve import (
    MicroBatcher,
    ServeClient,
    ServeHandle,
    ServeRequestError,
    ServiceConfig,
    encode_message,
    decode_message,
    spec_to_payload,
)
from repro.serve.service import ServiceError


def canonical(record: Dict[str, float]) -> bytes:
    """The byte-level form differential comparisons use."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


class RecordingEvaluator:
    """Deterministic toy evaluator that logs every batch it prices."""

    max_fidelity = 2

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.batch_sizes: List[int] = []
        self._lock = threading.Lock()

    def fingerprint(self) -> str:
        return f"recording:delay={self.delay_s}"

    def evaluate(self, point, fidelity):
        x = float(point["x"])
        y = float(point.get("y", 0.0))
        # Deliberately irrational arithmetic: any re-ordering or
        # double-evaluation bug shows up in the low mantissa bits.
        return {
            "area_mm2": (x * 1.37 + y / 3.0) * (fidelity + 1) + x**1.5,
            "spec_violation": 0.0 if x >= 0 else 1.0,
            "fidelity_echo": float(fidelity),
        }

    def evaluate_many(self, points, fidelity):
        return [
            t.metrics for t in self.evaluate_many_timed(points, fidelity)
        ]

    def evaluate_many_timed(self, points, fidelity):
        from repro.core.evaluation import TimedEvaluation

        with self._lock:
            self.batch_sizes.append(len(points))
        if self.delay_s:
            time.sleep(self.delay_s)
        return [
            TimedEvaluation(
                metrics=self.evaluate(p, fidelity), elapsed_s=0.0
            )
            for p in points
        ]


class PoisonedEvaluator(RecordingEvaluator):
    """Fails permanently on x == 13 (the poisoned point)."""

    def fingerprint(self) -> str:
        return "poisoned:v1"

    def evaluate(self, point, fidelity):
        if float(point["x"]) == 13.0:
            raise ValueError("poisoned point")
        return super().evaluate(point, fidelity)


class SlowEvaluator:
    """Delegates to ``inner`` after a sleep per point; flags its first call."""

    def __init__(self, inner, delay_s: float) -> None:
        self.inner = inner
        self.delay_s = delay_s
        self.max_fidelity = inner.max_fidelity
        self.started = threading.Event()

    def fingerprint(self) -> str:
        return f"slow:{self.delay_s}:{self.inner.fingerprint()}"

    def evaluate(self, point, fidelity):
        self.started.set()
        time.sleep(self.delay_s)
        return self.inner.evaluate(point, fidelity)


def started_handle(**config_kwargs) -> ServeHandle:
    return ServeHandle(ServiceConfig(**config_kwargs)).start()


POINTS = [{"x": float(i), "y": float(i % 5)} for i in range(24)]


class TestDifferentialEval:
    """Serve path == serial path, byte for byte."""

    def serial_records(self, factory, points, fidelity):
        reference = factory()
        return [canonical(reference.evaluate(p, fidelity)) for p in points]

    def test_concurrent_clients_byte_identical(self):
        evaluator = RecordingEvaluator(delay_s=0.002)
        with started_handle(max_batch=4) as handle:
            handle.service.register_evaluator("toy", evaluator)
            results: Dict[int, bytes] = {}
            errors: List[BaseException] = []
            lock = threading.Lock()

            def client_worker(worker: int) -> None:
                # Each client walks the points in its own shuffled order.
                order = list(range(len(POINTS)))
                stride = 5 + worker
                order = [
                    order[(i * stride) % len(order)]
                    for i in range(len(order))
                ]
                try:
                    with handle.client() as client:
                        for index in order:
                            metrics = client.eval(
                                POINTS[index], fidelity=1, session="toy"
                            )
                            with lock:
                                results[index] = canonical(metrics)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_worker, args=(w,))
                for w in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        serial = self.serial_records(RecordingEvaluator, POINTS, 1)
        assert [results[i] for i in range(len(POINTS))] == serial
        # The service must respect the batch bound...
        assert max(evaluator.batch_sizes) <= 4
        # ...and actually coalesce under concurrent load.
        assert max(evaluator.batch_sizes) >= 2

    def test_forced_batch_splits_byte_identical(self):
        """max_batch=1 vs max_batch=8: identical records either way."""
        outcomes = []
        for max_batch in (1, 8):
            evaluator = RecordingEvaluator()
            with started_handle(max_batch=max_batch) as handle:
                session = handle.service.register_evaluator(
                    "toy", evaluator
                )
                futures = [
                    handle.submit_async(
                        handle.service.submit_point(session, point, 2)
                    )
                    for point in POINTS
                ]
                outcomes.append(
                    [canonical(f.result(30)) for f in futures]
                )
            if max_batch == 1:
                assert max(evaluator.batch_sizes) == 1
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == self.serial_records(
            RecordingEvaluator, POINTS, 2
        )

    def test_shuffled_arrival_order_byte_identical(self):
        evaluator = RecordingEvaluator()
        with started_handle(max_batch=3) as handle:
            session = handle.service.register_evaluator("toy", evaluator)
            shuffled = list(reversed(POINTS))
            futures = [
                handle.submit_async(
                    handle.service.submit_point(session, point, 0)
                )
                for point in shuffled
            ]
            records = [canonical(f.result(30)) for f in futures]
        serial = self.serial_records(RecordingEvaluator, shuffled, 0)
        assert records == serial

    def test_real_viterbi_point_byte_identical(self):
        from repro.viterbi import ViterbiSpec
        from repro.viterbi.metacore import ViterbiMetacoreEvaluator

        spec = ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(2.0, 1e-2),
        )
        point = {
            "K": 3, "L_mult": 3, "G": "standard", "R1": 1, "R2": 3,
            "Q": "hard", "N": 1, "M": 0,
        }
        with started_handle(max_batch=4) as handle:
            with handle.client() as client:
                served = client.eval(
                    point, fidelity=0, spec=spec_to_payload(spec)
                )
        serial = ViterbiMetacoreEvaluator(spec).evaluate(point, 0)
        assert canonical(served) == canonical(serial)


class TestDifferentialSearch:
    def test_iir_search_selection_matches_direct(self):
        """A search through the service picks the same winner as the
        in-process facade — same point, same metrics, same count."""
        from repro.iir import IIRMetaCore, IIRSpec

        spec = IIRSpec.paper(4.0)
        config = SearchConfig(max_resolution=1, refine_top_k=2)
        direct = IIRMetaCore(spec, config=config).search()
        with started_handle(max_batch=8) as handle:
            with handle.client() as client:
                served = client.search(
                    spec=spec_to_payload(spec),
                    config={"max_resolution": 1, "refine_top_k": 2},
                )
        assert served["feasible"] == direct.feasible
        assert served["best_point"] == direct.best_point
        assert canonical(served["best_metrics"]) == canonical(
            direct.best_metrics
        )
        assert served["n_evaluations"] == direct.log.n_evaluations


class TestServedSearchPath:
    """A served search prices its points on its own thread."""

    def test_search_shares_the_cache_but_not_the_batches(self):
        from repro.iir import IIRSpec

        payload = spec_to_payload(IIRSpec.paper(4.0))
        with started_handle() as handle:
            with handle.client() as client:
                served = client.search(
                    spec=payload, config={"max_resolution": 0}
                )
                idle = client.status()
                client.eval(served["best_point"], spec=payload)
                status = client.status()
        assert served["n_evaluations"] > 0
        assert idle["searches"] == 1
        assert idle["requests"] == 0
        assert idle["batches"] == 0
        # A client eval of a point the search priced is a cache hit.
        (session_stats,) = status["sessions"].values()
        assert session_stats["computed"] == served["n_evaluations"]
        assert session_stats["cache_hits"] >= 1
        assert status["batches"] == 1


class TestBackpressure:
    def test_admission_control_rejects_overload(self):
        evaluator = RecordingEvaluator(delay_s=0.1)
        with started_handle(max_batch=1, max_pending=2) as handle:
            session = handle.service.register_evaluator("slow", evaluator)
            futures = [
                handle.submit_async(
                    handle.service.submit_point(session, {"x": float(i)}, 0)
                )
                for i in range(8)
            ]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("ok", future.result(30)))
                except Exception as exc:
                    outcomes.append(("err", exc))
        codes = [
            getattr(exc, "code", None)
            for kind, exc in outcomes
            if kind == "err"
        ]
        assert codes and all(code == "overloaded" for code in codes)
        # Admitted requests still answer correctly.
        reference = RecordingEvaluator()
        for (kind, value), i in zip(outcomes, range(8)):
            if kind == "ok":
                assert value == reference.evaluate({"x": float(i)}, 0)
        status = handle.service.status()
        assert status["rejected"] == len(codes)

    def test_per_request_timeout(self):
        evaluator = RecordingEvaluator(delay_s=0.5)
        with started_handle(max_batch=1) as handle:
            session = handle.service.register_evaluator("slow", evaluator)
            future = handle.submit_async(
                handle.service.submit_point(
                    session, {"x": 1.0}, 0, timeout_s=0.05
                )
            )
            with pytest.raises(Exception) as info:
                future.result(30)
            assert getattr(info.value, "code", None) == "timeout"
            assert handle.service.status()["timeouts"] == 1

    def test_client_timeout_over_the_wire(self):
        evaluator = RecordingEvaluator(delay_s=0.5)
        with started_handle(max_batch=1) as handle:
            handle.service.register_evaluator("slow", evaluator)
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as info:
                    client.eval(
                        {"x": 1.0}, session="slow", timeout_s=0.05
                    )
                assert info.value.code == "timeout"


class TestResilience:
    def test_poisoned_point_quarantined_not_fatal(self):
        evaluator = PoisonedEvaluator()
        with started_handle(
            max_batch=4, resilient=True, max_retries=0
        ) as handle:
            handle.service.register_evaluator("poison", evaluator)
            with handle.client() as client:
                poisoned = client.eval({"x": 13.0}, session="poison")
                healthy = client.eval({"x": 2.0}, session="poison")
                status = client.status()
        assert poisoned["evaluation_failed"] == 1.0
        assert poisoned["area_mm2"] == float("inf")
        reference = PoisonedEvaluator()
        assert healthy == reference.evaluate({"x": 2.0}, 0)
        (session_stats,) = status["sessions"].values()
        assert session_stats["resilience"]["quarantined"] == 1

    def test_unprotected_poison_fails_only_its_request(self):
        evaluator = PoisonedEvaluator()
        with started_handle(max_batch=1) as handle:
            handle.service.register_evaluator("poison", evaluator)
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as info:
                    client.eval({"x": 13.0}, session="poison")
                assert info.value.code == "evaluation_failed"
                # The service survives and keeps answering.
                healthy = client.eval({"x": 2.0}, session="poison")
        assert healthy == PoisonedEvaluator().evaluate({"x": 2.0}, 0)


class TestCaching:
    def test_repeat_points_hit_shared_cache(self):
        evaluator = RecordingEvaluator()
        with started_handle(max_batch=4) as handle:
            handle.service.register_evaluator("toy", evaluator)
            with handle.client() as client:
                first = client.eval({"x": 7.0}, session="toy")
                second = client.eval({"x": 7.0}, session="toy")
                status = client.status()
        assert canonical(first) == canonical(second)
        (session_stats,) = status["sessions"].values()
        assert session_stats["cache_hits"] >= 1
        assert session_stats["hit_ratio"] > 0
        # The point was computed exactly once.
        assert sum(evaluator.batch_sizes) == 1

    def test_persistent_cache_warm_restart(self, tmp_path):
        from repro.iir import IIRSpec

        cache = str(tmp_path / "serve-cache.jsonl")
        payload = spec_to_payload(IIRSpec.paper(4.0))
        point = {
            "structure": "cascade", "family": "elliptic",
            "word_length": 12, "ripple_allocation": 0.85,
        }
        with started_handle(cache_path=cache) as handle:
            with handle.client() as client:
                cold = client.eval(point, spec=payload)
        with started_handle(cache_path=cache) as handle:
            with handle.client() as client:
                warm = client.eval(point, spec=payload)
                status = client.status()
        assert canonical(cold) == canonical(warm)
        assert status["persistent_hits"] == 1
        assert status["store"]["entries"] >= 1


class TestProtocolAndStatus:
    def test_status_shape(self):
        with started_handle(max_batch=4) as handle:
            handle.service.register_evaluator(
                "toy", RecordingEvaluator()
            )
            with handle.client() as client:
                assert client.ping() == {"pong": True, "protocol": 1}
                client.eval({"x": 1.0}, session="toy")
                status = client.status()
        assert status["running"] is True
        assert status["requests"] == 1
        assert status["batches"] == 1
        assert status["batch_size"]["count"] == 1
        assert status["batch_size"]["mean"] == 1.0
        assert status["latency_s"]["count"] == 1
        assert status["latency_s"]["p99"] >= status["latency_s"]["p50"]
        assert status["queue_depth"] == 0

    def test_unknown_session_is_bad_request(self):
        with started_handle() as handle:
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as info:
                    client.eval({"x": 1.0}, session="nope")
                assert info.value.code == "bad_request"

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "viterbi", "ber_curve": [[2.0]], "throughput_bps": 1e6},
            {"kind": "iir", "filter": {"type": "lowpass"}},
        ],
        ids=["viterbi", "iir"],
    )
    def test_malformed_spec_is_bad_request(self, spec):
        with started_handle() as handle:
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as info:
                    client.eval({"x": 1.0}, spec=spec)
                assert info.value.code == "bad_request"

    @pytest.mark.parametrize(
        "config",
        [
            {"max_resolution": 0, "surrogate_keep": 0.5},
            {"max_resolution": 0, "strategy": "surrogate"},
            [["max_resolution", 0]],
            {"max_resolution": "x"},
            {"refine_top_k": 1.5},
            {"use_bayesian_ber": "yes"},
            {"refine_top_k": -1},
            {"max_resolution": -1},
            {"confirm_best": True},
        ],
        ids=[
            "unknown-field", "unknown-strategy", "not-an-object",
            "str-for-int", "float-for-int", "str-for-bool",
            "negative-top-k", "negative-resolution", "removed-field",
        ],
    )
    @pytest.mark.parametrize("op", ["search", "recommend"])
    def test_malformed_search_config_is_bad_request(
        self, op, config, tmp_path
    ):
        from repro.iir import IIRSpec

        payload = spec_to_payload(IIRSpec.paper(4.0))
        atlas = str(tmp_path / "atlas.jsonl")
        with started_handle(atlas_path=atlas) as handle:
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as info:
                    if op == "search":
                        client.search(spec=payload, config=config)
                    else:
                        client.recommend(
                            spec=payload,
                            constraints={"area_mm2": 1.0},
                            config=config,
                        )
                assert info.value.code == "bad_request"
                status = client.status()
        # Rejected before any search work was admitted.
        assert status["searches"] == 0 and status["recommends"] == 0
        assert status["requests"] == 0

    @pytest.mark.parametrize(
        "config",
        [{"max_resolution": True}, {"use_bayesian_ber": 1}, {"strategy": 0}],
        ids=["bool-for-int", "int-for-bool", "int-for-str"],
    )
    def test_search_config_types_are_exact(self, config):
        from repro.serve.protocol import search_config_from_payload

        with pytest.raises(ConfigurationError):
            search_config_from_payload(config)

    def test_search_config_well_typed_fields_pass(self):
        from repro.serve.protocol import search_config_from_payload

        config = search_config_from_payload(
            {
                "max_resolution": 1,
                "use_bayesian_ber": False,
                "strategy": "evolve",
            }
        )
        assert config == SearchConfig(
            max_resolution=1, use_bayesian_ber=False, strategy="evolve"
        )

    def test_unknown_op_and_garbage_line(self):
        with started_handle() as handle:
            with socket.create_connection(handle.address, timeout=10) as s:
                stream = s.makefile("rwb")
                stream.write(encode_message({"id": 1, "op": "frobnicate"}))
                stream.flush()
                response = decode_message(stream.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                stream.write(b"this is not json\n")
                stream.flush()
                response = decode_message(stream.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "protocol"

    def test_fidelity_validation(self):
        with started_handle() as handle:
            handle.service.register_evaluator(
                "toy", RecordingEvaluator()
            )
            with handle.client() as client:
                with pytest.raises(ServeRequestError) as info:
                    client.eval({"x": 1.0}, fidelity=9, session="toy")
                assert info.value.code == "bad_request"

    def test_duplicate_registration_rejected(self):
        with started_handle() as handle:
            handle.service.register_evaluator("toy", RecordingEvaluator())
            with pytest.raises(ConfigurationError):
                handle.service.register_evaluator(
                    "toy", RecordingEvaluator()
                )


def raw_reply(handle: ServeHandle, message: Dict) -> Dict:
    """The server's reply to one raw protocol message."""
    with socket.create_connection(handle.address, timeout=30) as s:
        stream = s.makefile("rwb")
        stream.write(encode_message({"id": 1, **message}))
        stream.flush()
        return decode_message(stream.readline())


#: Scalars, containers and non-JSON-number floats a client may send.
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 9), max_size=2),
)
ANY_POINT = st.one_of(
    ANY_VALUE,
    st.dictionaries(st.sampled_from(["x", "y", ""]), ANY_VALUE, max_size=2),
)
#: Any timeout but a short valid one, which could answer ``timeout``.
ANY_TIMEOUT = st.one_of(
    ANY_VALUE.filter(
        lambda v: not isinstance(v, (int, float)) or not 0 < v < 10
    ),
    st.floats(min_value=10.0, max_value=1e6),
)


class TestRequestFields:
    """A malformed request field answers ``bad_request``, never
    ``internal``: only configuration errors escape the handler."""

    @pytest.fixture(scope="class")
    def toy_handle(self, tmp_path_factory):
        """A service with an atlas, and the payload of a registered toy
        spec whose whole design space is eight points."""
        from repro.core import metacore
        from tests.test_metacore import TOY, _ToySpec

        metacore.register_metacore(TOY)
        atlas = tmp_path_factory.mktemp("fields") / "atlas.jsonl"
        try:
            with started_handle(atlas_path=str(atlas)) as handle:
                yield handle, spec_to_payload(_ToySpec(3.0))
        finally:
            metacore._REGISTRY.pop(TOY.kind, None)

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "eval", "point": {"x": 1}, "fidelity": "abc"},
            {"op": "eval", "point": {"x": 1}, "fidelity": 0.7},
            {"op": "eval", "point": {"x": 1}, "fidelity": True},
            {"op": "eval", "point": [1]},
            {"op": "eval", "point": {"x": [1]}},
            {"op": "eval", "point": {"x": 1}, "timeout_s": "x"},
            {"op": "eval", "point": {"x": 1}, "timeout_s": -1},
            {"op": "search", "fixed": [1]},
            {"op": "search", "fixed": {"x": 3.5}},
            {"op": "search", "fixed": {"x": 10**400}},
            {"op": "recommend", "constraints": [1]},
            {"op": "recommend", "constraints": {"cost": "x"}},
            {"op": "recommend", "constraints": {"cost": True}},
        ],
        ids=[
            "fidelity-str", "fidelity-float", "fidelity-bool",
            "point-list", "point-list-value", "timeout-str",
            "timeout-negative", "fixed-list", "fixed-outside-space",
            "fixed-huge-int", "constraints-list", "constraints-str",
            "constraints-bool",
        ],
    )
    def test_malformed_field_is_bad_request(self, toy_handle, message):
        handle, payload = toy_handle
        reply = raw_reply(handle, {"spec": payload, **message})
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request", reply

    def test_malformed_session_name_is_bad_request(self, toy_handle):
        handle, _payload = toy_handle
        reply = raw_reply(handle, {"op": "eval", "session": [1]})
        assert reply["error"]["code"] == "bad_request"

    @seed(20010618)
    @settings(max_examples=60, deadline=None)
    @given(
        op=st.sampled_from(["eval", "search", "recommend"]),
        fields=st.fixed_dictionaries(
            {},
            optional={
                "point": ANY_POINT,
                "fidelity": st.one_of(ANY_VALUE, st.integers(-1, 2)),
                "timeout_s": ANY_TIMEOUT,
                "fixed": st.one_of(
                    ANY_VALUE,
                    st.dictionaries(
                        st.sampled_from(["x", "y"]), ANY_VALUE, max_size=2
                    ),
                ),
                "constraints": st.one_of(
                    ANY_VALUE,
                    st.dictionaries(
                        st.sampled_from(["cost", "area"]), ANY_VALUE, max_size=2
                    ),
                ),
            },
        ),
    )
    def test_fuzzed_fields_never_answer_internal(self, toy_handle, op, fields):
        handle, payload = toy_handle
        message = {"id": 1, "op": op, "spec": payload, **fields}
        try:
            handle.submit(handle._server._dispatch(message))
        except ConfigurationError:
            pass  # answered bad_request
        except ServiceError as exc:
            assert exc.code == "evaluation_failed", exc


class TestShutdown:
    def test_clean_shutdown_via_client(self):
        handle = started_handle()
        handle.service.register_evaluator("toy", RecordingEvaluator())
        with handle.client() as client:
            client.eval({"x": 1.0}, session="toy")
            client.shutdown()
        deadline = time.monotonic() + 10
        while handle._thread is not None and handle._thread.is_alive():
            if time.monotonic() > deadline:
                pytest.fail("server thread did not exit")
            time.sleep(0.01)
        assert handle.service.status()["running"] is False
        with pytest.raises(OSError):
            socket.create_connection(handle.address, timeout=1)

    def test_stop_fails_a_running_search(self):
        from repro.iir import IIRSpec
        from repro.serve.service import evaluator_for_payload

        kind, spec, inner = evaluator_for_payload(
            spec_to_payload(IIRSpec.paper(4.0))
        )
        evaluator = SlowEvaluator(inner, delay_s=0.05)
        handle = started_handle()
        session = handle.service.register_evaluator(
            "slow-iir", evaluator, kind=kind, spec=spec
        )
        future = handle.submit_async(
            handle.service.submit_search(session, {"max_resolution": 1})
        )
        assert evaluator.started.wait(30), "search never priced a point"
        handle.stop()
        with pytest.raises(Exception) as info:
            future.result(30)
        assert getattr(info.value, "code", None) == "closed"
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("serve-search")
        ]

    def test_stop_is_idempotent(self):
        handle = started_handle()
        handle.stop()
        handle.stop()
        assert handle.service.status()["running"] is False

    def test_sigterm_handler_restored_after_shutdown(self):
        """``serve_forever`` on the main thread takes SIGTERM for its own
        shutdown and puts the program's own handler back afterwards."""
        import asyncio
        import signal

        from repro.serve import serve_forever

        def own_handler(signum, frame):
            pass

        before = signal.signal(signal.SIGTERM, own_handler)
        try:
            asyncio.run(
                serve_forever(
                    ServiceConfig(),
                    ready_callback=lambda s: s.shutdown_requested.set(),
                )
            )
            assert signal.getsignal(signal.SIGTERM) is own_handler
        finally:
            signal.signal(signal.SIGTERM, before)


class TestMicroBatcherUnit:
    def test_bound(self):
        import asyncio

        async def scenario():
            ran: List[List[int]] = []

            async def run_batch(key, requests):
                ran.append([r.point["x"] for r in requests])
                for request in requests:
                    request.future.set_result({"ok": 1.0})

            batcher = MicroBatcher(run_batch, max_batch=3)
            loop = asyncio.get_running_loop()
            from repro.serve import PendingRequest

            futures = []
            for i in range(7):
                future = loop.create_future()
                futures.append(future)
                batcher.submit(
                    "k", PendingRequest({"x": i}, 0, future)
                )
            await asyncio.gather(*futures)
            await batcher.close()
            return ran

        batches = asyncio.run(scenario())
        assert [x for batch in batches for x in batch] == list(range(7))
        assert all(len(batch) <= 3 for batch in batches)
        assert max(len(batch) for batch in batches) >= 2
