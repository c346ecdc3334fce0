"""Tests for the command-line interface (the Fig. 7 stand-in)."""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_BROKEN_PIPE, build_parser, main
from repro.resilience import CampaignResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_viterbi_search_args(self):
        args = build_parser().parse_args(
            ["viterbi-search", "--ber", "1e-4", "--throughput", "2e6"]
        )
        assert args.ber == 1e-4
        assert args.es_n0_db == 2.0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_spectrum(self, capsys):
        assert main(["spectrum", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "free distance: 7" in out

    def test_viterbi_ber(self, capsys):
        code = main(
            [
                "viterbi-ber", "--k", "3", "--m", "0", "--q", "hard",
                "--snr", "4.0", "--bits", "10000", "--errors", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "K=3" in out and "Es/N0" in out

    def test_iir_design_pass(self, capsys):
        code = main(
            ["iir-design", "--family", "elliptic", "--structure", "cascade",
             "--word", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "meets spec=True" in out

    def test_iir_design_fail_exit_code(self, capsys):
        code = main(
            ["iir-design", "--family", "elliptic", "--structure", "direct2",
             "--word", "8"]
        )
        assert code == 1

    def test_viterbi_search_easy_spec(self, capsys):
        code = main(
            [
                "viterbi-search", "--ber", "5e-2", "--es-n0-db", "4.0",
                "--throughput", "1e6", "--max-resolution", "1",
                "--top-k", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "winner:" in out

    def test_viterbi_search_infeasible_exit_code(self, capsys):
        code = main(
            [
                "viterbi-search", "--ber", "1e-9", "--es-n0-db", "3.0",
                "--throughput", "1e6", "--max-resolution", "0",
                "--top-k", "1",
            ]
        )
        assert code == 1
        assert "NOT FEASIBLE" in capsys.readouterr().out

    def test_diagram_command(self, capsys):
        assert main(["diagram", "--k", "3", "--trellis"]) == 0
        out = capsys.readouterr().out
        assert "G=(7,5)" in out
        assert "trellis section" in out

    def test_iir_noise_command(self, capsys):
        assert main(["iir-noise", "--word", "12"]) == 0
        out = capsys.readouterr().out
        assert "noise gain" in out
        assert "direct2" in out

    def test_table_commands_parse(self):
        parser = build_parser()
        args3 = parser.parse_args(["table3", "--max-resolution", "1"])
        assert args3.func.__name__ == "cmd_table3"
        assert args3.trace is None
        args4 = parser.parse_args(["table4", "--top-k", "2"])
        assert args4.func.__name__ == "cmd_table4"
        assert args4.trace is None


class TestNegativeSearchSettings:
    """A negative ``--top-k`` or ``--max-resolution`` is rejected before
    any search work: exit 2, one line on stderr, no traceback."""

    COMMANDS = {
        "iir-search": ["iir-search", "--period-us", "4.0"],
        "viterbi-search": [
            "viterbi-search", "--ber", "1e-2", "--throughput", "1e6",
        ],
        "table3": ["table3"],
        "table4": ["table4"],
        "recommend": ["recommend", "--metacore", "iir", "--period-us", "4.0"],
        "sweep": ["sweep", "--metacore", "iir", "--periods", "4.0"],
    }

    @pytest.mark.parametrize("flag", ["--top-k", "--max-resolution"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rejected_in_one_line(self, command, flag, capsys, tmp_path):
        argv = [*self.COMMANDS[command], flag, "-1"]
        if command in ("recommend", "sweep"):
            argv += ["--atlas", str(tmp_path / "atlas.jsonl")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "must not be negative (got -1)" in line


class TestKernelAB:
    """The compiled loops against the reference loops, end to end."""

    def test_bench_kernels_quick(self):
        """``bench_kernels.py --quick``: a classic and a multiresolution
        cold evaluation give bit-identical metrics with the compiled
        library loaded and unloaded, and the compiled loops are not
        slower (the script exits non-zero otherwise).
        Without compiled loops there is no A/B: it says so and passes."""
        from repro.viterbi.kernels import native_library

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
             "--quick"],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        if native_library() is None:
            assert "compiled loops unavailable" in proc.stdout
            assert "(bit-identical)" not in proc.stdout
            return
        for workload in ("classic", "multires"):
            assert f"{workload}: reference " in proc.stdout
        assert proc.stdout.count("(bit-identical)") == 2


class TestTracing:
    def test_trace_flag_then_report(self, capsys, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code = main(
            [
                "viterbi-search", "--ber", "5e-2", "--es-n0-db", "4.0",
                "--throughput", "1e6", "--max-resolution", "1",
                "--top-k", "1", "--trace", str(trace_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "cache:" in out
        assert trace_file.exists()

        assert main(["trace-report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "search.region" in out
        assert "ber.measure" in out
        assert "hit rate" in out

    def test_trace_report_missing_file(self, capsys, tmp_path):
        code = main(["trace-report", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


#: Per MetaCore: sweep portfolio flags, its scenario count, the spec
#: flags of one swept scenario, and the command of a warm search.  The
#: Viterbi portfolio is one scenario to keep the run short.
ATLAS_FLOWS = {
    "viterbi": (
        ["--es-n0-db", "0", "--specs", "1e-1:1e6"],
        1,
        ["--es-n0-db", "0", "--ber", "1e-1", "--throughput", "1e6"],
        "viterbi-search",
    ),
    "iir": (["--periods", "2.0", "1.5"], 2, ["--period-us", "2.0"], "iir-search"),
}


class TestAtlasEndToEnd:
    """sweep -> zero-evaluation recommend -> warm search, per MetaCore."""

    @pytest.mark.parametrize("kind", sorted(ATLAS_FLOWS))
    def test_sweep_recommend_warm_search(self, kind, capsys, tmp_path):
        sweep_flags, scenarios, spec_flags, search_command = ATLAS_FLOWS[kind]
        atlas = str(tmp_path / "atlas.jsonl")
        budget = ["--max-resolution", "1", "--top-k", "1"]

        code = main(
            ["sweep", "--metacore", kind, "--atlas", atlas, *budget, *sweep_flags]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"atlas: {scenarios} scenarios" in out
        assert "atlas-warm" in out

        code = main(
            ["recommend", "--metacore", kind, "--atlas", atlas, *budget, *spec_flags]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "source: atlas" in out
        assert "evaluations: 0" in out
        assert "feasible: True" in out

        code = main([search_command, "--atlas", atlas, *budget, *spec_flags])
        out = capsys.readouterr().out
        assert code == 0, out
        replayed = re.search(r"atlas: \d+ seeds / (\d+) replayed", out)
        assert replayed is not None and int(replayed.group(1)) > 0, out


#: ``PYTHONPATH`` for the CLI subprocesses: the tree under test.
SRC = str(Path(repro.__file__).resolve().parents[1])
CLIENT_EVAL = [
    "--metacore", "viterbi", "--ber", "1e-2", "--throughput", "1e6",
    "--k", "3", "--q", "hard",
]


def _cli(*args: str, **kwargs) -> subprocess.Popen:
    """Start ``python -m repro.cli <args>`` on the tree under test."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, **kwargs,
    )


def _processes_mentioning(marker: str):
    """PIDs whose command line contains ``marker`` (forked pool workers
    inherit their server's); None where ``/proc`` does not exist."""
    if not os.path.isdir("/proc"):
        return None
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
            with open(f"/proc/{entry}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue  # exited while we looked
        if marker in cmdline and state != "Z":
            pids.append(int(entry))
    return pids


class TestServeEndToEnd:
    """``metacores serve`` and ``metacores client`` as separate processes."""

    def _serve(self, cache: Path):
        server = _cli("serve", "--port", "0", "--cache", str(cache))
        for line in server.stdout:
            if line.startswith("serving on "):
                return server, line.rsplit(":", 1)[1].strip()
        server.wait(timeout=30)
        pytest.fail(f"server exited ({server.returncode}) before serving")

    def _client(self, port: str, command: str, *args: str):
        return _cli("client", command, "--port", port, *args)

    def _shutdown(self, server: subprocess.Popen, port: str) -> None:
        out, _ = self._client(port, "shutdown").communicate(timeout=60)
        assert "server stopping" in out
        assert server.wait(timeout=60) == 0
        assert "server stopped" in server.stdout.read()

    def test_cold_fill_then_warm_concurrent_clients(self, tmp_path):
        cache = tmp_path / "serve-cache.jsonl"
        servers = []
        try:
            # Cold: one eval fills the persistent cache.
            server, port = self._serve(cache)
            servers.append(server)
            client = self._client(port, "eval", *CLIENT_EVAL)
            out, _ = client.communicate(timeout=120)
            assert client.returncode == 0, out
            assert "area_mm2" in out
            self._shutdown(server, port)
            assert cache.stat().st_size > 0

            # Warm: three concurrent clients, answered from the cache.
            server, port = self._serve(cache)
            servers.append(server)
            clients = [
                self._client(port, "eval", *CLIENT_EVAL) for _ in range(3)
            ]
            outputs = [client.communicate(timeout=120)[0] for client in clients]
            assert all(client.returncode == 0 for client in clients), outputs
            assert len(set(outputs)) == 1 and "area_mm2" in outputs[0]
            status_client = self._client(port, "status")
            status = json.loads(status_client.communicate(timeout=60)[0])
            assert status["persistent_hits"] > 0, status
            assert status["requests"] == 3, status
            self._shutdown(server, port)
        finally:
            for server in servers:
                if server.poll() is None:
                    server.kill()
                    server.wait(timeout=30)
                server.stdout.close()
        # No serve process, nor a pool worker forked from one, survives.
        assert _processes_mentioning(str(cache)) in ([], None)


def _wait_for(predicate, timeout_s: float, what: str):
    """Poll ``predicate`` until it returns something truthy; fail the
    test when ``timeout_s`` runs out first."""
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            pytest.fail(f"gave up after {timeout_s:g} s waiting for {what}")
        time.sleep(0.1)


class TestClusterEndToEnd:
    """Two ``metacores serve`` replicas behind ``metacores cluster``, each
    a separate process on a unix socket, driven through the router with
    :class:`~repro.serve.ServeClient` so every check reads returned
    dicts: one owner per search, a burst that survives SIGKILL of that
    owner, its restart on the same cache file answering the warm search,
    and no process left after shutdown."""

    #: The flags of every request: the job the spec describes is the
    #: one ``metacores client`` would send for them.
    SPEC = [
        "--metacore", "viterbi", "--ber", "5e-2", "--es-n0-db", "4.0",
        "--throughput", "1e6",
    ]
    CONFIG = {"max_resolution": 1, "refine_top_k": 1}

    @staticmethod
    def _pings(socket_path: Path) -> bool:
        from repro.serve import ServeClient, ServeConnectionError

        try:
            with ServeClient(
                unix_path=str(socket_path), timeout_s=5.0, max_retries=0
            ) as client:
                client.ping()
            return True
        except ServeConnectionError:
            return False

    def _start(self, procs, logs: Path, name: str, *args: str):
        """Start ``python -m repro.cli <args>``, output to ``logs/name``."""
        with open(logs / f"{name}.log", "a") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=log, stderr=subprocess.STDOUT,
                env={**os.environ, "PYTHONPATH": SRC},
            )
        procs.append(proc)
        return proc

    def _wait_serving(self, proc, socket_path: Path, logs: Path, name: str):
        def up():
            if proc.poll() is not None:
                pytest.fail(
                    f"{name} exited ({proc.returncode}):\n"
                    + (logs / f"{name}.log").read_text()
                )
            return self._pings(socket_path)

        _wait_for(up, 60, f"{name} on {socket_path}")

    def test_owner_killed_mid_burst_then_warm_restart(self, tmp_path):
        from repro.core.metacore import metacore_definition
        from repro.serve import ServeClient, spec_to_payload

        definition = metacore_definition("viterbi")
        args = build_parser().parse_args(
            ["client", "eval", *self.SPEC, "--k", "3", "--q", "hard"]
        )
        spec = spec_to_payload(definition.spec_from_args(args, None))
        point = definition.point_from_args(args)
        # Unix socket paths are short (about 100 bytes): not in tmp_path.
        sockets = Path(tempfile.mkdtemp(prefix="metacores-"))
        router_sock = sockets / "router.sock"
        replica_socks = [sockets / f"r{i}.sock" for i in range(2)]
        procs = []

        def serve(i: int):
            name = f"r{i}"
            proc = self._start(
                procs, tmp_path, name, "serve",
                "--unix", str(replica_socks[i]), "--node-id", name,
                "--cache", str(tmp_path / f"c{i}.jsonl"), "--workers", "2",
            )
            self._wait_serving(proc, replica_socks[i], tmp_path, name)
            return proc

        try:
            replicas = [serve(0), serve(1)]
            router = self._start(
                procs, tmp_path, "router", "cluster",
                "--unix", str(router_sock),
                *(f"--replica=unix:{path}" for path in replica_socks),
                "--probe-interval-ms", "200", "--eject-after", "2",
            )
            self._wait_serving(router, router_sock, tmp_path, "router")
            client = ServeClient(unix_path=str(router_sock), timeout_s=300.0)

            # Cold search: exactly one replica owns it.
            cold = client.search(spec=spec, config=self.CONFIG)
            assert cold["feasible"] and cold["best_point"] is not None, cold
            status = client.status()
            assert status["router"] is True, status
            assert status["n_replicas"] == 2, status
            owners = [
                row["name"] for row in status["replicas"]
                if (row.get("status") or {}).get("searches", 0) > 0
            ]
            assert len(owners) == 1, status
            owner = int(owners[0].rsplit("-", 1)[1])

            # A 3-eval burst completes although the owner is SIGKILLed
            # while it runs.
            results = [None] * 3

            def burst(i: int) -> None:
                with ServeClient(
                    unix_path=str(router_sock), timeout_s=300.0
                ) as burst_client:
                    results[i] = burst_client.eval(point, spec=spec)

            threads = [
                threading.Thread(target=burst, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            replicas[owner].send_signal(signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive(), "eval burst did not finish"
            assert replicas[owner].wait(timeout=60) == -signal.SIGKILL
            for metrics in results:
                assert metrics is not None and "area_mm2" in metrics, results

            # The owner restarts on its cache file; once the router
            # reports it healthy, the warm search comes back to it and
            # its persistent cache answers.
            replica_socks[owner].unlink(missing_ok=True)
            replicas[owner] = serve(owner)

            def owner_healthy() -> bool:
                rows = client.status()["replicas"]
                return any(
                    row["name"] == owners[0] and row["state"] == "healthy"
                    for row in rows
                )

            _wait_for(owner_healthy, 30, f"{owners[0]} to rejoin")
            warm = client.search(spec=spec, config=self.CONFIG)
            assert warm["best_point"] == cold["best_point"], (cold, warm)
            status = client.status()
            assert status["persistent_hits"] > 0, status
            assert status["cluster"]["cluster.requests"] > 0, status
            client.close()

            # Shutdown: both replicas on request, the router by SIGTERM.
            for path in replica_socks:
                with ServeClient(unix_path=str(path)) as replica_client:
                    replica_client.shutdown()
            router.terminate()
            for proc in procs:
                proc.wait(timeout=60)
            _wait_for(
                lambda: _processes_mentioning(str(sockets)) in ([], None),
                30, "every cluster process to exit",
            )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
            shutil.rmtree(sockets, ignore_errors=True)


class TestSigterm:
    """SIGTERM stops ``metacores serve`` and ``metacores cluster`` as the
    ``shutdown`` operation does: exit status 0, pools closed."""

    def _stop(self, proc: subprocess.Popen, banner: str) -> None:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert banner in out

    def test_serve_closes_its_pool(self):
        from repro.core.metacore import metacore_definition
        from repro.serve import ServeClient, spec_to_payload

        definition = metacore_definition("viterbi")
        args = build_parser().parse_args(["client", "eval", *CLIENT_EVAL])
        spec = spec_to_payload(definition.spec_from_args(args, None))
        point = definition.point_from_args(args)
        sockets = Path(tempfile.mkdtemp(prefix="metacores-"))
        sock = str(sockets / "serve.sock")
        if _processes_mentioning(sock) is None:
            pytest.skip("no /proc to list the pool workers")
        server = _cli("serve", "--workers", "2", "--unix", sock)
        rounds = iter(range(1_000))

        def eval_round():
            # Concurrent evals of new points: one waits for the batch in
            # flight, so a later batch holds two and goes to the pool.
            lengths = 4 + next(rounds)

            def price(k: int) -> None:
                with ServeClient(unix_path=sock, timeout_s=120.0) as client:
                    client.eval(point=dict(point, K=k, L_mult=lengths), spec=spec)

            threads = [
                threading.Thread(target=price, args=(k,)) for k in (3, 4, 5, 6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            return [pid for pid in _processes_mentioning(sock) if pid != server.pid]

        try:
            assert server.stdout.readline().startswith("serving on ")
            workers = _wait_for(eval_round, 60, "the pool to start")
            self._stop(server, "server stopped")
            _wait_for(
                lambda: not set(workers) & set(_processes_mentioning(sock)),
                10, "the pool workers to exit",
            )
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()
            shutil.rmtree(sockets, ignore_errors=True)

    def test_cluster_exits_cleanly(self):
        sockets = Path(tempfile.mkdtemp(prefix="metacores-"))
        router = _cli(
            "cluster", "--unix", str(sockets / "router.sock"),
            f"--replica=unix:{sockets / 'absent.sock'}",
        )
        try:
            assert router.stdout.readline().startswith("routing on ")
            self._stop(router, "router stopped")
        finally:
            if router.poll() is None:
                router.kill()
                router.wait(timeout=30)
            router.stdout.close()
            shutil.rmtree(sockets, ignore_errors=True)


class TestParallelCacheEndToEnd:
    """``viterbi-search --workers 2 --cache``: cold fill, then warm hits."""

    SEARCH = [
        "viterbi-search", "--ber", "5e-2", "--es-n0-db", "4.0",
        "--throughput", "1e6", "--max-resolution", "1", "--top-k", "1",
        "--workers", "2",
    ]

    def _search(self, cache: Path) -> str:
        process = _cli(*self.SEARCH, "--cache", str(cache))
        out, _ = process.communicate(timeout=300)
        assert process.returncode == 0, out
        return out

    def test_cold_then_warm_persistent_cache(self, tmp_path):
        cache = tmp_path / "eval-cache.jsonl"
        cold = self._search(cache)
        assert re.search(r" 0 persistent-hits", cold), cold
        warm = self._search(cache)
        hits = re.search(r" (\d+) persistent-hits", warm)
        assert hits is not None and int(hits.group(1)) > 0, warm
        winners = [
            re.findall(r"^winner:.*$", out, re.MULTILINE)
            for out in (cold, warm)
        ]
        assert winners[0] and winners[0] == winners[1], winners
        # No pool worker outlives its search.
        assert _processes_mentioning(str(cache)) in ([], None)


class TestResilienceEndToEnd:
    """Fault-injection campaign and an interrupted, resumed search."""

    SEARCH = [
        "viterbi-search", "--ber", "5e-2", "--es-n0-db", "4.0",
        "--throughput", "1e6", "--max-resolution", "0", "--top-k", "1",
    ]

    @staticmethod
    def _winner(out: str) -> list:
        return re.findall(r"^winner:.*$", out, re.MULTILINE)

    def test_campaign_out_rerenders_same_report(self, capsys, tmp_path):
        campaign = tmp_path / "camp.json"
        code = main(
            [
                "inject-campaign", "--k", "3", "--q", "hard",
                "--rates", "2e-3", "--targets", "traceback",
                "--snr", "2.0", "--bits", "2048", "--out", str(campaign),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        header = "fault-injection campaign report"
        assert header in out
        assert main(["campaign-report", str(campaign)]) == 0
        rerendered = capsys.readouterr().out
        assert header in rerendered
        assert rerendered.splitlines()[:4] == out.splitlines()[:4]

    def test_interrupted_search_resumes_to_the_same_winner(
        self, capsys, tmp_path
    ):
        checkpoint = tmp_path / "run.ckpt"
        assert main(self.SEARCH) == 0
        uninterrupted = self._winner(capsys.readouterr().out)
        assert uninterrupted

        code = main(
            [*self.SEARCH, "--checkpoint", str(checkpoint), "--max-rounds", "1"]
        )
        out = capsys.readouterr().out
        assert code == 3, out
        assert "rerun with --resume" in out
        assert checkpoint.stat().st_size > 0

        code = main(
            [*self.SEARCH, "--checkpoint", str(checkpoint), "--resume",
             "--resilient"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "(1 restored, " in out
        assert self._winner(out) == uninterrupted

    def test_resilient_without_checkpoint_quarantines(
        self, capsys, monkeypatch
    ):
        from repro.viterbi.metacore import ViterbiMetacoreEvaluator

        assert main(self.SEARCH) == 0
        uninterrupted = self._winner(capsys.readouterr().out)
        evaluate = ViterbiMetacoreEvaluator.evaluate

        def poisoned(self, point, fidelity):
            if (point["K"], point["L_mult"], point["Q"]) == (7, 7, "hard"):
                raise RuntimeError("simulator crashed")
            return evaluate(self, point, fidelity)

        monkeypatch.setattr(ViterbiMetacoreEvaluator, "evaluate", poisoned)
        with pytest.raises(RuntimeError, match="simulator crashed"):
            main(self.SEARCH)
        capsys.readouterr()
        assert main([*self.SEARCH, "--resilient"]) == 0
        out = capsys.readouterr().out
        assert "quarantined points (1):" in out
        assert "K=7, L_mult=7" in out
        assert "session:" not in out
        assert self._winner(out) == uninterrupted

    @pytest.mark.parametrize(
        "flags", [["--resume"], ["--max-rounds", "1"]], ids=["resume", "max-rounds"]
    )
    def test_checkpoint_flags_need_a_checkpoint(self, capsys, flags):
        assert main([*self.SEARCH, *flags]) == 2
        assert "need --checkpoint" in capsys.readouterr().err


class TestClosedPipe:
    """A reader that stops early (``metacores ... | head -1``) ends the
    command quietly: no traceback, and its result file is written."""

    CAMPAIGN = [
        "inject-campaign", "--k", "3", "--q", "hard", "--rates", "2e-3",
        "--targets", "traceback", "--snr", "2.0", "--bits", "2048",
    ]

    @staticmethod
    def _start(out: Path, unbuffered: bool) -> subprocess.Popen:
        env = {**os.environ, "PYTHONPATH": SRC}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *TestClosedPipe.CAMPAIGN,
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    @staticmethod
    def _assert_quiet(stderr: bytes, out: Path) -> None:
        text = stderr.decode(errors="replace")
        assert "Traceback" not in text and "BrokenPipe" not in text, text
        assert CampaignResult.load(out).cells

    @pytest.mark.skipif(shutil.which("head") is None, reason="no head(1)")
    def test_head_one(self, tmp_path):
        """Whether ``head`` exits before the command's next write is a
        race, so the command may also finish normally."""
        out = tmp_path / "camp.json"
        cli = self._start(out, unbuffered=True)
        head = subprocess.run(
            ["head", "-1"], stdin=cli.stdout, stdout=subprocess.PIPE,
            timeout=300,
        )
        cli.stdout.close()
        _, stderr = cli.communicate(timeout=300)
        assert head.stdout.decode().startswith("=" * 20)
        assert cli.returncode in (0, EXIT_BROKEN_PIPE)
        self._assert_quiet(stderr, out)

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_reader_gone_before_any_output(self, tmp_path, unbuffered):
        """The first write, by ``print`` or by the final flush, fails."""
        out = tmp_path / "camp.json"
        cli = self._start(out, unbuffered)
        cli.stdout.close()
        _, stderr = cli.communicate(timeout=300)
        assert cli.returncode == EXIT_BROKEN_PIPE
        self._assert_quiet(stderr, out)
