"""Socket front-end of the evaluation service.

Speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over a local TCP socket (default) or a unix
domain socket.  Each connection may pipeline requests: every incoming
message is handled as its own task, so a slow search does not block a
status probe on the same connection, and responses may arrive out of
request order (clients correlate by ``id``).

Two ways to run it:

- :func:`serve_forever` — the CLI entry point; owns the loop, serves
  until a ``shutdown`` request (or cancellation) arrives.
- :class:`ServeHandle` — runs loop + service + server on a background
  thread (the :class:`LoopThreadHandle` life cycle, shared with the
  cluster router's handle); the in-process path used by the MetaCore
  facades' ``serve()`` hooks, the test suite, and the benchmark
  harness.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Any, Coroutine, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    request_field,
)
from repro.serve.service import (
    EvaluationService,
    ServiceConfig,
    ServiceError,
)


class ServeServer:
    """Accept connections and dispatch protocol messages to a service."""

    def __init__(
        self,
        service: EvaluationService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        allow_shutdown: bool = True,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.allow_shutdown = allow_shutdown
        self.shutdown_requested = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._connections: Set["asyncio.Task[None]"] = set()
        self._writers: Set[asyncio.StreamWriter] = set()

    @property
    def address(self) -> str:
        """Human-readable bound address (for log lines and clients)."""
        if self.unix_path:
            return self.unix_path
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        if self.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            # Port 0 means OS-assigned: expose the real one.
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        # Close live connection transports so their handlers exit via
        # EOF.  Cancelling the handler tasks instead would trip
        # asyncio's StreamReaderProtocol done-callback (it calls
        # task.exception() on the cancelled task) on 3.9-3.11.
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        pending = list(self._tasks) + list(self._connections)
        if pending:
            _, stragglers = await asyncio.wait(pending, timeout=5.0)
            for task in stragglers:
                task.cancel()
            for task in stragglers:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._tasks.clear()
        self._connections.clear()
        self._writers.clear()

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        connection_tasks: Set["asyncio.Task[None]"] = set()
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
            me.add_done_callback(self._connections.discard)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle_message(line, writer, write_lock)
                )
                connection_tasks.add(task)
                self._tasks.add(task)
                task.add_done_callback(connection_tasks.discard)
                task.add_done_callback(self._tasks.discard)
        finally:
            # Abandon this connection's in-flight work: nobody is left
            # to read the answers.
            for task in list(connection_tasks):
                task.cancel()
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass  # RuntimeError: loop already closed on shutdown

    async def _handle_message(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        try:
            message = decode_message(line)
            request_id = message.get("id")
            response = await self._dispatch(message)
        except ProtocolError as exc:
            response = error_response(request_id, "protocol", str(exc))
        except ConfigurationError as exc:
            response = error_response(request_id, "bad_request", str(exc))
        except ServiceError as exc:
            response = error_response(request_id, exc.code, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # keep the server alive on any bug
            response = error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        async with write_lock:
            try:
                writer.write(encode_message(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the work is already accounted

    def _session(self, message: Dict[str, Any]):
        """The service session a request's ``spec`` or ``session`` names."""
        return self.service.resolve_session(
            message.get("spec"), request_field(message, "session")
        )

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        request_id = message.get("id")
        if op == "ping":
            return ok_response(
                request_id, {"pong": True, "protocol": PROTOCOL_VERSION}
            )
        if op == "status":
            return ok_response(request_id, self.service.status())
        if op == "eval":
            point = request_field(message, "point")
            fidelity = request_field(message, "fidelity", 0)
            timeout = request_field(
                message, "timeout_s", EvaluationService._UNSET
            )
            session = self._session(message)
            metrics = await self.service.submit_point(
                session, dict(point or {}), fidelity, timeout_s=timeout
            )
            return ok_response(
                request_id,
                {"metrics": dict(metrics), "session": session.name},
            )
        if op == "search":
            fixed = request_field(message, "fixed")
            result = await self.service.submit_search(
                self._session(message),
                config_fields=message.get("config"),
                fixed=fixed,
            )
            return ok_response(request_id, result)
        if op == "recommend":
            constraints = request_field(message, "constraints")
            fixed = request_field(message, "fixed")
            result = await self.service.submit_recommend(
                self._session(message),
                constraints=constraints,
                config_fields=message.get("config"),
                fixed=fixed,
            )
            return ok_response(request_id, result)
        if op == "drain":
            if not self.allow_shutdown:
                return error_response(
                    request_id, "forbidden", "remote drain is disabled"
                )
            return ok_response(request_id, self.service.drain())
        if op == "shutdown":
            if not self.allow_shutdown:
                return error_response(
                    request_id, "forbidden", "remote shutdown is disabled"
                )
            self.shutdown_requested.set()
            return ok_response(request_id, {"stopping": True})
        raise ConfigurationError(f"unknown operation {op!r}")


async def run_until_shutdown(backend, server: ServeServer, ready_callback=None) -> None:
    """Start ``backend`` and ``server``; stop both once shutdown is asked.

    The one life cycle of a socket front-end, shared by
    :func:`serve_forever` (an :class:`EvaluationService` backend) and
    :func:`~repro.cluster.router.route_forever` (a cluster router).
    On the main thread SIGTERM asks for shutdown as the ``shutdown``
    operation does, so the backend's pools are closed before exit; the
    SIGTERM handler in place before is put back afterwards.
    """
    loop = asyncio.get_running_loop()
    on_sigterm = threading.current_thread() is threading.main_thread()
    previous = signal.getsignal(signal.SIGTERM) if on_sigterm else None
    await backend.start()
    try:
        if on_sigterm:
            loop.add_signal_handler(signal.SIGTERM, server.shutdown_requested.set)
        await server.start()
        if ready_callback is not None:
            ready_callback(server)
        await server.shutdown_requested.wait()
    finally:
        await server.stop()
        await backend.stop()
        if on_sigterm:
            loop.remove_signal_handler(signal.SIGTERM)
            if previous is not None:  # None: not installed from Python
                signal.signal(signal.SIGTERM, previous)


async def serve_forever(
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
    ready_callback=None,
    service: Optional[EvaluationService] = None,
) -> None:
    """Run service + server until a ``shutdown`` request arrives."""
    service = service or EvaluationService(config)
    server = ServeServer(service, host=host, port=port, unix_path=unix_path)
    await run_until_shutdown(service, server, ready_callback)


class LoopThreadHandle:
    """A socket front-end's event loop on a daemon thread.

    The blocking-world adapter: ``start()`` returns once the socket is
    bound (with the OS-assigned port resolved), ``stop()`` joins the
    thread after an orderly shutdown; usable as a context manager.
    Subclasses name the coroutine that runs on the loop (``_serve``).
    """

    _thread_name = "metacores-serve"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServeServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _serve(self, ready_callback) -> Coroutine[Any, Any, None]:
        raise NotImplementedError

    # -- life cycle ------------------------------------------------------

    def start(self):
        if self._thread is not None:
            raise RuntimeError("handle already started")
        self._thread = threading.Thread(
            target=self._run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        def on_ready(server: ServeServer) -> None:
            self._server = server
            self.port = server.port
            self._ready.set()

        try:
            loop.run_until_complete(self._serve(on_ready))
        except BaseException as exc:  # surface bind errors to start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
        finally:
            loop.close()

    def stop(self) -> None:
        """Request shutdown and join the loop thread (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop, server = self._loop, self._server
        if loop is not None and server is not None and loop.is_running():
            loop.call_soon_threadsafe(server.shutdown_requested.set)
        thread.join(timeout=30.0)

    def __enter__(self):
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- conveniences ----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def client(self, timeout_s: float = 120.0):
        """A connected synchronous client for this server."""
        from repro.serve.client import ServeClient

        return ServeClient(
            host=self.host,
            port=self.port,
            unix_path=self.unix_path,
            timeout_s=timeout_s,
        )

    def submit_async(self, coroutine):
        """Schedule a coroutine on the loop; returns a concurrent future."""
        assert self._loop is not None, "handle not started"
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def submit(self, coroutine) -> Any:
        """Run a coroutine on the loop from the caller's thread (blocking)."""
        return self.submit_async(coroutine).result()


class ServeHandle(LoopThreadHandle):
    """Service + socket server on a background thread.

    Usable as a context manager::

        with ViterbiMetaCore(spec).serve() as handle:
            with handle.client() as client:
                client.eval(...)
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        super().__init__(host=host, port=port, unix_path=unix_path)
        self.service = EvaluationService(config)

    def _serve(self, ready_callback) -> Coroutine[Any, Any, None]:
        return serve_forever(
            host=self.host,
            port=self.port,
            unix_path=self.unix_path,
            ready_callback=ready_callback,
            service=self.service,
        )
