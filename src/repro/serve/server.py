"""Socket front-end of the evaluation service and the cluster router.

Speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over a local TCP socket (default) or a unix
domain socket.  Each connection may pipeline requests: every incoming
message is handled as its own task, so a slow search does not block a
status probe on the same connection, and responses may arrive out of
request order (clients correlate by ``id``).

The server answers ``shutdown`` itself and hands every other message to
its *backend*: any object with ``start()``, ``stop()`` and
``async dispatch(message) -> reply``.  An
:class:`~repro.serve.service.EvaluationService` is one backend, a
:class:`~repro.cluster.router.ClusterRouter` the other.

Two ways to run it:

- :func:`serve_forever` — owns the life cycle: builds the backend on
  the running loop, serves until a ``shutdown`` request (SIGTERM on the
  main thread, or cancellation) arrives;
- :class:`LoopThreadHandle` — the same on a background thread; its
  :class:`ServeHandle` is the in-process path used by the MetaCore
  facades' ``serve()`` hooks, the test suite, and the benchmark
  harness.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Any, Callable, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from repro.serve.service import (
    EvaluationService,
    ServiceConfig,
    ServiceError,
)


class ServeServer:
    """Accept connections; answer ``shutdown``, hand the rest to a backend."""

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.unix_path = unix_path
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
            if message.get("op") == "shutdown":
                self.shutdown_requested.set()
                response = ok_response(request_id, {"stopping": True})
            else:
                response = await self.backend.dispatch(message)
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


async def serve_forever(
    make_backend: Callable[[], Any],
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
    ready_callback=None,
) -> None:
    """Serve ``make_backend()`` on a socket until shutdown is asked.

    The one life cycle of the socket front-end, whatever its backend.
    The backend is built here, on the running loop: a router's replica
    connections create asyncio locks, which bind to the current loop on
    Python 3.9.  On the main thread SIGTERM asks for shutdown as the
    ``shutdown`` operation does, so the backend's pools are closed
    before exit; the SIGTERM handler in place before is put back
    afterwards.
    """
    backend = make_backend()
    server = ServeServer(backend, host=host, port=port, unix_path=unix_path)
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


class LoopThreadHandle:
    """:func:`serve_forever` on a daemon thread.

    The blocking-world adapter: ``start()`` returns once the socket is
    bound (with the OS-assigned port resolved), ``stop()`` joins the
    thread after an orderly shutdown; usable as a context manager.
    ``make_backend`` is called on the handle's loop; the backend it
    built is ``backend`` once started.
    """

    _thread_name = "metacores-serve"

    def __init__(
        self,
        make_backend: Callable[[], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        self._make_backend = make_backend
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.backend: Any = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServeServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

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
            self.backend = server.backend
            self.port = server.port
            self._ready.set()

        try:
            loop.run_until_complete(
                serve_forever(
                    self._make_backend,
                    host=self.host,
                    port=self.port,
                    unix_path=self.unix_path,
                    ready_callback=on_ready,
                )
            )
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
        service = EvaluationService(config)
        super().__init__(
            lambda: service, host=host, port=port, unix_path=unix_path
        )
        self.service = service
