"""Synchronous clients of the evaluation service.

:class:`ServeClient` speaks the newline-delimited JSON protocol over a
TCP or unix socket; one instance serializes its own requests (a lock
around each call), so concurrent load is generated with one client per
thread — which is also how real traffic arrives.

Errors come back typed: a failed request raises
:class:`ServeRequestError` carrying the server's error ``code``
(``overloaded``, ``timeout``, ``bad_request``, ...), so callers can
apply backpressure-aware retry policies.

The client applies one such policy itself: on **connection loss** it
reconnects and resends, and on an **``overloaded`` admission
rejection** it backs off and retries, both with capped exponential
backoff plus jitter (``max_retries`` attempts beyond the first; set it
to 0 to surface every failure immediately, the pre-reconnect
behavior).  Only idempotent operations are resent after a connection
loss — every protocol op except ``shutdown`` is deterministic, so a
duplicate delivery cannot change any result.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from typing import Any, Dict, Optional

from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
)


class ServeRequestError(RuntimeError):
    """The server answered a request with an error response."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServeConnectionError(ConnectionError):
    """The transport failed (server gone, connection dropped)."""


class ServeClient:
    """Blocking client for one server connection (thread-safe, serial).

    ``max_retries`` bounds the reconnect/backoff policy described in
    the module docstring; ``backoff_s``/``backoff_max_s`` shape the
    capped exponential delay and ``jitter`` adds a uniform random
    fraction on top so a thundering herd of rejected clients does not
    re-arrive in lockstep.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        timeout_s: float = 120.0,
        max_retries: int = 3,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter: float = 0.25,
    ) -> None:
        if not unix_path and port is None:
            raise ValueError("give a port (or a unix_path)")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.timeout_s = timeout_s
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.backoff_max_s = max(self.backoff_s, float(backoff_max_s))
        self.jitter = max(0.0, float(jitter))
        #: Transport reconnects and backed-off request retries performed
        #: over this client's lifetime (observability for tests/tools).
        self.n_reconnects = 0
        self.n_retries = 0
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._rng = random.Random()
        self._connect()

    # -- plumbing --------------------------------------------------------

    def _connect(self) -> None:
        """(Re)open the transport; raises ServeConnectionError."""
        self._teardown()
        try:
            if self.unix_path:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(self.timeout_s)
                    sock.connect(self.unix_path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
        except OSError as exc:
            raise ServeConnectionError(
                f"cannot connect to server: {exc}"
            ) from exc
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _delay(self, attempt: int) -> float:
        """Capped exponential backoff with uniform jitter on top."""
        base = min(self.backoff_max_s, self.backoff_s * (2 ** attempt))
        return base * (1.0 + self.jitter * self._rng.random())

    def _exchange(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip on the current transport."""
        if self._file is None:
            self._connect()
        try:
            self._file.write(encode_message(request))
            self._file.flush()
            line = self._file.readline()
        except (OSError, ValueError) as exc:
            raise ServeConnectionError(
                f"connection to server lost: {exc}"
            ) from exc
        if not line:
            raise ServeConnectionError("server closed the connection")
        try:
            return decode_message(line)
        except ProtocolError as exc:
            raise ServeConnectionError(str(exc)) from exc

    def _call(
        self, op: str, _retryable: bool = True, **fields: Any
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {"id": next(self._ids), "op": op}
        request.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        retries = self.max_retries if _retryable else 0
        with self._lock:
            attempt = 0
            while True:
                try:
                    response = self._exchange(request)
                except ServeConnectionError:
                    self._teardown()
                    if attempt >= retries:
                        raise
                    time.sleep(self._delay(attempt))
                    try:
                        self._connect()
                    except ServeConnectionError:
                        attempt += 1
                        self.n_retries += 1
                        continue
                    self.n_reconnects += 1
                    attempt += 1
                    self.n_retries += 1
                    continue
                if response.get("ok"):
                    return response.get("result") or {}
                error = response.get("error") or {}
                code = str(error.get("code", "error"))
                if code == "overloaded" and attempt < retries:
                    time.sleep(self._delay(attempt))
                    attempt += 1
                    self.n_retries += 1
                    continue
                raise ServeRequestError(
                    code, str(error.get("message", "request failed"))
                )

    # -- operations ------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._call("ping")

    def status(self) -> Dict[str, Any]:
        return self._call("status")

    def eval(
        self,
        point: Dict[str, Any],
        fidelity: int = 0,
        spec: Optional[Dict[str, Any]] = None,
        session: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, float]:
        """Price one design point; returns its metrics record."""
        result = self._call(
            "eval",
            spec=spec,
            session=session,
            point=dict(point),
            fidelity=int(fidelity),
            timeout_s=timeout_s,
        )
        return dict(result.get("metrics") or {})

    def search(
        self,
        spec: Optional[Dict[str, Any]] = None,
        session: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        fixed: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Run a full multiresolution search for a specification."""
        return self._call(
            "search", spec=spec, session=session, config=config, fixed=fixed
        )

    def recommend(
        self,
        spec: Optional[Dict[str, Any]] = None,
        session: Optional[str] = None,
        constraints: Optional[Dict[str, Any]] = None,
        config: Optional[Dict[str, Any]] = None,
        fixed: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Query the server's design atlas for a satisfying design.

        A library hit answers with ``n_evaluations == 0``; a miss runs
        a warm-started search server-side and answers from its result.
        """
        return self._call(
            "recommend",
            spec=spec,
            session=session,
            constraints=constraints,
            config=config,
            fixed=fixed,
        )

    def drain(self) -> Dict[str, Any]:
        """Ask the server to stop admitting new work (keep running)."""
        return self._call("drain")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to exit cleanly.

        Not resent after a connection loss: a duplicate delivery is
        harmless but an ambiguous half-delivered one should surface.
        """
        return self._call("shutdown", _retryable=False)

    # -- life cycle ------------------------------------------------------

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
