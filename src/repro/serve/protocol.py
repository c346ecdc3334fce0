"""Wire protocol of the evaluation service.

Newline-delimited JSON: every message is one JSON object on one line,
UTF-8 encoded.  Requests carry a client-chosen ``id`` echoed back in
the response, an ``op``, and op-specific fields; responses are either
``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.

Operations
----------

``ping``
    Liveness probe; answers ``{"pong": true, "protocol": 1}``.
``status``
    Service counters: queue depth, sessions, batch/latency statistics.
``eval``
    Price one design point: ``metacore``/``spec`` (or a pre-registered
    ``session`` name), ``point``, ``fidelity``, optional ``timeout_s``.
``search``
    Run a full multiresolution search for a spec: ``metacore``/``spec``
    plus optional ``config`` (SearchConfig fields) and ``fixed``
    (pinned design-space parameters).
``recommend``
    Answer a constraint query from the server's design atlas:
    ``metacore``/``spec`` (or ``session``) plus optional
    ``constraints`` (metric -> upper bound), ``config``, ``fixed``.
    A library hit answers with zero evaluations; a miss falls back to
    a warm-started search whose log grows the atlas.
``drain``
    Stop admitting new work while in-flight work finishes; a cluster
    router treats a draining replica as a failover target only.
``shutdown``
    Ask the server to stop accepting work and exit cleanly.

Every request field has one type (:func:`request_field`); a field of
the wrong type answers ``bad_request``.

Specifications travel as plain-dict payloads (:func:`spec_to_payload` /
:func:`spec_from_payload`) so the same request can be issued from any
language; metric floats round-trip exactly (JSON ``repr`` shortest
round-trip), which the bit-identical conformance suite relies on.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from typing import Any, Callable, Dict, Tuple

from repro.core.metacore import definition_for_spec, metacore_definition
from repro.core.search import SearchConfig
from repro.core.strategies import validate_strategy
from repro.errors import ConfigurationError

#: Bumped on incompatible message-shape changes.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded message; guards the server against a
#: runaway (or hostile) peer streaming an unbounded line.
MAX_MESSAGE_BYTES = 4 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed or oversized wire message."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a UTF-8 JSON line (trailing newline included)."""
    data = json.dumps(message, separators=(",", ":"), sort_keys=True)
    encoded = data.encode("utf-8") + b"\n"
    if len(encoded) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(encoded)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    return encoded


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError("message exceeds the size limit")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, code: str, message: str
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# ---------------------------------------------------------------------------
# Specification payloads
# ---------------------------------------------------------------------------


def spec_to_payload(spec: object) -> Dict[str, Any]:
    """Serialize a registered MetaCore specification into a plain dict."""
    definition = definition_for_spec(spec)
    return {"kind": definition.kind, **definition.encode(spec)}


def spec_from_payload(payload: Dict[str, Any]) -> object:
    """Reconstruct a specification from a wire payload.

    Dispatches on the payload's ``kind`` through the MetaCore registry.
    A malformed payload (missing field, short pair, non-numeric value)
    raises :class:`ConfigurationError`, which the server answers as
    ``bad_request``.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("spec payload must be an object")
    definition = metacore_definition(payload.get("kind"))
    try:
        return definition.decode(payload)
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed {definition.kind} spec payload: "
            f"{type(exc).__name__}: {exc}"
        ) from None


def search_config_from_payload(payload: Any) -> SearchConfig:
    """The :class:`SearchConfig` a request's ``config`` field describes.

    ``None`` means the defaults.  A non-object payload, an unknown field
    name, a value whose type is not its field default's type (``bool``
    and ``int`` do not stand in for each other) or an unknown strategy
    raises :class:`ConfigurationError`, which the server answers as
    ``bad_request``.
    """
    if payload is None:
        return SearchConfig()
    if not isinstance(payload, dict):
        raise ConfigurationError("search config must be an object")
    types = {f.name: type(f.default) for f in fields(SearchConfig)}
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise ConfigurationError(
            f"unknown search config field(s): {', '.join(unknown)}"
        )
    for name, value in payload.items():
        if type(value) is not types[name]:
            raise ConfigurationError(
                f"search config field {name!r} must be "
                f"{types[name].__name__}, not {type(value).__name__}"
            )
    config = SearchConfig(**payload)
    validate_strategy(config.strategy)
    return config


def _is_number(value: Any) -> bool:
    """A finite JSON number (a bool is not a number)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (str, bool)) or _is_number(value)


def _object_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: value is None or (
        isinstance(value, dict) and all(map(check, value.values()))
    )


#: Request field -> (type check, what the check accepts).
REQUEST_FIELDS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "session": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "point": (_object_of(_is_scalar), "an object of scalars or null"),
    "fidelity": (lambda v: type(v) is int, "an integer"),
    "timeout_s": (
        lambda v: v is None or (_is_number(v) and v > 0),
        "a positive number or null",
    ),
    "fixed": (_object_of(_is_scalar), "an object of scalars or null"),
    "constraints": (_object_of(_is_number), "an object of numbers or null"),
}


def request_field(message: Dict[str, Any], name: str, default: Any = None) -> Any:
    """The ``name`` field of a request, type-checked (``default`` when absent).

    A value that fails its :data:`REQUEST_FIELDS` check raises
    :class:`ConfigurationError`, which the server answers as
    ``bad_request``.  Numbers are finite; a bool is neither a number nor
    the integer ``fidelity``.
    """
    if name not in message:
        return default
    check, expected = REQUEST_FIELDS[name]
    if not check(message[name]):
        raise ConfigurationError(f"request field {name!r} must be {expected}")
    return message[name]
