"""Async batched evaluation service (the traffic-serving layer).

The reproduction's entry points were one-shot CLI processes; this
package turns the cost-evaluation engine into a long-running service
with concurrent clients, dynamic micro-batching, shared caches, and
backpressure — the workload shape of design-space exploration at scale
(and of inference serving generally).  See ``docs/serving.md``.

- :mod:`repro.serve.protocol` — newline-delimited JSON wire format and
  spec payload (de)serialization;
- :mod:`repro.serve.batching` — dynamic micro-batcher (bounded batch
  size, per-key sequencing, no timer);
- :mod:`repro.serve.service` — the asyncio service core: sessions,
  admission control, timeouts, search execution, status;
- :mod:`repro.serve.server` — socket front-end plus the background-
  thread :class:`ServeHandle` the facades' ``serve()`` hooks return;
- :mod:`repro.serve.client` — synchronous socket clients.
"""

from repro.serve.batching import MicroBatcher, PendingRequest
from repro.serve.client import (
    ServeClient,
    ServeConnectionError,
    ServeRequestError,
)
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    spec_from_payload,
    spec_to_payload,
)
from repro.serve.server import ServeHandle, ServeServer, serve_forever
from repro.serve.service import (
    EvaluationService,
    EvaluatorSession,
    EvaluationFailedError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceConfig,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadedError,
    evaluator_for_payload,
    fingerprint_for_payload,
)

__all__ = [
    "MicroBatcher",
    "PendingRequest",
    "ServeClient",
    "ServeConnectionError",
    "ServeRequestError",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "spec_from_payload",
    "spec_to_payload",
    "ServeHandle",
    "ServeServer",
    "serve_forever",
    "EvaluationService",
    "EvaluatorSession",
    "EvaluationFailedError",
    "RequestTimeoutError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceDrainingError",
    "ServiceError",
    "ServiceOverloadedError",
    "evaluator_for_payload",
    "fingerprint_for_payload",
]
