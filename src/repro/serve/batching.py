"""Dynamic micro-batching of compatible evaluation requests.

Point requests from many concurrent clients are independent, and the
evaluation layer is batch-first (``evaluate_many`` fans a batch out
over the process pool), so the service coalesces *compatible* requests
— same evaluator fingerprint, same fidelity — into micro-batches:

- a batch is the first waiting request plus whatever else is already
  queued under its key, up to ``max_batch`` entries; no timer holds a
  request back waiting for company;
- batches of the same key run one at a time, so requests that arrive
  while a batch runs pile up and merge into the next one (classic
  dynamic batching), while batches of different keys run concurrently.

Determinism is unaffected: every evaluator derives its stochastic
streams from (seed, point, fidelity), so how requests are grouped into
batches — or which batch runs first — cannot change any result.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Hashable, List


@dataclass
class PendingRequest:
    """One admitted point request waiting for its micro-batch."""

    point: Dict[str, Any]
    fidelity: int
    future: "asyncio.Future[Dict[str, float]]"
    #: Opaque per-request context (the service stores its session here).
    context: Any = None
    enqueued_s: float = field(default_factory=time.monotonic)


#: Runs one closed batch; must resolve every request's future.
BatchRunner = Callable[[Hashable, List[PendingRequest]], Awaitable[None]]


class MicroBatcher:
    """Group compatible requests into bounded micro-batches.

    One collector task per batch key, started lazily on the key's first
    request and kept until :meth:`close`.  The collector is the only
    consumer of its key's queue, so batch assembly needs no locking.
    """

    def __init__(self, run_batch: BatchRunner, max_batch: int = 8) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.run_batch = run_batch
        self.max_batch = int(max_batch)
        self._queues: Dict[Hashable, "asyncio.Queue[PendingRequest]"] = {}
        self._collectors: Dict[Hashable, "asyncio.Task[None]"] = {}
        self._closed = False

    def submit(self, key: Hashable, request: PendingRequest) -> None:
        """Enqueue one request under its compatibility key."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        queue = self._queues.get(key)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[key] = queue
            self._collectors[key] = asyncio.ensure_future(
                self._collect(key, queue)
            )
        queue.put_nowait(request)

    async def _collect(
        self, key: Hashable, queue: "asyncio.Queue[PendingRequest]"
    ) -> None:
        """Assemble and run batches for one key, forever."""
        while True:
            batch: List[PendingRequest] = []
            try:
                batch.append(await queue.get())
                while len(batch) < self.max_batch and not queue.empty():
                    batch.append(queue.get_nowait())
                # Sequential per key: requests arriving while this
                # batch evaluates pile up for the next (larger) one.
                await self.run_batch(key, batch)
            except asyncio.CancelledError:
                # close() cancelled us mid-assembly: requests already
                # pulled off the queue live only in `batch` — fail
                # them or their waiters hang forever.  (run_batch's
                # own cancel handler may have failed them already;
                # the done-check makes this idempotent.)
                error = RuntimeError("service shut down")
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(error)
                raise

    async def close(self) -> None:
        """Cancel collectors and fail any not-yet-batched request."""
        self._closed = True
        for task in self._collectors.values():
            task.cancel()
        for task in self._collectors.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for queue in self._queues.values():
            while not queue.empty():
                request = queue.get_nowait()
                if not request.future.done():
                    request.future.set_exception(
                        RuntimeError("service shut down")
                    )
        self._queues.clear()
        self._collectors.clear()
