"""Counters, gauges, and fixed-bucket histograms.

A thin, zero-dependency metrics layer in the spirit of the Prometheus
client: named instruments live in a :class:`MetricsRegistry`, and a
process-wide default registry (:func:`get_registry`) collects the
library's own instrumentation — cache hit/miss counts, per-fidelity
evaluation latencies, frames simulated, schedules computed.

Instruments are cheap (one lock acquisition per update) so they stay on
even when tracing is off; ``snapshot()`` turns the registry into plain
dicts for export or assertions, and ``reset()`` clears it between runs.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can move both ways (e.g. current region depth)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self._value}


#: Default latency buckets (seconds): 100 us .. 30 s, roughly 1-3-10.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0
)


class Histogram:
    """Fixed-bucket histogram with cumulative-style bucket semantics.

    ``buckets`` are the *upper* edges; an observation lands in the first
    bucket whose edge is >= the value (edges are inclusive, matching
    Prometheus ``le`` semantics).  Values above the last edge land in
    the implicit overflow bucket.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if len(set(edges)) != len(edges):
            raise ValueError("histogram bucket edges must be distinct")
        self.name = name
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # +1 overflow
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Returns the upper edge of the bucket containing the quantile
        rank — an upper bound, like Prometheus ``histogram_quantile``
        without interpolation.  Observations in the overflow bucket
        answer with the exact observed maximum; an empty histogram
        answers 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for edge, count in zip(self.buckets, self._counts):
                cumulative += count
                if cumulative >= rank:
                    return edge
            return self._max if self._max is not None else self.buckets[-1]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
            "min": self._min,
            "max": self._max,
        }


class MetricsRegistry:
    """Named instruments, created on first use and process-visible."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if absent."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if absent."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """The histogram called ``name``, created with ``buckets`` if absent."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, buckets)
                self._instruments[name] = instrument
            elif not isinstance(instrument, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def _get_or_create(self, name: str, cls) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def get(self, name: str) -> Optional[Any]:
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as plain dicts, keyed by name."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def reset(self) -> None:
        """Drop every instrument (fresh counts on the next run)."""
        with self._lock:
            self._instruments.clear()


#: Process-wide default registry all library instrumentation uses.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _DEFAULT_REGISTRY
