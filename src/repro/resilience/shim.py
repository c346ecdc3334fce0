"""Fault-tolerant evaluator shim: retry, backoff, quarantine.

A long search prices thousands of points through worker processes; one
*poisoned* point (a parameter combination that crashes or hangs the
evaluator) must not take down the whole ``evaluate_many`` batch — nor
should the search re-pay a known-bad point every round.  The
:class:`ResilientEvaluator` wraps any evaluator with:

- **batch survival** — when a batch call raises, the shim falls back to
  pricing the batch one point at a time, so only the poisoned point is
  affected;
- **bounded retry with backoff** — each failing point is retried up to
  ``max_retries`` times with exponential backoff (transient failures
  such as a briefly broken pool heal themselves);
- **quarantine** — a point that exhausts its retries is quarantined:
  it is answered with :data:`DEFAULT_FAILURE_METRICS` (infinitely bad,
  so the search discards it) and never sent to the inner evaluator
  again.  Caches keep that answer for the run but never persist it (see
  :data:`~repro.core.evaluation.FAILED_METRIC`).

Retries and quarantines are visible in the observability layer
(``resilience.retry``/``resilience.quarantine`` events and matching
counters), and therefore in the ``trace-report`` summary.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evalcache import evaluator_fingerprint
from repro.core.evaluation import (
    FAILED_METRIC,
    Evaluator,
    Metrics,
    TimedEvaluation,
    evaluate_many_timed,
)
from repro.core.parameters import Point, frozen_point
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

#: Metrics answered for quarantined points: infeasible on every axis the
#: goals rank by, plus an explicit marker reports can filter on.
DEFAULT_FAILURE_METRICS: Dict[str, float] = {
    "area_mm2": math.inf,
    "ber_violation": math.inf,
    "spec_violation": math.inf,
    FAILED_METRIC: 1.0,
}


def _failed() -> TimedEvaluation:
    """The answer to a quarantined point."""
    return TimedEvaluation(metrics=dict(DEFAULT_FAILURE_METRICS), elapsed_s=0.0)


class ResilientEvaluator:
    """Wrap an evaluator so point failures degrade, not crash, a search.

    Parameters
    ----------
    inner:
        The evaluator to protect.
    max_retries:
        Additional attempts after the first failure of a point (per
        request).  ``0`` quarantines on the first failure.
    backoff_s:
        Sleep before retry ``i`` is ``backoff_s * 2**i`` (0 disables —
        useful in tests).
    """

    def __init__(
        self,
        inner: Evaluator,
        max_retries: int = 2,
        backoff_s: float = 0.1,
    ) -> None:
        self.inner = inner
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = max(0.0, float(backoff_s))
        #: frozen point -> human-readable reason it was quarantined.
        self.quarantine: Dict[Tuple, str] = {}
        self.n_retries = 0

    # -- evaluator protocol ---------------------------------------------

    @property
    def max_fidelity(self) -> int:
        return self.inner.max_fidelity

    def fingerprint(self) -> str:
        """Delegate: resilience never changes what a point is worth."""
        return evaluator_fingerprint(self.inner)

    def evaluate(self, point: Point, fidelity: int) -> Metrics:
        return self._evaluate_one(point, fidelity).metrics

    def evaluate_many(self, points: Sequence[Point], fidelity: int) -> List[Metrics]:
        return [t.metrics for t in self.evaluate_many_timed(points, fidelity)]

    def evaluate_many_timed(
        self, points: Sequence[Point], fidelity: int
    ) -> List[TimedEvaluation]:
        """Price a batch; quarantined points are answered locally.

        The healthy points go to the inner evaluator as one batch (so a
        parallel inner still fans out).  If that batch call itself
        raises, the shim degrades to per-point evaluation with retry —
        only the poisoned points end up quarantined.
        """
        results: List[Optional[TimedEvaluation]] = [None] * len(points)
        live: List[Tuple[int, Point]] = []
        for index, point in enumerate(points):
            if frozen_point(point) in self.quarantine:
                results[index] = _failed()
            else:
                live.append((index, point))
        if live:
            try:
                timed = evaluate_many_timed(
                    self.inner, [p for _, p in live], fidelity
                )
                for (index, _point), evaluation in zip(live, timed):
                    results[index] = evaluation
            except Exception as exc:
                trace_event(
                    "resilience.batch_fallback",
                    points=len(live),
                    error=type(exc).__name__,
                )
                get_registry().counter("resilience.batch_fallbacks").inc()
                for index, point in live:
                    results[index] = self._evaluate_one(point, fidelity)
        return results  # type: ignore[return-value]

    # -- internals -------------------------------------------------------

    def _evaluate_one(self, point: Point, fidelity: int) -> TimedEvaluation:
        key = frozen_point(point)
        if key in self.quarantine:
            return _failed()
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.n_retries += 1
                get_registry().counter("resilience.retries").inc()
                trace_event(
                    "resilience.retry",
                    attempt=attempt,
                    error=type(last_error).__name__,
                )
                if self.backoff_s:
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            start = time.perf_counter()
            try:
                metrics = self.inner.evaluate(dict(point), fidelity)
            except Exception as exc:
                last_error = exc
                continue
            return TimedEvaluation(
                metrics=dict(metrics), elapsed_s=time.perf_counter() - start
            )
        self._quarantine(
            key, f"failed {self.max_retries + 1} attempts: {last_error!r}"
        )
        return _failed()

    def _quarantine(self, key: Tuple, reason: str) -> None:
        if key in self.quarantine:
            return
        self.quarantine[key] = reason
        get_registry().counter("resilience.quarantined").inc()
        trace_event(
            "resilience.quarantine",
            point=dict(key),
            reason=reason,
        )

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict resilience accounting (for status endpoints)."""
        return {
            "retries": self.n_retries,
            "quarantined": len(self.quarantine),
            "quarantine_reasons": list(self.quarantine.values()),
        }

    def quarantine_summary(self) -> List[str]:
        """Human-readable quarantine list for reports."""
        lines = []
        for key, reason in self.quarantine.items():
            point = ", ".join(f"{k}={v}" for k, v in key)
            lines.append(f"{{{point}}}: {reason}")
        return lines
