"""Dependability engineering for MetaCore instances and searches.

Two halves:

- **Fault injection** (:mod:`~repro.resilience.faults`,
  :mod:`~repro.resilience.campaign`, :mod:`~repro.resilience.report`):
  deterministic SEU/stuck-at fault models with injection points in the
  Viterbi datapath and IIR state words, and a campaign runner that
  sweeps fault-rate × design-point grids and classifies the outcomes
  DAVOS-style (masked / degraded / decode-failure).
- **Crash-tolerant searches** (:mod:`~repro.resilience.session`,
  :mod:`~repro.resilience.shim`): atomic per-round search checkpoints
  with resume, and a retry/backoff/quarantine evaluator shim so one
  poisoned design point cannot take down a whole search.  Both are
  evaluator layers the facade stacks under its search.
"""

from repro.resilience.campaign import (
    Campaign,
    CampaignCell,
    CampaignConfig,
    CampaignEvaluator,
    CampaignResult,
)
from repro.resilience.faults import (
    FAULT_MODELS,
    NO_TARGET,
    STORAGE_CLASSES,
    FaultInjector,
    FaultSpec,
    simulate_with_faults,
)
from repro.resilience.report import format_campaign_report
from repro.resilience.session import (
    CheckpointingEvaluator,
    RoundBudgetExceeded,
    SessionResult,
)
from repro.resilience.shim import DEFAULT_FAILURE_METRICS, ResilientEvaluator

__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignConfig",
    "CampaignEvaluator",
    "CampaignResult",
    "CheckpointingEvaluator",
    "DEFAULT_FAILURE_METRICS",
    "FAULT_MODELS",
    "FaultInjector",
    "FaultSpec",
    "NO_TARGET",
    "ResilientEvaluator",
    "RoundBudgetExceeded",
    "STORAGE_CLASSES",
    "SessionResult",
    "format_campaign_report",
    "simulate_with_faults",
]
