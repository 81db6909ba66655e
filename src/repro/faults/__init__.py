"""Deterministic fault injection for the CONGEST engines.

``repro.faults`` turns "what if the network misbehaves?" into a
first-class, reproducible experiment dimension:

* :class:`~repro.faults.plan.FaultPlan` -- a frozen, spec-parsable
  description of crash-stop schedules, per-delivery drop and corruption
  probabilities, round stalls, and bandwidth throttling;
* :class:`~repro.faults.inject.FaultInjector` -- the stateless
  executable form, whose every decision is a pure hash of
  ``(seed, round, sender, receiver)`` and therefore identical on the
  object and vectorized execution lanes.

Plans ride on :class:`~repro.runtime.policy.ExecutionPolicy` (the
``faults`` field, set directly or by ``--faults`` / ``--policy``); see
``docs/robustness.md`` for the spec grammar and semantics.
"""

from .inject import FaultInjector, zero_payload
from .plan import FaultPlan, FaultSpecError

__all__ = [
    "FaultPlan",
    "FaultSpecError",
    "FaultInjector",
    "zero_payload",
]
