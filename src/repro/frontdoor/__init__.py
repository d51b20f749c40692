"""The overload-safe multi-tenant query front door (ROADMAP item 2).

Layers, bottom to top:

* :mod:`repro.frontdoor.config` — :class:`FrontDoorConfig` and the
  per-tenant :class:`TenantPolicy` (rate, burst, byte budget, staleness
  tolerance);
* :mod:`repro.frontdoor.payloads` — the wire-real query/answer payloads
  and the three terminal statuses;
* :mod:`repro.frontdoor.admission` — token-bucket rate limits, byte
  budgets, and queue-depth shedding, all on simulated time;
* :mod:`repro.frontdoor.cache` — the honest-staleness fast path;
* :mod:`repro.frontdoor.batching` — each batch's deadline, retries and
  telemetry around the Section III-A.1 shared session at the minimum
  requested threshold (:func:`repro.core.requests.run_shared`, which the
  :class:`~repro.core.requests.MultiRequestCoordinator` runs too);
* :mod:`repro.frontdoor.service` — :class:`FrontDoor`, the round-based
  orchestrator tying them together with a circuit breaker and a
  client-side termination sweep.
"""

from repro.frontdoor.admission import (
    Admission,
    AdmissionController,
    TenantAccount,
)
from repro.frontdoor.batching import BatchSessionRunner, PendingRequest
from repro.frontdoor.cache import AnswerCache, CacheEntry, CacheHit
from repro.frontdoor.config import NO_RETRY, FrontDoorConfig, TenantPolicy
from repro.frontdoor.payloads import (
    COMMITTED,
    DEGRADED,
    REJECTED,
    QueryAnswerPayload,
    QueryRequestPayload,
)
from repro.frontdoor.service import FrontDoor, RequestRecord

__all__ = [
    "Admission",
    "AdmissionController",
    "AnswerCache",
    "BatchSessionRunner",
    "CacheEntry",
    "CacheHit",
    "COMMITTED",
    "DEGRADED",
    "REJECTED",
    "FrontDoor",
    "FrontDoorConfig",
    "NO_RETRY",
    "PendingRequest",
    "QueryAnswerPayload",
    "QueryRequestPayload",
    "RequestRecord",
    "TenantAccount",
    "TenantPolicy",
]
