"""N-way shared aggregation sessions for batched requests.

A whole batch of admitted requests, with differing threshold ratios, is
served by **one** netFilter execution at the minimum requested ratio, and
each member's answer is carved from the shared superset at its own
threshold (items frequent at ``t`` are a subset of those frequent at
``t_min``).  The session itself is :func:`repro.core.requests.run_shared`,
the same Section III-A.1 session the
:class:`~repro.core.requests.MultiRequestCoordinator` runs; this module
adds the front door's deadline, retry budget and telemetry.

The deadline keeps the front door's next scheduling round, and a session
the commit gate refuses honestly fails instead of committing a
silently-wrong superset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.driver import AttemptFailure
from repro.core.requests import SharedSession, run_shared
from repro.frontdoor.config import FrontDoorConfig


@dataclass(frozen=True)
class PendingRequest:
    """One admitted request waiting in the batch queue."""

    request_id: int
    tenant: str
    requester: int
    threshold_ratio: float
    max_staleness: int
    submitted_at: float
    deadline: float


class BatchSessionRunner:
    """Runs one deadline-bounded, gated shared session per batch,
    retrying with backoff on failure."""

    def __init__(
        self,
        engine: AggregationEngine,
        filter_config: NetFilterConfig,
        config: FrontDoorConfig,
    ) -> None:
        self.engine = engine
        self.filter_config = filter_config
        self.config = config

    def run(self, batch: list[PendingRequest]) -> SharedSession:
        """Serve ``batch`` with one shared session (plus bounded retries).

        The session deadline is absolute from the first attempt's start:
        retries eat into the same budget, so a struggling session can
        never stall the scheduling cadence indefinitely.
        """
        assert batch, "empty batch"
        engine = self.engine
        telemetry = engine.sim.telemetry
        config = self.config
        ratios = [request.threshold_ratio for request in batch]

        def on_retry(n: int, failure: AttemptFailure) -> None:
            telemetry.emit("frontdoor.session_retry", attempt=n, reason=failure.reason)

        with telemetry.span(
            "frontdoor.session", batch=len(batch), min_ratio=min(ratios)
        ) as span:
            session = run_shared(
                engine,
                self.filter_config,
                ratios,
                deadline=engine.sim.now + config.session_deadline,
                max_attempts=config.max_session_retries + 1,
                delay_for=config.retry_delay,
                on_retry=on_retry,
            )
            span["committed"] = session.committed
            span["attempts"] = session.attempts
        return session
