"""N-way shared aggregation sessions for batched requests.

This generalizes the pairwise minimum-threshold sharing of
:class:`~repro.core.requests.MultiRequestCoordinator`: a whole batch of
admitted requests, with differing threshold ratios, is served by **one**
netFilter execution at the minimum requested ratio, and each member's
answer is carved from the shared superset at its own threshold (items
frequent at ``t`` are a subset of those frequent at ``t_min``).

The session is a gated, deadline-bounded configuration of the phase
driver (:mod:`repro.core.driver`): the deadline keeps the front door's
next scheduling round, and a session the gate refuses honestly fails
instead of committing a silently-wrong superset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, ceil_threshold
from repro.core.driver import AttemptFailure, NetFilterResult, retry, run_attempt
from repro.core.netfilter import OneShotPlan
from repro.frontdoor.config import FrontDoorConfig
from repro.items.itemset import LocalItemSet


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


@dataclass(frozen=True)
class BatchOutcome:
    """What one batch's shared session produced.

    A committed outcome carries the shared :class:`NetFilterResult` at
    the batch's minimum ratio plus the measured byte cost of every
    attempt (retries included — the tenants pay for what the network
    actually carried).  A failed outcome names the terminal reason.
    """

    result: NetFilterResult | None
    reason: str
    attempts: int
    bytes_spent: float
    min_ratio: float

    @property
    def committed(self) -> bool:
        return self.result is not None

    def carve(self, threshold_ratio: float) -> tuple[LocalItemSet, int]:
        """One member's answer: the shared frequent set re-thresholded
        at the member's own ratio through the canonical derivation."""
        assert self.result is not None
        threshold = ceil_threshold(threshold_ratio, self.result.grand_total)
        return self.result.frequent.filter_values(threshold), threshold


class BatchSessionRunner:
    """Runs one deadline-bounded, coverage-gated netFilter execution per
    batch, retrying with backoff on failure."""

    def __init__(
        self,
        engine: AggregationEngine,
        filter_config: NetFilterConfig,
        config: FrontDoorConfig,
    ) -> None:
        self.engine = engine
        self.filter_config = filter_config
        self.config = config

    def run(self, batch: list[PendingRequest]) -> BatchOutcome:
        """Serve ``batch`` with one shared session (plus bounded retries).

        The session deadline is absolute from the first attempt's start:
        retries eat into the same budget, so a struggling session can
        never stall the scheduling cadence indefinitely.
        """
        assert batch, "empty batch"
        engine = self.engine
        sim = engine.sim
        telemetry = sim.telemetry
        config = self.config
        min_ratio = min(request.threshold_ratio for request in batch)
        shared = NetFilterConfig(
            filter_size=self.filter_config.filter_size,
            num_filters=self.filter_config.num_filters,
            threshold_ratio=min_ratio,
            hash_seed=self.filter_config.hash_seed,
        )
        deadline = sim.now + config.session_deadline

        def attempt(n: int) -> NetFilterResult | AttemptFailure:
            return run_attempt(
                engine,
                OneShotPlan(shared),
                deadline=deadline,
                min_coverage=config.min_coverage,
            )

        def on_retry(n: int, failure: AttemptFailure) -> None:
            telemetry.emit("frontdoor.session_retry", attempt=n, reason=failure.reason)

        with engine.network.accounting.measure() as spent, telemetry.span(
            "frontdoor.session", batch=len(batch), min_ratio=min_ratio
        ) as span:
            outcome, attempts = retry(
                sim,
                attempt,
                max_attempts=config.max_session_retries + 1,
                delay_for=config.retry_delay,
                deadline=deadline,
                on_retry=on_retry,
            )
            span["committed"] = isinstance(outcome, NetFilterResult)
            span["attempts"] = attempts
        return BatchOutcome(
            result=None if isinstance(outcome, AttemptFailure) else outcome,
            reason=outcome.reason if isinstance(outcome, AttemptFailure) else "",
            attempts=attempts,
            bytes_spent=float(spent.total()),
            min_ratio=min_ratio,
        )
