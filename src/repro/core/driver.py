"""The one netFilter phase driver (Section III, Algorithm 1).

Every netFilter execution makes the same three convergecasts over the
hierarchy: the grand total ``v`` with the participant count ``N``, group
filtering, then candidate verification.  One-shot
:class:`~repro.core.netfilter.NetFilter`, a continuous epoch
(:class:`~repro.core.continuous.ContinuousNetFilter`), a front-door batch
(:mod:`repro.frontdoor.batching`) and a monitor-service epoch
(:mod:`repro.service.monitor`) are configurations of this module:

* :func:`run_phase` runs one convergecast: dead-root check,
  ``engine.start``, then ``engine.drive_session`` up to an optional
  deadline.
* :func:`run_attempt` runs totals → filter → verify over a
  :class:`PhasePlan` — the plan supplies the phase-1 spec, the root-side
  fold that turns the phase-1 aggregate into group totals and a
  threshold, and the verification spec — and returns a
  :class:`NetFilterResult` or an :class:`AttemptFailure` naming one
  ``FAIL_*`` reason.  Every caller that commits an answer passes
  ``gated=True``: the gate refuses an attempt that missed any live peer
  or whose membership moved under it.
* :func:`retry` re-runs a failed attempt with a backed-off settle delay
  until it succeeds, the attempt budget is spent, or the deadline passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, TypeVar

import numpy as np

from repro.aggregation.combiners import ScalarSumCombiner, TupleCombiner
from repro.aggregation.hierarchical import AggregationEngine, SessionHandle
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.recovery import RecoveryPolicy
from repro.core.verification import HeavyGroups
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.network import Network
from repro.net.wire import CostCategory
from repro.sim.engine import Simulation

#: The deadline passed with a phase still in flight.
FAIL_DEADLINE = "deadline"
#: The root was down before the attempt began (the monitor checks this
#: before it opens an epoch attempt at all).
FAIL_ROOT_DEAD = "root_dead"
#: The root was down at a phase's start or died during it.
FAIL_ROOT_LOST = "root_lost"
#: A phase of the attempt missed a live peer.
FAIL_COVERAGE = "coverage"
#: A peer died, joined, or crashed and revived during the attempt.
FAIL_MEMBERSHIP = "membership_changed"

#: The byte categories a netFilter result's breakdown reports.
NETFILTER_COST = (
    CostCategory.FILTERING,
    CostCategory.DISSEMINATION,
    CostCategory.AGGREGATION,
    CostCategory.CONTROL,
)


@dataclass(frozen=True)
class NetFilterResult:
    """Everything one netFilter run produced.

    Attributes
    ----------
    frequent:
        The exact answer: frequent item ids with their exact global values.
    candidates:
        The merged candidate set the root verified (frequent items plus
        the filtering false positives).
    heavy_groups:
        The heavy item groups found by phase 1.
    threshold:
        The absolute threshold ``t`` used.
    grand_total:
        The measured grand total ``v``.
    n_participants:
        Peers that contributed (the aggregated ``N``).
    breakdown:
        Measured per-peer byte costs for this run only.
    avg_candidates_per_peer:
        Measured average number of candidate pairs each peer propagated in
        phase 2 — the y-axis of Figure 5(a)/6(a).
    config:
        The configuration that produced this result.
    """

    frequent: LocalItemSet
    candidates: LocalItemSet
    heavy_groups: HeavyGroups
    threshold: float
    grand_total: int
    n_participants: int
    breakdown: CostBreakdown
    avg_candidates_per_peer: float
    config: NetFilterConfig
    #: Simulated time the whole run took (three convergecasts; with unit
    #: link latency this is a few times the hierarchy height — the
    #: latency face of the hierarchical-vs-gossip trade-off).
    elapsed_time: float = 0.0
    #: Worst per-phase coverage fraction (covered / live peers at phase
    #: start) across the run's three convergecasts.
    coverage: float = 1.0
    #: Whether every phase covered every live peer.  Only a ``complete``
    #: result carries the paper's no-false-negative guarantee; an
    #: incomplete one may have silently pruned a frequent item.
    complete: bool = True
    #: Phase + whole-query re-issues spent getting here.
    reissues: int = 0

    @property
    def frequent_ids(self) -> np.ndarray:
        """Ids of the reported frequent items, ascending."""
        return self.frequent.ids

    @property
    def candidate_count(self) -> int:
        """Distinct candidates verified in phase 2."""
        return len(self.candidates)

    @property
    def false_positive_count(self) -> int:
        """Candidates that verification rejected (``fp`` in the paper —
        false positives *of the candidate set*; the final answer has
        none)."""
        return len(self.candidates) - len(self.frequent)

    @classmethod
    def empty(
        cls,
        config: NetFilterConfig,
        breakdown: CostBreakdown | None = None,
        elapsed_time: float = 0.0,
        reissues: int = 0,
    ) -> "NetFilterResult":
        """The honest answer of a run whose root was lost: nothing found,
        zero coverage, ``complete=False`` — never a silently wrong set."""
        return cls(
            frequent=LocalItemSet.empty(),
            candidates=LocalItemSet.empty(),
            heavy_groups=HeavyGroups(per_filter=()),
            threshold=0,
            grand_total=0,
            n_participants=0,
            breakdown=CostBreakdown() if breakdown is None else breakdown,
            avg_candidates_per_peer=0.0,
            config=config,
            elapsed_time=elapsed_time,
            coverage=0.0,
            complete=False,
            reissues=reissues,
        )

    def __str__(self) -> str:
        return (
            f"NetFilterResult({len(self.frequent)} frequent items, "
            f"{self.candidate_count} candidates, t={self.threshold}, "
            f"{self.breakdown.total:.0f} B/peer)"
        )


@dataclass(frozen=True)
class AttemptFailure:
    """Why an attempt produced no result: one ``FAIL_*`` reason, and the
    phase it stopped in (``totals``, ``filter``, ``verify``, or
    ``gate`` when all three ran but the gate refused the commit)."""

    reason: str
    phase: str


@dataclass(frozen=True)
class Fold:
    """The root-side fold of a phase-1 aggregate: the flat ``f·g`` group
    totals heavy groups are selected from, the absolute threshold, and
    the grand total it was resolved against."""

    group_totals: np.ndarray
    threshold: float
    grand_total: float


class PhasePlan(Protocol):
    """What one attempt runs.  ``phase1_request`` rides down the tree with
    phase 1; without a totals phase (``runs_totals`` false) the fold
    resolves the threshold and phase 1's coverage counts the
    participants."""

    @property
    def config(self) -> NetFilterConfig: ...

    @property
    def bank(self) -> FilterBank: ...

    @property
    def runs_totals(self) -> bool: ...

    @property
    def phase1_request(self) -> Any: ...

    def phase1_spec(self) -> AggregateSpec: ...

    def fold(self, aggregate: Any, grand_total: float | None = None) -> Fold: ...

    def verification_spec(self) -> AggregateSpec: ...


def totals_spec() -> AggregateSpec:
    """The combined (v, N) aggregation of Section IV."""
    return AggregateSpec(
        name="netfilter.totals",
        combiner=TupleCombiner(ScalarSumCombiner(), ScalarSumCombiner()),
        contribute=lambda node, _: (node.items.total_value, 1),
        up_category=CostCategory.CONTROL,
    )


def run_phase(
    engine: AggregationEngine,
    spec: AggregateSpec,
    request_data: Any = None,
    deadline: float | None = None,
) -> SessionHandle:
    """Run one convergecast.  A root that is down at the start yields a
    synthetic failed handle instead of an exception, so callers treat
    "root dead before the request" and "root died mid-session" alike; a
    handle that is not ``done`` missed ``deadline`` and is still in
    flight."""
    if not engine.network.node(engine.hierarchy.root).alive:
        return engine.dead_root_session(spec)
    handle = engine.start(spec, request_data)
    return engine.drive_session(handle, deadline=deadline)


@dataclass
class PhaseReissue:
    """:class:`~repro.core.recovery.RecoveryPolicy` phase re-issue: a phase
    that failed or fell below the policy's coverage floor is re-run after
    a backed-off settle delay, against whatever root the hierarchy has by
    then (the promoted successor after a failover), keeping the best
    handle.  ``spent`` counts every re-issue of the query so far."""

    policy: RecoveryPolicy
    spent: int = 0

    def improve(
        self,
        engine: AggregationEngine,
        spec: AggregateSpec,
        request_data: Any,
        handle: SessionHandle,
    ) -> SessionHandle:
        policy = self.policy
        sim = engine.sim
        reissues = 0
        while (
            handle.failed or handle.coverage < policy.min_coverage
        ) and reissues < policy.max_phase_reissues:
            reissues += 1
            self.spent += 1
            sim.trace.emit(
                sim.now,
                "request.reissued",
                scope="phase",
                spec=spec.name,
                coverage=handle.coverage,
                attempt=reissues,
            )
            sim.telemetry.registry.counter("recovery.phase_reissues").inc()
            sim.run(until=sim.now + policy.delay_for(reissues))
            again = run_phase(engine, spec, request_data)
            if not again.failed and (handle.failed or again.coverage >= handle.coverage):
                handle = again
        return handle


def _membership_moved(
    network: Network, live_at_start: tuple[int, ...], started_at: float
) -> bool:
    """Whether the live set changed, or a peer crashed and revived,
    since ``started_at``.  Per-phase coverage cannot see the second case:
    a peer that replied to phase 1, crashed, and revived once
    verification had started counts as covered in both, yet its
    verification share is missing."""
    live = network.live_peers()
    return tuple(live) != live_at_start or any(
        network.node(peer).up_since > started_at for peer in live
    )


def run_attempt(
    engine: AggregationEngine,
    plan: PhasePlan,
    *,
    deadline: float | None = None,
    gated: bool = False,
    reissue: PhaseReissue | None = None,
) -> NetFilterResult | AttemptFailure:
    """One totals → filter → verify attempt over ``plan``.

    ``gated`` is for callers that commit an answer: the attempt fails
    with ``membership_changed`` if the membership moved under it, and
    with ``coverage`` if any phase missed a live peer.  Ungated attempts
    return incomplete results flagged ``complete=False``.  ``reissue``
    re-runs short phases under a recovery policy.
    """
    sim = engine.sim
    telemetry = sim.telemetry
    network = engine.network
    config = plan.config
    started_at = sim.now
    live_at_start = tuple(network.live_peers()) if gated else ()
    handles: list[SessionHandle] = []

    def phase(
        name: str, spec: AggregateSpec, request_data: Any
    ) -> SessionHandle | AttemptFailure:
        handle = run_phase(engine, spec, request_data, deadline)
        if reissue is not None:
            handle = reissue.improve(engine, spec, request_data, handle)
        if not handle.done:
            return AttemptFailure(FAIL_DEADLINE, name)
        if handle.failed:
            return AttemptFailure(FAIL_ROOT_LOST, name)
        handles.append(handle)
        return handle

    with network.accounting.measure() as spent:
        grand_total: float | None = None
        n_participants = 0
        if plan.runs_totals:
            with telemetry.span("totals.phase") as span:
                totals = phase("totals", totals_spec(), None)
                if isinstance(totals, AttemptFailure):
                    return totals
                grand_total, n_participants = totals.value
                span["participants"] = int(n_participants)

        with telemetry.span(
            "filter.phase",
            num_filters=config.num_filters,
            filter_size=config.filter_size,
        ) as span:
            phase1 = phase("filter", plan.phase1_spec(), plan.phase1_request)
            if isinstance(phase1, AttemptFailure):
                return phase1
            fold = plan.fold(phase1.value, grand_total)
            if not plan.runs_totals:
                n_participants = phase1.covered
            heavy = HeavyGroups.from_aggregate(plan.bank, fold.group_totals, fold.threshold)
            span["heavy_groups"] = heavy.total_count
            telemetry.registry.histogram(
                "netfilter.heavy_groups", buckets=(0, 1, 4, 16, 64, 256, 1024)
            ).observe(heavy.total_count)
            telemetry.emit(
                "filter.heavy_groups",
                total=heavy.total_count,
                per_filter=list(heavy.counts),
                threshold=fold.threshold,
            )

        # Candidate verification (Algorithm 1, line 4; Algorithm 2).
        with telemetry.span("verify.phase") as span:
            verify = phase("verify", plan.verification_spec(), heavy)
            if isinstance(verify, AttemptFailure):
                return verify
            candidates: LocalItemSet = verify.value
            frequent = candidates.filter_values(fold.threshold)
            span["candidates"] = len(candidates)
            span["frequent"] = len(frequent)

        coverage = min(handle.coverage for handle in handles)
        complete = all(handle.complete for handle in handles)
        if gated:
            if _membership_moved(network, live_at_start, started_at):
                return AttemptFailure(FAIL_MEMBERSHIP, "gate")
            if not complete:
                return AttemptFailure(FAIL_COVERAGE, "gate")

    population = network.n_peers
    return NetFilterResult(
        frequent=frequent,
        candidates=candidates,
        heavy_groups=heavy,
        threshold=fold.threshold,
        grand_total=int(fold.grand_total),
        n_participants=int(n_participants),
        breakdown=spent.breakdown(population, *NETFILTER_COST),
        avg_candidates_per_peer=(
            spent.bytes(CostCategory.AGGREGATION)
            / network.size_model.pair_bytes
            / population
        ),
        config=config,
        elapsed_time=sim.now - started_at,
        coverage=coverage,
        complete=complete,
        reissues=0 if reissue is None else reissue.spent,
    )


T = TypeVar("T")


def retry(
    sim: Simulation,
    attempt: Callable[[int], T | AttemptFailure],
    *,
    max_attempts: int,
    delay_for: Callable[[int], float],
    deadline: float | None = None,
    on_retry: Callable[[int, AttemptFailure], None] | None = None,
) -> tuple[T | AttemptFailure, int]:
    """Call ``attempt(n)`` for ``n = 1, 2, ...`` until it succeeds, the
    budget of ``max_attempts`` is spent, or the sim clock has reached
    ``deadline`` (the first attempt always runs).

    Between a failed attempt ``n`` and the next one, ``on_retry(n,
    failure)`` runs and the simulation settles for ``delay_for(n)``,
    clamped to the time left before ``deadline``.  Returns the last
    outcome and the number of attempts made.
    """
    attempts = 1
    outcome = attempt(attempts)
    while isinstance(outcome, AttemptFailure) and attempts < max_attempts:
        if on_retry is not None:
            on_retry(attempts, outcome)
        settle = delay_for(attempts)
        if deadline is not None:
            settle = min(settle, max(deadline - sim.now, 0.0))
        if settle > 0:
            sim.run(until=sim.now + settle)
        if deadline is not None and sim.now >= deadline:
            break
        attempts += 1
        outcome = attempt(attempts)
    return outcome, attempts
