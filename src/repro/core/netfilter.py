"""The netFilter protocol (Section III, Algorithm 1).

One :meth:`NetFilter.run` performs, over an already-built hierarchy, the
three convergecasts of the phase driver (:mod:`repro.core.driver`):

0. A combined scalar aggregation for the grand total ``v`` and the
   participant count ``N`` (Section IV: "obtained through simple aggregate
   computation ... combined with other aggregate computation").
1. **Candidate filtering** — a vector-sum aggregation of the ``f·g``
   item-group values; groups with aggregate ≥ t are heavy.
2. **Candidate verification** — the heavy-group lists ride down in the
   phase-2 request (candidate *dissemination*); every peer materializes
   its partial candidate set against them; a keyed-sum convergecast merges
   the partial sets (candidate *aggregation*) so the root ends with the
   exact global value of every candidate; candidates ≥ t are the answer.

The result is exact: no false positives, no false negatives, exact global
values — the properties the oracle-equivalence tests assert.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.aggregation.combiners import KeyedSumCombiner, VectorSumCombiner
from repro.aggregation.hierarchical import AggregationEngine
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.driver import (
    FAIL_COVERAGE,
    NETFILTER_COST,
    AttemptFailure,
    Fold,
    PhaseReissue,
    retry,
    run_attempt,
)
from repro.core.driver import NetFilterResult as NetFilterResult
from repro.core.driver import totals_spec as totals_spec
from repro.core.filters import FilterBank
from repro.core.recovery import RecoveryPolicy
from repro.core.verification import HeavyGroups, materialize_candidates
from repro.items.itemset import LocalItemSet
from repro.net.node import Node
from repro.net.wire import CostCategory, SizeModel

def filtering_spec(bank: FilterBank) -> AggregateSpec:
    """Phase 1: the item-group aggregate vector (costs ``s_a·f·g``/peer)."""

    def contribute(node: Node, _: Any) -> np.ndarray:
        return bank.local_group_aggregates(node.items)

    return AggregateSpec(
        name="netfilter.group_aggregates",
        combiner=VectorSumCombiner(bank.total_groups),
        contribute=contribute,
        up_category=CostCategory.FILTERING,
    )


def verification_spec(
    bank: FilterBank, items_of: Callable[[Node], LocalItemSet] | None = None
) -> AggregateSpec:
    """Phase 2: heavy groups ride down in the request (dissemination),
    partial candidate sets merge upward (Algorithm 2).  Peers materialize
    candidates from ``items_of(node)`` (default: their raw items)."""

    def contribute(node: Node, heavy: HeavyGroups) -> LocalItemSet:
        items = node.items if items_of is None else items_of(node)
        partial = materialize_candidates(items, bank, heavy)
        sim = node.network.sim
        sim.telemetry.registry.histogram(
            "netfilter.candidates_per_peer", buckets=(0, 1, 4, 16, 64, 256, 1024)
        ).observe(len(partial))
        sim.trace.emit(
            sim.now,
            "verify.materialized",
            peer=node.peer_id,
            candidates=len(partial),
        )
        return partial

    def request_bytes(heavy: HeavyGroups, model: SizeModel) -> int:
        return heavy.wire_bytes(model)

    return AggregateSpec(
        name="netfilter.candidates",
        combiner=KeyedSumCombiner(),
        contribute=contribute,
        up_category=CostCategory.AGGREGATION,
        down_category=CostCategory.DISSEMINATION,
        request_bytes=request_bytes,
    )


class OneShotPlan:
    """The phase plan of a one-shot run: a fresh :class:`FilterBank` and
    the configured threshold resolved against the measured grand total."""

    runs_totals = True
    phase1_request = None

    def __init__(self, config: NetFilterConfig) -> None:
        self.config = config
        self.bank = FilterBank(config.num_filters, config.filter_size, config.hash_seed)

    def phase1_spec(self) -> AggregateSpec:
        return filtering_spec(self.bank)

    def fold(self, aggregate: Any, grand_total: float | None = None) -> Fold:
        assert grand_total is not None
        return Fold(
            group_totals=aggregate,
            threshold=self.config.resolve_threshold(int(grand_total)),
            grand_total=grand_total,
        )

    def verification_spec(self) -> AggregateSpec:
        return verification_spec(self.bank)


class NetFilter:
    """The two-phase in-network filtering protocol.

    Examples
    --------
    See ``examples/quickstart.py`` for an end-to-end run; the essential
    shape is::

        hierarchy = Hierarchy.build(network, root=0)
        engine = AggregationEngine(hierarchy)
        result = NetFilter(NetFilterConfig(filter_size=100, num_filters=3,
                                           threshold_ratio=0.01)).run(engine)
        result.frequent.to_dict()   # {item_id: exact global value}
    """

    def __init__(
        self, config: NetFilterConfig, recovery: RecoveryPolicy | None = None
    ) -> None:
        self.config = config
        self.recovery = recovery

    def run(self, engine: AggregationEngine) -> NetFilterResult:
        """Execute Algorithm 1 over the engine's hierarchy and return the
        exact frequent-item set with measured costs.

        With a :class:`~repro.core.recovery.RecoveryPolicy`, phases whose
        coverage falls below the policy floor are re-issued, and if the
        run still comes back incomplete the whole query is re-run (early
        phases feed later ones — an undercounted grand total corrupts the
        threshold) up to ``max_query_reissues`` times, keeping the best
        covered run.  A phase that loses its *root* mid-flight is
        re-issued the same way — against whatever root the hierarchy has
        by then, i.e. the failover successor once maintenance promotes
        one.  Without a recovery policy a root loss yields an empty result
        flagged ``complete=False``."""
        recovery = self.recovery
        sim = engine.sim
        network = engine.network
        best: NetFilterResult | None = None

        def attempt(n: int) -> NetFilterResult | AttemptFailure:
            nonlocal best
            reissue = (
                None
                if recovery is None
                else PhaseReissue(recovery, spent=0 if best is None else best.reissues + 1)
            )
            started_at = sim.now
            with network.accounting.measure() as spent, sim.telemetry.span(
                "netfilter.run"
            ) as span:
                outcome = run_attempt(engine, OneShotPlan(self.config), reissue=reissue)
                if isinstance(outcome, NetFilterResult):
                    span["frequent"] = len(outcome.frequent)
            if isinstance(outcome, AttemptFailure):
                # The root was lost beyond recovery.
                outcome = NetFilterResult.empty(
                    self.config,
                    breakdown=spent.breakdown(network.n_peers, *NETFILTER_COST),
                    elapsed_time=sim.now - started_at,
                    reissues=0 if reissue is None else reissue.spent,
                )
            if best is None or outcome.coverage >= best.coverage:
                best = outcome
            return best if best.complete else AttemptFailure(FAIL_COVERAGE, "gate")

        def on_retry(n: int, failure: AttemptFailure) -> None:
            assert best is not None
            sim.trace.emit(
                sim.now,
                "request.reissued",
                scope="query",
                coverage=best.coverage,
                attempt=n,
            )
            sim.telemetry.registry.counter("recovery.query_reissues").inc()

        if recovery is None:
            attempt(1)
        else:
            retry(
                sim,
                attempt,
                max_attempts=1 + recovery.max_query_reissues,
                delay_for=recovery.delay_for,
                on_retry=on_retry,
            )
        assert best is not None
        return best
