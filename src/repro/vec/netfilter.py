"""netFilter executed by the vectorized tier.

:class:`VecNetFilter` runs the same three convergecasts as
:class:`repro.core.netfilter.NetFilter` — totals, candidate filtering,
candidate verification — as batch array programs over a
:class:`~repro.vec.state.PeerTable`, and returns the *same*
:class:`~repro.core.netfilter.NetFilterResult`, with byte accounting
that matches the scalar engine byte-for-byte on statically-faulted
networks (``tests/vec/test_equivalence.py`` pins the equivalence at
N=2,000).

Scope: the dense tier covers the regular bulk — a fixed fault state for
the duration of one run.  Dynamic irregularity (mid-run crashes, repair,
stragglers, churn arrivals) stays with the event engine; populations
cross between the tiers through :mod:`repro.vec.escape`.

``elapsed_time`` is *modeled*, not event-driven: with fixed link latency
and no loss, each convergecast completes in exactly ``2·h`` time units
(requests reach the deepest reachable leaf at ``h``; the last reply
reaches the root at ``2·h``), so a run takes ``6·h·latency`` — the same
value the scalar clock reads on a quiet network.

A run is two per-table rounds, :func:`filter_round` (totals plus
filtering) and :func:`verify_round`, and one :func:`netfilter_result`;
:mod:`repro.vec.shard` runs the same rounds on every shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.driver import NETFILTER_COST
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilterResult
from repro.core.verification import HeavyGroups
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.wire import CostCategory, SizeModel
from repro.vec import engine as vec_engine
from repro.vec.state import PeerTable


def filter_phases(
    model: SizeModel, n_edges: int, bank: FilterBank
) -> tuple[vec_engine.PhaseBytes, vec_engine.PhaseBytes]:
    """Price totals and filtering over ``n_edges`` tree links: an ``s_a``
    request down each, a ``2·s_a`` totals pair and an ``s_a·f·g`` group
    vector up each."""
    s_a = model.aggregate_bytes
    control, filtering = CostCategory.CONTROL, CostCategory.FILTERING
    return (
        vec_engine.phase_bytes(model, n_edges, s_a, n_edges * 2 * s_a, control, control),
        vec_engine.phase_bytes(
            model, n_edges, s_a, n_edges * s_a * bank.total_groups, control, filtering
        ),
    )


def verify_phase(
    model: SizeModel, n_edges: int, heavy: HeavyGroups, pairs_sent: int
) -> vec_engine.PhaseBytes:
    """Price verification over ``n_edges`` tree links: the heavy groups
    down each, ``pairs_sent`` keyed candidate pairs up in all."""
    return vec_engine.phase_bytes(
        model,
        n_edges,
        heavy.wire_bytes(model),
        pairs_sent * model.pair_bytes,
        CostCategory.DISSEMINATION,
        CostCategory.AGGREGATION,
    )


@dataclass(frozen=True)
class FilterRound:
    """A root's state after totals and filtering, and the priced phases."""

    grand_total: int
    n_participants: int
    n_live: int
    #: The flat ``f·g`` group-aggregate vector.
    aggregate: np.ndarray
    height: int
    phases: tuple[vec_engine.PhaseBytes, ...]


@dataclass(frozen=True)
class VerifyRound:
    """A root's exact candidate values after verifying ``heavy``."""

    heavy: HeavyGroups
    candidates: LocalItemSet
    phases: tuple[vec_engine.PhaseBytes, ...]


def filter_round(
    table: PeerTable, reach: np.ndarray, bank: FilterBank, telemetry: object = None
) -> FilterRound:
    """Step 0 (grand total ``v``, participant count ``N``) and phase 1
    (the group aggregate) over the reachable population."""
    grand_total, n_participants = vec_engine.grand_totals(table, reach)
    aggregate = vec_engine.group_aggregate(table, reach, bank)
    phases = filter_phases(table.size_model, n_participants - 1, bank)
    for name, phase in zip(("totals", "filtering"), phases):
        vec_engine.emit_phase(telemetry, name, n_participants, phase)
    return FilterRound(
        grand_total=grand_total,
        n_participants=n_participants,
        n_live=table.n_live,
        aggregate=aggregate,
        height=table.reachable_height(reach),
        phases=phases,
    )


def verify_round(
    table: PeerTable,
    reach: np.ndarray,
    bank: FilterBank,
    heavy: HeavyGroups,
    telemetry: object = None,
) -> VerifyRound:
    """Phase 2 over the reachable population: candidates against
    ``heavy``, merged as keyed sums (reply sizes batched level by level)."""
    rows = vec_engine.candidate_rows(table, reach, bank, heavy)
    pairs_sent, root_count, own_counts = vec_engine.subtree_candidate_pairs(table, rows)
    candidates = LocalItemSet(rows.universe, vec_engine.candidate_global_values(rows))
    assert root_count == len(candidates)
    n_reached = int(np.count_nonzero(reach))
    phase = verify_phase(table.size_model, n_reached - 1, heavy, pairs_sent)
    vec_engine.emit_phase(telemetry, "verification", n_reached, phase)
    vec_engine.observe_candidates_histogram(telemetry, own_counts[reach])
    return VerifyRound(heavy=heavy, candidates=candidates, phases=(phase,))


def netfilter_result(
    config: NetFilterConfig,
    first: FilterRound,
    second: VerifyRound,
    *,
    population: int,
    model: SizeModel,
    latency: float = 1.0,
) -> NetFilterResult:
    """The scalar engine's result from a root's two rounds.  The run is
    complete when every live peer participated."""
    threshold = config.resolve_threshold(first.grand_total)
    totals = vec_engine.category_totals(first.phases + second.phases)
    per_peer: dict[str, Any] = {c.value: totals.get(c, 0) / population for c in NETFILTER_COST}
    return NetFilterResult(
        frequent=second.candidates.filter_values(threshold),
        candidates=second.candidates,
        heavy_groups=second.heavy,
        threshold=threshold,
        grand_total=first.grand_total,
        n_participants=first.n_participants,
        breakdown=CostBreakdown(**per_peer),
        avg_candidates_per_peer=(
            totals.get(CostCategory.AGGREGATION, 0) / model.pair_bytes / population
        ),
        config=config,
        elapsed_time=6.0 * first.height * latency,
        coverage=first.n_participants / first.n_live if first.n_live > 0 else 1.0,
        complete=first.n_participants >= first.n_live,
    )


class VecNetFilter:
    """The batched two-phase filtering protocol.

    Examples
    --------
    >>> from repro.vec.build import build_table
    >>> shard = build_table(n_peers=200, n_items=2_000, seed=7)
    >>> config = NetFilterConfig(filter_size=64, num_filters=2,
    ...                          threshold_ratio=0.01)
    >>> result = VecNetFilter(config).run(shard.table)
    >>> bool((result.frequent.values >= result.threshold).all())
    True
    """

    def __init__(self, config: NetFilterConfig) -> None:
        self.config = config

    def run(self, table: PeerTable, telemetry: object = None) -> NetFilterResult:
        """Execute Algorithm 1 over the columnar population."""
        if not bool(table.alive[table.root]):
            # The scalar engine's honest dead-root answer: nothing charged.
            return NetFilterResult.empty(self.config)
        config = self.config
        reach = table.reachable_mask()
        bank = FilterBank(config.num_filters, config.filter_size, config.hash_seed)
        first = filter_round(table, reach, bank, telemetry)
        threshold = config.resolve_threshold(first.grand_total)
        heavy = HeavyGroups.from_aggregate(bank, first.aggregate, threshold)
        second = verify_round(table, reach, bank, heavy, telemetry)
        return netfilter_result(
            config,
            first,
            second,
            population=table.n_peers,
            model=table.size_model,
            latency=table.latency,
        )
