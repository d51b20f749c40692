"""Multiprocess space-sharding for million-peer runs.

The vectorized tier removes the per-event ceiling; this module removes
the single-core ceiling.  The peer id space is split into ``K`` equal
shards, each an independent columnar population (its own overlay, tree,
and slice of the instance budget — see :mod:`repro.vec.build`), and the
driver plays the role of a super-root with the ``K`` shard roots as
children:

* **Round 1** (one task per shard, via
  :func:`repro.experiments.parallel.run_trials`): each shard runs
  :class:`~repro.vec.netfilter.VecNetFilter`'s first round (totals and
  phase-1 group aggregates); the driver merges ``v``, ``N`` and the
  ``f·g`` vector, resolves the global threshold, and extracts the heavy
  groups — the protocol's phase barrier, exactly as the real root would.
* **Round 2**: the heavy groups travel back down; each shard runs the
  verification round; the driver merges the candidate sets, prices the
  ``K`` super-root links with the same ``phase_bytes`` closed forms as
  every other tree edge, and builds the answer with the same
  :func:`~repro.vec.netfilter.netfilter_result`.

Workers are pure functions of ``(plan, shard)`` — same spec order, same
results for ``jobs=1`` and ``jobs=K`` (the :mod:`repro.experiments.parallel`
determinism contract), and the whole run collapses to a replay digest
that is a pure function of ``(seed, K, N, n, config)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilterResult
from repro.core.verification import HeavyGroups
from repro.errors import ConfigurationError
from repro.experiments.parallel import TrialSpec, run_trials
from repro.items.itemset import LocalItemSet
from repro.net.wire import CostCategory, SizeModel
from repro.vec import engine as vec_engine
from repro.vec.build import build_table
from repro.vec.netfilter import (
    FilterRound,
    VerifyRound,
    filter_phases,
    filter_round,
    netfilter_result,
    verify_phase,
    verify_round,
)
from repro.vec.state import PeerTable


@dataclass(frozen=True)
class ShardPlan:
    """A complete, picklable description of one sharded run."""

    n_peers: int
    n_items: int
    seed: int
    n_shards: int
    config: NetFilterConfig
    skew: float = 1.0
    mean_degree: float = 4.0
    instances_per_item: int = 10

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {self.n_shards}")
        if self.n_peers < self.n_shards:
            raise ConfigurationError("need at least one peer per shard")

    def shard_peers(self, shard: int) -> int:
        """Peer count of one shard (the remainder spreads over the first
        few shards, so counts differ by at most one)."""
        base, extra = divmod(self.n_peers, self.n_shards)
        return base + (1 if shard < extra else 0)

    def shard_instances(self, shard: int) -> int:
        """Instance budget of one shard (equal split of ``10·n``)."""
        total = self.instances_per_item * self.n_items
        base, extra = divmod(total, self.n_shards)
        return base + (1 if shard < extra else 0)

    def bank(self) -> FilterBank:
        """The run's filter bank (every shard and the super-root share it)."""
        config = self.config
        return FilterBank(config.num_filters, config.filter_size, config.hash_seed)


def _build_shard(plan: ShardPlan, shard: int) -> tuple[PeerTable, np.ndarray]:
    built = build_table(
        n_peers=plan.shard_peers(shard),
        n_items=plan.n_items,
        seed=plan.seed,
        shard=shard,
        n_shards=plan.n_shards,
        skew=plan.skew,
        mean_degree=plan.mean_degree,
        total_instances=plan.shard_instances(shard),
    )
    return built.table, built.global_values


def _filter_worker(
    plan: ShardPlan, shard: int, return_truth: bool
) -> tuple[FilterRound, np.ndarray | None]:
    """Round 1: totals + phase-1 aggregates for one shard."""
    table, truth = _build_shard(plan, shard)
    first = filter_round(table, table.reachable_mask(), plan.bank())
    return first, truth if return_truth else None


def _verify_worker(plan: ShardPlan, shard: int, heavy: HeavyGroups) -> VerifyRound:
    """Round 2: candidate verification for one shard, given the globally
    merged heavy groups (rebuilds the shard deterministically — the
    table is a pure function of ``(plan, shard)``)."""
    table, _ = _build_shard(plan, shard)
    return verify_round(table, table.reachable_mask(), plan.bank(), heavy)


def _on_every_shard(
    plan: ShardPlan, jobs: int, worker: Callable[..., Any], **kwargs: Any
) -> list[Any]:
    """One pool round: ``worker(plan, shard, **kwargs)`` per shard, in
    shard order."""
    return run_trials(
        [
            TrialSpec(
                fn=worker,
                kwargs={"plan": plan, "shard": s, **kwargs},
                label=f"shard{s}-{worker.__name__}",
            )
            for s in range(plan.n_shards)
        ],
        jobs=jobs,
    )


@dataclass(frozen=True)
class ShardedResult:
    """A merged sharded run: the global answer plus replay evidence."""

    result: NetFilterResult
    plan: ShardPlan
    #: SHA-256 over the canonical JSON of every decision-relevant output —
    #: two runs of the same plan must produce the same digest.
    digest: str
    per_shard: tuple[dict[str, Any], ...]


def run_sharded(
    plan: ShardPlan,
    jobs: int = 1,
    telemetry: object = None,
    return_truth: bool = False,
) -> ShardedResult:
    """Run netFilter over ``plan.n_shards`` independent shards and merge
    at the super-root.  ``jobs`` workers execute shards concurrently;
    results are identical for any ``jobs`` (spec-order merge).

    With ``return_truth=True`` each round-1 worker also ships its shard's
    exact generation-side global values, so callers can check the merged
    answer against the oracle (used by ``bench_scaling``).
    """
    round1 = _on_every_shard(plan, jobs, _filter_worker, return_truth=return_truth)
    # The super-root is a root like any other: its K links are tree edges
    # priced by the same closed forms, and each shard root's reply
    # carries its whole candidate set.
    filtered = [r for r, _ in round1]
    model = SizeModel()
    k = plan.n_shards
    bank = plan.bank()
    first = FilterRound(
        grand_total=sum(r.grand_total for r in filtered),
        n_participants=sum(r.n_participants for r in filtered),
        n_live=sum(r.n_live for r in filtered),
        aggregate=np.sum([r.aggregate for r in filtered], axis=0),
        height=max(r.height for r in filtered) + 1,  # +1: the super-root hop
        phases=(*filter_phases(model, k, bank), *(p for r in filtered for p in r.phases)),
    )
    threshold = plan.config.resolve_threshold(first.grand_total)
    heavy = HeavyGroups.from_aggregate(bank, first.aggregate, threshold)
    if telemetry is not None:
        telemetry.emit(  # type: ignore[attr-defined]
            vec_engine.VEC_SHARD_KIND,
            shards=plan.n_shards,
            grand_total=first.grand_total,
            heavy_groups=heavy.total_count,
        )

    verified: list[VerifyRound] = _on_every_shard(plan, jobs, _verify_worker, heavy=heavy)
    root_pairs = sum(len(r.candidates) for r in verified)
    second = VerifyRound(
        heavy=heavy,
        candidates=LocalItemSet.merge_many([r.candidates for r in verified]),
        phases=(
            verify_phase(model, k, heavy, root_pairs),
            *(p for r in verified for p in r.phases),
        ),
    )
    result = netfilter_result(plan.config, first, second, population=plan.n_peers, model=model)
    totals = vec_engine.category_totals(first.phases + second.phases)
    digest = replay_digest(plan, result, totals)
    truth = np.sum([t for _, t in round1], axis=0) if return_truth else None
    per_shard = tuple(
        {
            "shard": s,
            "participants": filtered[s].n_participants,
            "grand_total": filtered[s].grand_total,
            "height": filtered[s].height,
            "root_candidates": len(verified[s].candidates),
            **({"truth": truth} if return_truth and s == 0 else {}),
        }
        for s in range(plan.n_shards)
    )
    return ShardedResult(result=result, plan=plan, digest=digest, per_shard=per_shard)


def replay_digest(
    plan: ShardPlan, result: NetFilterResult, totals: dict[CostCategory, int]
) -> str:
    """SHA-256 of every decision-relevant output of a sharded run."""
    payload = {
        "plan": {
            "n_peers": plan.n_peers,
            "n_items": plan.n_items,
            "seed": plan.seed,
            "n_shards": plan.n_shards,
            "g": plan.config.filter_size,
            "f": plan.config.num_filters,
            "threshold_ratio": plan.config.threshold_ratio,
            "threshold": plan.config.threshold,
            "hash_seed": plan.config.hash_seed,
            "skew": plan.skew,
        },
        "grand_total": result.grand_total,
        "participants": result.n_participants,
        "threshold": result.threshold,
        "heavy": [groups.tolist() for groups in result.heavy_groups.per_filter],
        "frequent": sorted(result.frequent.to_dict().items()),
        "candidates": len(result.candidates),
        "bytes": {str(cat): int(n) for cat, n in sorted(totals.items())},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
