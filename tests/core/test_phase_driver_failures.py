"""Failure paths of the phase driver, shared by every netFilter caller.

* A coverage-gated attempt must not commit across a crash-and-revive: a
  peer that replied to phase 1, crashed, and revived once verification
  had started counts as covered in every phase and leaves the live set
  unchanged, yet its verification share is missing from the answer.
* A dense continuous epoch whose root dies mid-phase must abandon the
  attempt and raise a typed error, with nothing committed.
* A continuous epoch with a phase short of full coverage must likewise
  raise instead of committing an answer that misses a peer's delta.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter
from repro.core.oracle import oracle_frequent_items
from repro.errors import AggregationError
from repro.faults import DropMessages, FaultInjector, FaultScenario, MessageMatch
from repro.frontdoor.batching import BatchSessionRunner, PendingRequest
from repro.frontdoor.config import FrontDoorConfig
from repro.net.wire import CostCategory
from repro.service import MonitorService, ServiceConfig
from repro.workload.streams import ZipfStream
from tests.conftest import build_small_system

CONFIG = NetFilterConfig(
    filter_size=80, num_filters=2, threshold_ratio=0.01, hash_seed=5
)


def deepest_leaf(system) -> int:
    hierarchy = system.hierarchy
    leaves = [
        peer
        for peer in sorted(hierarchy.services)
        if peer != hierarchy.root and not hierarchy.children_of(peer)
    ]
    return max(leaves, key=lambda peer: (hierarchy.depth_of(peer), peer))


def crash_and_revive_once(system, peer: int, phase1_category: str) -> None:
    """Crash ``peer`` half a hop after its first phase-1 reply and revive
    it half a hop after the next verification session starts."""
    sim, network = system.sim, system.network
    fired = {"crash": False, "revive": False}

    def on_sent(record) -> None:
        fields = record.fields
        if (
            not fired["crash"]
            and fields["sender"] == peer
            and fields["category"] == phase1_category
        ):
            fired["crash"] = True
            sim.post(0.5, network.fail_peer, peer)

    def on_start(record) -> None:
        if (
            fired["crash"]
            and not fired["revive"]
            and record.fields["spec"] == "netfilter.candidates"
        ):
            fired["revive"] = True
            sim.post(0.5, network.revive_peer, peer)

    sim.trace.subscribe("msg.sent", on_sent)
    sim.trace.subscribe("aggregation.start", on_start)


def dense_monitor(system) -> ContinuousNetFilter:
    return ContinuousNetFilter(CONFIG, system.engine, delta_filtering=False)


def test_monitor_abandons_an_attempt_across_a_crash_and_revive():
    system = build_small_system(seed=0)
    peer = deepest_leaf(system)
    crash_and_revive_once(system, peer, "filtering")
    monitor = dense_monitor(system)
    service = MonitorService(monitor, ServiceConfig(max_attempts=1))
    outcome = service.run_one(0)
    assert system.network.node(peer).alive
    assert not outcome.committed
    assert outcome.reason == "membership_changed"
    assert monitor.committed_epoch == -1


def test_monitor_retry_after_the_revive_commits_the_exact_answer():
    system = build_small_system(seed=0)
    crash_and_revive_once(system, deepest_leaf(system), "filtering")
    monitor = dense_monitor(system)
    outcome = MonitorService(monitor).run_one(0)
    assert outcome.committed
    assert outcome.attempts == 2
    result = outcome.report.result
    truth = oracle_frequent_items(system.network, result.threshold)
    assert np.array_equal(result.frequent.ids, truth.ids)
    assert np.array_equal(result.frequent.values, truth.values)


def test_batch_abandons_a_session_across_a_crash_and_revive():
    system = build_small_system(seed=0)
    crash_and_revive_once(system, deepest_leaf(system), "filtering")
    runner = BatchSessionRunner(
        system.engine, CONFIG, FrontDoorConfig(max_session_retries=0)
    )
    request = PendingRequest(
        request_id=0,
        tenant="t",
        requester=0,
        threshold_ratio=0.01,
        max_staleness=4,
        submitted_at=0.0,
        deadline=1_000.0,
    )
    outcome = runner.run([request])
    assert outcome.result is None
    assert outcome.reason == "membership_changed"


def fail_root_when(system, spec_name: str) -> None:
    """Fail the root half a hop after the first ``spec_name`` session
    starts."""
    sim, network = system.sim, system.network
    fired = []

    def on_start(record) -> None:
        if not fired and record.fields["spec"] == spec_name:
            fired.append(True)
            sim.post(0.5, network.fail_peer, system.hierarchy.root)

    sim.trace.subscribe("aggregation.start", on_start)


def test_run_epoch_on_a_root_lost_mid_totals_raises_a_typed_error():
    system = build_small_system(seed=0)
    system.sim.post(1.5, system.network.fail_peer, system.hierarchy.root)
    monitor = ContinuousNetFilter(CONFIG, system.engine)
    with pytest.raises(AggregationError, match="totals phase: root_lost"):
        monitor.run_epoch()
    assert monitor.committed_epoch == -1
    assert monitor.reports == []


@pytest.mark.parametrize(
    ("spec_name", "phase"),
    [
        ("netfilter.totals", "totals"),
        ("netfilter.group_deltas", "filter"),
        ("netfilter.candidates", "verify"),
    ],
)
def test_run_epoch_abandons_when_the_root_dies_mid_phase(spec_name, phase):
    system = build_small_system(seed=0)
    monitor = ContinuousNetFilter(CONFIG, system.engine)
    monitor.run_epoch()
    committed_totals = monitor._group_totals.copy()
    committed_ledgers = dict(monitor._ledger)
    attempted = monitor.epoch

    fail_root_when(system, spec_name)
    with pytest.raises(AggregationError, match=f"{phase} phase: root_lost"):
        monitor.run_epoch()

    assert monitor.committed_epoch == 0
    assert monitor.epoch == attempted
    assert len(monitor.reports) == 1
    assert np.array_equal(monitor._group_totals, committed_totals)
    assert monitor._ledger.keys() == committed_ledgers.keys()
    for peer, ledger in committed_ledgers.items():
        assert monitor._ledger[peer] is ledger


def assert_oracle_exact(system, result) -> None:
    truth = oracle_frequent_items(system.network, result.threshold)
    assert result.complete
    assert np.array_equal(result.frequent.ids, truth.ids)
    assert np.array_equal(result.frequent.values, truth.values)


@pytest.mark.parametrize("seed", range(6, 12))
def test_run_epoch_refuses_an_epoch_with_a_lost_filtering_reply(seed):
    system = build_small_system(seed=seed)
    hierarchy = system.hierarchy
    monitor = ContinuousNetFilter(CONFIG, system.engine)
    stream = ZipfStream(
        n_items=2000,
        n_peers=60,
        skew=1.0,
        instances_per_epoch=200,
        rng=system.sim.rng.stream("stream"),
    )
    monitor.run_epoch()
    committed_totals = monitor._group_totals.copy()
    committed_ledgers = dict(monitor._ledger)

    FaultInjector(
        system.network,
        FaultScenario(
            name="eat-one-filtering-reply",
            actions=(
                DropMessages(
                    match=MessageMatch(
                        sender=min(hierarchy.children_of(hierarchy.root)),
                        recipient=hierarchy.root,
                        category=CostCategory.FILTERING,
                    ),
                    count=1,
                ),
            ),
        ),
    ).install()
    stream.apply_to(system.network)
    with pytest.raises(AggregationError, match="gate phase: coverage"):
        monitor.run_epoch()

    assert monitor.committed_epoch == 0
    assert len(monitor.reports) == 1
    assert np.array_equal(monitor._group_totals, committed_totals)
    assert monitor._ledger.keys() == committed_ledgers.keys()
    for peer, ledger in committed_ledgers.items():
        assert monitor._ledger[peer] is ledger

    assert_oracle_exact(system, monitor.run_epoch().result)
    for _ in range(3):
        stream.apply_to(system.network)
        assert_oracle_exact(system, monitor.run_epoch().result)
