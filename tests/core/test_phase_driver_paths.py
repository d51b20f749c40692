"""Every netFilter caller makes the same three convergecasts.

One-shot :class:`NetFilter`, a one-request front-door batch, a dense
continuous epoch and one monitor-service epoch all run grand total →
group filtering → candidate verification over the same hierarchy.  On a
fresh copy of the same seeded system they must produce the same answer
with the same measured costs, bit for bit.  The dead-root cases pin how
each caller reports a root that is down before the first phase.
"""

from __future__ import annotations

import pytest

from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter
from repro.core.netfilter import NetFilter, NetFilterResult
from repro.errors import AggregationError
from repro.frontdoor.batching import BatchSessionRunner, PendingRequest
from repro.frontdoor.config import FrontDoorConfig
from repro.service import MonitorService
from tests.conftest import build_small_system

CONFIG = NetFilterConfig(
    filter_size=80, num_filters=2, threshold_ratio=0.01, hash_seed=5
)


def one_request() -> list[PendingRequest]:
    return [
        PendingRequest(
            request_id=0,
            tenant="t",
            requester=0,
            threshold_ratio=0.01,
            max_staleness=4,
            submitted_at=0.0,
            deadline=1_000.0,
        )
    ]


def run_netfilter(system) -> NetFilterResult:
    return NetFilter(CONFIG).run(system.engine)


def run_batch(system) -> NetFilterResult:
    runner = BatchSessionRunner(system.engine, CONFIG, FrontDoorConfig())
    outcome = runner.run(one_request())
    assert outcome.result is not None, outcome.reason
    return outcome.result


def run_continuous(system) -> NetFilterResult:
    monitor = ContinuousNetFilter(CONFIG, system.engine, delta_filtering=False)
    return monitor.run_epoch().result


def run_monitor(system) -> NetFilterResult:
    monitor = ContinuousNetFilter(CONFIG, system.engine, delta_filtering=False)
    outcome = MonitorService(monitor).run_one(0)
    assert outcome.report is not None, outcome.reason
    return outcome.report.result


PATHS = {
    "netfilter": run_netfilter,
    "batch": run_batch,
    "continuous": run_continuous,
    "monitor": run_monitor,
}


def fingerprint(result: NetFilterResult) -> tuple:
    breakdown = result.breakdown
    return (
        tuple(result.frequent.ids.tolist()),
        tuple(result.frequent.values.tolist()),
        result.threshold,
        result.grand_total,
        result.n_participants,
        breakdown.filtering,
        breakdown.dissemination,
        breakdown.aggregation,
        breakdown.control,
        result.elapsed_time,
        result.coverage,
        result.complete,
        result.avg_candidates_per_peer,
    )


@pytest.fixture(scope="module")
def reference() -> tuple:
    return fingerprint(run_netfilter(build_small_system(seed=0)))


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_path_matches_one_shot_netfilter(path, reference):
    result = PATHS[path](build_small_system(seed=0))
    assert fingerprint(result) == reference


def test_reference_is_a_real_answer(reference):
    frequent_ids = reference[0]
    assert frequent_ids
    assert reference[11] is True  # complete


def dead_root_system():
    system = build_small_system(seed=0)
    system.network.fail_peer(system.hierarchy.root)
    return system


def test_dead_root_netfilter_returns_empty_incomplete_result():
    result = run_netfilter(dead_root_system())
    assert not result.complete
    assert len(result.frequent) == 0
    assert result.coverage == 0.0


def test_dead_root_batch_fails_with_root_lost():
    system = dead_root_system()
    runner = BatchSessionRunner(system.engine, CONFIG, FrontDoorConfig())
    outcome = runner.run(one_request())
    assert outcome.result is None
    assert outcome.reason == "root_lost"


def test_dead_root_continuous_raises_and_commits_nothing():
    system = dead_root_system()
    monitor = ContinuousNetFilter(CONFIG, system.engine, delta_filtering=False)
    with pytest.raises(AggregationError):
        monitor.run_epoch()
    assert monitor.committed_epoch == -1
    assert monitor.reports == []


def test_dead_root_monitor_degrades_with_root_dead():
    system = dead_root_system()
    monitor = ContinuousNetFilter(CONFIG, system.engine, delta_filtering=False)
    outcome = MonitorService(monitor).run_one(0)
    assert not outcome.committed
    assert outcome.reason == "root_dead"
    assert monitor.committed_epoch == -1
