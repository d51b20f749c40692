"""Tests for concurrent-request sharing (Section III-A.1)."""

from __future__ import annotations

import pytest

from repro.core.config import NetFilterConfig
from repro.core.oracle import oracle_frequent_items
from repro.core.requests import IfiRequest, MultiRequestCoordinator
from repro.errors import AggregationError, ProtocolError, RequestTimeoutError
from repro.faults import DropMessages, FaultInjector, FaultScenario, MessageMatch
from repro.frontdoor.batching import BatchSessionRunner, PendingRequest
from repro.frontdoor.config import FrontDoorConfig
from repro.net.wire import CostCategory

from tests.conftest import build_small_system

CONFIG = NetFilterConfig(filter_size=60, num_filters=3, threshold_ratio=0.01)


@pytest.fixture(scope="module")
def setup():
    system = build_small_system(seed=6)
    coordinator = MultiRequestCoordinator(
        system.engine,
        NetFilterConfig(filter_size=60, num_filters=3, threshold_ratio=0.01),
    )
    return system, coordinator


def test_single_remote_request(setup):
    system, coordinator = setup
    requester = system.hierarchy.leaves()[0]
    answers, shared = coordinator.run([IfiRequest(requester, 0.01)])
    truth = oracle_frequent_items(system.network, shared.threshold)
    assert answers[requester] == truth


def test_multiple_thresholds_share_one_run(setup):
    system, coordinator = setup
    leaves = system.hierarchy.leaves()
    requests = [
        IfiRequest(leaves[0], 0.05),
        IfiRequest(leaves[1], 0.01),
        IfiRequest(leaves[2], 0.02),
    ]
    answers, shared = coordinator.run(requests)
    # The shared run used the minimum ratio.
    assert shared.config.threshold_ratio == 0.01
    for request in requests:
        threshold = max(
            int(-(-request.threshold_ratio * shared.grand_total // 1)), 1
        )
        expected = oracle_frequent_items(system.network, threshold)
        assert answers[request.requester] == expected


def test_larger_ratio_gets_subset(setup):
    system, coordinator = setup
    leaves = system.hierarchy.leaves()
    answers, _ = coordinator.run(
        [IfiRequest(leaves[0], 0.01), IfiRequest(leaves[1], 0.05)]
    )
    import numpy as np

    strict = answers[leaves[1]]
    loose = answers[leaves[0]]
    assert np.isin(strict.ids, loose.ids).all()
    assert len(strict) <= len(loose)


def test_root_as_requester(setup):
    system, coordinator = setup
    answers, shared = coordinator.run([IfiRequest(system.hierarchy.root, 0.01)])
    truth = oracle_frequent_items(system.network, shared.threshold)
    assert answers[system.hierarchy.root] == truth


def test_empty_request_list_rejected(setup):
    _, coordinator = setup
    with pytest.raises(ProtocolError):
        coordinator.run([])


def test_invalid_ratio_rejected():
    with pytest.raises(ProtocolError):
        IfiRequest(requester=1, threshold_ratio=0.0)


def test_second_coordinator_rejected():
    system = build_small_system(seed=11)
    MultiRequestCoordinator(system.engine, CONFIG)
    with pytest.raises(ProtocolError, match="already owns"):
        MultiRequestCoordinator(system.engine, CONFIG)


def test_invalid_timeout_rejected():
    system = build_small_system(seed=12)
    coordinator = MultiRequestCoordinator(system.engine, CONFIG)
    requester = system.hierarchy.leaves()[0]
    with pytest.raises(ProtocolError):
        coordinator.run([IfiRequest(requester, 0.01)], timeout=0.0)


def test_dropped_request_times_out_promptly():
    """A lost RequestPayload must surface as a typed timeout naming the
    silent requester — not as an endless event-loop spin."""
    system = build_small_system(seed=13)
    coordinator = MultiRequestCoordinator(system.engine, CONFIG)
    requester = system.hierarchy.leaves()[0]
    FaultInjector(
        system.network,
        FaultScenario(
            name="eat-requests",
            actions=(
                DropMessages(
                    match=MessageMatch(payload_kind="RequestPayload"), count=1
                ),
            ),
        ),
    ).install()
    started = system.sim.now
    with pytest.raises(RequestTimeoutError, match="request routing") as excinfo:
        coordinator.run([IfiRequest(requester, 0.01)], timeout=50.0)
    assert str(requester) in str(excinfo.value)
    assert system.sim.now <= started + 50.0 + 1e-9


def test_dropped_result_times_out_promptly():
    """A lost ResultPayload: the shared run finishes, but the delivery
    stage raises the typed timeout naming the unanswered requester."""
    system = build_small_system(seed=14)
    coordinator = MultiRequestCoordinator(system.engine, CONFIG)
    leaves = system.hierarchy.leaves()
    FaultInjector(
        system.network,
        FaultScenario(
            name="eat-results",
            actions=(
                DropMessages(
                    match=MessageMatch(payload_kind="ResultPayload"), count=50
                ),
            ),
        ),
    ).install()
    with pytest.raises(RequestTimeoutError, match="result delivery") as excinfo:
        coordinator.run(
            [IfiRequest(leaves[0], 0.01), IfiRequest(leaves[1], 0.02)],
            timeout=80.0,
        )
    message = str(excinfo.value)
    assert str(leaves[0]) in message or str(leaves[1]) in message


@pytest.mark.parametrize("seed", range(6, 12))
def test_incomplete_shared_run_raises_instead_of_answering(seed):
    """A lost candidate-aggregation reply leaves the shared run
    incomplete; carving it would hand every requester a silently wrong
    subset, so the coordinator must refuse before sending any answer."""
    system = build_small_system(seed=seed)
    coordinator = MultiRequestCoordinator(system.engine, CONFIG)
    root = system.hierarchy.root
    child = min(system.hierarchy.children_of(root))
    FaultInjector(
        system.network,
        FaultScenario(
            name="eat-one-aggregation-reply",
            actions=(
                DropMessages(
                    match=MessageMatch(
                        sender=child,
                        recipient=root,
                        category=CostCategory.AGGREGATION,
                    ),
                    count=1,
                ),
            ),
        ),
    ).install()
    sent: list[str] = []
    system.sim.trace.subscribe(
        "msg.sent", lambda record: sent.append(record.fields["payload_kind"])
    )
    leaves = system.hierarchy.leaves()
    with pytest.raises(AggregationError, match="coverage"):
        coordinator.run([IfiRequest(leaves[0], 0.01), IfiRequest(leaves[1], 0.02)])
    assert "RequestPayload" in sent
    assert "ResultPayload" not in sent


@pytest.mark.parametrize(("seed", "bytes_spent"), [(6, 110_204), (7, 109_692)])
def test_coordinator_and_batch_share_one_session(seed, bytes_spent):
    """The coordinator's routed requests and a front-door batch with the
    same ratios run the same min-threshold session and carve the same
    answers from it."""
    routed = build_small_system(seed=seed)
    batched = build_small_system(seed=seed)
    leaves = routed.hierarchy.leaves()[:3]
    ratios = (0.05, 0.01, 0.02)
    answers, shared = MultiRequestCoordinator(routed.engine, CONFIG).run(
        [IfiRequest(peer, ratio) for peer, ratio in zip(leaves, ratios)]
    )
    outcome = BatchSessionRunner(batched.engine, CONFIG, FrontDoorConfig()).run(
        [
            PendingRequest(
                request_id=n,
                tenant="t",
                requester=peer,
                threshold_ratio=ratio,
                max_staleness=0,
                submitted_at=0.0,
                deadline=1_000.0,
            )
            for n, (peer, ratio) in enumerate(zip(leaves, ratios))
        ]
    )
    result = outcome.result
    assert result is not None
    assert result.threshold == shared.threshold
    assert result.grand_total == shared.grand_total
    assert result.breakdown == shared.breakdown
    assert result.frequent == shared.frequent
    assert result.candidates == shared.candidates
    assert result.elapsed_time == shared.elapsed_time
    for peer, ratio in zip(leaves, ratios):
        assert answers[peer] == outcome.carve(ratio)[0]
    assert outcome.bytes_spent == bytes_spent


def test_one_requester_asking_twice_is_refused():
    """Answers are keyed by requester, so a second request from the same
    peer would silently overwrite the first one's answer; the coordinator
    refuses the call before any message is sent."""
    system = build_small_system(seed=6)
    coordinator = MultiRequestCoordinator(system.engine, CONFIG)
    sent: list[str] = []
    system.sim.trace.subscribe(
        "msg.sent", lambda record: sent.append(record.fields["payload_kind"])
    )
    leaf = system.hierarchy.leaves()[0]
    with pytest.raises(ProtocolError, match=rf"\[{leaf}\] requested more than once"):
        coordinator.run([IfiRequest(leaf, 0.01), IfiRequest(leaf, 0.05)])
    assert sent == []
