"""Unit tests for the admission controller and front-door configs."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.frontdoor import NO_RETRY, FrontDoorConfig, TenantPolicy
from repro.frontdoor.admission import (
    REASON_BUDGET,
    REASON_QUEUE_FULL,
    REASON_RATE,
    AdmissionController,
)


def make_controller(**overrides):
    policy = overrides.pop(
        "default_policy", TenantPolicy(rate=1.0, burst=2.0, byte_budget=None)
    )
    config = FrontDoorConfig(default_policy=policy, **overrides)
    return AdmissionController(config)


def test_new_tenant_starts_with_full_burst():
    controller = make_controller()
    first = controller.decide("acme", now=0.0, queue_depth=0)
    second = controller.decide("acme", now=0.0, queue_depth=0)
    assert first.admitted and second.admitted
    third = controller.decide("acme", now=0.0, queue_depth=0)
    assert not third.admitted
    assert third.reason == REASON_RATE
    assert third.retry_after == pytest.approx(1.0)


def test_tokens_refill_on_sim_time():
    controller = make_controller()
    for _ in range(2):
        assert controller.decide("acme", now=0.0, queue_depth=0).admitted
    assert not controller.decide("acme", now=0.0, queue_depth=0).admitted
    # Half a token after 0.5s at rate 1/s: still rejected, shorter wait.
    wait = controller.decide("acme", now=0.5, queue_depth=0)
    assert not wait.admitted
    assert wait.retry_after == pytest.approx(0.5)
    assert controller.decide("acme", now=1.0, queue_depth=0).admitted


def test_burst_caps_the_bucket():
    controller = make_controller()
    # A long idle period never grants more than the burst allowance.
    for _ in range(2):
        assert controller.decide("acme", now=1000.0, queue_depth=0).admitted
    assert not controller.decide("acme", now=1000.0, queue_depth=0).admitted


def test_budget_exhaustion_is_terminal():
    controller = make_controller(
        default_policy=TenantPolicy(rate=10.0, burst=10.0, byte_budget=100.0)
    )
    assert controller.decide("acme", now=0.0, queue_depth=0).admitted
    controller.charge("acme", 100.0)
    verdict = controller.decide("acme", now=1.0, queue_depth=0)
    assert not verdict.admitted
    assert verdict.reason == REASON_BUDGET
    assert verdict.retry_after == NO_RETRY
    assert controller.spent("acme") == 100.0


def test_queue_depth_sheds():
    controller = make_controller(max_queue_depth=4)
    verdict = controller.decide("acme", now=0.0, queue_depth=4)
    assert not verdict.admitted
    assert verdict.reason == REASON_QUEUE_FULL
    assert verdict.retry_after == pytest.approx(
        controller.config.round_interval
    )


def test_tenants_are_isolated():
    controller = make_controller()
    for _ in range(2):
        assert controller.decide("noisy", now=0.0, queue_depth=0).admitted
    assert not controller.decide("noisy", now=0.0, queue_depth=0).admitted
    # The quiet tenant's bucket is untouched by the noisy one.
    assert controller.decide("quiet", now=0.0, queue_depth=0).admitted


def test_per_tenant_policy_overrides():
    config = FrontDoorConfig(default_policy=TenantPolicy(rate=1.0, burst=8.0))
    controller = AdmissionController(
        config, policies={"tight": TenantPolicy(rate=0.1, burst=1.0)}
    )
    assert controller.decide("tight", now=0.0, queue_depth=0).admitted
    rejected = controller.decide("tight", now=0.0, queue_depth=0)
    assert not rejected.admitted
    assert rejected.retry_after == pytest.approx(10.0)
    assert controller.account("loose").policy.burst == 8.0


def test_accounts_snapshot_counts():
    controller = make_controller()
    controller.decide("b", now=0.0, queue_depth=0)
    for _ in range(3):
        controller.decide("a", now=0.0, queue_depth=0)
    accounts = controller.accounts()
    assert list(accounts) == ["a", "b"]
    assert accounts["a"].admitted == 2
    assert accounts["a"].rejected == 1
    assert accounts["b"].admitted == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rate": 0.0},
        {"burst": 0.5},
        {"byte_budget": -1.0},
        {"max_staleness": -1},
    ],
)
def test_tenant_policy_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TenantPolicy(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"round_interval": 0.0},
        {"max_batch": 0},
        {"max_queue_depth": 0},
        {"session_deadline": -1.0},
        {"max_session_retries": -1},
        {"client_timeout": 10.0, "round_interval": 30.0},
        {"breaker_threshold": 0},
    ],
)
def test_front_door_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        FrontDoorConfig(**kwargs)
