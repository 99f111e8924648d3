"""Lockstep unit tuning: one engine call per round for every OC of a unit."""

import pytest

from repro.engine import BackendBase, VectorBackend
from repro.errors import DeviceLostError
from repro.gpu.faults import FaultConfig
from repro.optimizations import ALL_OCS
from repro.profiling.records import StencilProfile
from repro.profiling.runner import (
    CampaignHealth,
    RetryPolicy,
    UnitTuner,
    run_unit,
)
from repro.profiling.storage import profile_to_row
from repro.stencil import generate_population

N_SETTINGS = 4
SEED = 5


class CountingBackend(BackendBase):
    """Delegates to *inner*, counting ``evaluate_batch`` calls; the first
    ``fail_first`` calls raise a device loss instead."""

    def __init__(self, inner, fail_first: int = 0):
        self.inner = inner
        self.calls = 0
        self.fail_first = fail_first

    @property
    def spec(self):
        return self.inner.spec

    @property
    def sigma(self):
        return self.inner.sigma

    @property
    def info(self):
        return self.inner.info

    def evaluate_batch(self, requests):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise DeviceLostError(f"injected loss on call {self.calls}")
        return self.inner.evaluate_batch(requests)


@pytest.fixture(scope="module")
def stencil():
    return generate_population(2, 1, seed=23)[0]


@pytest.fixture(scope="module")
def solo(stencil):
    """Per-OC engine call counts and results, each OC tuned alone."""
    calls, pairs = [], []
    for oc in ALL_OCS:
        backend = CountingBackend(VectorBackend("V100"))
        pairs += UnitTuner(backend, N_SETTINGS, SEED).tune_oc(stencil, 0, [oc])
        calls.append(backend.calls)
    return calls, pairs


def _unit(stencil, backend, faults=FaultConfig(), policy=RetryPolicy()):
    health = CampaignHealth()
    profile = run_unit(
        UnitTuner(backend, N_SETTINGS, SEED), "V100", stencil, 0, ALL_OCS,
        faults, policy, health,
    )
    return profile, health


def _expected_row(stencil, pairs):
    profile = StencilProfile(stencil=stencil, stencil_id=0, gpu="V100")
    for oc, (result, ms) in zip(ALL_OCS, pairs):
        if result is not None:
            profile.oc_results[oc.name] = result
            profile.measurements.extend(ms)
    return profile_to_row(profile)


def test_unit_makes_one_call_per_round_of_its_longest_oc(stencil, solo):
    calls, pairs = solo
    assert len(ALL_OCS) == 30
    backend = CountingBackend(VectorBackend("V100"))
    profile, health = _unit(stencil, backend)
    assert backend.calls == max(calls)
    assert profile_to_row(profile) == _expected_row(stencil, pairs)
    assert health.quarantined == [] and health.point_retries == 0


def test_faulted_unit_keeps_one_oc_groups(stencil, solo):
    calls, pairs = solo
    backend = CountingBackend(VectorBackend("V100"))
    profile, _ = _unit(stencil, backend, faults=FaultConfig(device_lost_rate=1e-9))
    assert backend.calls == sum(calls)
    assert profile_to_row(profile) == _expected_row(stencil, pairs)


def test_failed_group_is_retried_then_recovers(stencil, solo):
    _, pairs = solo
    policy = RetryPolicy(max_point_retries=2)
    backend = CountingBackend(VectorBackend("V100"), fail_first=2)
    profile, health = _unit(stencil, backend, policy=policy)
    assert health.point_retries == 2 and health.quarantined == []
    assert profile_to_row(profile) == _expected_row(stencil, pairs)


def test_exhausted_group_quarantines_every_oc_in_order(stencil):
    policy = RetryPolicy(max_point_retries=2)
    backend = CountingBackend(VectorBackend("V100"), fail_first=10**9)
    profile, health = _unit(stencil, backend, policy=policy)
    # One engine call per attempt: each attempt dies on its first round.
    assert backend.calls == policy.max_point_retries + 1
    assert health.point_retries == policy.max_point_retries
    assert [q["oc"] for q in health.quarantined] == [oc.name for oc in ALL_OCS]
    assert {(q["gpu"], q["stencil_id"]) for q in health.quarantined} == {("V100", 0)}
    assert all("injected loss" in q["reason"] for q in health.quarantined)
    assert profile.oc_results == {} and profile.measurements == []
