"""Hot reload: breaker transitions, validated swaps, pins, rollbacks.

The breaker is unit-tested on a fake clock; the reloader tests run
against a real directory registry with real trained artifacts, because
the load/validate/swap path is exactly what must survive corrupt
publishes and torn tags.
"""

import dataclasses

import pytest

from repro.errors import ArtifactError
from repro.serve import ModelRegistry, PredictionService
from repro.serve.reload import (
    CircuitBreaker,
    ModelReloader,
    ReloadPolicy,
)
from repro.stencil.library import get


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        policy = ReloadPolicy(failure_threshold=3, cooldown_s=10.0, **kw)
        return CircuitBreaker(policy, clock), clock

    def test_closed_allows(self):
        breaker, _ = self.make()
        assert breaker.state == "closed" and breaker.allow()

    def test_opens_at_threshold(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.snapshot()["opens"] == 1

    def test_half_open_after_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.t = 9.9
        assert not breaker.allow()
        clock.t = 10.0
        assert breaker.allow()
        assert breaker.state == "half_open"

    def test_half_open_failure_reopens_immediately(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.t = 10.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert breaker.snapshot()["opens"] == 2
        clock.t = 19.0
        assert not breaker.allow()  # cooldown restarts from the reopen

    def test_success_closes_and_resets(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.t = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0


@pytest.fixture()
def rig(tmp_path, selector_artifact, predictor_artifact):
    """A service + registry + reloader over real artifacts."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(selector_artifact, "sel")
    registry.publish(predictor_artifact, "pred")
    service = PredictionService()
    clock = FakeClock()
    reloader = ModelReloader(
        service,
        registry,
        policy=ReloadPolicy(
            failure_threshold=2, cooldown_s=10.0, min_window=5,
            max_degraded_rate=0.5,
        ),
        clock=clock,
    )
    events = reloader.prime()
    assert {(e["name"], e["action"]) for e in events} == {
        ("sel", "swapped"), ("pred", "swapped")
    }
    return service, registry, reloader, clock


def _publish_corrupt(registry: ModelRegistry, name: str) -> str:
    """A next version whose document fails checksum validation."""
    return registry.publish_text(name, '{"format": 1}')


class TestModelReloader:
    def test_prime_installs_and_serves(self, rig):
        service, _, reloader, _ = rig
        r = service.select_one(get("star2d2r"), "V100")
        assert r.source == "model" and r.artifact == "sel@v000001"
        snap = reloader.snapshot()
        assert snap["sel"]["installed"] == "v000001"
        assert snap["sel"]["breaker"]["state"] == "closed"

    def test_noop_poll_returns_no_events(self, rig):
        _, _, reloader, _ = rig
        assert reloader.check_once() == []

    def test_good_publish_swaps(self, rig, selector_artifact):
        service, registry, reloader, _ = rig
        registry.publish(selector_artifact, "sel")
        events = reloader.check_once()
        assert events == [
            {"name": "sel", "action": "swapped", "version": "v000002"}
        ]
        r = service.select_one(get("star2d2r"), "V100")
        assert r.artifact == "sel@v000002"
        assert reloader.snapshot()["sel"]["last_good"] == "v000001"

    def test_corrupt_publish_pins_last_good(self, rig):
        service, registry, reloader, _ = rig
        _publish_corrupt(registry, "sel")
        events = reloader.check_once()
        assert events[0]["action"] == "load-failed"
        assert "checksum" in events[0]["error"]
        # Pinned: traffic still answers from the old model.
        r = service.select_one(get("star2d2r"), "V100")
        assert r.source == "model" and r.artifact == "sel@v000001"

    def test_repeated_bad_loads_open_breaker(self, rig):
        _, registry, reloader, _ = rig
        _publish_corrupt(registry, "sel")
        reloader.check_once()  # failure 1 (threshold 2)
        events = reloader.check_once()  # failure 2: opens
        assert events[0]["breaker"] == "open"
        _publish_corrupt(registry, "sel")
        events = reloader.check_once()
        assert events[0]["action"] == "breaker-open"  # no load attempted
        assert reloader.snapshot()["sel"]["load_failures"] == 2

    def test_breaker_recovers_via_half_open_probe(
        self, rig, selector_artifact
    ):
        service, registry, reloader, clock = rig
        _publish_corrupt(registry, "sel")
        reloader.check_once()
        reloader.check_once()  # breaker open
        registry.publish(selector_artifact, "sel")  # v000003, good
        assert reloader.check_once()[0]["action"] == "breaker-open"
        clock.t = 10.0  # cooldown elapsed -> half-open probe
        events = reloader.check_once()
        assert events == [
            {"name": "sel", "action": "swapped", "version": "v000003"}
        ]
        assert reloader.snapshot()["sel"]["breaker"]["state"] == "closed"
        r = service.select_one(get("star2d2r"), "V100")
        assert r.artifact == "sel@v000003"

    def test_torn_tag_fails_closed(self, rig):
        from repro.store import atomic_write_text

        service, registry, reloader, _ = rig
        atomic_write_text(registry.root / "sel" / "LATEST", "")
        events = reloader.check_once()
        assert events[0]["action"] == "poll-failed"
        assert "torn tag" in events[0]["error"]
        r = service.select_one(get("star2d2r"), "V100")
        assert r.source == "model"  # still pinned

    def test_degraded_swap_rolls_back(self, rig, selector_artifact):
        service, registry, reloader, _ = rig
        registry.publish(selector_artifact, "sel")
        reloader.check_once()  # swap to v000002

        class Poison:
            def predict(self, X):
                raise RuntimeError("poisoned")

        service._selectors[(2, "V100")].artifact.model = Poison()
        stencil = get("star2d2r")
        for _ in range(6):  # min_window=5, all degraded
            assert service.select_one(stencil, "V100").source == "fallback"
        events = reloader.check_once()
        assert events[0]["action"] == "rollback"
        assert events[0]["from"] == "v000002"
        assert events[0]["to"] == "v000001"
        snap = reloader.snapshot()["sel"]
        assert snap["installed"] == "v000001"
        assert snap["rollbacks"] == 1
        assert snap["rejected"] == ["v000002"]
        # Back on the last good model, and the bad version stays out.
        assert service.select_one(stencil, "V100").source == "model"
        assert reloader.check_once() == []  # v000002 is rejected, no retry

    def test_healthy_swap_survives_window(self, rig, selector_artifact):
        service, registry, reloader, _ = rig
        registry.publish(selector_artifact, "sel")
        reloader.check_once()
        stencil = get("star2d2r")
        for _ in range(6):
            service.select_one(stencil, "V100")
        assert reloader.check_once() == []
        assert reloader.snapshot()["sel"]["last_good"] == "v000002"

    def test_validation_rejects_broken_selector(self, rig, selector_artifact):
        _, _, reloader, _ = rig

        class Poison:
            def predict(self, X):
                raise RuntimeError("poisoned")

        bad = dataclasses.replace(selector_artifact, model=Poison())
        with pytest.raises(ArtifactError, match="smoke validation"):
            reloader._validate(bad)

    def test_validation_accepts_good_artifacts(
        self, rig, selector_artifact, predictor_artifact
    ):
        _, _, reloader, _ = rig
        reloader._validate(selector_artifact)
        reloader._validate(predictor_artifact)

    def test_stats_snapshot_carries_reload(self, rig):
        service, _, reloader, _ = rig
        snap = service.stats_snapshot()
        assert snap["reload"]["sel"]["installed"] == "v000001"

    def test_background_thread_start_stop(self, rig, selector_artifact):
        import time as real_time

        service, registry, reloader, _ = rig
        reloader.start(interval_s=0.01)
        try:
            registry.publish(selector_artifact, "sel")
            deadline = real_time.monotonic() + 5.0
            while real_time.monotonic() < deadline:
                if reloader.snapshot()["sel"]["installed"] == "v000002":
                    break
                real_time.sleep(0.01)
            assert reloader.snapshot()["sel"]["installed"] == "v000002"
        finally:
            reloader.stop()
        assert reloader._thread is None
