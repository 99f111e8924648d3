"""Registries under races and torn states: every read fails closed.

A reader racing a publisher must see either the old tag or the new one
(both valid); a torn tag, a tag naming a deleted version file, or an
empty registry must raise the registry's descriptive error, never
return garbage or crash with a raw OSError.  Each class runs against the
model registry and, through its ``Dataset`` subclass, the dataset
registry.
"""

import threading

import pytest

from repro.profiling import DatasetRegistry
from repro.serve import ModelRegistry
from repro.store import atomic_write_text


@pytest.fixture()
def store(store_case):
    """The case's registry with one published ``sel`` version."""
    store_case.publish("sel")
    return store_case


class TestConcurrentPublish:
    registry_cls = ModelRegistry

    def test_parallel_publishes_get_distinct_versions(self, store_case):
        reg = store_case.registry
        versions = []
        lock = threading.Lock()

        def publish():
            v = store_case.publish("sel")
            with lock:
                versions.append(v)

        pool = [
            threading.Thread(target=publish, daemon=True) for _ in range(8)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in pool)
        assert sorted(versions) == [f"v{i:06d}" for i in range(1, 9)]
        assert reg.latest("sel") == "v000008"

    def test_latest_during_concurrent_publish_is_always_valid(self, store):
        registry = store.registry
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    v = registry.latest("sel")
                    # A valid version resolves to a loadable path.
                    assert registry.path("sel", v).exists()
                except BaseException as e:  # noqa: BLE001
                    failures.append(e)
                    return

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for _ in range(10):
            store.publish("sel")
        stop.set()
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert failures == []


class TestDatasetConcurrentPublish(TestConcurrentPublish):
    registry_cls = DatasetRegistry


class TestTornStates:
    registry_cls = ModelRegistry

    def test_empty_tag_is_descriptive_error(self, store):
        registry = store.registry
        atomic_write_text(registry.root / "sel" / "LATEST", "")
        with pytest.raises(registry.error, match="torn tag"):
            registry.latest("sel")

    def test_garbage_tag_is_descriptive_error(self, store):
        registry = store.registry
        atomic_write_text(registry.root / "sel" / "LATEST", "v999999\n")
        with pytest.raises(registry.error, match="LATEST tag points at"):
            registry.latest("sel")

    def test_tag_to_deleted_version_file(self, store):
        registry = store.registry
        v2 = store.publish("sel")
        (registry.root / "sel" / f"{v2}.json").unlink()
        with pytest.raises(registry.error, match="deleted"):
            registry.latest("sel")

    def test_directory_with_no_versions(self, store):
        registry = store.registry
        d = registry.root / "empty"
        d.mkdir()
        atomic_write_text(d / "LATEST", "v000001\n")
        with pytest.raises(registry.error):
            registry.latest("empty")

    def test_missing_name_fails_closed(self, store):
        registry = store.registry
        with pytest.raises(registry.error, match=f"no {registry.noun} named"):
            registry.latest("nope")

    def test_load_of_torn_registry_fails_closed(self, store):
        registry = store.registry
        atomic_write_text(registry.root / "sel" / "LATEST", "")
        with pytest.raises(registry.error):
            registry.load("sel")


class TestDatasetTornStates(TestTornStates):
    registry_cls = DatasetRegistry
