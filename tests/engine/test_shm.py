"""Shared-memory transport: packing round trips and segment lifecycle.

The safety claims under test: the packed request/result arrays decode to
content-identical requests and bit-identical results; segments never
outlive their batch (double unlinks are tolerated, the atexit ledger
sweeps stragglers); and the stale-segment reaper removes segments whose
creator process died without cleanup -- the SIGKILLed-tree case neither
the resource tracker nor ``finally`` blocks can cover.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import make_backend
from repro.engine import shm as shm_transport


pytestmark = pytest.mark.skipif(
    not shm_transport.shm_available(), reason="no POSIX shared memory"
)


class TestPacking:
    def test_request_round_trip_preserves_identity(self, workload):
        seg = shm_transport.pack_requests(workload)
        try:
            batch = shm_transport.DecodedBatch(
                shm_transport.attach_segment(seg.name)
            )
            decoded = batch.requests(0, batch.n)
            assert len(decoded) == len(workload)
            for a, b in zip(workload, decoded):
                assert a.key() == b.key()
                assert a.oc is b.oc  # canonical registry object
                assert a.setting.as_tuple() == b.setting.as_tuple()
            batch.close()
        finally:
            shm_transport.unlink_segment(seg)

    def test_slices_cover_the_batch(self, workload):
        seg = shm_transport.pack_requests(workload)
        try:
            batch = shm_transport.DecodedBatch(
                shm_transport.attach_segment(seg.name)
            )
            keys = [
                r.key()
                for lo in range(0, batch.n, 17)
                for r in batch.requests(lo, min(lo + 17, batch.n))
            ]
            assert keys == [r.key() for r in workload]
            batch.close()
        finally:
            shm_transport.unlink_segment(seg)

    def test_result_round_trip_with_errors(self, workload):
        results = make_backend("vector", "V100").evaluate_batch(workload[:64])
        assert any(r.crashed for r in results), "workload should crash some"
        n = len(results)
        seg = shm_transport.create_segment(
            shm_transport.result_segment_size(n), tag="res"
        )
        times = status = None
        try:
            times, status = shm_transport.result_views(seg, n)
            errors = shm_transport.write_results(times, status, 0, results)
            decoded = shm_transport.read_results(times, status, errors)
            for a, b in zip(results, decoded):
                assert a.time_ms == b.time_ms
                if a.error is None:
                    assert b.error is None
                else:
                    assert type(b.error).__name__ == type(a.error).__name__
                    assert b.error.args == a.error.args
        finally:
            times = status = None
            shm_transport.unlink_segment(seg)


class TestLifecycle:
    def test_double_unlink_is_tolerated(self):
        seg = shm_transport.create_segment(64)
        assert seg.name in shm_transport.live_segments()
        assert shm_transport.unlink_segment(seg) is True
        assert shm_transport.unlink_segment(seg) is False
        assert seg.name not in shm_transport.live_segments()
        assert seg.name not in shm_transport.list_host_segments()

    def test_segment_names_carry_creator_pid(self):
        seg = shm_transport.create_segment(64)
        try:
            assert shm_transport._creator_pid(seg.name) == os.getpid()
        finally:
            shm_transport.unlink_segment(seg)

    def test_reaper_spares_live_creators(self):
        seg = shm_transport.create_segment(64)
        try:
            assert seg.name not in shm_transport.reap_stale_segments()
            assert seg.name in shm_transport.list_host_segments()
        finally:
            shm_transport.unlink_segment(seg)

    def test_reaper_collects_orphans_of_dead_processes(self, tmp_path):
        """Simulated parent crash: a child creates a segment, detaches it
        from its own resource tracker (so the tracker cannot clean up),
        and dies via ``os._exit`` (so the atexit sweep cannot either).
        The reaper must collect it once the creator pid is gone."""
        script = (
            "import os, sys\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.engine import shm\n"
            "seg = shm.create_segment(64, tag='orphan')\n"
            "resource_tracker.unregister(seg._name, 'shared_memory')\n"
            "print(seg.name, flush=True)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        name = out.stdout.strip()
        assert name in shm_transport.list_host_segments()
        assert name in shm_transport.reap_stale_segments()
        assert name not in shm_transport.list_host_segments()

    def test_availability_probe_leaves_no_segment(self):
        before = shm_transport.list_host_segments()
        assert shm_transport._probe_shm() is True
        assert shm_transport.list_host_segments() == before
