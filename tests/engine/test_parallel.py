"""ParallelBackend: codec round trips and bit-identical sharded results.

The determinism claim under test: results are pure content-keyed
functions of (GPU, stencil, OC, setting, grid), so sharding a batch
across any number of workers with any chunk size reassembles to exactly
the wrapped backend's output -- times, crash classes and crash messages
bit for bit.
"""

import pytest

from repro.engine import BackendSpec, ParallelBackend, make_backend
from repro.engine.parallel import (
    decode_requests,
    decode_results,
    encode_requests,
    encode_results,
)
from repro.errors import KernelLaunchError


def _digest(results):
    """Comparable identity of a result list (times + error identity)."""
    return tuple(
        (r.time_ms, type(r.error).__name__, r.error.args)
        if r.error is not None
        else (r.time_ms, None, None)
        for r in results
    )


class TestCodec:
    def test_request_round_trip_preserves_identity(self, workload):
        decoded = decode_requests(encode_requests(workload))
        assert len(decoded) == len(workload)
        for a, b in zip(workload, decoded):
            assert a.key() == b.key()
            assert a.oc is b.oc  # canonical registry object

    def test_stencil_table_deduplicates(self, workload):
        doc = encode_requests(workload)
        names = [row[2] for row in doc["stencils"]]
        assert len(names) == len(set(names)) == 2

    def test_result_round_trip(self, workload):
        backend = make_backend("vector", "V100")
        results = backend.evaluate_batch(workload[:64])
        assert any(r.crashed for r in results), "workload should crash some"
        decoded = decode_results(encode_results(results))
        assert _digest(decoded) == _digest(results)
        crash = next(r for r in decoded if r.crashed)
        assert isinstance(crash.error, KernelLaunchError)


class TestBitIdenticalSharding:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 7])
    def test_parallel_scalar_matches_scalar(self, workload, workers,
                                            chunk_size, transport):
        reference = make_backend("scalar", "V100").evaluate_batch(workload)
        with ParallelBackend(
            BackendSpec(kind="scalar", gpu="V100"),
            workers=workers,
            chunk_size=chunk_size,
            context="fork",
            transport=transport,
        ) as backend:
            sharded = backend.evaluate_batch(workload)
        assert _digest(sharded) == _digest(reference)

    @pytest.mark.parametrize("kind", ["vector", "cached"])
    def test_parallel_inner_matches_single_process_inner(self, workload, kind):
        reference = make_backend(kind, "A100").evaluate_batch(workload)
        with ParallelBackend(
            BackendSpec(kind=kind, gpu="A100"), workers=2, context="fork"
        ) as backend:
            sharded = backend.evaluate_batch(workload)
        assert _digest(sharded) == _digest(reference)

    @pytest.mark.parametrize("chunk_size", [None, 7])
    def test_shm_matches_pickle(self, workload, chunk_size):
        """The two transports reassemble the same batch identically."""
        digests = {}
        for transport in ("shm", "pickle"):
            with ParallelBackend(
                BackendSpec(kind="vector", gpu="V100"),
                workers=2,
                chunk_size=chunk_size,
                context="fork",
                transport=transport,
            ) as backend:
                digests[transport] = _digest(backend.evaluate_batch(workload))
        assert digests["shm"] == digests["pickle"]

    def test_single_worker_bypasses_pool(self, workload):
        backend = ParallelBackend(BackendSpec(), workers=1)
        try:
            results = backend.evaluate_batch(workload[:8])
            assert len(results) == 8
            assert backend._pool._executor is None
        finally:
            backend.close()


class TestChunking:
    def test_adaptive_chunks_spread_small_batches(self):
        """With no explicit chunk_size, small batches split across all
        workers instead of serializing through one chunk."""
        backend = ParallelBackend(BackendSpec(), workers=4)
        try:
            spans = backend._chunks(40)
            assert spans[0] == (0, 10)
            assert len(spans) == 4
        finally:
            backend.close()

    def test_adaptive_chunks_cap_by_transport(self):
        from repro.engine.parallel import TRANSPORT_CHUNK_CAPS

        for transport, cap in TRANSPORT_CHUNK_CAPS.items():
            backend = ParallelBackend(
                BackendSpec(), workers=2, transport=transport
            )
            try:
                if backend.transport != transport:
                    continue  # shm unavailable on this host
                spans = backend._chunks(cap * 4)
                assert spans[0] == (0, cap)
            finally:
                backend.close()

    def test_explicit_chunk_size_wins(self):
        backend = ParallelBackend(BackendSpec(), workers=2, chunk_size=5)
        try:
            assert backend._chunks(12) == [(0, 5), (5, 10), (10, 12)]
        finally:
            backend.close()


class TestWorkerDeath:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_killed_worker_recovers_without_leaks(self, workload, tmp_path,
                                                  monkeypatch, transport):
        """A worker dying mid-chunk (simulated ``os._exit``) breaks the
        pool; the batch restarts, re-dispatches, and still reassembles
        bit-identically -- with every shared segment unlinked."""
        import repro.engine.parallel as par
        from repro.engine import shm as shm_transport

        reference = make_backend("vector", "V100").evaluate_batch(workload)
        # Fork-context workers inherit the flag path; O_EXCL on the flag
        # file makes exactly one worker crash exactly once.
        monkeypatch.setattr(
            par, "_CRASH_FLAG_PATH", str(tmp_path / "crash-flag")
        )
        with ParallelBackend(
            BackendSpec(kind="vector", gpu="V100"),
            workers=2,
            context="fork",
            transport=transport,
        ) as backend:
            results = backend.evaluate_batch(workload)
            assert backend.worker_deaths == 1
        assert (tmp_path / "crash-flag").exists()
        assert _digest(results) == _digest(reference)
        assert not shm_transport.live_segments()
        assert not shm_transport.list_host_segments()


class TestMetadata:
    def test_info_names_inner_workers_and_transport(self):
        backend = ParallelBackend(
            BackendSpec(kind="vector", gpu="V100"), workers=3
        )
        try:
            info = backend.info
            assert info.name == (
                f"parallel(vector, workers=3, transport={backend.transport})"
            )
            assert info.vectorized
        finally:
            backend.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ParallelBackend(BackendSpec(), workers=2, transport="carrier-pigeon")

    def test_shm_unavailable_falls_back_to_pickle(self, monkeypatch):
        from repro.engine import shm as shm_transport

        monkeypatch.setattr(shm_transport, "_AVAILABLE", False)
        backend = ParallelBackend(BackendSpec(), workers=2, transport="shm")
        try:
            assert backend.requested_transport == "shm"
            assert backend.transport == "pickle"
        finally:
            backend.close()

    def test_make_backend_kind(self):
        backend = make_backend("parallel", "P100", workers=2)
        try:
            assert backend.spec.name == "P100"
            assert backend.workers == 2
        finally:
            backend.close()

    def test_spec_accepts_gpuspec_object(self):
        from repro.gpu.specs import GPUS

        spec = BackendSpec(gpu=GPUS["V100"])
        assert spec.gpu == "V100"
