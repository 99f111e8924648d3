"""Persistent memo (``CachingBackend(root=)``): replay fidelity, keying,
format rules, the frozen layout pin and tune()'s cache accounting."""

import json
import shutil

import pytest

from repro.engine import (
    CachingBackend,
    EvalRequest,
    EvalResult,
    VectorBackend,
    make_backend,
)
from repro.errors import KernelLaunchError, TuningError
from repro.optimizations import OC
from repro.optimizations.params import sample_setting
from repro.stencil import box, get
from repro.tuning import tune

import numpy as np

STENCIL = get("star2d2r")
ST = OC.parse("ST")


def _requests(n=8, seed=0, oc=ST, stencil=STENCIL):
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < n:
        s = sample_setting(oc, stencil.ndim, rng)
        if s.as_tuple() in seen:
            continue
        seen.add(s.as_tuple())
        out.append(EvalRequest(stencil, oc, s))
    return out


class TestReplay:
    def test_second_run_is_all_hits_and_bit_identical(self, tmp_path):
        reqs = _requests(12)
        first = CachingBackend(VectorBackend("V100"), root=tmp_path)
        a = first.evaluate_batch(reqs)
        first.flush()
        assert first.misses > 0 and first.hits == len(reqs) - first.misses

        class Exploding:
            """A substrate that must never be consulted on replay."""

            spec = VectorBackend("V100").spec
            sigma = 0.03
            info = VectorBackend("V100").info

            def evaluate_batch(self, requests):
                raise AssertionError("cache should have served this")

        second = CachingBackend(Exploding(), root=tmp_path)
        b = second.evaluate_batch(reqs)
        assert second.hits == len(reqs) and second.misses == 0
        for x, y in zip(a, b):
            assert x.time_ms == y.time_ms  # exact float round trip

    def test_crashes_are_replayed_with_message(self, tmp_path):
        # TB without ST crashes on 3-D order-4 stencils (for sampled
        # settings; the neutral default may run).
        reqs = _requests(8, seed=3, oc=OC.parse("TB"), stencil=box(3, 4))
        cache = CachingBackend(VectorBackend("V100"), root=tmp_path)
        first = cache.evaluate_batch(reqs)
        assert any(r.crashed for r in first)
        cache.flush()
        replay = CachingBackend(VectorBackend("V100"), root=tmp_path)
        second = replay.evaluate_batch(reqs)
        assert replay.hits == len(reqs)
        for a, b in zip(first, second):
            assert a.crashed == b.crashed
            if a.crashed:
                assert isinstance(b.error, KernelLaunchError)
                assert str(b.error) == str(a.error)

    def test_intra_batch_duplicates_hit(self, tmp_path):
        req = _requests(1)[0]
        cache = CachingBackend(VectorBackend("V100"), root=tmp_path)
        a, b = cache.evaluate_batch([req, req])
        assert cache.misses == 1 and cache.hits == 1
        assert a.time_ms == b.time_ms


class TestKeying:
    def test_gpu_and_sigma_partition_the_cache(self, tmp_path):
        reqs = _requests(4)
        CachingBackend(VectorBackend("V100"), root=tmp_path).evaluate_batch(reqs)
        other = CachingBackend(VectorBackend("A100"), root=tmp_path)
        other.evaluate_batch(reqs)
        assert other.hits == 0  # different GPU: disjoint groups
        noisy = CachingBackend(VectorBackend("V100", sigma=0.5), root=tmp_path)
        noisy.evaluate_batch(reqs)
        assert noisy.hits == 0  # different sigma: disjoint groups

    def test_grid_partitions_the_cache(self, tmp_path):
        small = [
            EvalRequest(r.stencil, r.oc, r.setting, grid=(256, 256))
            for r in _requests(4)
        ]
        cache = CachingBackend(VectorBackend("V100"), root=tmp_path)
        cache.evaluate_batch(_requests(4))
        assert cache.misses == 4
        cache.evaluate_batch(small)
        assert cache.misses == 8  # reduced grid never aliases the full one


class TestTransientsAndCorruption:
    def test_transient_faults_are_not_persisted(self, tmp_path):
        class Flaky:
            spec = VectorBackend("V100").spec
            sigma = 0.03
            info = VectorBackend("V100").info

            def evaluate_batch(self, requests):
                return [EvalResult(error=TimeoutError("hang")) for _ in requests]

        cache = CachingBackend(Flaky(), root=tmp_path)
        (res,) = cache.evaluate_batch(_requests(1))
        assert not res.ok and not res.crashed
        cache.flush()
        # Nothing settled, so nothing was written.
        assert not any(
            json.loads(p.read_text())["entries"]
            for p in tmp_path.glob("*.json")
        )

    def test_corrupt_document_is_a_miss_and_rebuilt(self, tmp_path):
        reqs = _requests(3)
        cache = CachingBackend(VectorBackend("V100"), root=tmp_path)
        first = cache.evaluate_batch(reqs)
        cache.flush()
        (doc,) = list(tmp_path.glob("*.json"))
        doc.write_text("{ not json")
        again = CachingBackend(VectorBackend("V100"), root=tmp_path)
        second = again.evaluate_batch(reqs)
        assert again.misses == 3  # corrupt file never trusted
        again.flush()
        rebuilt = json.loads(doc.read_text())
        assert len(rebuilt["entries"]) == 3
        for x, y in zip(first, second):
            assert x.time_ms == y.time_ms

    @pytest.mark.parametrize("body", [
        [1, 2],
        {"format": 1},
        {"format": 1, "entries": ["1,2"]},
        {"format": 1, "entries": {"x,y": 1.0}},
        {"format": 1, "entries": {"1,2": "oops"}},
    ])
    def test_garbled_format_1_document_is_a_miss_and_rebuilt(self, tmp_path, body):
        reqs = _requests(3)
        cache = CachingBackend(VectorBackend("V100"), root=tmp_path)
        cache.evaluate_batch(reqs)
        cache.flush()
        (doc,) = list(tmp_path.glob("*.json"))
        good = doc.read_bytes()
        doc.write_text(json.dumps(body))
        again = CachingBackend(VectorBackend("V100"), root=tmp_path)
        again.evaluate_batch(reqs)
        assert again.misses == 3
        again.flush()
        assert doc.read_bytes() == good

    def test_newer_format_version_fails_closed(self, tmp_path):
        reqs = _requests(2)
        cache = CachingBackend(VectorBackend("V100"), root=tmp_path)
        cache.evaluate_batch(reqs)
        cache.flush()
        (doc,) = list(tmp_path.glob("*.json"))
        body = json.loads(doc.read_text())
        body["format"] = 99
        doc.write_text(json.dumps(body))
        before = doc.read_bytes()
        fresh = CachingBackend(VectorBackend("V100"), root=tmp_path)
        with pytest.raises(TuningError, match="format_version 99.*FORMAT_VERSION 1"):
            fresh.evaluate_batch(reqs)
        # Still refused on a retry, and never overwritten by a flush.
        with pytest.raises(TuningError):
            fresh.evaluate_batch(reqs)
        fresh.flush()
        assert doc.read_bytes() == before
        with pytest.raises(TuningError, match="format_version 99"):
            tune(STENCIL, oc=ST, gpu="V100", budget=2, cache_dir=tmp_path)
        assert doc.read_bytes() == before


class TestFrozenLayout:
    """The committed ``golden_cache/`` directory (``make_cache_golden.py``)."""

    @pytest.fixture
    def batches(self):
        from tests.tuning.make_cache_golden import batches

        return batches()

    def test_replays_as_all_hits(self, tmp_path, batches):
        from tests.tuning.make_cache_golden import GOLDEN_DIR, GPU

        root = tmp_path / "cache"
        shutil.copytree(GOLDEN_DIR, root)

        class Refusing:
            spec = VectorBackend(GPU).spec
            sigma = 0.03
            info = VectorBackend(GPU).info

            def evaluate_batch(self, requests):
                raise AssertionError("the frozen directory should serve this")

        replay = CachingBackend(Refusing(), root=root)
        live = VectorBackend(GPU)
        n = 0
        for batch in batches:
            for a, b in zip(replay.evaluate_batch(batch), live.evaluate_batch(batch)):
                assert a.crashed == b.crashed
                if a.crashed:
                    assert str(a.error) == str(b.error)
                else:
                    assert a.time_ms == b.time_ms  # bit-identical
            n += len(batch)
        assert replay.cache_info() == {"hits": n, "misses": 0, "size": n}
        assert any(r.crashed for r in replay.evaluate_batch(batches[1]))

    def test_cold_fill_writes_identical_bytes(self, tmp_path):
        from tests.tuning.make_cache_golden import GOLDEN_DIR, fill

        fill(tmp_path)
        golden = {p.name: p.read_bytes() for p in GOLDEN_DIR.glob("*.json")}
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(golden) == 3
        assert written == golden


class TestCounters:
    def test_cache_info_has_one_shape(self, tmp_path):
        reqs = _requests(3)
        for cache in (
            CachingBackend(VectorBackend("V100")),
            CachingBackend(VectorBackend("V100"), root=tmp_path),
        ):
            cache.evaluate_batch(reqs + reqs[:1])
            assert cache.cache_info() == {"hits": 1, "misses": 3, "size": 3}

    def test_cached_backend_reports_per_call_delta(self):
        kwargs = dict(oc=ST, budget=6, seed=1)
        plain = tune(STENCIL, gpu="V100", **kwargs)
        cached = tune(STENCIL, backend=CachingBackend(VectorBackend("V100")), **kwargs)
        assert plain.cache_hits == plain.cache_misses == 0
        assert cached.cache_misses > 0
        assert cached.best_time_ms == plain.best_time_ms
        # A shared memo: the second call's delta is all hits.
        memo = CachingBackend(VectorBackend("V100"))
        a = tune(STENCIL, oc=ST, backend=memo, budget=6, seed=1)
        b = tune(STENCIL, oc=ST, backend=memo, budget=6, seed=1)
        assert (a.cache_hits, a.cache_misses) == (cached.cache_hits, cached.cache_misses)
        assert b.cache_misses == 0 and b.cache_hits == a.cache_hits + a.cache_misses
        assert memo.cache_info()["misses"] == a.cache_misses

    def test_cache_dir_stacks_one_memo(self, tmp_path):
        memo = CachingBackend(VectorBackend("V100"))
        cold = tune(STENCIL, oc=ST, backend=memo, budget=6, seed=1, cache_dir=tmp_path)
        # The persistent memo replaced the in-memory one instead of
        # wrapping it, so the passed instance saw no request.
        assert memo.cache_info() == {"hits": 0, "misses": 0, "size": 0}
        assert cold.cache_misses > 0
        warm = tune(
            STENCIL, oc=ST, backend=CachingBackend(VectorBackend("V100")),
            budget=6, seed=1, cache_dir=tmp_path,
        )
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_hits + cold.cache_misses
        assert warm.best_time_ms == cold.best_time_ms


class TestFrontDoorIntegration:
    def test_tune_reports_hits_and_misses(self, tmp_path):
        kwargs = dict(
            oc=ST, gpu="2080Ti", strategy="random", budget=8, seed=7,
            cache_dir=tmp_path,
        )
        cold = tune(STENCIL, **kwargs)
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        warm = tune(STENCIL, **kwargs)
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert warm.best_setting == cold.best_setting
        assert warm.best_time_ms == cold.best_time_ms

    def test_cache_backend_passthrough(self, tmp_path):
        # An explicit CachingBackend instance as backend= is used directly.
        cache = CachingBackend(make_backend("vector", "V100"), root=tmp_path)
        a = tune(STENCIL, oc=ST, backend=cache, budget=6, seed=1)
        assert a.cache_misses > 0
        b = tune(STENCIL, oc=ST, backend=cache, budget=6, seed=1)
        assert b.cache_misses == 0 and b.cache_hits > 0

    def test_flush_survives_strategy_error(self, tmp_path):
        class Boom:
            name = "boom"

            def stream_components(self, seed, stencil_id, oc):
                return (seed,)

            def prepare(self, ctx):
                self._asked = False

            def ask(self):
                if self._asked:
                    raise RuntimeError("strategy exploded")
                self._asked = True
                from repro.optimizations.params import default_setting

                return [default_setting()]

            def tell(self, results):
                pass

            def finish(self):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(RuntimeError, match="exploded"):
            tune(
                STENCIL, oc=ST, gpu="V100", strategy=Boom(),
                cache_dir=tmp_path,
            )
        # The settled measurement was flushed despite the error.
        assert any(
            json.loads(p.read_text())["entries"]
            for p in tmp_path.glob("*.json")
        )
