"""Cache accounting and the fault/retry decorator semantics."""

import pytest

from repro.engine import (
    CachingBackend,
    EvalRequest,
    FaultBackend,
    RetryBackend,
    ScalarBackend,
    VectorBackend,
    as_backend,
)
from repro.errors import DeviceLostError
from repro.gpu.faults import FaultConfig
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import default_setting, sample_setting
from repro.profiling.runner import CampaignHealth, RetryPolicy
from repro.stencil.generator import generate_population

import numpy as np


@pytest.fixture(scope="module")
def space():
    (stencil,) = generate_population(2, 1, seed=13)
    oc = ALL_OCS[0]
    rng = np.random.default_rng(31)
    settings = [default_setting()] + [
        sample_setting(oc, 2, rng) for _ in range(7)
    ]
    return stencil, oc, settings


class TestCacheAccounting:
    def test_miss_then_hit(self, space):
        stencil, oc, settings = space
        cached = CachingBackend(VectorBackend("V100"))
        reqs = [EvalRequest(stencil, oc, s) for s in settings]
        cached.evaluate_batch(reqs)
        info = cached.cache_info()
        assert info["misses"] == len(set(s.as_tuple() for s in settings))
        assert info["hits"] == len(settings) - info["misses"]
        assert info["size"] == info["misses"]
        cached.evaluate_batch(reqs)
        assert cached.cache_info()["hits"] == info["hits"] + len(settings)
        assert cached.cache_info()["misses"] == info["misses"]

    def test_intra_batch_duplicates_count_as_hits(self, space):
        stencil, oc, settings = space
        cached = CachingBackend(VectorBackend("V100"))
        reqs = [EvalRequest(stencil, oc, settings[0])] * 5
        out = cached.evaluate_batch(reqs)
        info = cached.cache_info()
        assert info["misses"] == 1 and info["hits"] == 4
        assert len({id(r) for r in out}) == 1  # one shared result object

    def test_clear_resets_everything(self, space):
        stencil, oc, settings = space
        cached = CachingBackend(VectorBackend("V100"))
        cached.evaluate_batch([EvalRequest(stencil, oc, settings[0])])
        cached.clear()
        assert cached.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_crashes_are_cached_too(self):
        (stencil,) = generate_population(3, 1, seed=3)
        oc = next(o for o in ALL_OCS if "ST" in o.name.split("_"))
        rng = np.random.default_rng(17)
        reqs = [
            EvalRequest(stencil, oc, sample_setting(oc, 3, rng))
            for _ in range(24)
        ]
        cached = CachingBackend(VectorBackend("P100"))
        first = cached.evaluate_batch(reqs)
        assert any(r.crashed for r in first)
        misses = cached.cache_info()["misses"]
        cached.evaluate_batch(reqs)
        assert cached.cache_info()["misses"] == misses  # crashes replayed


class TestFaultRetryDecorators:
    def _guarded(self, rate, policy=None, backend="V100"):
        health = CampaignHealth()
        be = RetryBackend(
            FaultBackend(ScalarBackend(backend), FaultConfig.uniform(rate), seed=5),
            policy or RetryPolicy(),
            health,
        )
        be.begin_unit(("V100", 0))
        return be, health

    def test_zero_rate_is_transparent(self, space):
        stencil, oc, settings = space
        be, health = self._guarded(0.0)
        plain = ScalarBackend("V100")
        reqs = [EvalRequest(stencil, oc, s) for s in settings]
        a = be.evaluate_batch(reqs)
        b = plain.evaluate_batch(reqs)
        for r, g in zip(a, b):
            assert r.crashed == g.crashed
            if r.ok:
                assert r.time_ms == g.time_ms
        assert health.call_retries == 0 and health.backoff_s == 0.0

    def test_retries_converge_to_fault_free_times(self, space):
        stencil, oc, settings = space
        be, health = self._guarded(0.3)
        plain = ScalarBackend("V100")
        reqs = [EvalRequest(stencil, oc, s) for s in settings]
        faulted = be.evaluate_batch(reqs)
        clean = plain.evaluate_batch(reqs)
        for r, g in zip(faulted, clean):
            assert r.crashed == g.crashed
            if g.ok:
                assert r.time_ms == g.time_ms  # retry convergence, exact
        assert health.call_retries > 0
        # Every retry waits at least the base backoff, charged not slept.
        base = RetryPolicy().backoff_base_s
        assert health.backoff_s >= health.call_retries * base

    def test_exhaustion_raises_transient(self, space):
        from repro.errors import TransientError

        stencil, oc, settings = space
        be, health = self._guarded(
            1.0, policy=RetryPolicy(max_call_retries=2, max_point_retries=1)
        )
        # At certainty rates every attempt faults; exhaustion re-raises
        # the last attempt's transient error (timeout or sporadic) for
        # the runner's point-retry loop to absorb.
        with pytest.raises(TransientError):
            be.evaluate_batch([EvalRequest(stencil, oc, settings[0])])
        assert health.call_retries == 2

    def test_device_loss_raises_and_counts(self, space):
        stencil, oc, settings = space
        health = CampaignHealth()
        be = RetryBackend(
            FaultBackend(
                ScalarBackend("V100"),
                FaultConfig(device_lost_rate=1.0),
                seed=5,
            ),
            RetryPolicy(),
            health,
        )
        be.begin_unit(("V100", 0))
        with pytest.raises(DeviceLostError):
            be.evaluate_batch([EvalRequest(stencil, oc, settings[0])])
        assert health.device_lost == 1

    def test_begin_unit_rescopes_fault_draws(self, space):
        stencil, oc, settings = space
        be, _ = self._guarded(0.4)
        reqs = [EvalRequest(stencil, oc, s) for s in settings]
        first = be.evaluate_batch(reqs)
        be.begin_unit(("V100", 0))  # same unit key -> same draws
        again = be.evaluate_batch(reqs)
        for r, g in zip(first, again):
            if r.ok:
                assert r.time_ms == g.time_ms


class TestAsBackend:
    def test_backend_passthrough(self):
        be = VectorBackend("V100")
        assert as_backend(be) is be

    def test_simulator_wrap(self):
        from repro.gpu.simulator import GPUSimulator

        # A simulator gets the batched backend over the same model; any
        # other time-shaped object gets the per-point adapter.
        sim = GPUSimulator("A100")
        be = as_backend(sim)
        assert isinstance(be, VectorBackend) and be.sim is sim

        class Stub:
            spec, sigma = sim.spec, sim.sigma

            def time(self, stencil, oc, setting, grid=None):
                return 1.0

        assert isinstance(as_backend(Stub()), ScalarBackend)

    def test_rejects_unrelated_objects(self):
        with pytest.raises(TypeError):
            as_backend(object())
