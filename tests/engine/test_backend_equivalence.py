"""The timing model against its frozen golden; the backends against each other.

``golden_model.json`` (regenerate with ``make_golden.py``) pins the
batched model over random stencils x every OC x sampled settings on all
seven GPUs at two noise levels, plus a crash-heavy slice: times bit for
bit (``repr``), crashes by type and message.  The per-point
``ScalarBackend`` adapter loops batches of one through the same array
pipeline, so it must agree with the vector backend exactly, and the
cached backend must replay it exactly.
"""

import json

import numpy as np
import pytest

from repro.engine import (
    BACKEND_KINDS,
    CachingBackend,
    EvalRequest,
    ScalarBackend,
    VectorBackend,
    make_backend,
)
from repro.errors import (
    KernelLaunchError,
    OptimizationError,
    UnknownBackendError,
)
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import GPU_ORDER
from repro.optimizations import OC
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.kernelmodel import build_profile
from repro.optimizations.params import (
    PARAM_NAMES,
    ParamSetting,
    default_setting,
    sample_setting,
)
from repro.stencil import Stencil, get
from repro.stencil.generator import generate_population

from .make_golden import (
    CRASH_GPU,
    GOLDEN_PATH,
    SIGMAS,
    crash_heavy_requests,
    describe_crash,
    sweep_requests,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def assert_matches_golden(results, case: dict, sigma: float) -> None:
    times = case[f"sigma={sigma}"]
    assert len(results) == len(times)
    for i, (r, want) in enumerate(zip(results, times)):
        if want is None:
            assert not r.ok, f"point {i}: golden crash, got {r.time_ms!r}"
            assert describe_crash(r.error) == case["crashes"][str(i)], f"point {i}"
        else:
            assert r.ok, f"point {i}: golden {want}, got {describe_crash(r.error)}"
            assert repr(r.time_ms) == want, f"point {i}"


def assert_identical(reference, candidate, requests) -> None:
    """Bit-identical times and identical crashes, point by point."""
    ref = reference.evaluate_batch(requests)
    got = candidate.evaluate_batch(requests)
    assert len(ref) == len(got) == len(requests)
    for req, r, g in zip(requests, ref, got):
        ctx = f"{req.oc.name} {req.setting.as_tuple()}"
        if r.crashed:
            assert g.crashed, f"{candidate.info.name} did not crash: {ctx}"
            assert type(g.error) is type(r.error), ctx
            assert str(g.error) == str(r.error), ctx
        else:
            assert g.ok, f"{candidate.info.name} crashed: {ctx}"
            assert g.time_ms == r.time_ms, ctx


@pytest.mark.parametrize("gpu", GPU_ORDER)
@pytest.mark.parametrize("ndim", (2, 3))
def test_vector_matches_scalar_across_space(gpu, ndim):
    """The batched model reproduces the golden at both noise levels, and
    the per-point adapter agrees with it bit for bit."""
    requests = sweep_requests(ndim)
    case = GOLDEN[f"{gpu}/{ndim}d"]
    for sigma in SIGMAS:
        results = VectorBackend(gpu, sigma=sigma).evaluate_batch(requests)
        assert_matches_golden(results, case, sigma)
    assert_identical(VectorBackend(gpu), ScalarBackend(gpu), requests)


@pytest.mark.parametrize("gpu", ("V100", "2080Ti"))
def test_cached_matches_scalar_and_replays(gpu):
    requests = sweep_requests(2, n_stencils=1, n_settings=3, seed=5)
    cached = CachingBackend(VectorBackend(gpu))
    assert_identical(ScalarBackend(gpu), cached, requests)
    # A replay must return the exact same results from memory.
    first = cached.evaluate_batch(requests)
    hits_before = cached.cache_info()["hits"]
    second = cached.evaluate_batch(requests)
    assert cached.cache_info()["hits"] == hits_before + len(requests)
    for a, b in zip(first, second):
        assert a is b or (a.time_ms == b.time_ms and a.error is b.error)


def test_crash_parity_is_exact_on_crash_heavy_oc():
    # Streaming + temporal OCs crash for most settings; every crash must
    # carry its pinned message, batched or one point at a time.
    requests = crash_heavy_requests()
    case = GOLDEN[f"{CRASH_GPU}/crash-heavy"]
    results = VectorBackend(CRASH_GPU).evaluate_batch(requests)
    assert sum(r.crashed for r in results) > 0
    assert_matches_golden(results, case, SIGMAS[0])
    assert_identical(VectorBackend(CRASH_GPU), ScalarBackend(CRASH_GPU), requests)


def test_noise_is_bit_identical():
    # Noise is keyed by content: the batched jitter is exactly the
    # per-point simulator's, for every OC of a slice.
    requests = sweep_requests(2, n_stencils=1, n_settings=2, seed=11)
    noisy = VectorBackend("A100", sigma=0.25).evaluate_batch(requests)
    sim = GPUSimulator("A100", sigma=0.25)
    assert sum(r.ok for r in noisy) > 0
    for req, r in zip(requests, noisy):
        if r.ok:
            assert r.time_ms == sim.time(req.stencil, req.oc, req.setting)


def test_results_independent_of_batch_composition():
    # Per-point purity: a request's result must not depend on what else
    # shares its batch (ordering, duplication, singleton batches).
    rng = np.random.default_rng(23)
    (stencil,) = generate_population(2, 1, seed=29)
    oc = ALL_OCS[4]
    settings = [sample_setting(oc, 2, rng) for _ in range(10)]
    requests = [EvalRequest(stencil, oc, s) for s in settings]
    vb = VectorBackend("V100")
    together = vb.evaluate_batch(requests)
    alone = [vb.evaluate_batch([r])[0] for r in requests]
    shuffled = vb.evaluate_batch(requests[::-1])[::-1]
    for a, b, c in zip(together, alone, shuffled):
        if a.crashed:
            assert b.crashed and c.crashed
            assert str(a.error) == str(b.error) == str(c.error)
        else:
            assert a.time_ms == b.time_ms == c.time_ms


def _trusted(**values) -> ParamSetting:
    """A setting outside the validated choice lists."""
    full = dict(default_setting().items())
    full.update(values)
    return ParamSetting._trusted(full, tuple(full[n] for n in PARAM_NAMES))


@pytest.mark.parametrize(
    "oc, setting, grid, message",
    [
        ("naive", ParamSetting(), (64, 64, 64), "grid rank 3 != stencil ndim 2"),
        ("BM", ParamSetting(merge_factor=2, merge_dim=3), None, "merge_dim=3 on 2-D grid"),
        ("ST", ParamSetting(stream_dim=3), None, "stream_dim=3 on 2-D grid"),
        ("TB", _trusted(temporal_steps=3), None, "temporal_steps=3 does not divide 8"),
    ],
    ids=("grid-rank", "merge-dim", "stream-dim", "temporal-steps"),
)
def test_inexpressible_geometry_raises(oc, setting, grid, message):
    """Geometry the kernel cannot express raises OptimizationError -- it
    is not a launch crash -- batched, per point and from build_profile."""
    stencil, oc = get("star2d2r"), OC.parse(oc)
    req = EvalRequest(stencil, oc, setting, grid)
    for call in (
        lambda: VectorBackend("V100").evaluate_batch(
            [EvalRequest(stencil, OC.parse("ST"), ParamSetting()), req]
        ),
        lambda: GPUSimulator("V100").time(stencil, oc, setting, grid=grid),
        lambda: build_profile(stencil, oc, setting, grid),
    ):
        with pytest.raises(OptimizationError) as info:
            call()
        assert str(info.value) == message


def test_noise_prefix_memo_is_keyed_by_content():
    # One backend fed batches that alternate between two stencils, then
    # a distinct object with equal cache_key() content: every point
    # equals the per-point simulator's, bit for bit.
    a, b = get("star2d2r"), get("box2d1r")
    twin = Stencil.from_points(list(a.offsets), name="twin")
    assert twin is not a and twin.cache_key() == a.cache_key()
    be, sim = VectorBackend("V100"), GPUSimulator("V100")
    rng = np.random.default_rng(5)
    for stencil in (a, b, a, b, twin, a, twin):
        reqs = [
            EvalRequest(stencil, oc, sample_setting(oc, 2, rng))
            for oc in ALL_OCS[::3]
        ]
        for req, res in zip(reqs, be.evaluate_batch(reqs)):
            try:
                expected = sim.run(req.stencil, req.oc, req.setting).time_ms
            except KernelLaunchError as e:
                assert res.crashed and str(res.error) == str(e)
                continue
            assert repr(res.time_ms) == repr(expected)


def test_make_backend_kinds():
    assert BACKEND_KINDS == ("scalar", "vector")
    for kind, vectorized in (
        ("scalar", False),
        ("vector", True),
    ):
        be = make_backend(kind, "V100")
        assert be.spec.name == "V100"
        assert be.info.vectorized == vectorized
        assert be.info.pure
    with pytest.raises(ValueError):
        make_backend("quantum", "V100")
    # Retired kinds fail closed: memoization is a decorator, not a kind.
    for retired in ("parallel", "cached"):
        with pytest.raises(UnknownBackendError, match=repr(retired)):
            make_backend(retired, "V100")


def test_scalar_backend_time_matches_simulator():
    from repro.gpu.simulator import simulate

    (stencil,) = generate_population(2, 1, seed=41)
    oc = ALL_OCS[1]
    setting = default_setting()
    sim = GPUSimulator("V100")
    be = ScalarBackend(sim)
    try:
        expected = sim.time(stencil, oc, setting)
    except KernelLaunchError:
        with pytest.raises(KernelLaunchError):
            be.time(stencil, oc, setting)
    else:
        assert be.time(stencil, oc, setting) == expected
        assert simulate("V100", stencil, oc, setting) == expected
