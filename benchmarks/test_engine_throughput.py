"""Engine throughput: batched evaluation vs the scalar reference.

The batched evaluation engine exists to make profiling campaigns cheap:
``repro profile`` spends essentially all of its time evaluating (stencil,
OC, setting) points, so points/second through a backend *is* campaign
throughput.  This bench times every backend over a representative
campaign slice -- random stencils x all 30 OCs x sampled frontiers,
crashes included, cold model caches -- and asserts the engine's headline
guarantees: the vectorized backend clears >=5x the scalar path, a cold
(all-miss) cached pass stays within 0.9x of the bare vector throughput,
and a warm cache replays the slice one to two orders of magnitude faster
still.  The worker sweep asserts the multi-core campaign win where the
host actually has the cores for it.
"""

import os
import sys
import time

import numpy as np

from perfbench.common import clear_memo_caches
from repro.engine import CachingBackend, EvalRequest, ScalarBackend, VectorBackend
from repro.ml.nn import ConvND
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import default_setting, sample_setting
from repro.profiling import CampaignRunner
from repro.stencil.generator import generate_population

from conftest import best_of, print_table

_CTX = "fork" if sys.platform.startswith("linux") else "spawn"
GPU = "V100"
WORKERS = (1, 2, 4)


def make_workload(n_stencils: int, settings_per_oc: int) -> "list[EvalRequest]":
    """A campaign-shaped request list: random 2-D stencils x every OC x
    the default setting plus sampled ones."""
    rng = np.random.default_rng(123)
    return [
        EvalRequest(stencil, oc, setting)
        for stencil in generate_population(2, n_stencils, seed=123)
        for oc in ALL_OCS
        for setting in [default_setting()]
        + [sample_setting(oc, 2, rng) for _ in range(settings_per_oc - 1)]
    ]


def _evaluate(backend, workload) -> None:
    assert len(backend.evaluate_batch(workload)) == len(workload)


def test_engine_throughput(benchmark):
    workload = make_workload(n_stencils=3, settings_per_oc=32)
    seconds = {}
    backends = {
        "scalar": ScalarBackend(GPU),
        "vector": VectorBackend(GPU),
        "cached": CachingBackend(VectorBackend(GPU)),
    }
    for kind, backend in backends.items():

        def cold():
            # Each rep measures a fresh campaign start.
            clear_memo_caches()
            if kind == "cached":
                backend.clear()

        seconds[kind] = best_of(3, lambda: _evaluate(backend, workload), cold)
    # A second pass of the cached backend over its warm memo cache.
    backend.clear()
    _evaluate(backend, workload)
    seconds["cached (replay)"] = best_of(3, lambda: _evaluate(backend, workload))

    speedup = {kind: seconds["scalar"] / s for kind, s in seconds.items()}
    print_table(
        f"Engine throughput ({GPU}, {len(workload)} points)",
        ["backend", "seconds", "points/sec", "speedup"],
        [[k, s, len(workload) / s, speedup[k]] for k, s in seconds.items()],
    )

    # The engine's acceptance bar: >=5x points/sec over the scalar path
    # on a representative campaign slice (ISSUE 2), and cache replay far
    # beyond that.
    assert speedup["vector"] >= 5.0
    assert speedup["cached (replay)"] > speedup["vector"]
    # A cold cached pass is all misses plus memo bookkeeping; the
    # interned-key miss path keeps that overhead under ~10%.  Shared
    # runners add +-10% timer noise, so gate on the best paired trial
    # (vector and cached timed back to back under the same load).
    vec = VectorBackend(GPU)
    cac = CachingBackend(VectorBackend(GPU))
    best_ratio = 0.0
    for _ in range(5):
        clear_memo_caches()
        start = time.perf_counter()
        vec.evaluate_batch(workload)
        v = time.perf_counter() - start
        clear_memo_caches()
        cac.clear()
        start = time.perf_counter()
        cac.evaluate_batch(workload)
        c = time.perf_counter() - start
        best_ratio = max(best_ratio, v / c)
        if best_ratio >= 0.9:
            break
    print(f"cold cached/vector ratio (best paired trial): {best_ratio:.3f}")
    assert best_ratio >= 0.9

    # Representative timing unit: one vectorized batch over a quick slice.
    workload = make_workload(n_stencils=1, settings_per_oc=4)
    be = VectorBackend(GPU)
    benchmark(be.evaluate_batch, workload)


def test_parallel_worker_sweep(benchmark):
    """Worker-count sweep of sharded campaigns.

    Speedups are relative to ``workers=1``, the sequential runner.  The
    sweep shards whole (gpu, stencil) units, so only profile rows cross
    the pipe.
    """
    stencils = generate_population(2, 6, seed=7)

    def run(workers):
        return CampaignRunner(
            stencils,
            gpus=(GPU,),
            n_settings=4,
            seed=7,
            backend="vector",
            workers=workers,
            mp_context=_CTX,
        ).run()

    # Untimed warm-up: the first measured configuration must not pay
    # process-wide one-time costs (imports, stencil interning) the later
    # ones inherit.  Caches are still reset before every rep.
    run(1)

    campaign_s = {}
    campaigns = []
    for workers in WORKERS:
        campaign_s[workers] = best_of(
            2, lambda: campaigns.append(run(workers)), clear_memo_caches
        )
    n_meas = len(campaigns[-1].measurements(GPU))

    print_table(
        f"Worker sweep ({GPU}, {os.cpu_count()} CPUs, {n_meas} measurements)",
        ["path", "workers", "seconds", "throughput", "speedup"],
        [
            ["campaign", w, s, n_meas / s, campaign_s[1] / s]
            for w, s in campaign_s.items()
        ],
    )

    # Multi-core acceptance bar: a 4-worker sharded campaign clears
    # >=2.5x the single-process vector runner.  Only meaningful where
    # the host actually has >=4 CPUs -- a 1-CPU container cannot speed
    # anything up by adding processes, so there the sweep just records
    # honest ~1x numbers.
    if (os.cpu_count() or 1) >= 4:
        assert campaign_s[1] / campaign_s[4] >= 2.5
    # Everywhere: sharding must not corrupt anything -- every sweep
    # point produced positive throughput.
    assert all(n_meas / s > 0 for s in campaign_s.values())

    # Timing unit: a campaign sharded across 2 workers.
    benchmark(run, 2)


def test_convnd_index_build(benchmark):
    """The vectorized gather-table build vs the per-element reference.

    ConvND builds its im2col index table once per layer; for a 3-channel
    9^3 input that table has ~one million entries and the Python loop
    dominated ConvNet construction.  The outer-sum build must be at
    least 3x faster (observed ~100x) while producing the identical
    table (parity is asserted in tier-1 tests).
    """
    rng = np.random.default_rng(0)
    conv = ConvND(3, 2, (9, 9, 9), 3, rng)

    start = time.perf_counter()
    vec = conv._build_index()
    vec_s = time.perf_counter() - start
    start = time.perf_counter()
    loop = conv._build_index_loop()
    loop_s = time.perf_counter() - start

    print_table(
        "ConvND index build (3 channels, 9x9x9, k=3)",
        ["variant", "seconds", "entries/sec"],
        [
            ["vectorized", vec_s, vec.size / vec_s],
            ["loop", loop_s, loop.size / loop_s],
        ],
    )
    assert np.array_equal(vec, loop)
    assert loop_s >= 3.0 * vec_s

    benchmark(conv._build_index)
