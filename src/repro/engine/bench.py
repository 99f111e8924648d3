"""Engine throughput measurement: points/second per backend.

The workload is a representative campaign slice -- random stencils x
every OC x sampled settings, crashes included -- evaluated through each
backend with cold per-process model caches, the state a fresh profiling
campaign actually starts from.  ``repro profile`` spends essentially all
of its time in exactly this loop, so points/second here is campaign
throughput.

Used by ``benchmarks/test_engine_throughput.py`` (asserts the vectorized
speedup) and ``tools/bench_engine.py`` (writes ``BENCH_engine.json``).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from ..optimizations.combos import ALL_OCS
from ..optimizations.kernelmodel import build_profile, row_accesses, tap_overlap_factor
from ..optimizations.params import default_setting, sample_setting
from ..stencil.generator import generate_population
from . import make_backend
from .core import EvalRequest


def make_workload(
    ndim: int = 2,
    n_stencils: int = 3,
    settings_per_oc: int = 8,
    seed: int = 123,
) -> "list[EvalRequest]":
    """A campaign-shaped request list (stencils x OCs x settings)."""
    rng = np.random.default_rng(seed)
    requests: list[EvalRequest] = []
    for stencil in generate_population(ndim, n_stencils, seed=seed):
        for oc in ALL_OCS:
            settings = [default_setting()] + [
                sample_setting(oc, stencil.ndim, rng)
                for _ in range(settings_per_oc - 1)
            ]
            requests.extend(EvalRequest(stencil, oc, s) for s in settings)
    return requests


def _clear_model_caches() -> None:
    """Reset per-process memoization so every backend starts cold."""
    for fn in (build_profile, tap_overlap_factor, row_accesses):
        fn.cache_clear()


def run_throughput_bench(quick: bool = False, gpu: str = "V100") -> dict:
    """Measure evaluation throughput of every backend kind.

    Returns a JSON-ready document::

        {"gpu", "n_points", "quick",
         "backends": {kind: {"seconds", "points_per_sec",
                             "speedup_vs_scalar"}},
         "cached_replay": {...}}   # second pass over a warm cache

    ``quick`` shrinks the workload for CI smoke runs.
    """
    workload = make_workload(
        n_stencils=1 if quick else 3,
        settings_per_oc=4 if quick else 32,
    )
    reps = 1 if quick else 3
    doc: dict = {
        "gpu": gpu,
        "n_points": len(workload),
        "quick": bool(quick),
        "backends": {},
    }

    def measure(backend, prepare) -> float:
        """Best-of-``reps`` wall time; ``prepare`` runs before every rep
        (cold runs reset the caches so each rep measures a fresh
        campaign start; the replay run keeps them warm)."""
        best = math.inf
        for _ in range(reps):
            prepare()
            start = time.perf_counter()
            results = backend.evaluate_batch(workload)
            elapsed = time.perf_counter() - start
            assert len(results) == len(workload)
            best = min(best, elapsed)
        return best

    for kind in ("scalar", "vector", "cached"):
        backend = make_backend(kind, gpu)

        def cold():
            _clear_model_caches()
            if kind == "cached":
                backend.clear()

        seconds = measure(backend, cold)
        doc["backends"][kind] = {
            "seconds": seconds,
            "points_per_sec": len(workload) / seconds,
        }
        if kind == "cached":
            backend.clear()
            backend.evaluate_batch(workload)  # warm the memo cache
            replay = measure(backend, lambda: None)
            doc["cached_replay"] = {
                "seconds": replay,
                "points_per_sec": len(workload) / replay,
            }

    scalar_s = doc["backends"]["scalar"]["seconds"]
    for kind, row in doc["backends"].items():
        row["speedup_vs_scalar"] = scalar_s / row["seconds"]
    doc["cached_replay"]["speedup_vs_scalar"] = (
        scalar_s / doc["cached_replay"]["seconds"]
    )
    return doc


def run_parallel_bench(
    quick: bool = False,
    gpu: str = "V100",
    workers_sweep: "tuple[int, ...]" = (1, 2, 4),
    context: str = "spawn",
    transports: "tuple[str, ...]" = ("shm", "pickle"),
) -> dict:
    """Worker-count sweep per transport + sharded campaigns.

    Returns a JSON-ready document::

        {"gpu", "quick", "cpu_count", "n_points",
         "backend_sweep": {transport: {workers: {"seconds",
                                                 "points_per_sec",
                                                 "speedup_vs_1"}}},
         "shm_vs_pickle": {workers: shm_points_per_sec /
                                    pickle_points_per_sec},
         "campaign": {"n_units", "n_measurements",
                      "sweep": {workers: {"seconds",
                                          "measurements_per_sec",
                                          "speedup_vs_1"}}}}

    Speedups are relative to ``workers=1`` of the same code path (the
    pool-free bypass for the backend, the sequential runner for the
    campaign), so they isolate the win from process-level parallelism;
    ``shm_vs_pickle`` compares the two transports at equal worker
    counts.  The campaign sweep shards whole (gpu, stencil) units, a
    code path where only profile rows cross the pipe, so it carries no
    transport axis.  Workers beyond ``cpu_count`` cannot help -- the
    host's CPU count is recorded so readers can judge the numbers.
    """
    from ..profiling.runner import CampaignRunner
    from .parallel import BackendSpec, ParallelBackend

    workload = make_workload(
        n_stencils=1 if quick else 3,
        settings_per_oc=4 if quick else 16,
    )
    reps = 1 if quick else 3
    doc: dict = {
        "gpu": gpu,
        "quick": bool(quick),
        "cpu_count": os.cpu_count() or 1,
        "n_points": len(workload),
        "backend_sweep": {},
    }

    # Untimed warm-up: the first measured configuration must not pay
    # process-wide one-time costs (imports, stencil interning) the later
    # ones inherit.  The lru caches in ``_clear_model_caches`` are still
    # reset before every rep, so reps stay cache-cold and comparable.
    make_backend("vector", gpu).evaluate_batch(workload)

    for transport in transports:
        sweep: dict = {}
        for workers in workers_sweep:
            backend = ParallelBackend(
                BackendSpec(kind="vector", gpu=gpu),
                workers=workers,
                context=context,
                transport=transport,
            )
            try:
                best = math.inf
                for _ in range(reps):
                    _clear_model_caches()
                    start = time.perf_counter()
                    results = backend.evaluate_batch(workload)
                    elapsed = time.perf_counter() - start
                    assert len(results) == len(workload)
                    best = min(best, elapsed)
            finally:
                backend.close()
            sweep[str(workers)] = {
                "seconds": best,
                "points_per_sec": len(workload) / best,
            }
        base = sweep[str(workers_sweep[0])]["seconds"]
        for row in sweep.values():
            row["speedup_vs_1"] = base / row["seconds"]
        doc["backend_sweep"][transport] = sweep
    if "shm" in doc["backend_sweep"] and "pickle" in doc["backend_sweep"]:
        doc["shm_vs_pickle"] = {
            w: (
                doc["backend_sweep"]["shm"][w]["points_per_sec"]
                / doc["backend_sweep"]["pickle"][w]["points_per_sec"]
            )
            for w in doc["backend_sweep"]["shm"]
        }

    stencils = generate_population(2, 2 if quick else 6, seed=7)
    sweep: dict = {}
    n_meas = 0
    for workers in workers_sweep:
        best = math.inf
        for _ in range(1 if quick else 2):
            runner = CampaignRunner(
                stencils,
                gpus=(gpu,),
                n_settings=2 if quick else 4,
                seed=7,
                backend="vector",
                workers=workers,
                mp_context=context,
            )
            _clear_model_caches()
            start = time.perf_counter()
            campaign = runner.run()
            elapsed = time.perf_counter() - start
            n_meas = len(campaign.measurements(gpu))
            best = min(best, elapsed)
        sweep[str(workers)] = {
            "seconds": best,
            "measurements_per_sec": n_meas / best,
        }
    base = sweep[str(workers_sweep[0])]["seconds"]
    for row in sweep.values():
        row["speedup_vs_1"] = base / row["seconds"]
    doc["campaign"] = {
        "n_units": len(stencils),
        "n_measurements": n_meas,
        "sweep": sweep,
    }
    return doc
