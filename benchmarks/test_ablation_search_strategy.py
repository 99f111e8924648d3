"""Ablation: parameter-search strategies at equal measurement budget.

The paper's profiling uses random search; the authors' csTuner [25] uses
a re-designed genetic algorithm.  The first bench compares those two at
comparable budgets through the unified ``tune()`` front door.  The
second measures the persistent memo's (``CachingBackend(root=)``)
cold-vs-warm replay over the vector backend, the substrate
``repro tune --cache-dir`` sits in front of, next to the bare vector
backend re-simulating every point.
"""

import shutil
import tempfile

import numpy as np

from repro.engine import CachingBackend, make_backend
from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.tuning import RandomStrategy, tune
from repro.stencil import generate_population

from conftest import best_of, print_table

#: Parameter-heavy OCs spanning the streaming / temporal / merging axes.
OCS = ("ST", "ST_RT", "ST_CM_RT_TB")
#: The budget of every replay-bench tuning call, in evaluations.
BUDGET = 32
SEED = 11


def test_ablation_search_strategy(scale, benchmark):
    stencils = generate_population(2, 8, seed=55)
    sim = GPUSimulator("V100")

    def ga(s, sid, oc):
        return tune(s, oc=oc, backend=sim, strategy="genetic", population=10,
                    generations=5, seed=0, stencil_id=sid)

    rows = []
    ratios = []
    for oc_name in OCS:
        oc = OC.parse(oc_name)
        r_times, g_times, evals = [], [], []
        for sid, s in enumerate(stencils):
            r = tune(s, oc=oc, backend=sim,
                     strategy=RandomStrategy(scale.n_settings), seed=0,
                     stencil_id=sid)
            g = ga(s, sid, oc)
            if not (r.ok and g.ok):
                continue
            r_times.append(r.best_time_ms)
            g_times.append(g.best_time_ms)
            evals.append(g.trials)
        ratio = float(np.mean([g / r for g, r in zip(g_times, r_times)]))
        ratios.append(ratio)
        rows.append([oc_name, float(np.mean(r_times)), float(np.mean(g_times)),
                     ratio, int(np.mean(evals))])
    print_table(
        "Ablation: search strategy (V100, 8 random 2-D stencils)",
        ["OC", "refined random (ms)", "genetic (ms)", "GA/random (x)",
         "GA evals"],
        rows,
    )

    # Both strategies land in the same ballpark; neither dominates by an
    # order of magnitude.
    assert all(0.5 < r < 2.0 for r in ratios)

    benchmark.pedantic(
        lambda: ga(stencils[0], 0, OC.parse("ST")), rounds=1, iterations=1
    )


def test_tuning_cache_replay_speedup(scale):
    """Cold-vs-warm wall time of tune() against a persistent cache.

    The substrate is the vector backend.  The cold sweep fills the
    cache through it; each warm sweep opens a fresh
    :class:`CachingBackend` on the same directory (a new process
    replaying settled results from disk) and must never touch the
    substrate.  The bare-vector row re-simulates every point with no
    cache, so the table shows what a warm replay saves.
    """
    stencils = generate_population(2, 2 if scale.name == "small" else 4, seed=77)
    root = tempfile.mkdtemp(prefix="tunecache-")
    base = make_backend("vector", "V100")
    caches = []

    def sweep(cached=True):
        backend = base
        if cached:
            backend = CachingBackend(base, root=root)
            caches.append(backend)
        for sid, stencil in enumerate(stencils):
            for name in OCS:
                tune(
                    stencil,
                    oc=OC.parse(name),
                    backend=backend,
                    strategy="random",
                    budget=BUDGET,
                    seed=SEED,
                    stencil_id=sid,
                )

    try:
        # The cold sweep runs once by construction (it fills the cache);
        # the warm replay is repeatable, so best-of-3 shields it from
        # scheduler noise.
        cold_s = best_of(1, sweep)
        warm_s = best_of(3, sweep)
        bare_s = best_of(3, lambda: sweep(cached=False))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    cold, *warm = caches

    print_table(
        f"Persistent memo over {base.info.name} ("
        f"{len(stencils) * len(OCS)} cells, budget {BUDGET})",
        ["phase", "wall (s)", "hits", "misses"],
        [
            ["cold", cold_s, cold.hits, cold.misses],
            ["warm", warm_s, warm[-1].hits, warm[-1].misses],
            ["bare vector", bare_s, "-", "-"],
        ],
    )

    # The warm replay never consults the substrate.
    assert cold.hits == 0
    for cache in warm:
        assert cache.misses == 0
        assert cache.hits == cold.misses
