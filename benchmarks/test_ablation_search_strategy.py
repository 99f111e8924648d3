"""Ablation: parameter-search strategies at equal measurement budget.

The paper's profiling uses random search; the authors' csTuner [25] uses
a re-designed genetic algorithm.  The first bench compares those two at
comparable budgets through the legacy interfaces.  The second runs the
whole ``repro.tuning`` strategy zoo through the unified ``tune()`` front
door at an equal fidelity-weighted budget and asserts that informed
strategies beat the random baseline on best-time-found.  The third
measures the persistent tuning cache's cold-vs-warm replay speedup over
the parallel dispatch substrate.
"""

import math
import multiprocessing
import shutil
import tempfile

import numpy as np

from repro.engine import make_backend
from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.profiling import RandomSearch
from repro.tuning import GeneticSearch, TuningCache, available_strategies, tune
from repro.stencil import generate_population

from conftest import best_of, print_table

#: Parameter-heavy OCs spanning the streaming / temporal / merging axes.
OCS = ("ST", "ST_RT", "ST_CM_RT_TB")
#: The budget every strategy gets, in full-fidelity evaluations.
BUDGET = 32
SEED = 11


def test_ablation_search_strategy(scale, benchmark):
    stencils = generate_population(2, 8, seed=55)
    sim = GPUSimulator("V100")
    random_search = RandomSearch(sim, scale.n_settings, seed=0)
    ga = GeneticSearch(sim, population=10, generations=5, seed=0)

    rows = []
    ratios = []
    for oc_name in OCS:
        oc = OC.parse(oc_name)
        r_times, g_times, evals = [], [], []
        for sid, s in enumerate(stencils):
            r, _ = random_search.tune_oc(s, sid, oc)
            g = ga.tune_oc(s, oc)
            if r is None or g is None:
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
        lambda: ga.tune_oc(stencils[0], OC.parse("ST")), rounds=1, iterations=1
    )


def run_zoo(quick: bool):
    """Tune random 2-D stencils x ``OCS`` x GPUs with every registered
    strategy at equal budget through one cached vector backend per GPU.

    Returns ``(rows, n_cells)``; a row holds a strategy's geometric-mean
    best-time ratio against random search (< 1: it finds faster
    configurations at equal spend), the cells it solved and its mean
    trials per cell.
    """
    gpus = ("V100",) if quick else ("V100", "A100", "2080Ti")
    stencils = generate_population(2, 3 if quick else 6, seed=55)
    cells = [
        (gpu, sid, stencil, OC.parse(name))
        for gpu in gpus
        for sid, stencil in enumerate(stencils)
        for name in OCS
    ]
    backends = {gpu: make_backend("cached", gpu) for gpu in gpus}
    times, rows = {}, {}
    for strategy in available_strategies():
        per_cell = {}
        trials = 0
        for gpu, sid, stencil, oc in cells:
            result = tune(
                stencil,
                oc=oc,
                backend=backends[gpu],
                strategy=strategy,
                budget=BUDGET,
                seed=SEED,
                stencil_id=sid,
            )
            trials += result.trials
            if result.ok:
                per_cell[gpu, sid, oc.name] = result.best_time_ms
        times[strategy] = per_cell
        rows[strategy] = {
            "cells_solved": len(per_cell),
            "mean_trials": trials / len(cells),
        }
    base = times["random"]
    for strategy, per_cell in times.items():
        logs = [math.log(t / base[k]) for k, t in per_cell.items() if k in base]
        rows[strategy]["geomean_vs_random"] = (
            math.exp(sum(logs) / len(logs)) if logs else float("nan")
        )
    return rows, len(cells)


def test_strategy_zoo_equal_budget(scale, benchmark):
    rows, n_cells = run_zoo(quick=scale.name == "small")

    print_table(
        f"Strategy zoo at equal budget ({BUDGET} evals, {n_cells} cells)",
        ["strategy", "geomean vs random", "trials"],
        [
            [name, row["geomean_vs_random"], row["mean_trials"]]
            for name, row in sorted(
                rows.items(), key=lambda kv: kv[1]["geomean_vs_random"]
            )
        ],
    )

    # Every strategy solves every cell and respects the budget (halving
    # spends its allowance on cheap low-fidelity trials, so its trial
    # count is the one allowed above the budget).
    for name, row in rows.items():
        assert row["cells_solved"] == n_cells, name
        if name != "halving":
            assert row["mean_trials"] <= BUDGET + 4, name

    # The point of the zoo: informed search beats random sampling at
    # equal spend.  At least three of the new strategies must win.
    winners = [
        name
        for name, row in rows.items()
        if name != "random" and row["geomean_vs_random"] < 1.0
    ]
    assert len(winners) >= 3, winners

    benchmark.pedantic(lambda: run_zoo(quick=True), rounds=1, iterations=1)


def test_tuning_cache_replay_speedup(scale):
    """Cold-vs-warm wall time of tune() against a persistent cache.

    The substrate is the parallel dispatch backend -- the deployment the
    cache exists for, where every measurement pays worker-pool dispatch.
    The cold sweep fills the cache through it; each warm sweep opens a
    fresh :class:`TuningCache` on the same directory (a new process
    replaying settled results from disk) and must never touch the pool.
    """
    stencils = generate_population(2, 2 if scale.name == "small" else 4, seed=77)
    root = tempfile.mkdtemp(prefix="tunecache-")
    context = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    base = make_backend("parallel", "V100", workers=4, context=context)
    caches = []

    def sweep():
        cache = TuningCache(base, root)
        caches.append(cache)
        for sid, stencil in enumerate(stencils):
            for name in OCS:
                tune(
                    stencil,
                    oc=OC.parse(name),
                    backend=cache,
                    strategy="random",
                    budget=BUDGET,
                    seed=SEED,
                    stencil_id=sid,
                )

    try:
        # The cold sweep runs once by construction (it fills the cache);
        # the warm replay is repeatable, so best-of-3 shields the
        # speedup ratio from scheduler noise.
        cold_s = best_of(1, sweep)
        warm_s = best_of(3, sweep)
    finally:
        base.close()
        shutil.rmtree(root, ignore_errors=True)
    cold, *warm = caches

    print_table(
        f"Persistent tuning cache ({base.info.name}, "
        f"{len(stencils) * len(OCS)} cells, budget {BUDGET})",
        ["phase", "wall (s)", "hits", "misses"],
        [
            ["cold", cold_s, cold.hits, cold.misses],
            ["warm", warm_s, warm[-1].hits, warm[-1].misses],
        ],
    )

    # The warm replay never consults the substrate...
    assert cold.hits == 0
    for cache in warm:
        assert cache.misses == 0
        assert cache.hits == cold.misses
    # ...and repeated tune() against the warm cache is >= 5x faster.
    assert cold_s / warm_s >= 5.0, (cold_s, warm_s)
