"""Ablation: coordinate-descent refinement in the random search.

DESIGN.md documents refinement as the reproduction's answer to
best-of-N variance: without it, per-OC optima depend on sampling luck and
best-OC labels stop being functions of the stencil.  This bench quantifies
both effects: found-time quality and label stability across search seeds.
"""

import numpy as np

from repro.gpu import GPUSimulator
from repro.optimizations import ALL_OCS
from repro.stencil import generate_population
from repro.tuning import RandomStrategy, tune, tune_lockstep

from conftest import print_table


def _best_oc(sim, n_settings, seed, refine, stencil, sid):
    best = None
    results = tune_lockstep(
        stencil,
        [(oc, RandomStrategy(n_settings, refine=refine)) for oc in ALL_OCS],
        backend=sim, seed=seed, stencil_id=sid,
    )
    for oc, r in zip(ALL_OCS, results):
        if r.ok and (best is None or r.best_time_ms < best[0]):
            best = (r.best_time_ms, oc.name)
    return best


def test_ablation_refinement(scale, benchmark):
    stencils = generate_population(2, 12, seed=42)
    sim = GPUSimulator("V100")
    quality = {True: [], False: []}
    stability = {True: [], False: []}
    for refine in (True, False):
        labels_by_seed = []
        for seed in (0, 1):
            labels = []
            for sid, s in enumerate(stencils):
                t, name = _best_oc(sim, scale.n_settings, seed, refine, s, sid)
                labels.append(name)
                if seed == 0:
                    quality[refine].append(t)
            labels_by_seed.append(labels)
        agree = np.mean(
            [a == b for a, b in zip(labels_by_seed[0], labels_by_seed[1])]
        )
        stability[refine] = float(agree)

    ratio = [a / b for a, b in zip(quality[False], quality[True])]
    print_table(
        "Ablation: search refinement (V100, 12 random 2-D stencils)",
        ["variant", "label agreement across seeds", "best-time vs refined (x)"],
        [
            ["refined (default)", stability[True], 1.0],
            ["pure random", stability[False], float(np.mean(ratio))],
        ],
    )

    # Refinement must find times at least as good and stabilize labels.
    assert np.mean(ratio) >= 0.999
    assert stability[True] >= stability[False]

    benchmark.pedantic(
        lambda: tune(
            stencils[0], oc=ALL_OCS[1], backend=sim,
            strategy=RandomStrategy(scale.n_settings), seed=0, stencil_id=0,
        ),
        rounds=1, iterations=1,
    )
