"""Shared machinery for the Fig. 10/11 speedup benches.

The evaluation protocol: hold out the tail of the random population, train
the selector on the rest, then tune each held-out stencil three ways --
StencilMART (predicted OC only), the baseline, and the all-OC oracle (every
OC tuned, settings sampled within each) -- with the same per-OC random budget.
"""

from __future__ import annotations

import numpy as np

from repro.core import StencilMART
from repro.ml import ConvNetClassifier, GBDTClassifier
from repro.optimizations import OC_BY_NAME
from repro.gpu import GPUSimulator
from repro.tuning import RandomStrategy, tune

#: Held-out stencils per dimensionality (kept small: each costs several
#: tuner invocations per GPU).
HOLDOUT = {2: 10, 3: 6}


def predicted_oc_times(
    mart: StencilMART, gpu: str, method: str, epochs: int
) -> "tuple[list, list[float]]":
    """Train on the head split, tune held-out stencils with predicted OCs."""
    n_hold = HOLDOUT[mart.ndim]
    ds = mart.classification_dataset(gpu)
    train = np.arange(ds.n_samples - n_hold)
    hold = np.arange(ds.n_samples - n_hold, ds.n_samples)

    if method == "gbdt":
        model = GBDTClassifier(
            n_rounds=60, learning_rate=0.15, max_depth=3, subsample=0.8, seed=mart.seed
        )
        model.fit(ds.features[train], ds.labels[train])
        classes = model.predict(ds.features[hold])
    else:
        model = ConvNetClassifier(
            n_classes=mart.n_classes, epochs=epochs, seed=mart.seed
        )
        model.fit(ds.tensors[train], ds.labels[train])
        classes = model.predict(ds.tensors[hold])

    sim = GPUSimulator(gpu, sigma=mart.sigma)

    def tune_oc(stencil, oc):
        return tune(
            stencil, oc=oc, backend=sim,
            strategy=RandomStrategy(mart.n_settings), seed=mart.seed,
        )

    stencils = [mart.campaign.stencils[i] for i in hold]
    times: list[float] = []
    for s, cls in zip(stencils, classes):
        oc = OC_BY_NAME[mart.grouping.representatives[int(cls)]]
        result = tune_oc(s, oc)
        if not result.ok:
            # Fall back through class representatives until one runs.
            for rep in mart.grouping.representatives:
                result = tune_oc(s, OC_BY_NAME[rep])
                if result.ok:
                    break
        times.append(result.best_time_ms)
    return stencils, times


def geomean(ratios: "list[float]") -> float:
    return float(np.exp(np.mean(np.log(ratios))))
