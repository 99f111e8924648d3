"""Fig. 13: MLP sensitivity to hidden-layer count and layer size.

Paper: sweeping 4-10 layers and sizes 2^4-2^10, test error decreases with
depth and width, with diminishing returns beyond seven layers (the default
adopted by StencilMART).  We sweep a scaled-down grid of the same axes.
"""

import numpy as np

from repro.ml import MLPRegressor, mape
from repro.profiling import kfold_indices
from repro.profiling.train import subsample_rows

from conftest import print_table

LAYERS = (4, 7, 10)
SIZES = (16, 64, 256)


def test_fig13_mlp_design(mart_2d, mart_3d, scale, benchmark):
    rows = []
    grid = {}
    for ndim, mart in ((2, mart_2d), (3, mart_3d)):
        ds = mart.regression_dataset(("V100",))
        idx = subsample_rows(ds.n_samples, 4000, mart.seed)
        X, y = ds.features[idx], ds.times_ms[idx]
        train, test = next(kfold_indices(len(idx), 4, seed=1))
        for n_layers in LAYERS:
            for size in SIZES:
                model = MLPRegressor(
                    n_layers=n_layers, layer_size=size,
                    epochs=scale.nn_epochs, batch_size=64, lr=2e-3, seed=0,
                )
                model.fit(X[train], y[train])
                err = mape(y[test], model.predict(X[test]))
                grid[(ndim, n_layers, size)] = err
        rows += [
            [f"{ndim}D", n, *(grid[(ndim, n, s)] for s in SIZES)] for n in LAYERS
        ]
    print_table(
        "Fig. 13: MLP test error (MAPE %) vs layers x layer size (V100)",
        ["dims", "layers"] + [f"size {s}" for s in SIZES],
        rows,
    )

    for ndim in (2, 3):
        errs = {k: v for k, v in grid.items() if k[0] == ndim}
        # Capacity helps: the best configuration is not the smallest one.
        best = min(errs, key=errs.get)
        assert best[1:] != (LAYERS[0], SIZES[0])
        # Wider layers help at fixed depth 7 (paper's adopted default).
        assert errs[(ndim, 7, 256)] < errs[(ndim, 7, 16)]

    benchmark.pedantic(
        lambda: MLPRegressor(n_layers=4, layer_size=16, epochs=2, seed=0).fit(
            np.random.default_rng(0).random((256, 8)), np.ones(256) + 1.0
        ),
        rounds=1,
        iterations=1,
    )
