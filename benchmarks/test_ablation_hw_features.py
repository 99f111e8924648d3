"""Ablation: GPU hardware features in the cross-architecture regressor.

Section IV-E attaches memory capacity/bandwidth, SM count and peak FLOPS
to every regression input.  Training one pooled model over all four GPUs
with and without those four features quantifies their contribution: without
them the model cannot tell architectures apart and its pooled error should
degrade markedly.
"""

import numpy as np

from repro.ml import GBRegressor, LogTimeTransform, mape
from repro.profiling import kfold_indices
from repro.profiling.dataset import N_HW_FEATURES
from repro.profiling.train import subsample_rows

from conftest import print_table


def test_ablation_hw_features(mart_2d, scale, benchmark):
    ds = mart_2d.regression_dataset()  # all four GPUs pooled
    idx = subsample_rows(ds.n_samples, 6000, mart_2d.seed)
    X_full = ds.features[idx]
    X_nohw = X_full[:, :-N_HW_FEATURES]
    y = ds.times_ms[idx]

    def cv(X):
        errs = []
        for tr, te in kfold_indices(X.shape[0], scale.n_folds, 0):
            m = GBRegressor(
                n_rounds=scale.gbdt_rounds, learning_rate=0.15, max_depth=6, seed=0
            ).fit(X[tr], LogTimeTransform.forward(y[tr]))
            errs.append(mape(y[te], LogTimeTransform.inverse(m.predict(X[te]))))
        return float(np.mean(errs))

    with_hw = cv(X_full)
    without_hw = cv(X_nohw)
    print_table(
        "Ablation: hardware features in the pooled cross-GPU regressor",
        ["variant", "MAPE %"],
        [["with hw features", with_hw], ["without hw features", without_hw]],
    )
    assert with_hw < without_hw, "hardware features must carry signal"

    benchmark.pedantic(
        lambda: GBRegressor(n_rounds=10, seed=0).fit(
            X_full[:1000], LogTimeTransform.forward(y[:1000])
        ),
        rounds=1,
        iterations=1,
    )
