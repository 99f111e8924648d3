"""Fold-parallel cross-validation.

Parallelism must be invisible in the results: CV folds fit
independently seeded models, so any worker count produces identical
fold scores, returned in fold order.
"""

import numpy as np
import pytest

from repro.ml.gbdt import GBRegressor
from repro.profiling.crossval import cross_validate, kfold_indices


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(150, 10))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] + X[:, 2] > 0.5).astype(int)
    return X, y


def _sum_fold(data, train, test):
    return float(data[train].sum() - data[test].sum())


def _seeded_model_fold(data, train, test):
    X, y = data
    model = GBRegressor(n_rounds=5, seed=3).fit(X[train], y[train])
    return float(np.abs(model.predict(X[test]) - y[test]).mean())


class TestCrossValidate:
    def test_sequential_path_matches_plain_loop(self):
        data = np.arange(40, dtype=float)
        folds = list(kfold_indices(40, 4, seed=9))
        expected = [_sum_fold(data, tr, te) for tr, te in folds]
        assert cross_validate(_sum_fold, data, folds) == expected

    def test_parallel_folds_identical_and_ordered(self, dataset):
        X, y = dataset
        data = (X, y.astype(float))
        folds = list(kfold_indices(X.shape[0], 3, seed=9))
        seq = cross_validate(_seeded_model_fold, data, folds, workers=1)
        par = cross_validate(
            _seeded_model_fold, data, folds, workers=2, context="fork"
        )
        assert par == seq  # same values, same fold order
