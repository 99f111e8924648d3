"""Parallel GBDT boosting and fold-parallel cross-validation.

Both parallelizations must be invisible in the results: per-class tree
fits within a boosting round depend only on round-start probabilities,
and CV folds fit independently seeded models, so any worker count
produces bit-identical models and identical fold scores.
"""

import numpy as np
import pytest

from repro.ml import gbdt
from repro.ml.gbdt import GBDTClassifier, GBRegressor
from repro.ml.tree import RegressionTree
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


class TestParallelGBDT:
    def test_parallel_fit_is_bit_identical(self, dataset):
        X, y = dataset
        seq = GBDTClassifier(n_rounds=12, subsample=0.8, seed=5).fit(X, y)
        par = GBDTClassifier(
            n_rounds=12, subsample=0.8, seed=5, workers=2,
            pool_context="fork",
        ).fit(X, y)
        assert np.array_equal(
            seq.decision_function(X), par.decision_function(X)
        )
        assert np.array_equal(seq.predict(X), par.predict(X))
        assert len(par.trees_) == 12
        assert all(len(round_) == seq.n_classes_ for round_ in par.trees_)

    def test_worker_presorts_once_per_round(self, dataset, monkeypatch):
        # A worker runs class tasks back to back; those of one round
        # share its rows, so only a new row sample is presorted.  Each
        # tree equals a fit on freshly presorted rows.
        X, y = dataset
        presorts = []
        real = gbdt.presort
        monkeypatch.setattr(gbdt, "presort", lambda A: presorts.append(1) or real(A))
        for name in ("_FIT_X", "_FIT_TREE_PARAMS", "_FIT_SORTED"):
            monkeypatch.setattr(gbdt, name, None)  # restored afterwards
        params = GBDTClassifier(max_depth=3)._tree_params()
        gbdt._init_fit_worker(X, params)
        rng = np.random.default_rng(3)
        rounds = [np.sort(rng.choice(150, 120, replace=False)) for _ in range(3)]
        for r, rows in enumerate(rounds):
            for k in range(3):
                g = rng.normal(size=rows.size)
                h = rng.uniform(0.1, 1.0, size=rows.size)
                tree = gbdt._fit_class_tree((rows, g, h))
                ref = RegressionTree(**params).fit(X[rows], g, h)
                assert np.array_equal(tree.predict(X), ref.predict(X))
            assert len(presorts) == r + 1
        gbdt._init_fit_worker(X[::-1].copy(), params)
        gbdt._fit_class_tree((rounds[-1], g, h))
        assert len(presorts) == 4  # a new matrix drops the memo

    def test_single_class_falls_back_to_sequential(self):
        X = np.ones((20, 3))
        y = np.zeros(20, dtype=int)
        model = GBDTClassifier(n_rounds=2, workers=4,
                               pool_context="fork").fit(X, y)
        assert model.n_classes_ == 1

    def test_regressor_accepts_and_ignores_workers(self, dataset):
        X, y = dataset
        seq = GBRegressor(n_rounds=5, seed=1).fit(X, y.astype(float))
        par = GBRegressor(n_rounds=5, seed=1, workers=4).fit(
            X, y.astype(float)
        )
        assert np.array_equal(seq.predict(X), par.predict(X))


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
