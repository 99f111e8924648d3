"""Tests for regression trees and gradient boosting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, NotFittedError
from repro.ml import GBDTClassifier, GBRegressor, RegressionTree, accuracy, mape
from repro.ml import gbdt as gbdt_mod
from repro.ml.tree import presort


def _make_regression(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    y = 4 * X[:, 0] + np.sin(5 * X[:, 1]) + (X[:, 2] > 0.5) * 2.0 + 3.0
    return X, y


def _reference_nodes(tree, X, g, h):
    """Node table of the per-node, per-feature search (re-sorts each column).

    The presorted all-feature search in ``RegressionTree`` must grow
    exactly this tree: same features, thresholds and leaf values, bit for
    bit.
    """
    lam = tree.reg_lambda
    nodes = []

    def grow(idx, depth):
        node_id = len(nodes)
        g_sum, h_sum = float(g[idx].sum()), float(h[idx].sum())
        nodes.append([-1, 0.0, -1, -1, -g_sum / (h_sum + lam)])
        if depth >= tree.max_depth or idx.size < tree.min_samples_split:
            return node_id
        parent_score = g_sum * g_sum / (h_sum + lam)
        best_gain, best = tree.gamma, None
        for f in range(X.shape[1]):
            x = X[idx, f]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            gs, hs = np.cumsum(g[idx][order]), np.cumsum(h[idx][order])
            distinct = np.flatnonzero(xs[:-1] != xs[1:])
            if distinct.size == 0:
                continue
            gl, hl = gs[distinct], hs[distinct]
            gr, hr = g_sum - gl, h_sum - hl
            valid = (hl >= tree.min_child_weight) & (hr >= tree.min_child_weight)
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
            gain[~valid] = -np.inf
            k = int(np.argmax(gain))
            if gain[k] > best_gain:
                best_gain, cut = float(gain[k]), distinct[k]
                best = (f, float(0.5 * (xs[cut] + xs[cut + 1])))
        if best is None:
            return node_id
        f, threshold = best
        mask = X[idx, f] <= threshold
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        nodes[node_id][:4] = [f, threshold, left, right]
        return node_id

    grow(np.arange(X.shape[0]), 0)
    return nodes


def _assert_matches_reference(tree, X, g, h):
    """The fitted node table equals the reference's, bit for bit."""
    arrays = tree.to_arrays()
    ref = _reference_nodes(tree, X, g, h)
    for i, key in enumerate(("feature", "threshold", "left", "right", "value")):
        expected = np.array([node[i] for node in ref], dtype=arrays[key].dtype)
        assert arrays[key].tobytes() == expected.tobytes(), key


def _tie_heavy(n, seed, levels=(2, 3, 5, 8)):
    """Integer-coded columns with many ties, plus a copy of the first."""
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, k, size=n) for k in levels]
    X = np.column_stack(cols + cols[:1]).astype(np.float64)
    return X, rng.standard_normal(n), rng.uniform(0.2, 1.0, n)


class TestSplitSearch:
    """The presorted search against the per-feature reference, and the
    tie-break and stopping rules on hand-built cases."""

    @pytest.mark.parametrize(
        "params",
        [
            dict(max_depth=5),
            dict(max_depth=6, min_child_weight=4.0, reg_lambda=0.5),
            dict(max_depth=4, gamma=0.3, reg_lambda=2.0),
            dict(max_depth=7, min_child_weight=0.0, reg_lambda=0.0, min_samples_split=1),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_feature_reference(self, params, seed):
        X, g, h = _tie_heavy(160, seed)
        X = np.column_stack([X, np.random.default_rng(seed).random(160)])
        tree = RegressionTree(**params).fit(X, g, h)
        assert tree.n_nodes > 1
        _assert_matches_reference(tree, X, g, h)

    def test_subsampled_rows_in_any_order(self):
        # Boosting hands fit() X[rows] with rows from rng.choice: unordered,
        # so the root order table's ties fall in a shuffled row order.
        X, g, h = _tie_heavy(200, 5)
        rows = np.random.default_rng(5).choice(200, size=140, replace=False)
        assert not np.all(np.diff(rows) > 0)
        Xs, gs, hs = X[rows], g[rows], h[rows]
        tree = RegressionTree(max_depth=5).fit(Xs, gs, hs)
        _assert_matches_reference(tree, Xs, gs, hs)

    def test_identical_columns_lowest_feature_wins(self):
        X, g, h = _tie_heavy(120, 3, levels=(4,))
        X = np.column_stack([np.zeros(120), X])  # columns 1 and 2 identical
        tree = RegressionTree(max_depth=4).fit(X, g, h)
        split_on = tree.to_arrays()["feature"]
        assert tree.n_nodes > 1
        assert set(split_on[split_on >= 0].tolist()) == {1}

    def test_equal_gain_cuts_leftmost_wins(self):
        # Symmetric gradients: the cuts after the first and the third row
        # have bitwise-equal gain; the middle cut scores lower.
        X = np.arange(4.0)[:, None]
        g = np.array([-3.0, 1.0, 1.0, -3.0])
        tree = RegressionTree(max_depth=1, reg_lambda=0.0).fit(X, g, np.ones(4))
        assert tree.to_arrays()["threshold"][0] == 0.5

    def test_constant_child_becomes_leaf(self):
        # After the root split each side is constant in every column.
        X = np.array([[0.0, 5.0], [0.0, 5.0], [1.0, 7.0], [1.0, 7.0]])
        g = np.array([-1.0, -2.0, 2.0, 3.0])
        tree = RegressionTree(max_depth=4, min_child_weight=0.0).fit(X, g, np.ones(4))
        arrays = tree.to_arrays()
        assert tree.n_nodes == 3
        assert arrays["feature"].tolist() == [0, -1, -1]

    def test_gamma_blocks_split(self):
        # The only cut has gain exactly 0.5 * (1/1 + 1/1 - 0) = 1.0; a split
        # needs gain strictly above gamma.
        X = np.array([[0.0], [1.0]])
        g = np.array([-1.0, 1.0])
        kw = dict(reg_lambda=0.0, min_child_weight=0.0)
        assert RegressionTree(gamma=1.0, **kw).fit(X, g, np.ones(2)).n_nodes == 1
        assert RegressionTree(gamma=0.999, **kw).fit(X, g, np.ones(2)).n_nodes == 3

    def test_min_child_weight_moves_cut_inward(self):
        # Unconstrained, the best cut isolates the first row; with
        # min_child_weight=2 only the middle cut leaves both sides heavy.
        X = np.arange(4.0)[:, None]
        g = np.array([-3.0, 1.0, 0.0, 2.0])
        kw = dict(max_depth=1, reg_lambda=0.0, min_child_weight=1.0)
        assert RegressionTree(**kw).fit(X, g, np.ones(4)).to_arrays()["threshold"][0] == 0.5
        kw["min_child_weight"] = 2.0
        assert RegressionTree(**kw).fit(X, g, np.ones(4)).to_arrays()["threshold"][0] == 1.5

    def test_constant_columns_are_not_searched(self):
        X, g, h = _tie_heavy(150, 4)
        X = np.column_stack([np.full(150, 2.0), X, np.zeros(150)])
        assert presort(X).columns.tolist() == [1, 2, 3, 4]
        tree = RegressionTree(max_depth=5).fit(X, g, h)
        assert tree.n_nodes > 1
        _assert_matches_reference(tree, X, g, h)

    def test_all_constant_x_is_one_leaf(self):
        X = np.column_stack([np.full(30, 1.0), np.full(30, -4.0)])
        g, h = np.linspace(-1.0, 2.0, 30), np.ones(30)
        assert presort(X).columns.size == 0
        tree = RegressionTree(max_depth=4).fit(X, g, h)
        assert tree.n_nodes == 1 and tree._width == 0
        _assert_matches_reference(tree, X, g, h)
        assert tree.predict(np.empty((3, 0))).shape == (3,)

    @pytest.mark.parametrize("twin_first", [True, False])
    def test_duplicate_column_before_and_after_its_twin(self, twin_first):
        X, g, h = _tie_heavy(180, 6, levels=(3, 5, 4))  # column 3 copies 0
        col = X[:, 1]
        if twin_first:
            X, kept, dropped = np.column_stack([col, X]), 0, 2
        else:
            X, kept, dropped = np.column_stack([X, col]), 1, 4
        columns = presort(X).columns.tolist()
        assert kept in columns and dropped not in columns
        tree = RegressionTree(max_depth=5).fit(X, g, h)
        _assert_matches_reference(tree, X, g, h)
        assert dropped not in tree.to_arrays()["feature"]

    def test_decreasing_function_of_a_column_is_searched(self):
        # Palindromic value counts: the reversed column has the same tie
        # pattern but reversed order, so it is a different column.
        rng = np.random.default_rng(7)
        x = rng.permutation(np.repeat([0.0, 1.0, 2.0, 3.0], [30, 50, 50, 30]))
        X = np.column_stack([x, 10.0 - 2.0 * x, rng.integers(0, 6, 160)])
        g, h = rng.standard_normal(160), rng.uniform(0.2, 1.0, 160)
        assert presort(X).columns.tolist() == [0, 1, 2]
        tree = RegressionTree(max_depth=6, min_child_weight=0.0).fit(X, g, h)
        _assert_matches_reference(tree, X, g, h)

    def test_coarser_column_with_the_same_order_is_searched(self):
        # Equal stable orders, different ties: a different column.
        rng = np.random.default_rng(10)
        x = np.arange(120.0)
        X = np.column_stack([x, x // 8, rng.integers(0, 3, 120)])
        g, h = rng.standard_normal(120), rng.uniform(0.2, 1.0, 120)
        assert presort(X).columns.tolist() == [0, 1, 2]
        tree = RegressionTree(max_depth=5, min_child_weight=4.0).fit(X, g, h)
        _assert_matches_reference(tree, X, g, h)

    def test_duplicates_under_unordered_subsampled_rows(self):
        X, g, h = _tie_heavy(220, 8)  # column 4 duplicates column 0
        X = np.column_stack([X, X[:, 2]])
        rows = np.random.default_rng(8).choice(220, size=150, replace=False)
        Xs, gs, hs = X[rows], g[rows], h[rows]
        assert presort(Xs).columns.tolist() == [0, 1, 2, 3]
        tree = RegressionTree(max_depth=5).fit(Xs, gs, hs)
        _assert_matches_reference(tree, Xs, gs, hs)

    @pytest.mark.parametrize("params", [dict(max_depth=5), dict(max_depth=4, min_child_weight=3.0)])
    def test_unit_hessians_match_explicit_ones(self, params):
        X, g, _ = _tie_heavy(200, 9)
        unit = RegressionTree(**params)._fit_sorted(presort(X), g, None)
        ones = RegressionTree(**params).fit(X, g, np.ones(200))
        assert unit.n_nodes > 1
        for key, value in ones.to_arrays().items():
            assert unit.to_arrays()[key].tobytes() == value.tobytes(), key

    @pytest.mark.parametrize("estimator, subsample, sorts", [
        pytest.param(GBRegressor, 1.0, 1, id="1.0-1"),
        pytest.param(GBRegressor, 0.7, 6, id="0.7-6"),
        pytest.param(GBDTClassifier, 1.0, 1, id="classifier-1.0-1"),
        pytest.param(GBDTClassifier, 0.7, 6, id="classifier-0.7-6"),
    ])
    def test_regressor_presorts_once_per_fit(self, monkeypatch, estimator,
                                             subsample, sorts):
        # The classifier's K class trees of a round share its row sample,
        # so it presorts no more often than the regressor.
        calls = []

        def counting(X):
            calls.append(X.shape)
            return presort(X)

        monkeypatch.setattr(gbdt_mod, "presort", counting)
        X, y = _make_regression(120)
        if estimator is GBDTClassifier:
            y = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
        model = estimator(n_rounds=6, subsample=subsample).fit(X, y)
        assert len(calls) == sorts
        if estimator is GBDTClassifier:
            assert model.n_classes_ == 3

    def test_first_maximum_skips_nan_features(self):
        # A zero hessian with lambda 0: column 0's first cut scores 0/0, a
        # NaN best gain that never splits.  Column 1 wins, although column 0
        # also has a finite cut of the same gain.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
        g = np.array([0.0, -5.0, 1.0, 1.0])
        h = np.array([0.0, 1.0, 1.0, 1.0])
        kw = dict(max_depth=1, reg_lambda=0.0, min_child_weight=0.0)
        with np.errstate(invalid="ignore"):
            tree = RegressionTree(**kw).fit(X, g, h)
            _assert_matches_reference(tree, X, g, h)
        assert tree.to_arrays()["feature"][0] == 1

    def test_predict_rejects_narrow_x(self):
        X, g, h = _tie_heavy(80, 0)
        tree = RegressionTree(max_depth=3).fit(X, g, h)
        width = int(tree.to_arrays()["feature"].max()) + 1
        with pytest.raises(ModelError, match="splits on feature"):
            tree.predict(X[:, : width - 1])
        with pytest.raises(ModelError):
            tree.predict(X[0])
        assert tree.predict(X[:, :width]).shape == (80,)


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        # Newton step on squared loss: grad = pred0 - y with pred0 = 0.
        tree = RegressionTree(max_depth=2, reg_lambda=0.0).fit(X, -y, np.ones(100))
        pred = tree.predict(X)
        assert np.allclose(pred, y, atol=1e-9)

    def test_depth_limit(self):
        X, y = _make_regression()
        tree = RegressionTree(max_depth=2).fit(X, -y, np.ones(len(y)))
        assert tree.depth <= 2

    def test_single_leaf_when_no_split(self):
        X = np.ones((10, 3))  # constant features: nothing to split on
        tree = RegressionTree().fit(X, -np.arange(10.0), np.ones(10))
        assert tree.n_nodes == 1

    def test_leaf_value_is_regularized_mean(self):
        X = np.ones((4, 1))
        g = np.array([-1.0, -1.0, -1.0, -1.0])
        tree = RegressionTree(reg_lambda=0.0).fit(X, g, np.ones(4))
        assert tree.predict(X)[0] == pytest.approx(1.0)

    def test_min_child_weight_blocks_split(self):
        X = np.array([[0.0], [1.0]])
        tree = RegressionTree(min_child_weight=2.0).fit(
            X, np.array([-1.0, 1.0]), np.ones(2)
        )
        assert tree.n_nodes == 1

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.ones((1, 1)))

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            RegressionTree().fit(np.ones((3, 2)), np.ones(4), np.ones(4))


class TestGBRegressor:
    def test_beats_mean_baseline(self):
        X, y = _make_regression(400)
        model = GBRegressor(n_rounds=60, learning_rate=0.2, seed=0).fit(
            X[:300], y[:300]
        )
        pred = model.predict(X[300:])
        mean_err = np.abs(y[300:] - y[:300].mean()).mean()
        model_err = np.abs(y[300:] - pred).mean()
        assert model_err < 0.3 * mean_err

    def test_more_rounds_lower_train_error(self):
        X, y = _make_regression(200)
        few = GBRegressor(n_rounds=5, learning_rate=0.1, seed=0).fit(X, y)
        many = GBRegressor(n_rounds=80, learning_rate=0.1, seed=0).fit(X, y)
        assert mape(y, many.predict(X)) < mape(y, few.predict(X))

    def test_staged_matches_final(self):
        X, y = _make_regression(100)
        m = GBRegressor(n_rounds=10, seed=0).fit(X, y)
        staged = m.staged_predict(X)
        assert len(staged) == 10
        assert np.allclose(staged[-1], m.predict(X))

    def test_deterministic(self):
        X, y = _make_regression(150)
        a = GBRegressor(n_rounds=20, subsample=0.7, seed=3).fit(X, y).predict(X)
        b = GBRegressor(n_rounds=20, subsample=0.7, seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ModelError):
            GBRegressor(subsample=0.0)
        with pytest.raises(ModelError):
            GBRegressor(n_rounds=0)
        with pytest.raises(ModelError):
            GBRegressor().fit(np.ones((3, 2)), np.ones(4))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            GBRegressor().predict(np.ones((1, 2)))

    def test_zero_rows_rejected(self):
        with pytest.raises(ModelError, match="zero rows"):
            GBRegressor().fit(np.ones((0, 3)), np.ones(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        X, y = _make_regression(20)
        y[7] = bad
        with pytest.raises(ModelError, match="NaN or infinite"):
            GBRegressor(n_rounds=2).fit(X, y)

    def test_predict_rejects_narrow_x(self):
        X, y = _make_regression(120)
        model = GBRegressor(n_rounds=5, seed=0).fit(X, y)
        with pytest.raises(ModelError, match="splits on feature"):
            model.predict(X[:, :1])
        with pytest.raises(ModelError, match="splits on feature"):
            model.staged_predict(X[:, :1])


class TestGBDTClassifier:
    def _make_classification(self, n=400, seed=1):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 5))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(int) + 2 * (X[:, 2] > 0.6).astype(int)
        return X, y

    def test_learns_separable_classes(self):
        X, y = self._make_classification()
        m = GBDTClassifier(n_rounds=40, learning_rate=0.3, seed=0).fit(X[:300], y[:300])
        assert accuracy(y[300:], m.predict(X[300:])) > 0.85

    def test_proba_rows_sum_to_one(self):
        X, y = self._make_classification(100)
        m = GBDTClassifier(n_rounds=10, seed=0).fit(X, y)
        p = m.predict_proba(X)
        assert p.shape == (100, 4)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_predict_matches_argmax_proba(self):
        X, y = self._make_classification(100)
        m = GBDTClassifier(n_rounds=10, seed=0).fit(X, y)
        assert np.array_equal(m.predict(X), m.predict_proba(X).argmax(axis=1))

    def test_binary_case(self):
        rng = np.random.default_rng(2)
        X = rng.random((200, 3))
        y = (X[:, 0] > 0.5).astype(int)
        m = GBDTClassifier(n_rounds=20, learning_rate=0.3, seed=0).fit(X, y)
        assert accuracy(y, m.predict(X)) > 0.95

    def test_rejects_negative_labels(self):
        with pytest.raises(ModelError):
            GBDTClassifier().fit(np.ones((2, 2)), np.array([-1, 0]))

    def test_zero_rows_rejected(self):
        with pytest.raises(ModelError, match="zero rows"):
            GBDTClassifier().fit(np.ones((0, 2)), np.array([], dtype=int))

    def test_predict_rejects_narrow_x(self):
        X, y = self._make_classification(120)
        model = GBDTClassifier(n_rounds=3, seed=0).fit(X, y)
        with pytest.raises(ModelError, match="splits on feature"):
            model.predict(X[:, :1])

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            GBDTClassifier().predict(np.ones((1, 2)))

    def test_single_class_fit(self):
        X = np.ones((20, 3))
        y = np.zeros(20, dtype=int)
        model = GBDTClassifier(n_rounds=2).fit(X, y)
        assert model.n_classes_ == 1
        assert [len(r) for r in model.trees_] == [1, 1]
        assert np.array_equal(model.predict(X), y)
        assert np.array_equal(model.predict_proba(X), np.ones((20, 1)))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_proba_valid_distribution(self, seed):
        X, y = self._make_classification(80, seed)
        m = GBDTClassifier(n_rounds=5, seed=0).fit(X, y)
        p = m.predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()
