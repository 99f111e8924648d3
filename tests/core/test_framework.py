"""Tests for the StencilMART facade."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.core import StencilMART
from repro.optimizations import OC, ParamSetting
from repro.profiling.train import subsample_rows
from repro.stencil import get, star


class TestDataset:
    def test_requires_build(self):
        fresh = StencilMART(ndim=2)
        with pytest.raises(NotFittedError):
            fresh.classification_dataset("V100")

    def test_build_populates(self, mart):
        assert mart.campaign is not None
        assert mart.grouping.n_classes == 5

    def test_classification_dataset_shape(self, mart):
        ds = mart.classification_dataset("V100")
        assert ds.n_samples == 24
        assert ds.tensors.shape[1:] == (9, 9)

    def test_regression_dataset_filters_gpu(self, mart):
        one = mart.regression_dataset(("V100",))
        assert set(one.gpus) == {"V100"}

    def test_accepts_explicit_stencils(self):
        m = StencilMART(ndim=2, gpus=("V100",), n_settings=3, seed=1)
        m.build_dataset(stencils=[star(2, 1), star(2, 2), star(2, 3)])
        assert len(m.campaign.stencils) == 3


class TestSelector:
    def test_fit_and_predict(self, mart):
        mart.fit_selector("gbdt", "V100")
        oc = mart.predict_best_oc(get("star2d2r"), "V100")
        assert isinstance(oc, OC)
        assert oc.name in mart.grouping.representatives

    def test_predict_before_fit(self, mart):
        with pytest.raises(NotFittedError):
            mart.predict_best_oc(get("star2d1r"), "V100", method="fcnet")

    def test_unknown_method(self, mart):
        with pytest.raises(ModelError):
            mart.fit_selector("svm", "V100")

    def test_evaluate_selector_returns_folds(self, mart):
        r = mart.evaluate_selector("gbdt", "V100", n_folds=3)
        assert len(r.fold_accuracies) == 3
        assert 0.0 <= r.accuracy <= 1.0

    def test_convnet_path(self, mart):
        mart.fit_selector("convnet", "A100", epochs=3)
        oc = mart.predict_best_oc(get("box2d1r"), "A100", method="convnet")
        assert oc.name in mart.grouping.representatives


class TestTune:
    def test_tune_returns_valid_config(self, mart):
        mart.fit_selector("gbdt", "V100")
        oc, setting, t = mart.tune(get("star2d3r"), "V100")
        assert isinstance(setting, ParamSetting)
        assert t > 0

    def test_tuned_time_reasonable_vs_oracle(self, mart):
        from repro.baselines import OracleBaseline

        mart.fit_selector("gbdt", "V100")
        s = get("box2d2r")
        _, _, t = mart.tune(s, "V100")
        _, _, oracle_t = OracleBaseline("V100", 4, 9).tune(s)
        assert t >= oracle_t * 0.99  # oracle is a lower bound (same budget)
        assert t <= oracle_t * 10.0  # but prediction keeps us in range


class TestPredictor:
    def test_fit_and_predict_time(self, mart):
        mart.fit_predictor("gbr", max_rows=1500, n_rounds=30)
        t = mart.predict_time(
            get("star2d1r"), "ST", ParamSetting(stream_dim=2, use_smem=1), "V100",
            method="gbr",
        )
        assert t > 0

    def test_unknown_regressor(self, mart):
        with pytest.raises(ModelError):
            mart.fit_predictor("rf")

    def test_predict_before_fit(self, mart):
        with pytest.raises(NotFittedError):
            mart.predict_time(
                get("star2d1r"), "naive", ParamSetting(), "V100", method="convmlp"
            )

    def test_evaluate_predictor_mape(self, mart):
        r = mart.evaluate_predictor(
            "gbr", "V100", n_folds=3, max_rows=1200, n_rounds=30
        )
        assert len(r.fold_mapes) == 3
        assert r.mape < 80.0  # sane, scale-limited bound

    def test_row_subset_deterministic(self, mart):
        a = subsample_rows(1000, 100, mart.seed)
        b = subsample_rows(1000, 100, mart.seed)
        assert np.array_equal(a, b)
        assert len(a) == 100
