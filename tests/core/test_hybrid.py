"""The hybrid regressor: learned GBDT over ML + analytical features.

Uses a tiny dedicated campaign (restricted OC list, one setting) so the
per-row analytical extraction stays fast; the session-scoped ``mart``
fixture would cost thousands of static analyses.
"""

import numpy as np
import pytest

from repro.analysis.perfmodel import ANALYTICAL_FEATURE_NAMES
from repro.core.framework import REGRESSORS, StencilMART
from repro.optimizations import OC_BY_NAME
from repro.profiling import merge_ocs, run_campaign
from repro.profiling.train import predictor_inputs
from repro.stencil import get

GPUS = ("V100", "A100")


@pytest.fixture(scope="module")
def hybrid_mart():
    stencils = [get(n) for n in ("star2d1r", "box2d1r", "star2d2r")]
    mart = StencilMART(2, gpus=GPUS, n_settings=1, n_classes=3, seed=13)
    mart.campaign = run_campaign(
        stencils,
        gpus=GPUS,
        ocs=[OC_BY_NAME[n] for n in ("naive", "ST", "ST_RT", "CM")],
        n_settings=1,
        seed=13,
    )
    mart.grouping = merge_ocs(mart.campaign, n_classes=3)
    return mart


class TestHybridPredictor:
    def test_registered(self):
        assert "hybrid" in REGRESSORS

    def test_feature_width(self, hybrid_mart):
        ds = hybrid_mart.regression_dataset()
        [X] = predictor_inputs(ds, "hybrid", hybrid_mart.campaign)
        assert X.shape == (
            ds.n_samples,
            ds.features.shape[1] + len(ANALYTICAL_FEATURE_NAMES),
        )
        assert np.isfinite(X).all()

    def test_fit_and_predict(self, hybrid_mart):
        hybrid_mart.fit_predictor("hybrid", n_rounds=40)
        s = hybrid_mart.campaign.stencils[0]
        oc = OC_BY_NAME["ST"]
        setting = next(
            m.setting
            for m in hybrid_mart.campaign.measurements("V100")
            if m.stencil_id == 0 and m.oc == "ST"
        )
        t = hybrid_mart.predict_time(s, oc, setting, "V100", method="hybrid")
        assert 0 < t < 1e5

    def test_evaluate_is_finite(self, hybrid_mart):
        res = hybrid_mart.evaluate_predictor(
            "hybrid", "A100", n_folds=2, n_rounds=40
        )
        assert res.method == "hybrid"
        assert len(res.fold_mapes) == 2
        assert all(np.isfinite(m) and m >= 0 for m in res.fold_mapes)
